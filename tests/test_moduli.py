"""Tests for the moduli equations and boundary combinatorics.

The reference generator lists (five cubics and one quartic for n=6,
fifteen cubics and six quartics for n=7) are frozen here verbatim; the
construction must reproduce them exactly, in order, up to the canonical
normalization (content-free, positive lex-leading coefficient).
"""

import hashlib
import os
import random
import tracemalloc
from itertools import product
from math import comb, lcm, prod
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m0nbar.arith import rat
from m0nbar.cli import main
from m0nbar.ideal import (
    Ideal,
    contains,
    equal_ideals,
    graded_piece_dim,
    hilbert_degree,
    initial_ideal,
    min_gens_by_total_degree,
    saturate_by_block,
)
from m0nbar.moduli import (
    BoundaryDivisor,
    PointConfig,
    boundary_graph,
    cubic_generators,
    double_factorial,
    embedding_coordinates,
    enumerate_trivalent_trees,
    format_generator_file,
    generator_count_identity,
    minor_ideal,
    minor_matrices,
    quartic_equation,
    quartic_equations,
    quartic_membership_witness,
    quartic_raw_form,
    quartic_tuples,
    saturation_pipeline,
    segre_quadrics_n5,
    stable_tree_count,
    vanishing_test,
)
from m0nbar.moduli import (
    _block_var,
    _coordinate_columns,
    _draw,
    _horner,
    _run,
)
from m0nbar.poly import (
    Polynomial,
    grevlex_order,
    lex_order,
    moduli_ring,
    monomials_of_multidegree,
    parse_polynomial,
)

CUBIC_N5 = ["a0*b0*b1 - a1*b0*b1 + a1*b0*b2 - a0*b1*b2"]

CUBICS_N6 = [
    "b1*c1*c2 - b2*c1*c2 + b2*c1*c3 - b1*c2*c3",
    "b0*c0*c2 - b2*c0*c2 + b2*c0*c3 - b0*c2*c3",
    "b0*c0*c1 - b1*c0*c1 + b1*c0*c3 - b0*c1*c3",
    "a0*c0*c1 - a1*c0*c1 + a1*c0*c2 - a0*c1*c2",
    "a0*b0*b1 - a1*b0*b1 + a1*b0*b2 - a0*b1*b2",
]

QUARTIC_N6 = ("a0*b0*c1*c2 - a0*b2*c1*c2 - a0*b0*c1*c3 + a1*b0*c1*c3"
              " + a0*b2*c1*c3 - a1*b0*c2*c3")

CUBICS_N7 = [
    "c2*d2*d3 - c3*d2*d3 + c3*d2*d4 - c2*d3*d4",
    "c1*d1*d3 - c3*d1*d3 + c3*d1*d4 - c1*d3*d4",
    "c0*d0*d3 - c3*d0*d3 + c3*d0*d4 - c0*d3*d4",
    "c1*d1*d2 - c2*d1*d2 + c2*d1*d4 - c1*d2*d4",
    "b1*d1*d2 - b2*d1*d2 + b2*d1*d3 - b1*d2*d3",
    "c0*d0*d2 - c2*d0*d2 + c2*d0*d4 - c0*d2*d4",
    "b0*d0*d2 - b2*d0*d2 + b2*d0*d3 - b0*d2*d3",
    "c0*d0*d1 - c1*d0*d1 + c1*d0*d4 - c0*d1*d4",
    "b0*d0*d1 - b1*d0*d1 + b1*d0*d3 - b0*d1*d3",
    "a0*d0*d1 - a1*d0*d1 + a1*d0*d2 - a0*d1*d2",
    "b1*c1*c2 - b2*c1*c2 + b2*c1*c3 - b1*c2*c3",
    "b0*c0*c2 - b2*c0*c2 + b2*c0*c3 - b0*c2*c3",
    "b0*c0*c1 - b1*c0*c1 + b1*c0*c3 - b0*c1*c3",
    "a0*c0*c1 - a1*c0*c1 + a1*c0*c2 - a0*c1*c2",
    "a0*b0*b1 - a1*b0*b1 + a1*b0*b2 - a0*b1*b2",
]

QUARTICS_N7 = [
    "b1*c1*d2*d3 - b1*c3*d2*d3 - b1*c1*d2*d4 + b2*c1*d2*d4"
    " + b1*c3*d2*d4 - b2*c1*d3*d4",
    "b0*c0*d2*d3 - b0*c3*d2*d3 - b0*c0*d2*d4 + b2*c0*d2*d4"
    " + b0*c3*d2*d4 - b2*c0*d3*d4",
    "b0*c0*d1*d3 - b0*c3*d1*d3 - b0*c0*d1*d4 + b1*c0*d1*d4"
    " + b0*c3*d1*d4 - b1*c0*d3*d4",
    "a0*c0*d1*d2 - a0*c2*d1*d2 - a0*c0*d1*d4 + a1*c0*d1*d4"
    " + a0*c2*d1*d4 - a1*c0*d2*d4",
    "a0*b0*d1*d2 - a0*b2*d1*d2 - a0*b0*d1*d3 + a1*b0*d1*d3"
    " + a0*b2*d1*d3 - a1*b0*d2*d3",
    "a0*b0*c1*c2 - a0*b2*c1*c2 - a0*b0*c1*c3 + a1*b0*c1*c3"
    " + a0*b2*c1*c3 - a1*b0*c2*c3",
]


def expected(n, strings):
    ring = moduli_ring(n)
    return [parse_polynomial(ring, s) for s in strings]


def test_minor_matrix_count():
    for n in range(5, 10):
        assert len(minor_matrices(n)) == comb(n - 3, 2)
    # four points give a single projective line: no block pairs, and no
    # multigraded ring either
    with pytest.raises(ValueError):
        moduli_ring(4)
    with pytest.raises(ValueError):
        minor_matrices(4)


def test_block_var_stays_inside_its_block():
    ring = moduli_ring(6)
    block_b = [str(_block_var(ring, 2, j)) for j in range(3)]
    assert block_b == ["b0", "b1", "b2"]
    for block, j in ((1, 2), (2, 3), (3, 4), (2, -1)):
        with pytest.raises(IndexError, match=f"block {block} has no coord"):
            _block_var(ring, block, j)


def test_cubics_match_reference_lists():
    assert cubic_generators(5) == expected(5, CUBIC_N5)
    assert cubic_generators(6) == expected(6, CUBICS_N6)
    assert cubic_generators(7) == expected(7, CUBICS_N7)


def test_quartics_match_reference_lists():
    assert quartic_equations(6) == expected(6, [QUARTIC_N6])
    assert quartic_equations(7) == expected(7, QUARTICS_N7)


def test_generator_counts():
    for n in range(5, 10):
        assert len(cubic_generators(n)) == comb(n - 1, 4)
        assert len(quartic_equations(n)) == comb(n - 1, 5)
        assert len(quartic_tuples(n)) == comb(n - 1, 5)


def test_quartic_tuples_order():
    # by m, then l, k, j, i: the order the quartic family is built in
    assert quartic_tuples(7) == [(0, 1, 1, 2, 3), (0, 1, 1, 2, 4),
                                 (0, 1, 1, 3, 4), (0, 1, 2, 3, 4),
                                 (0, 2, 2, 3, 4), (1, 2, 2, 3, 4)]
    # n = 8 extends that list by the tuples with m = 5
    assert quartic_tuples(8)[:7] == quartic_tuples(7) + [(0, 1, 1, 2, 5)]


@pytest.mark.parametrize("tup", [
    (0, 0, 0, 1, 2),   # i = j, and block 0 does not exist
    (0, 1, 2, 3, 9),   # m beyond the last block
    (0, 1, 2, 3, 5),   # m = n - 2
    (1, 1, 1, 2, 3),   # i = j
    (0, 2, 1, 2, 3),   # j > k
    (0, 1, 2, 2, 3),   # k = l
    (0, 1, 1, 3, 3),   # l = m
    (-1, 1, 1, 2, 3),  # i < 0
])
def test_quartic_rejects_a_bad_tuple(tup):
    for build in (quartic_equation, quartic_raw_form):
        with pytest.raises(ValueError, match="quartic index tuple"):
            build(7, tup)


def test_generators_are_multihomogeneous():
    for n in (5, 6, 7):
        for g in cubic_generators(n):
            assert g.is_multihomogeneous()
            deg = g.multidegree()
            # degree (0,..,1,..,2,..,0): linear in one block, quadratic
            # in a later one
            assert sum(deg) == 3
            assert set(deg) <= {0, 1, 2}
        for g in quartic_equations(n):
            assert g.is_multihomogeneous()
            assert sum(g.multidegree()) == 4


def test_lex_leading_monomials_distinct():
    for n in range(5, 10):
        ring = moduli_ring(n)
        lex = lex_order(ring)
        for gens in (cubic_generators(n), quartic_equations(n)):
            leads = [g.leading_monomial(lex) for g in gens]
            assert len(set(leads)) == len(leads)


def test_generator_count_identity():
    for n in range(5, 31):
        for d in range(3, n - 1):
            lhs, rhs = generator_count_identity(n, d)
            assert lhs == rhs


# -- the embedding and vanishing -------------------------------------------


def test_embedding_coordinates_vanish_on_example():
    config = PointConfig((0, 1, 2, 3, 4))
    coords = embedding_coordinates(config)
    # first block: (p1-p2)/(p4-p2), (p1-p3)/(p4-p3)
    assert coords[0] == rat(-1, 2)
    assert coords[1] == rat(-2)
    cubic = cubic_generators(5)[0]
    assert cubic.evaluate(coords) == 0


def test_point_config_validation():
    with pytest.raises(ValueError):
        PointConfig((0, 1, 2, 3, 3))
    with pytest.raises(ValueError):
        PointConfig((0, 1, 2))


def test_embedding_coordinates_four_points():
    # the smallest configuration: one block of two cross-ratios
    coords = embedding_coordinates(PointConfig((0, 1, 2, 3)))
    assert coords == [rat(-1, 2), rat(-2)]


def test_embedding_is_affine_invariant():
    base = PointConfig((-3, 1, 4, 9, 17, 20))
    for s, t in ((rat(5), rat(7)), (rat(-3, 2), rat(1, 3))):
        moved = PointConfig(tuple(s * p + t for p in base.points))
        assert embedding_coordinates(base) == embedding_coordinates(moved)


def test_vanishing_small():
    # n = 9 (70 cubics, 56 quartics) is past what the verify command takes
    for n in (5, 6, 7, 8, 9):
        report = vanishing_test(n, trials=5, seed=11)
        assert report.ok
        assert report.equations == comb(n - 1, 4) + comb(n - 1, 5)
        assert report.checks == 5 * report.equations


def test_vanishing_needs_a_trial():
    for trials in (0, -3):
        with pytest.raises(ValueError):
            vanishing_test(5, trials=trials)


def test_vanishing_rejects_more_points_than_the_range_holds(monkeypatch):
    # 41 integers in [-20, 20]; the check comes before any equation is built
    import m0nbar.moduli as moduli

    def no_equations(n):
        raise AssertionError("built equations for an impossible n")

    monkeypatch.setattr(moduli, "cubic_generators", no_equations)
    with pytest.raises(ValueError, match="41"):
        vanishing_test(42, trials=1)


def test_vanishing_is_deterministic():
    a = vanishing_test(5, trials=3, seed=42)
    b = vanishing_test(5, trials=3, seed=42)
    assert (a.n, a.trials, a.failures) == (b.n, b.trials, b.failures)
    report = vanishing_test(5, trials=2, seed=0)
    assert report.failures == []


def test_vanishing_reports_a_polynomial_that_does_not_vanish(monkeypatch):
    # the n=6 quartic plus a monomial of its multidegree (1, 1, 2)
    import m0nbar.moduli as moduli

    ring = moduli_ring(6)
    extra = parse_polynomial(ring, "1/3*a0*b1*c0*c2")
    mutant = quartic_equations(6)[0] + extra
    monkeypatch.setattr(moduli, "quartic_equations", lambda n: [mutant])
    report = vanishing_test(6, trials=3, seed=5)
    assert not report.ok
    assert [f[0] for f in report.failures] == [0, 1, 2]
    for trial, points, index, value in report.failures:
        assert index == len(cubic_generators(6))
        assert isinstance(points, tuple) and isinstance(value, str)
        coords = embedding_coordinates(PointConfig(points))
        assert value == str(mutant.evaluate(coords))


def test_vanishing_rejects_a_non_multihomogeneous_equation(monkeypatch):
    import m0nbar.moduli as moduli

    ring = moduli_ring(6)
    mixed = quartic_equations(6)[0] + parse_polynomial(ring, "a0*b0*c0")
    monkeypatch.setattr(moduli, "quartic_equations", lambda n: [mixed])
    with pytest.raises(ValueError, match="multihomogeneous"):
        vanishing_test(6, trials=1)


def fisher_yates(rand, n):
    # the reference draw: n distinct points of [-20, 20], each one a pick
    # by one float from the points still in the pool, whose last entry
    # then fills the gap
    pool, points = list(range(-20, 21)), []
    for _ in range(n):
        j = int(rand() * len(pool))
        points.append(pool[j])
        pool[j] = pool[-1]
        pool.pop()
    return tuple(points)


@pytest.mark.parametrize("mutants", [["a0 + a1"], ["a0 + a1", "b0 + b1"]])
def test_vanishing_failures_match_a_per_trial_oracle(monkeypatch, mutants):
    # 1100 trials span three batches.  a0 + a1 vanishes in two trials of
    # the 1100; with b0 + b1 beside it most trials fail twice, so the
    # order within a trial (by equation index) is checked too.
    import m0nbar.moduli as moduli

    ring = moduli_ring(5)
    extra = [parse_polynomial(ring, m) for m in mutants]
    monkeypatch.setattr(moduli, "quartic_equations", lambda n: extra)
    trials = 1100
    assert trials > 2 * moduli._BATCH
    report = vanishing_test(5, trials=trials, seed=0)
    eqs = cubic_generators(5) + extra
    random_float = random.Random(0).random
    expected = []
    for trial in range(trials):
        points = fisher_yates(random_float, 5)
        coords = embedding_coordinates(PointConfig(points))
        for index, eq in enumerate(eqs):
            value = eq.evaluate(coords)
            if value:
                expected.append((trial, points, index, str(value)))
    assert report.failures == expected
    failed = {f[0] for f in expected}
    if len(mutants) == 1:
        assert 0 < len(failed) < trials
    else:
        assert len(expected) > len(failed)


def test_draw_takes_distinct_points_of_the_range_in_every_order():
    for n in (4, 7, 41):
        draws = [_draw(random.Random(seed).random, n) for seed in range(3000)]
        assert draws[:50] == [_draw(random.Random(seed).random, n)
                              for seed in range(50)]
        for points in draws:
            assert len(points) == n == len(set(points))
            assert set(points) <= set(range(-20, 21))
        for position in zip(*draws):
            assert set(position) == set(range(-20, 21))


def test_vanishing_draws_its_points_one_batch_at_a_time(monkeypatch):
    # each batch is evaluated before the next one is drawn, so memory
    # stays flat in the number of trials
    import m0nbar.moduli as moduli

    draws = []
    draw = moduli._draw

    def counted_draw(*args):
        draws.append(None)
        return draw(*args)

    columns = moduli._coordinate_columns
    evaluated = []

    def recorded_columns(batch):
        evaluated.append((len(draws), len(batch)))
        return columns(batch)

    monkeypatch.setattr(moduli, "_draw", counted_draw)
    monkeypatch.setattr(moduli, "_coordinate_columns", recorded_columns)
    size = moduli._BATCH
    trials = 2 * size + 76
    assert vanishing_test(5, trials=trials, seed=0).ok
    assert evaluated == [(size, size), (2 * size, size), (trials, 76)]


@st.composite
def multihomogeneous_at_points(draw):
    """One to four multihomogeneous polynomials with Rational
    coefficients over moduli_ring(5) or moduli_ring(6), each of its own
    multidegree (all zero gives a constant), the last one possibly a
    multiple of the first; and a batch of one to four configurations of
    distinct integer points."""
    n = draw(st.sampled_from([5, 6]))
    ring = moduli_ring(n)
    coeffs = st.builds(rat, st.integers(-9, 9).filter(bool),
                       st.integers(1, 12))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        degree = tuple(draw(st.integers(0, 2)) for _ in ring.block_sizes)
        monos = draw(st.lists(
            st.sampled_from(monomials_of_multidegree(ring, degree)),
            min_size=1, max_size=5, unique=True))
        polys.append(Polynomial(ring, {m: draw(coeffs) for m in monos}))
    if len(polys) > 1 and draw(st.booleans()):
        polys[-1] = polys[0] * draw(coeffs)
    batch = draw(st.lists(
        st.lists(st.integers(-40, 40), min_size=n, max_size=n,
                 unique=True).map(tuple),
        min_size=1, max_size=4))
    return polys, batch


@given(multihomogeneous_at_points())
@settings(max_examples=150)
def test_integer_evaluation_is_scaled_exact_evaluation(case):
    # each entry of a program output is its polynomial's exact value at
    # its own configuration times scale * prod_i L_i^(d_i), a positive
    # constant: scale the lcm of the coefficient denominators, L_i the lcm
    # of block i's cross-ratio denominators p_{i+3} - p_{j+2}
    polys, batch = case
    outputs = _run(_horner(polys), _coordinate_columns(batch))
    assert len(outputs) == len(polys)
    for p, values in zip(polys, outputs):
        scale = lcm(*(c.den for c in p.terms.values()))
        assert len(values) == len(batch)
        for value, points in zip(values, batch):
            exact = p.evaluate(embedding_coordinates(PointConfig(points)))
            blocks = [lcm(*(points[i + 2] - q for q in points[1:i + 2]))
                      for i in range(1, len(points) - 2)]
            factor = scale * prod(L ** d for L, d
                                  in zip(blocks, p.multidegree()))
            assert factor > 0
            assert value == exact * factor


# (steps, outputs) of the program for the cubics and quartics, pinned:
# a change to the sharing re-pins them
HORNER_PROGRAM = {5: (8, 1), 6: (46, 6), 7: (154, 21), 8: (395, 56),
                  9: (860, 126)}


@pytest.mark.parametrize("n, term_by_term",
                         [(5, 11), (6, 71), (7, 260), (8, 716), (9, 1651)])
def test_horner_program_shares_its_steps(n, term_by_term):
    # term_by_term: the column operations of evaluating each term from
    # shared prefix products and summing the terms one at a time.  Every
    # coefficient is 1 or -1, so no step is a scalar multiply.
    eqs = cubic_generators(n) + quartic_equations(n)
    steps, outputs = _horner(eqs)
    assert (len(steps), len(outputs)) == HORNER_PROGRAM[n]
    assert len(outputs) == len(eqs)
    assert len(steps) < term_by_term
    assert len(set(steps)) == len(steps)
    assert {op for op, _, _ in steps} <= {add, sub, mul}


# the most step columns _run holds at once for the same programs, pinned
HORNER_LIVE_WIDTH = {5: 3, 6: 10, 7: 31, 8: 76, 9: 159}


def live_width(program):
    # step k's column is live from step k through the last step that reads
    # it, an output's through the end: the most columns live at one step
    steps, outputs = program
    end = {}
    for k, (_, a, b) in enumerate(steps):
        end.update((c, k) for c in (a, b) if isinstance(c, int))
    end.update((c, len(steps)) for c in outputs)
    return max(sum(c <= k <= end[c] for c in range(len(steps)))
               for k in range(len(steps)))


def run_keeping_every_column(program, products):
    # the reference: every column is kept until the batch ends
    steps, outputs = program
    cols = dict(products)
    for k, (op, a, b) in enumerate(steps):
        cols[k] = (list(map(op.__mul__, cols[a])) if b is None
                   else list(map(op, cols[a], cols[b])))
    return [cols[k] for k in outputs]


@pytest.mark.parametrize("n", sorted(HORNER_LIVE_WIDTH))
def test_run_drops_each_column_after_its_last_read(n):
    program = _horner(cubic_generators(n) + quartic_equations(n))
    assert live_width(program) == HORNER_LIVE_WIDTH[n]
    rand = random.Random(n).random
    products = _coordinate_columns([_draw(rand, n) for _ in range(64)])
    peaks = []
    for run in (run_keeping_every_column, _run):
        tracemalloc.start()
        try:
            outputs = run(program, products)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert outputs == run_keeping_every_column(program, products)
    # from n = 6 on the live width is at most 22% of the steps
    if n >= 6:
        assert peaks[1] < peaks[0] / 2


# -- quartic membership witness ---------------------------------------------


def test_quartic_witness_n6():
    J = minor_ideal(6)
    (tup,) = quartic_tuples(6)
    witness = quartic_membership_witness(J, tup)
    assert witness == quartic_raw_form(6, tup) - quartic_equation(6, tup)
    assert contains(J, witness)


def test_quartic_witness_all_n7():
    J = minor_ideal(7)
    for tup in quartic_tuples(7):
        quartic_membership_witness(J, tup)


def test_quartic_witness_fails_outside_the_cubic_ideal():
    (tup,) = quartic_tuples(6)
    with pytest.raises(AssertionError, match="does not reduce to zero"):
        quartic_membership_witness(Ideal(moduli_ring(6), []), tup)


def test_quartic_not_in_cubic_ideal_n6():
    J = minor_ideal(6)
    f6 = parse_polynomial(moduli_ring(6), QUARTIC_N6)
    assert not contains(J, f6)


def test_graded_pieces_monotone_and_agree_on_slices():
    J = minor_ideal(6)
    I = Ideal(J.ring, list(J.gens) + quartic_equations(6))
    # J is a subideal of I, so every graded piece can only grow
    bound = 6
    for d1 in range(bound + 1):
        for d2 in range(bound + 1 - d1):
            for d3 in range(bound + 1 - d1 - d2):
                d = (d1, d2, d3)
                assert graded_piece_dim(J, d) <= graded_piece_dim(I, d)
    # on the symmetric slices the quartic adds nothing new
    assert graded_piece_dim(J, (2, 2, 2)) == graded_piece_dim(I, (2, 2, 2))
    assert graded_piece_dim(J, (3, 3, 3)) == graded_piece_dim(I, (3, 3, 3))


def cubic_quartic_ideal(n):
    return Ideal(moduli_ring(n), cubic_generators(n) + quartic_equations(n))


def cubic_route(n, progress=None):
    """The oracle for saturation_pipeline: the same saturate_by_block
    loop over every block, started from the cubics alone, so that the
    saturation has to find the quartics itself."""
    I = minor_ideal(n)
    for block in range(I.ring.nblocks):
        I = saturate_by_block(I, block, progress)
    return I


def multidegrees(I):
    """{d: the degree of I's variety against prod_i H_i^(d_i)}, H_i the
    hyperplane class of block i: the part of degree codim of K(1 - s), K
    the K-polynomial of I's grevlex initial ideal, whose term c * s^b
    gives d_i = n_i - 1 - b_i (Miller-Sturmfels, ch. 8).  Its parts of
    lower degree must vanish."""
    sizes = I.ring.block_sizes
    codim, _ = hilbert_degree(I)
    terms = {a: c for a, c in initial_ideal(I)._numerator.items() if c}
    # t_i = 1 - s_i, one block at a time; no term above codim is needed
    for i in range(len(sizes)):
        out = {}
        for a, c in terms.items():
            for b in range(min(a[i], codim - sum(a[:i])) + 1):
                key = a[:i] + (b,) + a[i + 1:]
                out[key] = out.get(key, 0) + (-1) ** b * comb(a[i], b) * c
        terms = out
    assert not any(c for b, c in terms.items() if sum(b) < codim)
    return {tuple(n - 1 - e for n, e in zip(sizes, b)): c
            for b, c in terms.items() if c}


def check_multidegrees(n, degs, below):
    """The geometry of M_{0,n} in P^1 x ... x P^(n-3), given its
    multidegrees degs and those of M_{0,n-1} (below, or None)."""
    k = n - 3
    # positive exactly where d_1 + ... + d_j <= j for every j: that is
    # Catalan(n - 3) entries, which sum to the degree (2n - 7)!!
    support = {d for d in product(range(k + 1), repeat=k) if sum(d) == k
               and all(sum(d[:j]) <= j for j in range(1, k + 1))}
    assert set(degs) == support
    assert len(support) == comb(2 * k, k) // (k + 1)
    assert all(c > 0 for c in degs.values())
    assert sum(degs.values()) == stable_tree_count(n)
    # Kapranov: the last block maps M_{0,n} birationally onto P^(n-3)
    assert degs[(0,) * (k - 1) + (k,)] == 1
    # forgetting the last point: pi_* psi_n = kappa_0 = n - 3
    if below is not None:
        for d, c in degs.items():
            if d[-1] == 1:
                assert c == k * below.get(d[:-1], 0), d


MULTIDEGREES = {
    5: {(1, 1): 2, (0, 2): 1},
    6: {(1, 1, 1): 6, (1, 0, 2): 2, (0, 2, 1): 3, (0, 1, 2): 3, (0, 0, 3): 1},
}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_multidegrees_certify_the_embedding(n):
    degs = multidegrees(saturation_pipeline(n))
    assert multidegrees(cubic_quartic_ideal(n)) == degs
    if n in MULTIDEGREES:
        assert degs == MULTIDEGREES[n]
    check_multidegrees(n, degs, multidegrees(cubic_quartic_ideal(n - 1))
                       if n > 5 else None)


# sha256 of repr(sorted nonzero (multidegree, c) items) of the
# K-polynomial of the saturated ideal; K does not depend on the order
K_POLYNOMIAL_SHA256 = {
    5: "4092672609cb228dafd3763ebb2ed4a3596971e97b27130b2386cab4e8ab1de9",
    6: "d7071809488d067e00b13d8969e510a0c33bdfebf657187ee881b3c80dc5fb5a",
    7: "5989b984642d4c08a771fbdd6d9051dc50d4a27d0328c5d7e18dd0e221f47cc4",
}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_k_polynomial_is_pinned(n):
    I = saturation_pipeline(n)
    for order in (grevlex_order(I.ring), lex_order(I.ring)):
        terms = sorted((a, c) for a, c in
                       initial_ideal(I, order)._numerator.items() if c)
        digest = hashlib.sha256(repr(terms).encode()).hexdigest()
        assert digest == K_POLYNOMIAL_SHA256[n], order


@pytest.mark.parametrize("n", [5, 6, 7])
def test_saturation_pipeline_matches_the_cubic_route(n):
    # saturating the cubics recovers the quartics and nothing more, so
    # both starting ideals give the same reduced grevlex basis
    assert saturation_pipeline(n).groebner_basis() == (
        cubic_route(n).groebner_basis())


def test_invariants_n7_real_size():
    # Macaulay matrices up to 264 x 720, in (1, 2, 1, 2); the minimal
    # generator counts, in the generators' multidegrees, need at most 30 x 180
    I = cubic_quartic_ideal(7)
    assert min_gens_by_total_degree(I) == {3: 15, 4: 6}
    assert hilbert_degree(I) == (6, 105)
    for D in ((1, 2, 1, 2), (1, 2, 2, 1)):
        assert graded_piece_dim(I, D, "rank") == graded_piece_dim(I, D, "standard")


def test_invariants_n8_match_predictions():
    I = cubic_quartic_ideal(8)
    assert min_gens_by_total_degree(I) == {3: comb(7, 4), 4: comb(7, 5)}
    assert hilbert_degree(I) == (10, stable_tree_count(8))
    below = multidegrees(cubic_quartic_ideal(7))
    check_multidegrees(8, multidegrees(I), below)
    # six of the 21 quartics, the most of any multidegree: 76 x 420 rows
    D = (0, 0, 1, 1, 2)
    assert graded_piece_dim(I, D, "rank") == graded_piece_dim(I, D, "standard")


# sha256 of the full stdout of saturate 8 (lex basis and invariants)
SATURATE_8_SHA256 = (
    "8767445be03af42671d8839bf64a6cc21e40412f42fdf5d77295cdba112fabe4")


@pytest.mark.skipif(os.environ.get("M0NBAR_SLOW") != "1",
                    reason="the n = 8 saturation takes minutes; set M0NBAR_SLOW=1")
def test_saturation_pipeline_n8_matches_predictions(capsys):
    # the paper's pattern: binomial(n - 1, d + 1) minimal generators of
    # each degree d, codimension (n - 3)(n - 4)/2, degree (2n - 7)!!
    I = saturation_pipeline(8)
    # sha256 of the 171 printed elements of the reduced grevlex basis, one
    # per line, as the route of per-variable saturations and their
    # intersections of the cubic ideal computed it; the cubic route and
    # the pipeline must both reproduce it.  The pipeline settles every
    # block by its bare last variable; the cubic route's blocks a and b
    # fail that certificate and take the sheared fallback: 9 runs and
    # about 113 s on one core, against 8 runs and 107 s if every block
    # were sheared from its first attempt
    for ideal in (cubic_route(8), I):
        text = "\n".join(str(g) for g in ideal.groebner_basis())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "157bd8a33969db3fead1d76b39a5f86bf10ca5c13eddd21026fabb86310aff1e")
    assert min_gens_by_total_degree(I) == {d: comb(7, d + 1)
                                           for d in range(3, 7)}
    assert hilbert_degree(I) == (10, stable_tree_count(8))
    degs = multidegrees(I)
    assert multidegrees(cubic_quartic_ideal(8)) == degs
    check_multidegrees(8, degs, multidegrees(cubic_quartic_ideal(7)))
    assert main(["saturate", "8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SATURATE_8_SHA256


@pytest.mark.skipif(os.environ.get("M0NBAR_N9") != "1",
                    reason="the n = 9 saturation takes ~10 minutes; "
                    "set M0NBAR_N9=1")
def test_saturation_pipeline_n9_matches_predictions(monkeypatch):
    # one step past the paper, which proves generation for n <= 8 only:
    # the same pattern of minimal generators, codimension and degree,
    # and the multidegree certificate against the n = 8 cubics and
    # quartics.  Unlike n <= 8, blocks a and b fail the bare-variable
    # certificate and are settled by the sheared attempt j = 1.
    import m0nbar.ideal as ideal_module

    sheared = set()
    shear = ideal_module._shear

    def recorded_shear(p, idx, lin):
        # attempt j shears by y -+ (j * x_(idx-1) + j^2 * x_(idx-2) + ...)
        below = tuple(int(v == idx - 1) for v in range(p.ring.nvars))
        sheared.add((p.ring.names[idx], abs(lin.terms[below])))
        return shear(p, idx, lin)

    monkeypatch.setattr(ideal_module, "_shear", recorded_shear)
    I = saturation_pipeline(9)
    assert min_gens_by_total_degree(I) == {d: comb(8, d + 1)
                                           for d in range(3, 8)}
    assert hilbert_degree(I) == (15, stable_tree_count(9)) == (15, 10395)
    check_multidegrees(9, multidegrees(I),
                       multidegrees(cubic_quartic_ideal(8)))
    # sha256 of the reduced grevlex basis, one element per line
    basis = I.groebner_basis()
    assert len(basis) == 936
    text = "\n".join(str(g) for g in basis)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d30d6c9ef46d7d725b7bbc21113f327b1bb70a93681b880c04a603f1dba160d7")
    assert sheared == {("a1", 1), ("b2", 1)}


# -- Segre re-embedding -------------------------------------------------------


def test_segre_quadrics_n5():
    K = segre_quadrics_n5()
    assert len(K.gens) == 5
    for g in K.gens:
        assert g.multidegree() == (2,)
    # the construction already checked this equality; repeat it here on
    # an ideal built independently of the construction
    from m0nbar.moduli import SEGRE_QUADRICS_N5
    ring = K.ring
    reference = Ideal(ring, [parse_polynomial(ring, s)
                             for s in SEGRE_QUADRICS_N5])
    assert equal_ideals(K, reference)
    # the quotient is the cone over a degree-five surface in P^5
    assert hilbert_degree(K) == (3, 5)


def test_segre_quadrics_n5_pullbacks():
    # a0 * cubic and a1 * cubic pulled back through the first preimage of
    # each monomial (in monomials_of_multidegree order) lead the generators
    assert [str(g) for g in segre_quadrics_n5().gens[:2]] == [
        "t0*t1 - t0*t4 + t0*t5 - t1*t2",
        "t0*t4 - t1*t5 - t3*t4 + t3*t5",
    ]


# -- trees and boundary -------------------------------------------------------


def test_double_factorial():
    assert [double_factorial(k) for k in (1, 3, 5, 7, 9)] == [1, 3, 15, 105, 945]


def test_tree_counts_against_enumeration():
    assert stable_tree_count(5) == 3
    assert stable_tree_count(6) == 15
    assert stable_tree_count(7) == 105
    assert stable_tree_count(8) == 945
    # enumeration is what stable_tree_count cross-checks below n=9;
    # check it directly once more
    assert len(enumerate_trivalent_trees(4)) == 3
    assert len(enumerate_trivalent_trees(6)) == 105
    with pytest.raises(ValueError, match="three leaves"):
        enumerate_trivalent_trees(2)
    with pytest.raises(ValueError, match="n >= 4"):
        stable_tree_count(3)


def test_enumerated_trees_are_distinct_split_sets():
    trees = enumerate_trivalent_trees(5)
    assert len(trees) == 15
    for t in trees:
        # 5 pendant splits ({1}..{4} plus the complement of {0}) and
        # 2 internal splits per trivalent tree on 5 leaves: 7 edges
        assert len(t) == 7


def test_enumerated_trees_match_pinned_digests():
    # sha256 of the sorted split sets, taken from an independent
    # enumeration that grew adjacency lists and cut every edge
    pins = {
        6: "ca84562b6a868a2fa152585c88096b7fff6e2a01b63738b86919ecf7bca5d066",
        7: "edbce768472ae70c9c6b927d0f86c82937187048e31b9d9d060e2d49395e9d35",
    }
    for leaves, digest in pins.items():
        trees = enumerate_trivalent_trees(leaves)
        text = repr(sorted(sorted(sorted(s) for s in t) for t in trees))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_boundary_divisor_canonical_form():
    d = BoundaryDivisor.from_subset(4, (3, 4))
    assert d.part == (1, 2)
    assert d.label == "d{1,2}"
    assert BoundaryDivisor.from_subset(5, (3, 5)).part == (1, 2, 4)
    with pytest.raises(ValueError):
        BoundaryDivisor.from_subset(5, (1,))
    with pytest.raises(ValueError, match="from 1 to n"):
        BoundaryDivisor.from_subset(5, (0, 1))


def test_boundary_graph_n4_isolated():
    g = boundary_graph(4)
    assert g.num_vertices == 3
    assert [v.label for v in g.vertices] == ["d{1,2}", "d{1,3}", "d{1,4}"]
    assert g.num_edges == 0
    assert g.girth() is None


def test_boundary_graph_n5_is_petersen():
    g = boundary_graph(5)
    assert g.num_vertices == 10
    assert g.num_edges == 15
    assert g.degrees() == [3] * 10
    assert g.girth() == 5
    # connected + 3-regular + girth 5 + 10 vertices pins the (3,5)-cage
    seen = {g.vertices[0]}
    queue = [g.vertices[0]]
    while queue:
        for w in g.adjacency[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) == 10


def test_boundary_graph_counts():
    for n in (4, 5, 6, 7):
        assert boundary_graph(n).num_vertices == 2 ** (n - 1) - n - 1
    with pytest.raises(ValueError, match="n >= 4"):
        boundary_graph(3)


def test_boundary_export_format():
    text = boundary_graph(4).export()
    assert text.splitlines() == ["d{1,2}:", "d{1,3}:", "d{1,4}:"]
    first = boundary_graph(5).export().splitlines()[0]
    assert first.startswith("d{1,2}: ")


# -- export ------------------------------------------------------------------


def test_format_generator_file():
    text = format_generator_file(6, include_quartics=True)
    lines = text.splitlines()
    assert lines[0] == "# n=6 cubics=5 quartics=1"
    assert len(lines) == 7
    ring = moduli_ring(6)
    parsed = [parse_polynomial(ring, s) for s in lines[1:]]
    assert parsed == expected(6, CUBICS_N6) + expected(6, [QUARTIC_N6])


# sha256 of `m0nbar gen n --deg4`, the generator lists past the golden
# ones: n = 8 (35 cubics, 21 quartics), n = 9, and n = 10, whose ring
# names its variables w<i>_<j>
GENERATOR_FILE_SHA256 = {
    8: "feb2a893396782929238b4c6899379502127b2d763e3c7418d20f8532738de1f",
    9: "ceee75d8fca7fb01f671976227f07e2d4f97530ef9c125eda429d324d319d6da",
    10: "1733a85dc45223bfb922a26d05bf96c26a6763a7305583265622990383708286",
}


@pytest.mark.parametrize("n", sorted(GENERATOR_FILE_SHA256))
def test_generator_file_pinned_past_golden_lists(n):
    text = format_generator_file(n, include_quartics=True)
    assert text.splitlines()[0] == (
        f"# n={n} cubics={comb(n - 1, 4)} quartics={comb(n - 1, 5)}")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        GENERATOR_FILE_SHA256[n])
