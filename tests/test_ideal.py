"""Tests for division, Buchberger, saturation, and graded invariants.

Expected values in here were derived by hand before the implementation:
S-polynomial chases for the small bases, monomial counting for the
Hilbert numerators, and textbook identities for saturation and
intersection of monomial ideals.
"""

import random
from itertools import permutations, product
from math import comb
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_random import random_poly
from test_moduli import cubic_quartic_ideal, cubic_route

from m0nbar.arith import _int_form, matrix_rank, rat
from m0nbar.ideal import (
    Ideal,
    MonomialIdeal,
    buchberger,
    contains,
    equal_ideals,
    graded_piece_dim,
    hilbert_degree,
    hilbert_numerator,
    initial_ideal,
    intersect,
    min_gens_by_total_degree,
    normal_form,
    saturate_by_block,
    saturate_by_variable,
    spolynomial,
)
from m0nbar.ideal import (
    _k_polynomial,
    _macaulay_rows,
    _minimal,
    _minimalize,
    _Overflow,
    _Packer,
    _count_in,
    _Targeted,
    _width,
)
from m0nbar.moduli import saturation_pipeline
from m0nbar.poly import (
    MonomialOrder,
    Polynomial,
    elimination_order,
    grevlex_order,
    lex_order,
    moduli_ring,
    monomials_of_multidegree,
    parse_polynomial,
    polynomial_ring,
)

XY = polynomial_ring(["x", "y"])
XYZ = polynomial_ring(["x", "y", "z"])
R5 = moduli_ring(5)
R6 = moduli_ring(6)
ABEQ = "a0*b0*b1 - a1*b0*b1 + a1*b0*b2 - a0*b1*b2"


def P(ring, text):
    return parse_polynomial(ring, text)


def gb_strings(gens, order):
    return [str(g) for g in buchberger(gens, order)]


def test_buchberger_minor_pair():
    # S(a0*b1 - a1*b0, a0) = -a1*b0, so the reduced basis gains a1*b0
    gens = [P(R5, "a0*b1 - a1*b0"), P(R5, "a0")]
    assert gb_strings(gens, lex_order(R5)) == ["a1*b0", "a0"]


def test_buchberger_textbook_lex():
    # classic: <x*y - 1, y^2 - 1> has reduced lex basis {y^2 - 1, x - y}
    gens = [P(XY, "x*y - 1"), P(XY, "y^2 - 1")]
    assert gb_strings(gens, lex_order(XY)) == ["y^2 - 1", "x - y"]


def test_buchberger_tail_reduction_by_a_non_monic_lead():
    # x - y = (x - z/2) - (2*y - z)/2: interreducing x - y divides its
    # tail by the lead coefficient 2, and its lead must be scaled with it
    gens = [P(XYZ, "x - y"), P(XYZ, "2*y - z")]
    assert buchberger(gens, lex_order(XYZ)) == [P(XYZ, "y - 1/2*z"),
                                                P(XYZ, "x - 1/2*z")]


def test_buchberger_is_canonical():
    # same ideal, different generators and order of input
    a = buchberger([P(XY, "x*y - 1"), P(XY, "y^2 - 1")], lex_order(XY))
    b = buchberger([P(XY, "y^2 - 1"),
                    P(XY, "x*y - 1 + 3*y^2 - 3"),
                    P(XY, "x - y")], lex_order(XY))
    assert a == b


def test_buchberger_of_zero_ideal_is_empty():
    for order in (lex_order(XY), grevlex_order(XY)):
        assert buchberger([], order) == []
        assert buchberger([XY.zero()], order) == []
        assert buchberger([XY.zero(), XY.zero()], order) == []
    # a nonzero generator must share the order's ring, zeros or not
    with pytest.raises(ValueError, match="share one ring"):
        buchberger([XY.zero(), P(XYZ, "x")], lex_order(XY))
    with pytest.raises(ValueError, match="share one ring"):
        buchberger([P(XY, "x"), P(XYZ, "x")], lex_order(XY))


def test_spolynomials_reduce_to_zero():
    order = lex_order(XY)
    gb = buchberger([P(XY, "x*y - 1"), P(XY, "y^2 - 1")], order)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = spolynomial(gb[i], gb[j], order)
            assert not normal_form(s, gb, order)


def test_normal_form_exact_rational():
    # divide x^2 by <2x - y>: x^2 = (x/2 + y/4)(2x - y) + y^2/4
    order = lex_order(XY)
    r = normal_form(P(XY, "x^2"), [P(XY, "2*x - y")], order)
    assert r == P(XY, "1/4*y^2")
    # remainder has no term divisible by the lead
    assert normal_form(P(XY, "x^2 + x*y + y^2"), [P(XY, "x")], order) \
        == P(XY, "y^2")


def test_normal_form_divisor_order_is_deterministic():
    order = lex_order(XY)
    f = P(XY, "x*y")
    r1 = normal_form(f, [P(XY, "x - 1"), P(XY, "y - 2")], order)
    r2 = normal_form(f, [P(XY, "y - 2"), P(XY, "x - 1")], order)
    # both are full normal forms modulo a Groebner basis of <x-1, y-2>
    assert r1 == P(XY, "2") and r2 == P(XY, "2")


def textbook_remainder(f, divisors, order):
    """Division over the rationals: the largest term left, by order.key,
    is divided by the first divisor in list order whose lead divides
    it, and otherwise moved to the remainder."""
    rem = {}
    while f.terms:
        m = max(f.terms, key=order.key)
        c = f.terms[m]
        for g in divisors:
            lm = g.leading_monomial(order)
            if all(map(le, lm, m)):
                q = c / g.leading_coefficient(order)
                f = f - Polynomial(f.ring, {tuple(map(sub, m, lm)): q}) * g
                break
        else:
            rem[m] = c
            f = f - Polynomial(f.ring, {m: c})
    return Polynomial(f.ring, rem)


def xyz_polys(max_terms, max_exp):
    """Nonzero polynomials in x, y, z with coefficients a/b, 0 < |a| <= 5
    and 1 <= b <= 4, so most leads are not units and most terms carry a
    denominator."""
    term = st.tuples(st.tuples(*[st.integers(0, max_exp)] * 3),
                     st.integers(-5, 5).filter(bool), st.integers(1, 4))
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda ts: Polynomial(XYZ, {m: rat(a, b) for m, a, b in ts}))


@given(st.sampled_from([grevlex_order(XYZ), lex_order(XYZ),
                        elimination_order(XYZ, [1])]),
       xyz_polys(6, 4), st.lists(xyz_polys(3, 2), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_normal_form_is_the_textbook_division(order, f, divisors):
    # random divisors are rarely a Groebner basis, so the remainder
    # depends on which term is taken first and which divisor divides it
    assert normal_form(f, divisors, order) == \
        textbook_remainder(f, divisors, order)


def test_buchberger_takes_pairs_by_ascending_lcm(monkeypatch):
    # on homogeneous input a new pair's lcm lies in a degree above the
    # pair that made it, so the normal strategy reduces the S-pairs of a
    # grevlex run in nondecreasing order of their packed lcms
    import m0nbar.ideal as ideal_module
    spoly = ideal_module._spoly
    lcms = []

    def spy(gi, gj, l, guard):
        lcms.append(l)
        return spoly(gi, gj, l, guard)

    monkeypatch.setattr(ideal_module, "_spoly", spy)
    I = cubic_quartic_ideal(7)
    buchberger(I.gens, grevlex_order(I.ring))
    assert len(lcms) > 100 and lcms == sorted(lcms)


def test_normal_form_rejects_other_rings():
    # a monomial of another ring would be packed over the shorter tuple
    x, z = XYZ.var("x"), XYZ.var("z")
    with pytest.raises(ValueError):
        contains(Ideal(XY, [XY.var("x")]), x * z)
    with pytest.raises(ValueError):
        normal_form(XY.var("x"), [z], grevlex_order(XY))
    with pytest.raises(ValueError):
        normal_form(x, [z], grevlex_order(XY))


def test_normal_form_exponent_past_16_bits():
    # x^k modulo x - y^2 is y^(2k): lex reduction doubles the exponent,
    # so products must be checked against the field width, not wrapped
    order = lex_order(XY)
    r = normal_form(P(XY, "x^20000"), [P(XY, "x - y^2")], order)
    assert r == P(XY, "y^40000")


def test_exponent_overflow_widens_fields():
    # both results need far more bits than their inputs suggest
    order = lex_order(XY)
    r = normal_form(P(XY, "x^200"), [P(XY, "x - y^64")], order)
    assert r == P(XY, "y^12800")
    gb = buchberger([P(XY, "x - y^50"), P(XY, "x^9")], order)
    assert [str(g) for g in gb] == ["y^450", "x - y^50"]
    # here an S-polynomial is the first product past the field width
    gb = buchberger([P(XYZ, "x^40*z + x^2*z^2"),
                     P(XYZ, "x^3*y^2*z^5 - 2*z")], lex_order(XYZ))
    assert [str(g) for g in gb] == ["y^76*z^156 + 274877906944*z",
                                    "x*z - 1/33554432*y^50*z^103"]
    # every exponent fits the first fields, the total degree 252 does not
    r = normal_form(P(XYZ, "x^63"), [P(XYZ, "x - y^2*z^2")], lex_order(XYZ))
    assert r == P(XYZ, "y^126*z^126")


def test_packed_monomials():
    packer = _Packer(lex_order(XYZ), 8)
    a, b = (3, 0, 100), (5, 2, 30)
    pa, pb = packer.pack(a), packer.pack(b)
    assert packer.unpack(pa) == a and packer.unpack(pb) == b
    lcm, = packer.lcms(pa, [pb])
    assert packer.unpack(lcm) == (5, 2, 100)
    # the running maxima end at the fieldwise maximum of them all
    pc = packer.pack((0, 7, 0))
    assert [packer.unpack(m) for m in packer.lcms(pa, [pb, pc])] == [
        (5, 2, 100), (3, 7, 100)]
    assert [packer.unpack(m) for m in packer.lcms(
        pa, [pb, pc], running=True)] == [(5, 2, 100), (5, 7, 100)]
    # so a basis element's top is the fieldwise maximum of its terms
    assert packer.unpack(packer.gen({pa: 1, pb: -2, pc: 3}).top) == (
        5, 7, 100)
    # divisibility is a masked subtract
    assert not (packer.pack((5, 2, 100)) - pa) & packer.guard
    assert (pb - pa) & packer.guard and (pa - pb) & packer.guard
    # a product that leaves the field shows up in the guard bits
    assert (pa + pb) & packer.guard
    with pytest.raises(_Overflow):
        packer.pack((128, 0, 0))
    # the fields hold the total degree, not only each exponent
    with pytest.raises(_Overflow):
        packer.pack((64, 64, 0))


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_packed_monomials_round_trip_at_every_width(width):
    # unpack reads the exponent fields as one array of width-bit
    # integers: every field comes back, the top one of the largest
    # exponent of that width too, whatever the order digits above them
    for order in (lex_order(R6), grevlex_order(R6), XYZ_ORDERS[3]):
        packer = _Packer(order, width)
        top = packer.mask
        nv = order.ring.nvars
        monos = [(0,) * nv, (top,) + (0,) * (nv - 1),
                 (0,) * (nv - 1) + (top,), (1,) * nv,
                 tuple(range(nv)), tuple(range(nv, 0, -1))]
        for m in monos:
            assert packer.unpack(packer.pack(m)) == m


def test_field_widths_are_bytes_up_to_64_bits():
    # room for twice the largest total degree and a guard bit, rounded
    # up to 8, 16, 32 or 64 bits
    def width(degree):
        return _width([Polynomial(XY, {(degree, 0): rat(1),
                                       (0, 1): rat(1)})])
    assert _width([]) == 8
    assert [width(d) for d in (1, 63, 64, 16383, 16384, 2 ** 30 - 1,
                               2 ** 30, 2 ** 62 - 1)] == [
        8, 8, 16, 16, 32, 32, 64, 64]
    assert width(2 ** 62) == 128
    # a width past 64 bits is an error, whether the inputs need it at
    # once or an overflow restart doubles 64
    with pytest.raises(OverflowError, match="8, 16, 32 or 64 bits"):
        _Packer(lex_order(XY), 128)
    with pytest.raises(OverflowError, match="8, 16, 32 or 64 bits"):
        _Packer(lex_order(XY), 24)
    with pytest.raises(OverflowError, match="64 bits"):
        normal_form(P(XY, "x"), [P(XY, f"x - y^{2 ** 62}")], lex_order(XY))
    # x^4 modulo x - y^(2^61) is y^(2^63), one more bit than 64-bit
    # fields hold
    g = P(XY, f"x - y^{2 ** 61}")
    assert _width([g, P(XY, "x^4")]) == 64
    with pytest.raises(OverflowError, match="64 bits"):
        normal_form(P(XY, "x^4"), [g], lex_order(XY))
    assert normal_form(P(XY, "x^3"), [g], lex_order(XY)) == P(
        XY, f"y^{3 * 2 ** 61}")


def minimal_oracle(monos):
    """The distinct monomials of monos that no other one divides, by
    comparing exponent tuples."""
    monos = set(monos)
    return {m for m in monos
            if not any(d != m and all(map(le, d, m)) for d in monos)}


def minimal_cases(rng, nv, top):
    """Seeded lists of monomials in nv variables, each exponent at most
    top: the empty list, lists with duplicates, and lists of multiples
    of one monomial that is among them, placed at random."""
    yield []
    for _ in range(20):
        size = rng.choice([2, top])
        monos = [tuple(rng.randint(0, size) for _ in range(nv))
                 for _ in range(rng.randint(1, 12))]
        yield monos + rng.choices(monos, k=rng.randint(1, 4))
        base = tuple(rng.randint(0, size) for _ in range(nv))
        multiples = [tuple(map(add, base, m)) for m in monos]
        multiples.insert(rng.randint(0, len(multiples)), base)
        yield multiples


@pytest.mark.parametrize("width", [8, 16])
def test_minimal_keeps_the_monomials_no_other_divides(width):
    # _minimal on monomials packed by _Packer, with their order digits
    # (as _reduced_basis passes them) and without (as _update and _gap
    # do), and _minimalize with its own packing, against tuple
    # divisibility
    rng = random.Random(width)
    divided = 0  # lists with one minimal monomial and others it divides
    for ring in (XYZ, R6):
        nv = ring.nvars
        for order in (grevlex_order(ring), lex_order(ring)):
            packer = _Packer(order, width)
            for monos in minimal_cases(rng, nv, packer.mask // nv // 2):
                want = minimal_oracle(monos)
                divided += len(want) == 1 < len(set(monos))
                packed = [packer.pack(m) for m in monos]
                for ms in (packed, [m & packer.low for m in packed]):
                    kept = _minimal(ms, packer.guard)
                    assert kept == sorted(set(kept))
                    assert set(map(packer.unpack, kept)) == want
                assert _minimalize(monos) == tuple(
                    sorted(want, key=lambda m: (sum(m), m)))
    assert divided == 88  # of the 164 lists


@pytest.mark.parametrize("make_order", [
    lex_order,
    grevlex_order,
    lambda ring: elimination_order(ring, [2]),
    lambda ring: elimination_order(polynomial_ring(ring.names + ("t",)),
                                   [ring.nvars]),
    lambda ring: MonomialOrder(ring, [[2], [0, 1]]),
    lambda ring: MonomialOrder(ring, [[1, 0], [2]]),
])
def test_int_keys_order_like_tuple_keys(make_order):
    order = make_order(XYZ)
    nv = order.ring.nvars
    packer = _Packer(order, 32)
    # products of two of these monomials still fit the fields
    top = packer.mask // 8
    shapes = [(top, 0, 0), (0, top, 0), (0, 0, top), (top, top, top),
              (40000, 1, 0), (40000, 0, 1), (39999, 2, 0), (1, 1, 40000),
              (0, 40001, 0), (top - 1, top, 1), (0, 0, 0), (1, 0, 0)]
    monos = [m + (0,) * (nv - 3) for m in shapes]
    if nv > 3:
        monos += [(0, 0, 0) + (top,) * (nv - 3), (top, 0, 0) + (1,) * (nv - 3)]
    assert sorted(monos, key=packer.pack) == sorted(monos, key=order.key)
    for m in monos:
        for n in monos:
            assert packer.pack(m) + packer.pack(n) == packer.pack(
                tuple(map(sum, zip(m, n))))


def test_contains_and_equal():
    I = Ideal(XY, [P(XY, "x*y - 1"), P(XY, "y^2 - 1")])
    assert contains(I, P(XY, "x - y"))
    assert contains(I, (P(XY, "x*y - 1") * P(XY, "x + 7*y^2")))
    assert not contains(I, P(XY, "x"))
    assert contains(I, XY.zero())
    J = Ideal(XY, [P(XY, "x - y"), P(XY, "y^2 - 1")])
    assert equal_ideals(I, J)
    assert not equal_ideals(I, Ideal(XY, [P(XY, "x")]))
    # the zero ideal has the empty Groebner basis
    Z = Ideal(XY, [])
    assert Z.groebner_basis() == ()
    assert not contains(Z, P(XY, "x"))
    assert equal_ideals(Z, Ideal(XY, [XY.zero()]))
    # the zero shortcuts still check the ring
    with pytest.raises(ValueError, match="ring"):
        contains(Ideal(XY, [P(XY, "x")]), moduli_ring(6).zero())
    with pytest.raises(ValueError, match="ring"):
        equal_ideals(Z, Ideal(moduli_ring(6), []))


def test_groebner_cache():
    I = Ideal(XY, [P(XY, "x*y - 1"), P(XY, "y^2 - 1")])
    order = lex_order(XY)
    assert I.groebner_basis(order) is I.groebner_basis(order)
    assert I.groebner_basis(order) is not I.groebner_basis(grevlex_order(XY))
    J = Ideal(R6, [P(R6, "a0*b0"), P(R6, "a1*c3")])
    assert repr(J) == "Ideal(2 generators in 3 blocks)"
    assert repr(Ideal(XY, [P(XY, "x")])) == "Ideal(1 generator in 1 block)"
    assert repr(Ideal(R6, [])) == "Ideal(0 generators in 3 blocks)"
    assert repr(I) == "Ideal(2 generators in 1 block)"


def spy_on_runs(monkeypatch):
    """Log (gens, order, S-pairs reduced) of every run of
    m0nbar.ideal.buchberger, which Ideal.groebner_basis calls, and run
    it; returns the log."""
    import m0nbar.ideal as ideal_module
    run = ideal_module.buchberger
    runs = []

    def spy(gens, order, progress=None):
        ends = [(0,)]

        def report(*args):
            ends.append(args)
            if progress is not None:
                progress(*args)

        basis = run(gens, order, report)
        runs.append((gens, order, ends[-1][0]))
        return basis

    monkeypatch.setattr(ideal_module, "buchberger", spy)
    return runs


def keeps_every_lead(basis, first, second):
    return all(g.leading_monomial(first) == g.leading_monomial(second)
               for g in basis)


# grevlex, lex, two block orders, an elimination order and a grevlex
# with its variables permuted, all on x, y, z
XYZ_ORDERS = [grevlex_order(XYZ), lex_order(XYZ),
              MonomialOrder(XYZ, [[2], [0, 1]]),
              MonomialOrder(XYZ, [[1, 0], [2]]),
              elimination_order(XYZ, [0]),
              MonomialOrder(XYZ, [[0, 2, 1]])]


def test_reused_bases_match_fresh_runs_on_random_ideals(monkeypatch):
    # an ideal whose basis is cached under one order is asked for another:
    # the answer is one run, whose basis is the fresh reduced basis under
    # the new order, also for the 812 of the 1200 pairs of orders whose
    # second keeps every lead of the cached basis.  Generators mix
    # degrees 1 to 3, homogeneous or not.
    rng = random.Random(20261019)
    runs = spy_on_runs(monkeypatch)
    kept = 0
    for _ in range(40):
        gens = [random_poly(rng, XYZ, rng.randint(1, 3), rng.random() < 0.5)
                for _ in range(rng.randint(1, 3))]
        fresh = {order: buchberger(gens, order) for order in XYZ_ORDERS}
        for first, second in permutations(XYZ_ORDERS, 2):
            I = Ideal(XYZ, gens)
            I.groebner_basis(first)
            runs.clear()
            assert list(I.groebner_basis(second)) == fresh[second]
            assert I.groebner_basis(second) is I.groebner_basis(second)
            assert [order for _, order, _ in runs] == [second]
            kept += keeps_every_lead(fresh[first], first, second)
    assert kept == 812


def test_groebner_basis_runs_when_one_lead_moves(monkeypatch):
    # under z > (x, y) the generators x*y - y and y*z + z^2 are the
    # reduced basis, with leads x*y and z^2.  Under grevlex the first
    # lead stays put and the second moves to y*z, where
    # S(x*y - y, y*z + z^2) reduces to x*z^2 - z^2: the cached basis is
    # no grevlex basis, so only a run gives the right one
    I = Ideal(XYZ, [P(XYZ, "x*y - y"), P(XYZ, "y*z + z^2")])
    first = MonomialOrder(XYZ, [[2], [0, 1]])
    assert [str(g) for g in I.groebner_basis(first)] == ["x*y - y",
                                                         "y*z + z^2"]
    runs = spy_on_runs(monkeypatch)
    basis = I.groebner_basis(grevlex_order(XYZ))
    assert [str(g) for g in basis] == ["y*z + z^2", "x*y - y",
                                       "x*z^2 - z^2"]
    assert [order for _, order, _ in runs] == [grevlex_order(XYZ)]
    # lex moves the first basis's z^2 to y*z again, but no lead of the
    # grevlex basis; lex still gets its own run
    runs.clear()
    lex = I.groebner_basis(lex_order(XYZ))
    assert [str(g) for g in lex] == ["y*z + z^2", "x*z^2 - z^2", "x*y - y"]
    assert keeps_every_lead(basis, grevlex_order(XYZ), lex_order(XYZ))
    assert list(lex) == buchberger(I.gens, lex_order(XYZ))
    assert [order for _, order, _ in runs] == [lex_order(XYZ)]


def spy_on_targets(monkeypatch):
    """Log (gens, order) of every run of m0nbar.ideal.buchberger whose
    generators carry a Hilbert target, and run it; returns the log."""
    import m0nbar.ideal as ideal_module
    run = ideal_module.buchberger
    targeted = []

    def spy(gens, order, progress=None):
        if isinstance(gens, _Targeted):
            targeted.append((gens, order))
        return run(gens, order, progress)

    monkeypatch.setattr(ideal_module, "buchberger", spy)
    return targeted


def test_groebner_basis_passes_no_target_for_inhomogeneous_gens(monkeypatch):
    # x*y - y and y*z + z^2 are their own basis under z > (x, y), which a
    # grevlex run would otherwise take its target from
    I = Ideal(XYZ, [P(XYZ, "x*y - y"), P(XYZ, "y*z + z^2")])
    first = MonomialOrder(XYZ, [[2], [0, 1]])
    assert I.groebner_basis(first) == I.gens
    targeted = spy_on_targets(monkeypatch)
    I.groebner_basis(grevlex_order(XYZ))
    assert targeted == []
    with pytest.raises(ValueError, match="homogeneous"):
        buchberger(_Targeted(I.gens, [1]), grevlex_order(XYZ))


def test_targeted_runs_match_plain_runs_on_random_ideals(monkeypatch):
    # an ideal whose generators are its basis cached under one order is
    # asked for another; with homogeneous generators the run takes that
    # basis's Hilbert target, and returns the plain run's basis.  Where
    # the second order keeps every lead (848 of the 1200 pairs of
    # orders), the leads of the reduced inputs are in(I) already, so
    # the run forms no S-pair
    rng = random.Random(20261020)
    runs = spy_on_runs(monkeypatch)
    kept = 0
    for _ in range(40):
        gens = [random_poly(rng, XYZ, rng.randint(1, 3), True)
                for _ in range(rng.randint(1, 4))]
        fresh = {order: buchberger(gens, order) for order in XYZ_ORDERS}
        for first, second in permutations(XYZ_ORDERS, 2):
            I = Ideal(XYZ, fresh[first])
            I.groebner_basis(first)
            runs.clear()
            assert list(I.groebner_basis(second)) == fresh[second]
            (gens, order, pairs), = runs
            assert isinstance(gens, _Targeted)
            assert buchberger(gens, order) == buchberger(tuple(gens), order)
            if keeps_every_lead(fresh[first], first, second):
                assert pairs == 0
                kept += 1
    assert kept == 848


@pytest.mark.parametrize("n", [5, 6, 7])
def test_targeted_runs_match_plain_runs_in_the_pipeline(monkeypatch, n):
    # the runs of saturate_by_block and the lex basis that saturate
    # prints, on both routes, each with and without its target
    targeted = spy_on_targets(monkeypatch)
    for route in (saturation_pipeline, cubic_route):
        I = route(n)
        I.groebner_basis(lex_order(I.ring))
    # every run but each route's first: block a runs on generators
    # alone, and every later run's ideal has a basis cached or was handed
    # its K-polynomial.  Each route runs the lex basis at every n.  The
    # pipeline also runs block c at n = 6, and block b and its back run at
    # n = 7; a cached basis settles every other block with no run.  At
    # n = 5 both routes start from the one cubic.
    # The cubic route also runs block b and its back run at n = 6 and 7,
    # and block c and its back run at n = 7
    assert len(targeted) == {5: 2, 6: 5, 7: 8}[n]
    for gens, order in targeted:
        assert buchberger(gens, order) == buchberger(tuple(gens), order)


def test_a_target_off_by_one_coefficient_fails():
    # the grevlex basis of the saturated n = 6 ideal and one random
    # ideal, each run under lex against its grevlex K-polynomial with
    # one coefficient moved by 1, also past its last nonzero one
    rng = random.Random(7)
    cases = [(saturation_pipeline(6).groebner_basis(), lex_order(R6))]
    gens = [random_poly(rng, XYZ, 2, True) for _ in range(2)]
    cases.append((buchberger(gens, grevlex_order(XYZ)), lex_order(XYZ)))
    for basis, order in cases:
        ring = order.ring
        K = hilbert_numerator(initial_ideal(Ideal(ring, basis)))
        assert buchberger(_Targeted(basis, K), order) == buchberger(basis,
                                                                     order)
        for d in range(len(K) + 2):
            for sign in (1, -1):
                wrong = K + [0] * (d + 1 - len(K))
                wrong[d] += sign
                with pytest.raises(AssertionError):
                    buchberger(_Targeted(basis, wrong), order)


def test_generator_check_catches_a_dropped_basis_element(monkeypatch):
    # every run checks its generators on its own packed reduced basis:
    # with the basis's first element dropped before the check, x*y - 1
    # leaves y^2 - 1 against x - y alone, and both a cached basis and a
    # direct run refuse to return
    import m0nbar.ideal as ideal_module
    reduced = ideal_module._reduced_basis
    gens = [P(XY, "x*y - 1"), P(XY, "y^2 - 1")]
    assert gb_strings(gens, lex_order(XY)) == ["y^2 - 1", "x - y"]
    monkeypatch.setattr(ideal_module, "_reduced_basis",
                        lambda G, packer: reduced(G, packer)[1:])
    with pytest.raises(AssertionError, match="does not reduce to zero"):
        Ideal(XY, gens).groebner_basis(lex_order(XY))
    with pytest.raises(AssertionError, match="does not reduce to zero"):
        buchberger(gens, lex_order(XY))


def test_an_ideal_reads_one_k_polynomial_off_its_first_cached_basis(
        monkeypatch):
    # R/I has one Hilbert series under every order, so whichever order
    # the first cached basis has, the K-polynomial read off its initial
    # ideal, with no run, gives the grevlex numerator, and only once
    rng = random.Random(20261021)
    runs = spy_on_runs(monkeypatch)
    # a basis cached under v's own saturation order is read, not run
    v_last = [MonomialOrder(XYZ, [[w for w in range(3) if w != v] + [v]])
              for v in range(3)]
    for _ in range(20):
        gens = [random_poly(rng, XYZ, rng.randint(1, 3), True)
                for _ in range(rng.randint(1, 3))]
        want = hilbert_numerator(initial_ideal(Ideal(XYZ, gens)))
        for order in XYZ_ORDERS:
            I = Ideal(XYZ, gens)
            I.groebner_basis(order)
            runs.clear()
            assert hilbert_numerator(I) == want
            assert runs == []
            assert I._numerator is I._numerator


def test_inhomogeneous_generators_read_k_off_the_grevlex_basis():
    # x - y^2 has the lex initial ideal <x>, whose series would give
    # (1, 1); the grevlex one, <y^2>, gives the degree 2 of the affine
    # curve x = y^2
    I = Ideal(XY, [P(XY, "x - y^2")])
    I.groebner_basis(lex_order(XY))
    assert hilbert_numerator(initial_ideal(I, lex_order(XY))) == [1, -1]
    assert hilbert_degree(I) == (1, 2)
    assert list(I._gb) == [lex_order(XY), grevlex_order(XY)]


def test_invariants_build_the_initial_ideal_once(monkeypatch):
    import m0nbar.ideal as ideal_module
    built = []

    class Counted(MonomialIdeal):
        def __init__(self, ring, monos):
            built.append(ring)
            super().__init__(ring, monos)

    monkeypatch.setattr(ideal_module, "MonomialIdeal", Counted)
    I = cubic_quartic_ideal(6)
    min_gens_by_total_degree(I)
    hilbert_degree(I)
    for D in ((1, 1, 2), (1, 2, 1)):
        graded_piece_dim(I, D, method="standard")
    assert len(built) == 1


def test_invariants_run_the_k_polynomial_recursion_once(monkeypatch, capsys):
    import m0nbar.ideal as ideal_module
    from m0nbar.cli import main
    real, gap = ideal_module._k_polynomial, ideal_module._gap
    top, depth = [], []

    def spy(gens, weights):
        if not depth:
            top.append(gens)
        depth.append(gens)
        try:
            return real(gens, weights)
        finally:
            depth.pop()

    def gap_spy(*args):
        # the K of the leads inside a targeted run is the engine's own
        depth.append(None)
        try:
            return gap(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(ideal_module, "_k_polynomial", spy)
    monkeypatch.setattr(ideal_module, "_gap", gap_spy)
    I = cubic_quartic_ideal(6)
    min_gens_by_total_degree(I)
    hilbert_degree(I)
    graded_piece_dim(I, (1, 1, 2), method="standard")
    assert top == [initial_ideal(I).gens]
    # saturate reads its invariants, and block b's run its target, from
    # the one K of the ideal that block a returns unchanged; the lex
    # initial ideal it checks for square-freeness computes no series
    top.clear()
    assert main(["saturate", "6"]) == 0
    capsys.readouterr()
    assert len(top) == 1


@pytest.mark.parametrize("gens", [[], ["x*y - 1"]])
def test_groebner_basis_rejects_an_order_from_another_ring(gens):
    I = Ideal(XY, [P(XY, g) for g in gens])
    for order in (grevlex_order(moduli_ring(6)), lex_order(XYZ)):
        with pytest.raises(ValueError, match="ring"):
            I.groebner_basis(order)
        with pytest.raises(ValueError, match="ring"):
            initial_ideal(I, order)
    # nothing was cached under the foreign orders
    assert list(I._gb) == []


# -- saturation and intersection -----------------------------------------


def sat_strings(I, var):
    return [str(g) for g in saturate_by_variable(I, var).gens]


def test_saturate_single_variable():
    I = Ideal(XYZ, [P(XYZ, "x^2*y")])
    assert sat_strings(I, "x") == ["y"]
    assert sat_strings(I, "y") == ["x^2"]
    assert sat_strings(I, "z") == ["x^2*y"]


@pytest.mark.parametrize("var", ["zz", 99, -1, True])
def test_saturate_rejects_an_unknown_variable(var):
    I = Ideal(XYZ, [P(XYZ, "x^2*y")])
    with pytest.raises(ValueError, match=f"no variable {var!r} "):
        saturate_by_variable(I, var)


def test_saturate_unit_ideal():
    I = Ideal(XYZ, [XYZ.one()])
    assert sat_strings(I, "x") == ["1"]
    # and an ideal containing a power of the variable saturates to <1>
    J = Ideal(XYZ, [P(XYZ, "x^3")])
    assert sat_strings(J, "x") == ["1"]
    # the zero ideal is its own saturation
    assert sat_strings(Ideal(XYZ, []), "x") == []


def test_saturation_is_idempotent_and_grows():
    I = Ideal(XYZ, [P(XYZ, "x^2*y - x*z^2")])
    S = saturate_by_variable(I, "x")
    assert [str(g) for g in S.groebner_basis()] == ["x*y - z^2"]
    for g in S.groebner_basis():
        # v^k * g lands back in I for some small k
        assert any(contains(I, XYZ.var("x") ** k * g) for k in range(6))
    again = saturate_by_variable(S, "x")
    assert equal_ideals(S, again)


def test_saturation_by_a_zerodivisor_is_one_groebner_run():
    # x is a zerodivisor mod I; the divided basis elements are returned
    # as generators, so Buchberger runs (and reports) exactly once
    I = Ideal(XYZ, [P(XYZ, "x^2*y - x*z^2"), P(XYZ, "x*y^2*z")])
    calls = []
    S = saturate_by_variable(I, "x", lambda *args: calls.append(args))
    assert len(calls) == 1
    assert [str(g) for g in S.gens] == ["-x*y + z^2", "y^2*z", "y^3"]
    assert equal_ideals(S, oracle_saturation(I, 0))


@pytest.mark.parametrize("var", [0, 1, 2])
def test_saturation_divides_the_basis_in_place(var):
    # saturate_by_block zips J.gens with the powers of v it reads off the
    # cached basis, so J.gens[i] must be basis[i] over its largest v-power
    I = Ideal(XYZ, [P(XYZ, "x^2*y - x*z^2"), P(XYZ, "x*y^2*z"),
                    P(XYZ, "y^3*z - x*z^3")])
    J = saturate_by_variable(I, var)
    assert J is not I
    others = [v for v in range(3) if v != var]
    basis = I.groebner_basis(MonomialOrder(XYZ, [others + [var]]))
    assert len(J.gens) == len(basis)
    for g, h in zip(basis, J.gens):
        k = min(m[var] for m in g.terms)
        assert min(m[var] for m in h.terms) == 0
        assert XYZ.var_by_index(var) ** k * h == g


def test_saturation_reads_a_nonzerodivisor_off_a_cached_basis(monkeypatch):
    # I = <x*y - z^2> has the lead x*y under lex but z^2 under lex with
    # z > y > x; x divides no lead of the second basis, so x is a
    # nonzerodivisor mod I and I comes back with no run, though x divides
    # a lead of the first basis
    I = Ideal(XYZ, [P(XYZ, "x*y - z^2")])
    zyx = MonomialOrder(XYZ, [[2], [1], [0]])
    for order in (lex_order(XYZ), zyx):
        I.groebner_basis(order)
    runs = spy_on_runs(monkeypatch)
    assert saturate_by_variable(I, "x") is I
    assert runs == []
    assert list(I._gb) == [lex_order(XYZ), zyx]
    # the plain x-last revlex run on the same generators agrees: x
    # divides no element of its basis
    fresh = Ideal(XYZ, I.gens)
    assert saturate_by_variable(fresh, "x") is fresh
    assert [order for _, order, _ in runs] == [
        MonomialOrder(XYZ, [[1, 2, 0]])]
    assert equal_ideals(oracle_saturation(I, 0), I)


def test_saturation_runs_when_the_variable_divides_a_cached_lead(
        monkeypatch):
    # x divides the lead x^2*y of every basis of I = <x^2*y>, and
    # I : x^infinity = <y>, which only the run finds; y and z divide no
    # lead under lex, so the shortcut must read x's exponent
    I = Ideal(XYZ, [P(XYZ, "x^2*y - x^2*z")])
    assert I.groebner_basis(lex_order(XYZ)) == I.gens
    runs = spy_on_runs(monkeypatch)
    J = saturate_by_variable(I, "x")
    assert [str(g) for g in J.gens] == ["y - z"]
    assert [order for _, order, _ in runs] == [
        MonomialOrder(XYZ, [[1, 2, 0]])]
    assert saturate_by_variable(I, "z") is I
    assert len(runs) == 1


def test_saturation_shortcut_matches_the_oracle_on_random_ideals(
        monkeypatch):
    # each random ideal with its basis cached under one of XYZ_ORDERS at
    # a time, saturated by each variable: the shortcut (no run, and no
    # read of a basis cached under v's own order) returns I only where
    # the oracle's I : v^infinity is I, and otherwise the result is the
    # oracle's ideal.  It fires in 46 of the 720 saturations; in 78 of
    # them the variable is a nonzerodivisor
    rng = random.Random(20261021)
    runs = spy_on_runs(monkeypatch)
    # a basis cached under v's own saturation order is read, not run
    v_last = [MonomialOrder(XYZ, [[w for w in range(3) if w != v] + [v]])
              for v in range(3)]
    fired = regular = 0
    for _ in range(40):
        gens = random_homogeneous_ideal(rng, XYZ).gens
        sats = [oracle_saturation(Ideal(XYZ, gens), v) for v in range(3)]
        for order in XYZ_ORDERS:
            for v in range(3):
                I = Ideal(XYZ, gens)
                I.groebner_basis(order)
                runs.clear()
                J = saturate_by_variable(I, v)
                if not runs and order != v_last[v]:
                    fired += 1
                    assert J is I
                    assert list(I._gb) == [order]
                is_regular = equal_ideals(sats[v], I)
                regular += is_regular
                assert (J is I) == is_regular
                assert equal_ideals(J, sats[v])
    assert (fired, regular) == (46, 78)


def test_intersection():
    I = Ideal(XYZ, [P(XYZ, "x")])
    J = Ideal(XYZ, [P(XYZ, "y")])
    K = intersect(I, J)
    assert [str(g) for g in K.gens] == ["x*y"]
    # intersection with itself
    assert equal_ideals(intersect(I, I), I)
    # I & 0 = 0, whichever side is zero
    Z = Ideal(XYZ, [])
    for A, B in ((I, Z), (Z, I), (Z, Z), (Ideal(XYZ, [XYZ.zero()]), Z)):
        assert intersect(A, B).groebner_basis() == ()


def test_intersection_validates_rings_and_avoids_taken_names():
    with pytest.raises(ValueError, match="different rings"):
        intersect(Ideal(XY, [P(XY, "x")]), Ideal(XYZ, [P(XYZ, "x")]))
    # the adjoined variable is renamed past every name the ring has
    R = polynomial_ring(["x", "_t", "_t_"])
    K = intersect(Ideal(R, [P(R, "x")]), Ideal(R, [P(R, "_t")]))
    assert [str(g) for g in K.groebner_basis()] == ["x*_t"]
    K = intersect(Ideal(R, [P(R, "_t_")]), Ideal(R, [P(R, "x"), P(R, "_t")]))
    assert [str(g) for g in K.groebner_basis()] == ["_t*_t_", "x*_t_"]


def test_ideal_rejects_a_generator_from_another_ring():
    with pytest.raises(ValueError, match="different ring"):
        Ideal(XY, [P(XY, "x"), P(XYZ, "x")])


def test_saturate_by_block():
    ring = polynomial_ring(["a0", "a1", "c0"], block_sizes=(2, 1))
    I = Ideal(ring, [P(ring, "a0*c0"), P(ring, "a1*c0")])
    S = saturate_by_block(I, 0)
    assert [str(g) for g in S.gens] == ["c0"]
    # saturating by c0 divides it out of both generators
    T = saturate_by_block(I, 1)
    assert equal_ideals(T, Ideal(ring, [P(ring, "a0"), P(ring, "a1")]))


@pytest.mark.parametrize("block", [-1, 2, 5, True, 0.0, "0"])
def test_saturate_by_block_rejects_a_missing_block(block):
    ring = polynomial_ring(["a0", "a1", "c0"], block_sizes=(2, 1))
    I = Ideal(ring, [P(ring, "a0*c0"), P(ring, "a1*c0")])
    with pytest.raises(ValueError, match="block"):
        saturate_by_block(I, block)


def test_saturation_rejects_inhomogeneous_input():
    I = Ideal(XYZ, [P(XYZ, "x*y"), P(XYZ, "x^2 + y")])
    with pytest.raises(ValueError, match="homogeneous") as exc:
        saturate_by_variable(I, "x")
    assert "\n" not in str(exc.value)
    with pytest.raises(ValueError, match="homogeneous"):
        saturate_by_block(I, 0)


def oracle_saturation(I, v):
    """I : v^infinity by the textbook route, independent of
    saturate_by_variable and intersect: eliminate t from I + <1 - t*v>
    in the ring with one more variable t."""
    ring = I.ring
    nv = ring.nvars
    ext = polynomial_ring(ring.names + ("t",))
    gens = [Polynomial(ext, {m + (0,): c for m, c in g.terms.items()})
            for g in I.gens]
    gens.append(ext.one() - ext.var("t") * ext.var_by_index(v))
    gb = buchberger(gens, elimination_order(ext, [nv]))
    return Ideal(ring, [
        Polynomial(ring, {m[:nv]: c for m, c in g.terms.items()})
        for g in gb if all(m[nv] == 0 for m in g.terms)])


def random_homogeneous_ideal(rng, ring):
    """Two or three sparse homogeneous generators of degree 2 or 3, some
    multiplied by a variable so that variables become zerodivisors."""
    nv = ring.nvars
    gens = []
    for _ in range(rng.randint(2, 3)):
        degree = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * nv
            for _ in range(degree):
                mono[rng.randrange(nv)] += 1
            terms[tuple(mono)] = rat(rng.choice([-3, -2, -1, 1, 2, 3]))
        g = Polynomial(ring, terms)
        if g.terms and rng.random() < 0.5:
            g = ring.var_by_index(rng.randrange(nv)) * g
        if g.terms:
            gens.append(g)
    return Ideal(ring, gens)


RANDOM_RINGS = [polynomial_ring(["a0", "a1", "b0"], block_sizes=(2, 1)),
                polynomial_ring(["a0", "a1", "b0", "b1"], block_sizes=(2, 2)),
                polynomial_ring(["a0", "a1", "a2", "b0"], block_sizes=(3, 1))]


@pytest.mark.parametrize("seed", range(12))
def test_saturation_matches_aux_variable_oracle(seed):
    rng = random.Random(seed)
    ring = RANDOM_RINGS[seed % len(RANDOM_RINGS)]
    I = random_homogeneous_ideal(rng, ring)
    sats = [oracle_saturation(I, v) for v in range(ring.nvars)]
    for v, want in enumerate(sats):
        assert equal_ideals(saturate_by_variable(I, v), want)
    for block, (start, stop) in enumerate(ring.block_slices()):
        want = sats[start]
        for other in sats[start + 1:stop]:
            want = intersect(want, other)
        assert equal_ideals(saturate_by_block(I, block), want)


def test_saturate_by_block_stops_at_a_nonzerodivisor():
    ring = polynomial_ring(["a0", "a1", "b0", "b1"], block_sizes=(2, 2))
    # a0 is a zerodivisor mod I (I : a0^infinity = <b0, b1^2>), but the
    # block's last variable a1, the first attempt, is not, so
    # I : <a0, a1>^infinity = I after one run with no certificate
    I = Ideal(ring, [P(ring, "a0*b0"), P(ring, "a0*b1^2 - b0*b1^2")])
    assert saturate_by_variable(I, "a1") is I
    assert not equal_ideals(oracle_saturation(I, 0), I)
    assert saturate_by_block(I, 0) is I
    want = intersect(oracle_saturation(I, 0), oracle_saturation(I, 1))
    assert equal_ideals(want, I)
    # here a1 is a zerodivisor: J : a1^infinity = <b0>, which the
    # certificate accepts at the first attempt (a0*b0 is in J)
    J = Ideal(ring, [P(ring, "a0*b0"), P(ring, "a1*b0")])
    S = saturate_by_block(J, 0)
    assert S is not J
    assert [str(g) for g in S.gens] == ["b0"]
    want = intersect(oracle_saturation(J, 0), oracle_saturation(J, 1))
    assert equal_ideals(S, want)


def block_saturation_and_runs(I, block):
    calls = []
    S = saturate_by_block(I, block, lambda *args: calls.append(args))
    start, stop = I.ring.block_slices()[block]
    want = oracle_saturation(I, start)
    for v in range(start + 1, stop):
        want = intersect(want, oracle_saturation(I, v))
    assert equal_ideals(S, want)
    return S, len(calls)


def test_saturate_by_block_retries_past_a_zerodivisor_form():
    # the bare last variable x1 divides: I : x1^infinity = <z>, but x0*z
    # is not in I, so the certificate fails and <z>, which the oracle
    # rejects, is not returned; the next form x1 + x0 is a nonzerodivisor
    # and I comes back unchanged
    ring = polynomial_ring(["x0", "x1", "z"], block_sizes=(2, 1))
    I = Ideal(ring, [P(ring, "x1*z")])
    S, runs = block_saturation_and_runs(I, 0)
    assert S is I
    assert runs == 2
    assert [str(g) for g in saturate_by_variable(I, "x1").gens] == ["z"]


def test_saturate_by_block_retries_with_a_higher_power():
    # I = <z> & <x1, x0^5>: the bare x1 divides out only x1^1, and
    # x0^1 * z is not in I; the form x1 + x0, sheared to y, divides out
    # y^5 and x0^5 * z is in I, so the second attempt is certified and
    # interreduced to <z>
    ring = polynomial_ring(["x0", "x1", "z"], block_sizes=(2, 1))
    I = Ideal(ring, [P(ring, "x1*z"), P(ring, "x0^5*z")])
    S, runs = block_saturation_and_runs(I, 0)
    assert [str(g) for g in S.gens] == ["z"]
    assert runs == 3


def test_saturate_by_block_certifies_every_block_variable():
    # I = <z> & <x0, x2>: the bare last variable x2 lies in the second
    # prime, and x0*z is in I while x1*z is not, so only a certificate
    # that tests x1 as well rejects <z>; the next form x2 + x1 + x0 is a
    # nonzerodivisor
    ring = polynomial_ring(["x0", "x1", "x2", "z"], block_sizes=(3, 1))
    I = Ideal(ring, [P(ring, "x0*z"), P(ring, "x2*z")])
    S, runs = block_saturation_and_runs(I, 0)
    assert S is I
    assert runs == 2


def test_saturate_by_block_gives_every_run_after_the_first_a_target(
        monkeypatch):
    # the shear of the second attempt keeps the Hilbert series, so its
    # run takes the K-polynomial of I = <x1*z, x0^5*z>, read off the
    # first attempt's basis: 1 - T^2 - T^6 + T^7, the lcm x0^5*x1*z added
    # back.  The back run takes the K of the saturation's leads, <z>,
    # which the result is handed.  Both runs return the plain run's basis
    targeted = spy_on_targets(monkeypatch)
    ring = polynomial_ring(["x0", "x1", "z"], block_sizes=(2, 1))
    I = Ideal(ring, [P(ring, "x1*z"), P(ring, "x0^5*z")])
    S = saturate_by_block(I, 0)
    assert [(gens.hilbert, order) for gens, order in targeted] == [
        ([1, 0, -1, 0, 0, 0, -1, 1], MonomialOrder(ring, [[0, 2, 1]])),
        ([1, -1], grevlex_order(ring))]
    for gens, order in targeted:
        assert buchberger(gens, order) == buchberger(tuple(gens), order)
    assert vars(S)["_numerator"] == {(0, 0): 1, (0, 1): -1}


def test_saturate_by_block_gives_up_after_ten_attempts(monkeypatch):
    # every form in x0, x1, the bare x1 first, is a zerodivisor mod
    # <x0*z, x1*z>, and each certificate is forced to fail here: the
    # retry must end in an error that names the block and counts its ten
    # attempts, not run forever
    import m0nbar.ideal as ideal_module
    certificates = []

    def failing_certificate(fs, basis, order):
        certificates.append(len(fs))
        return list(fs)

    monkeypatch.setattr(ideal_module, "_remainders", failing_certificate)
    ring = polynomial_ring(["x0", "x1", "z"], block_sizes=(2, 1))
    I = Ideal(ring, [P(ring, "x0*z"), P(ring, "x1*z")])
    with pytest.raises(RuntimeError, match="block 0: .* 10 attempts"):
        saturate_by_block(I, 0)
    assert certificates == [1] * 10


def test_saturation_pipeline_progress_n6():
    # every Buchberger run of the n = 6 pipeline reports once, at its
    # end: (S-pairs processed, 0 queued, basis size before
    # interreduction); the benchmark reads its per-run counts from here.
    # The pipeline starts from the five cubics and the quartic, an ideal
    # that is already saturated: every block's last variable is a
    # nonzerodivisor, so each block stops after one basis, one run each,
    # or none: b2 divides no lead of block a's basis, cached on the ideal,
    # so block b makes no run.  Block c's order is grevlex itself; its run
    # takes its Hilbert target from block a's basis: without it the run
    # reduced 11 S-pairs, and only the 2 up to the last nonzero remainder
    # of each total degree are left
    calls = []
    saturation_pipeline(6, lambda *args: calls.append(args))
    assert calls == [(11, 0, 7), (2, 0, 7)]
    assert len(calls) == 2
    assert sum(c[0] for c in calls) == 13
    assert sum(c[2] for c in calls) == 14
    # from the cubics alone, block a stops after one run; block b takes
    # one run for its last variable and one for the reduced grevlex basis
    # of the certified saturation, which adds the quartic; block c's
    # order is grevlex itself, so it reads that basis and runs nothing.
    # Without its Hilbert target that last run reduced 11 S-pairs, all to
    # zero, and kept its 7 inputs: their leads span the initial ideal, so
    # their K-polynomial meets the target and no pair is formed.  Block
    # b's first run takes its target from block a's basis, as above: 7
    # of its 23 S-pairs come at or before the last nonzero remainder of
    # their total degree
    calls = []
    cubic_route(6, lambda *args: calls.append(args))
    assert calls == [(23, 0, 10), (7, 0, 10), (0, 0, 7)]


def test_saturation_pipeline_normal_form_batches_n6(monkeypatch):
    # (len(fs), len(basis)) of every normal-form batch of the n = 6
    # pipeline, which are its certificates only: each Buchberger run
    # checks its generators on its own packed basis.  No block divides by
    # its last variable, so no block runs a certificate (see the progress
    # test above).
    import m0nbar.ideal as ideal_module
    batches = []
    remainders = ideal_module._remainders

    def spy(fs, basis, order):
        batches.append((len(fs), len(basis)))
        return remainders(fs, basis, order)

    monkeypatch.setattr(ideal_module, "_remainders", spy)
    saturation_pipeline(6)
    assert batches == []
    # from the cubics alone, block b's certificate tests only the one
    # basis element that b2 divides, times each of the block's two other
    # variables (an undivided element is in the ideal already)
    cubic_route(6)
    assert batches == [(2, 10)]


@pytest.mark.parametrize("n, made", [(5, 1), (6, 2), (7, 3)])
def test_saturation_pipeline_settles_every_block_unsheared(monkeypatch,
                                                           n, made):
    # every block is settled by its bare last variable: no shear, and
    # made runs in all.  Block a runs, and so does every later block
    # whose last variable divides a lead of each cached basis: block c at
    # n = 6, and block b at n = 7 with one more run for its certified
    # saturation (b2 divides with k = 1), whose grevlex basis block b's
    # result carries.  The others (block b at n = 5 and 6, blocks c and d
    # at n = 7) run nothing.  Block a's run is the only one without a
    # Hilbert target
    import m0nbar.ideal as ideal_module

    def no_shear(*args):
        raise AssertionError("saturation_pipeline sheared a block")

    monkeypatch.setattr(ideal_module, "_shear", no_shear)
    runs = spy_on_targets(monkeypatch)
    calls = []
    saturation_pipeline(n, lambda *args: calls.append(args))
    assert len(runs) == made - 1
    assert sum(queued == 0 for _, queued, _ in calls) == made


@pytest.mark.parametrize("n", [5, 6, 7])
def test_saturation_pipeline_never_takes_the_square_target(monkeypatch, n):
    # every run of the pipeline has more generators than variables, so
    # none drops a pair and the n = 6 progress and batch pins above and
    # the saturate 7 progress pin hold as they were
    import m0nbar.ideal as ideal_module
    series = ideal_module._complete_intersection_series

    def no_target(polys):
        if series(polys) is not None:
            raise AssertionError("a pipeline run took the square target")
        return None

    monkeypatch.setattr(ideal_module, "_complete_intersection_series",
                        no_target)
    saturation_pipeline(n)


def spy_on_misses(monkeypatch):
    """Log (ideal, order, bases cached before, runs made, basis) of every
    Ideal.groebner_basis call under an order its ideal has not cached,
    and the (gens, order, S-pairs) of every buchberger run; returns both
    logs."""
    runs = spy_on_runs(monkeypatch)
    basis_of = Ideal.groebner_basis
    misses = []

    def spy(self, order=None, progress=None):
        order = order or grevlex_order(self.ring)
        cached, before = dict(self._gb), len(runs)
        basis = basis_of(self, order, progress)
        if order not in cached:
            misses.append((self, order, cached, runs[before:], basis))
        else:
            assert len(runs) == before
        return basis

    monkeypatch.setattr(Ideal, "groebner_basis", spy)
    return misses, runs


def with_leads(basis, order):
    return sorted((str(g), g.leading_monomial(order)) for g in basis)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_saturation_pipeline_reuses_only_fresh_bases(monkeypatch, n):
    # every basis that groebner_basis returns under an order new to its
    # ideal comes from exactly one run under that order, and equals a
    # fresh run on the ideal's generators; a cached order runs nothing.
    # A block whose last variable divides no lead of a cached basis asks
    # for none (block b at n = 5 and 6, blocks c and d at n = 7)
    misses, runs = spy_on_misses(monkeypatch)
    saturation_pipeline(n)
    assert len(misses) == n - 4
    for I, order, _, made, basis in misses:
        (_, run_order, _), = made
        assert run_order == order
        assert list(basis) == buchberger(I.gens, order)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_saturation_pipeline_repeats_no_run(monkeypatch, n):
    # no run repeats one before it: the pipeline runs n - 4 times (block
    # a, block c at n = 6, block b and its back run at n = 7), each the
    # first ask of its order on its ideal, and a cached basis settles
    # every other block.  No run returns, with the same leads, a basis
    # its ideal has cached under another order
    misses, runs = spy_on_misses(monkeypatch)
    saturation_pipeline(n)
    assert len(runs) == len(misses) == n - 4
    assert len({(id(I), order) for I, order, *_ in misses}) == n - 4
    for I, order, cached, ((_, _, pairs),), basis in misses:
        assert with_leads(basis, order) not in [
            with_leads(b, other) for other, b in cached.items()]
        assert list(basis) == buchberger(I.gens, order)


# -- the bases an Ideal caches and the leads read off them -------------------


def assert_cached_leads_are_leading_monomials(I):
    """Every basis I caches equals a fresh run on I's generators under
    its order, and the leads read off it, its elements' first terms, are
    their leading monomials; returns the number of bases checked."""
    for order, basis in I._gb.items():
        assert list(basis) == buchberger(I.gens, order)
        assert I._leads(order) == [g.leading_monomial(order) for g in basis]
    return len(I._gb)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_cached_leads_are_the_leading_monomials_in_the_pipeline(
        monkeypatch, n):
    # every intermediate ideal of the pipeline, and the lex basis of its
    # result: the leads come from the run (the back run's also for the
    # block's result), and an ideal's one K-polynomial, read off a basis
    # or handed over (a back run's is read off the divided leads), is
    # that of its initial ideal under every cached order
    made = []
    init = Ideal.__init__

    def spy(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(Ideal, "__init__", spy)
    saturation_pipeline(n).groebner_basis(lex_order(moduli_ring(n)))
    bases = sum(map(assert_cached_leads_are_leading_monomials, made))
    with_k = [I for I in made if "_numerator" in vars(I)]
    for I in with_k:
        for order in I._gb:
            assert I._numerator == MonomialIdeal(I.ring,
                                                 I._leads(order))._numerator
    assert (bases, len(with_k)) == {5: (2, 1), 6: (3, 1), 7: (5, 3)}[n]


def test_cached_leads_are_the_leading_monomials_on_random_ideals():
    # generators of degrees 1 to 3, homogeneous or not, with a basis
    # asked for under each of XYZ_ORDERS: a polynomial of several terms
    # lists its lead first only because the run emits it so
    rng = random.Random(20261022)
    for _ in range(30):
        gens = [random_poly(rng, XYZ, rng.randint(1, 3), rng.random() < 0.5)
                for _ in range(rng.randint(1, 3))]
        I = Ideal(XYZ, gens)
        for order in XYZ_ORDERS:
            assert initial_ideal(I, order) == MonomialIdeal(
                XYZ, [g.leading_monomial(order)
                      for g in I.groebner_basis(order)])
        assert assert_cached_leads_are_leading_monomials(I) == 6


def test_cached_bases_are_fresh_runs_after_intersection_and_saturation():
    # an intersection caches no basis, so its first is a run on its own
    # generators, which are that basis already; a block saturation's
    # result caches its back run's grevlex basis, which a fresh run on its
    # generators gives too.  18 of the 24 block saturations return a new
    # ideal
    rng = random.Random(20261023)
    saturated = bases = 0
    for seed in range(12):
        ring = RANDOM_RINGS[seed % len(RANDOM_RINGS)]
        I = random_homogeneous_ideal(rng, ring)
        J = random_homogeneous_ideal(rng, ring)
        K = intersect(I, J)
        assert K._gb == {}
        assert K.groebner_basis() == K.gens  # as intersect's docstring says
        for block in range(ring.nblocks):
            S = saturate_by_block(I, block)
            if S is not I:
                saturated += 1
                assert list(S._gb) == [grevlex_order(ring)]
                bases += assert_cached_leads_are_leading_monomials(S)
        bases += sum(map(assert_cached_leads_are_leading_monomials, (I, K)))
    assert (saturated, bases) == (18, 53)


# -- monomial ideals and invariants ----------------------------------------


def test_monomial_ideal_repr():
    assert (repr(MonomialIdeal(XYZ, [(2, 0, 1), (1, 1, 0)]))
            == "MonomialIdeal(x*y, x^2*z)")
    unit = MonomialIdeal(XYZ, [(0, 0, 0), (1, 0, 0)])
    assert repr(unit) == "MonomialIdeal(1)"
    assert repr(MonomialIdeal(XYZ, [])) == "MonomialIdeal()"
    assert (repr(MonomialIdeal(R5, [(1, 0, 0, 2, 1)]))
            == "MonomialIdeal(a0*b1^2*b2)")


def test_monomial_ideal_minimal_gens():
    x2 = (2, 0, 0)
    xy = (1, 1, 0)
    x3y = (3, 1, 0)
    M = MonomialIdeal(XYZ, [x2, xy, x3y, xy])
    assert M.gens == ((1, 1, 0), (2, 0, 0))
    assert M.contains((5, 1, 2))
    assert not M.contains((1, 0, 4))
    assert not M.is_squarefree()
    assert MonomialIdeal(XYZ, [xy, (0, 0, 1)]).is_squarefree()
    # no coercion: a monomial ideal equals only a monomial ideal
    assert not MonomialIdeal(XYZ, [(0, 0, 0)]) == 1


@pytest.mark.parametrize("mono", [(1, 0), (1, -1, 0), (1, 0, 0, 0), [1, 0, 0],
                                  (1.0, 0, 0), "xyz"])
def test_monomial_ideal_rejects_a_malformed_monomial(mono):
    # a short tuple would be weighted by the wrong blocks, and a negative
    # exponent read as the unit ideal
    with pytest.raises(ValueError, match="not 3 ints >= 0"):
        MonomialIdeal(XYZ, [(0, 1, 0), mono])


def test_initial_ideal_and_squarefree():
    I5 = Ideal(R5, [P(R5, ABEQ)])
    M = initial_ideal(I5, lex_order(R5))
    # lex leading monomial of the cubic is a0*b0*b1
    assert M == MonomialIdeal(R5, [(1, 0, 1, 1, 0)])
    assert M.is_squarefree()
    N = initial_ideal(Ideal(XY, [P(XY, "x^2 + y")]), lex_order(XY))
    assert not N.is_squarefree()


def test_hilbert_numerator():
    # R/<x^2, x*y> over k[x,y,z]: series (1 - 2T^2 + T^3)/(1-T)^3
    M = MonomialIdeal(XYZ, [(2, 0, 0), (1, 1, 0)])
    assert hilbert_numerator(M) == [1, 0, -2, 1]
    assert hilbert_numerator(MonomialIdeal(XYZ, [])) == [1]
    assert hilbert_numerator(MonomialIdeal(XYZ, [(0, 0, 0)])) == [0]
    # coprime supports factor: <x, y^2> gives (1-T)(1-T^2)
    M2 = MonomialIdeal(XYZ, [(1, 0, 0), (0, 2, 0)])
    assert hilbert_numerator(M2) == [1, -1, -1, 1]


def test_hilbert_numerator_counts_standard_monomials():
    # independent oracle, monomials counted one by one: the T^d
    # coefficient of N(T)/(1-T)^k is the number of degree-d monomials
    # outside M, and in 1-3 blocks _count_in and the "standard" piece
    # dimension count those inside M in every multidegree up to 3
    rng = random.Random(20261019)
    for _ in range(400):
        k = rng.randint(1, 5)
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, min(2, k - 1))))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, k])]
        ring = polynomial_ring([f"x{i}" for i in range(k)], sizes)
        flat = polynomial_ring(ring.names)
        monos = [tuple(rng.randint(0, 3) for _ in range(k))
                 for _ in range(rng.randint(0, 7))]
        M = MonomialIdeal(ring, monos)
        num = hilbert_numerator(M)
        # N(T) ends at its last nonzero coefficient, [0] for the unit ideal
        assert num[-1] or num == [0], (M, num)
        for d in range(9):
            series = sum(c * comb(d - i + k - 1, k - 1)
                         for i, c in enumerate(num[:d + 1]))
            outside = sum(not M.contains(m)
                          for m in monomials_of_multidegree(flat, (d,)))
            assert series == outside, (M, d)
        I = Ideal(ring, [Polynomial.from_terms(ring, [(m, 1)]) for m in monos])
        for D in product(range(4), repeat=len(sizes)):
            inside = sum(map(M.contains, monomials_of_multidegree(ring, D)))
            assert _count_in(M, D) == inside, (M, D)
            assert graded_piece_dim(I, D, "standard") == inside, (M, D)


def add_shifted(K, L, a, sign):
    """K + sign * t^a * L, with no zero coefficient."""
    out = dict(K)
    for k, c in L.items():
        c = out.get(k + a, 0) + sign * c
        if c:
            out[k + a] = c
        else:
            out.pop(k + a)
    return out


def k_polynomial_oracle(gens, weights):
    """The K-polynomial of R/M for minimal exponent tuples gens, by the
    pivot recursion on the tuples themselves: K(M) = (1 - t^x) K(gens
    without x) + t^x K(M : x) for the most frequent variable x, with a
    variable generator factored out and disjoint supports multiplied."""
    degrees = list(map(sum, gens))
    if 0 in degrees:
        return {}
    if 1 in degrees:
        result = k_polynomial_oracle(
            tuple(g for g, d in zip(gens, degrees) if d > 1), weights)
        for g, d in zip(gens, degrees):
            if d == 1:
                result = add_shifted(result, result, weights[g.index(1)], -1)
        return result
    occ = [len(gens) - col.count(0) for col in zip(*gens)]
    if not occ or max(occ) < 2:
        result = {0: 1}
        for g in gens:
            a = sum(e * w for e, w in zip(g, weights))
            result = add_shifted(result, result, a, -1)
        return result
    x = occ.index(max(occ))
    w = weights[x]
    rest = tuple(g for g in gens if not g[x])
    quotients = [g[:x] + (g[x] - 1,) + g[x + 1:] for g in gens if g[x]]
    free = [q for q in quotients if not q[x]]
    colon = (*quotients, *[h for h in rest if not any(
        all(map(le, q, h)) for q in free)])
    result = k_polynomial_oracle(rest, weights)
    return add_shifted(add_shifted(result, result, w, -1),
                       k_polynomial_oracle(colon, weights), w, 1)


@st.composite
def monomial_ideals(draw):
    """(minimal gens, weights): up to 8 monomials in 1-5 variables with
    exponents up to 3, each variable weighted by its block's 8-bit field
    as MonomialIdeal._numerator packs them, in 1-3 random blocks."""
    k = draw(st.integers(1, 5))
    blocks = sorted(draw(st.lists(st.integers(0, 2), min_size=k,
                                  max_size=k)))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * k), max_size=8))
    ring = polynomial_ring([f"x{i}" for i in range(k)])
    return MonomialIdeal(ring, monos).gens, [1 << 8 * b for b in blocks]


@given(monomial_ideals())
@settings(max_examples=300, deadline=None)
def test_k_polynomial_matches_the_tuple_recursion(ideal):
    gens, weights = ideal
    assert _k_polynomial(gens, weights) == k_polynomial_oracle(gens, weights)


def test_k_polynomial_of_the_pipeline_matches_the_tuple_recursion():
    # the real initial ideals, whose polarization has 20-30 bits, under
    # the total degree and the block grading
    I = saturation_pipeline(7)
    for order in (grevlex_order(I.ring), lex_order(I.ring)):
        gens = initial_ideal(I, order).gens
        for weights in ([1] * I.ring.nvars,
                        [1 << 8 * b for b, n in enumerate(I.ring.block_sizes)
                         for _ in range(n)]):
            assert (_k_polynomial(gens, weights)
                    == k_polynomial_oracle(gens, weights))


def test_piece_dims_outside_the_grading():
    # a negative entry names an empty piece; a degree of the wrong length
    # names none
    I5 = Ideal(R5, [P(R5, ABEQ)])
    M = initial_ideal(I5)
    for D in ((-1, 3), (2, -1), (-1, -1)):
        assert _count_in(M, D) == 0
        for method in ("standard", "rank"):
            assert graded_piece_dim(I5, D, method) == 0
    for D in ((1,), (1, 2, 0)):
        with pytest.raises(ValueError, match="block count"):
            _count_in(M, D)
        for method in ("standard", "rank"):
            with pytest.raises(ValueError, match="block count"):
                graded_piece_dim(I5, D, method)


def test_hilbert_degree():
    assert hilbert_degree(Ideal(XYZ, [P(XYZ, "x")])) == (1, 1)
    assert hilbert_degree(Ideal(XYZ, [P(XYZ, "x*y")])) == (1, 2)
    assert hilbert_degree(Ideal(XYZ, [P(XYZ, "x"), P(XYZ, "y")])) == (2, 1)
    # plane conic: codim 1, degree 2
    assert hilbert_degree(Ideal(XYZ, [P(XYZ, "x*z - y^2")])) == (1, 2)
    with pytest.raises(ValueError):
        hilbert_degree(Ideal(XYZ, [XYZ.one()]))
    # the principal cubic for five points: hypersurface of degree 3
    assert hilbert_degree(Ideal(R5, [P(R5, ABEQ)])) == (1, 3)


def test_graded_piece_dim_both_methods():
    I = Ideal(XY, [P(XY, "x^2"), P(XY, "x*y")])
    for D, want in [((1,), 0), ((2,), 2), ((3,), 3), ((4,), 4)]:
        assert graded_piece_dim(I, D, "standard") == want
        assert graded_piece_dim(I, D, "rank") == want
    I5 = Ideal(R5, [P(R5, ABEQ)])
    # the cubic spans a single line in its own multidegree
    assert graded_piece_dim(I5, (1, 2), "standard") == 1
    assert graded_piece_dim(I5, (1, 2), "rank") == 1
    assert graded_piece_dim(I5, (0, 2), "rank") == 0
    # neither method answers for an inhomogeneous ideal
    inhom = Ideal(XY, [P(XY, "x + y^2")])
    for method in ("standard", "rank"):
        with pytest.raises(ValueError, match="not multihomogeneous"):
            graded_piece_dim(inhom, (2,), method)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        graded_piece_dim(I, (2,), method="bogus")


def test_graded_invariants_in_degree_zero():
    # degree 0 packs the rank method's monomials into fields one bit wide
    for gens, want in [(["1"], 1), (["x"], 0), ([], 0)]:
        I = Ideal(XY, [P(XY, g) for g in gens])
        assert graded_piece_dim(I, (0,), "standard") == want
        assert graded_piece_dim(I, (0,), "rank") == want
    assert min_gens_by_total_degree(Ideal(XY, [XY.one()])) == {0: 1}
    # the zero ideal: nothing in any degree, and R/0 is all of P^1
    Z = Ideal(XY, [])
    assert graded_piece_dim(Z, (2,), "standard") == 0
    assert graded_piece_dim(Z, (2,), "rank") == 0
    assert min_gens_by_total_degree(Z) == {}
    assert hilbert_degree(Z) == (0, 1)


def test_min_gens_by_total_degree():
    I = Ideal(XY, [P(XY, "x^2"), P(XY, "x*y"), P(XY, "x^3")])
    assert min_gens_by_total_degree(I) == {2: 2}
    I5 = Ideal(R5, [P(R5, ABEQ)])
    assert min_gens_by_total_degree(I5) == {3: 1}
    # a complete intersection keeps both generators
    J = Ideal(XYZ, [P(XYZ, "x^2 - y*z"), P(XYZ, "y^3")])
    assert min_gens_by_total_degree(J) == {2: 1, 3: 1}
    # <x, x + y^2> = <x, y^2> has a multihomogeneous reduced basis, but
    # its given generators name no multidegree to count in
    inhom = Ideal(XY, [P(XY, "x"), P(XY, "x + y^2")])
    with pytest.raises(ValueError, match="not multihomogeneous"):
        min_gens_by_total_degree(inhom)


# -- Macaulay rows against the column-numbering builder --------------------


def macaulay_rows_by_column_number(polys, ring, degrees, skip_unit):
    """The oracle for _macaulay_rows: the same rows in the same order,
    keyed instead by column number.  Column i is the i-th monomial of D
    in ascending tuple order, so every monomial of D is listed and
    sorted."""
    for D in degrees:
        monos = sorted(monomials_of_multidegree(ring, D))
        cols = {m: i for i, m in enumerate(monos)}
        rows = []
        for p in polys:
            rem = tuple(map(sub, D, p.multidegree()))
            if min(rem) < 0 or (skip_unit and not any(rem)):
                continue
            terms = _int_form(p.terms)[0]
            for m in monomials_of_multidegree(ring, rem):
                rows.append({cols[tuple(a + b for a, b in zip(t, m))]: c
                             for t, c in terms.items()})
        yield rows


def test_macaulay_rows_match_the_column_numbering_builder():
    # a packed key sorts like its monomial's exponent tuple, so both
    # builders make the same matrix up to a monotone renaming of columns
    rng = random.Random(20261020)
    for _ in range(150):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        ring = polynomial_ring([f"x{i}" for i in range(sum(sizes))], sizes)

        def multidegree(top):
            return tuple(rng.randint(0, top) for _ in sizes)

        polys = []
        for _ in range(rng.randint(1, 5)):
            monos = monomials_of_multidegree(ring, multidegree(2))
            monos = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
            polys.append(Polynomial.from_terms(ring, [
                (m, rat(rng.choice([-5, -2, -1, 1, 3]), rng.randint(1, 3)))
                for m in monos]))
        degrees = sorted({p.multidegree() for p in polys}
                         | {multidegree(3), multidegree(3)})
        skip_unit = rng.random() < 0.5
        packed = _macaulay_rows(Ideal(ring, polys), degrees, skip_unit)
        numbered = macaulay_rows_by_column_number(polys, ring, degrees,
                                                  skip_unit)
        for D, rows, want in zip(degrees, packed, numbered):
            assert len(rows) == len(want), D
            column = {}
            for row, old in zip(rows, want):
                assert list(row.values()) == list(old.values())
                for key, i in zip(row, old):
                    assert column.setdefault(key, i) == i
            keys = sorted(column)
            assert [column[k] for k in keys] == sorted(column.values()), D
            assert len(set(column.values())) == len(keys)
            assert matrix_rank(rows) == matrix_rank(want), D


# -- minimal generators against the loop over basis multidegrees ----------


def min_gens_over_basis_degrees(I):
    """The oracle for min_gens_by_total_degree: the same count, dim I_D
    minus the span of (monomial != 1) * (basis element), in every
    multidegree D of the reduced grevlex basis, which holds the
    multidegrees of all minimal generators and usually many more.  dim
    I_D counts the monomials of degree D in the initial ideal one by one."""
    gb = I.groebner_basis()
    M = initial_ideal(I)
    out = {}
    for D in sorted({g.multidegree() for g in gb}):
        rows, = _macaulay_rows(Ideal(I.ring, gb), [D], skip_unit=True)
        inside = sum(map(M.contains, monomials_of_multidegree(I.ring, D)))
        count = inside - matrix_rank(rows)
        if count:
            out[sum(D)] = out.get(sum(D), 0) + count
    return out


X2Y2 = polynomial_ring(["x0", "x1", "y0", "y1"], block_sizes=(2, 2))


@st.composite
def redundant_bihomogeneous_ideals(draw):
    """Random forms on P^1 x P^1 of multidegree at most (2, 2), plus
    redundant generators: a form plus a multiple of another, and
    monomial multiples of forms; all in a drawn order."""
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)

    def monomial(D):
        t = draw(st.sampled_from(monomials_of_multidegree(X2Y2, D)))
        return Polynomial.from_terms(X2Y2, [(t, 1)])

    def form(D):
        monos = draw(st.lists(st.sampled_from(monomials_of_multidegree(X2Y2, D)),
                              min_size=1, max_size=3, unique=True))
        return Polynomial.from_terms(X2Y2, [(m, draw(coeff)) for m in monos])

    degree = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
    forms = [form(D) for D in draw(st.lists(degree, min_size=1, max_size=4))]
    gens = list(forms)
    index = st.integers(0, len(forms) - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, coeff), max_size=3)):
        rem = tuple(map(sub, forms[i].multidegree(), forms[j].multidegree()))
        if min(rem) >= 0:
            total = forms[i] + c * monomial(rem) * forms[j]
            if total.terms:
                gens.append(total)
    for j, D in draw(st.lists(st.tuples(index, degree), max_size=2)):
        gens.append(monomial(D) * forms[j])
    return Ideal(X2Y2, draw(st.permutations(gens)))


@given(redundant_bihomogeneous_ideals())
@settings(max_examples=60, deadline=None)
def test_min_gens_matches_the_basis_degree_loop(I):
    assert min_gens_by_total_degree(I) == min_gens_over_basis_degrees(I)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_min_gens_matches_the_basis_degree_loop_on_the_paper_ideals(n):
    for I in (cubic_quartic_ideal(n), saturation_pipeline(n)):
        assert min_gens_by_total_degree(I) == min_gens_over_basis_degrees(I)
