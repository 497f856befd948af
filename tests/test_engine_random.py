"""Randomized engine validation on small ideals.

Two independent correctness oracles for the Groebner machinery, run on
a seeded population of over 100 random ideals in at most 3 variables
with at most 3 generators of degree at most 3 (and, for the dropped
pairs of n forms in n variables, on square systems checked against the
same generators plus one redundant product):

  * every S-polynomial of a computed basis reduces to zero against the
    basis (the textbook confluence certificate);
  * for homogeneous ideals, ideal membership of a homogeneous f of
    degree d is a pure linear-algebra question in the degree-d piece,
    span{m * g : g a generator, m a monomial of degree d - deg g}, so
    the Groebner answer must agree with a matrix rank computation that
    never touches the Groebner code.
"""

import random

from m0nbar.arith import matrix_rank, rat
from m0nbar.ideal import Ideal, buchberger, contains, normal_form, spolynomial
from m0nbar.poly import (
    MonomialOrder,
    Polynomial,
    elimination_order,
    grevlex_order,
    lex_order,
    monomials_of_multidegree,
    parse_polynomial,
    polynomial_ring,
)


def random_poly(rng, ring, degree, homogeneous):
    """Random nonzero polynomial of total degree <= degree (== degree
    when homogeneous), small integer coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            d = degree if homogeneous else rng.randint(0, degree)
            mono = rng.choice(monomials_of_multidegree(ring, (d,)))
            terms[mono] = rat(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = Polynomial(ring, terms)
        if p.terms:
            return p


def random_ideal(rng, homogeneous):
    nv = rng.randint(1, 3)
    ring = polynomial_ring(list("xyz")[:nv])
    gens = [random_poly(rng, ring, rng.randint(1, 3), homogeneous)
            for _ in range(rng.randint(1, 3))]
    return Ideal(ring, gens)


def coefficient_row(f, index):
    row = [rat(0)] * len(index)
    for mono, c in f.terms.items():
        row[index[mono]] = c
    return row


def degree_piece_rows(I, d):
    """Coefficient vectors spanning the degree-d piece of the ideal
    (valid for homogeneous generators)."""
    ring = I.ring
    index = {m: i for i, m in enumerate(monomials_of_multidegree(ring, (d,)))}
    rows = []
    for g in I.gens:
        dg = g.total_degree()
        if dg > d:
            continue
        for mono in monomials_of_multidegree(ring, (d - dg,)):
            rows.append(coefficient_row(Polynomial(ring, {mono: rat(1)}) * g,
                                        index))
    return rows, index


def membership_oracle(I, f):
    """Rank test: f lies in the span of the degree-d products iff
    appending its coefficient vector does not raise the rank."""
    if not f.terms:
        return True
    rows, index = degree_piece_rows(I, f.total_degree())
    if not rows:
        return False
    return matrix_rank(rows + [coefficient_row(f, index)]) == matrix_rank(rows)


def block_order(ring, k):
    """On three variables, the k-th of three block orders (cycling);
    their packed order digits are prefix sums across block boundaries."""
    return [MonomialOrder(ring, [[2], [0, 1]]),
            MonomialOrder(ring, [[1, 0], [2]]),
            elimination_order(ring, [0])][k % 3]


def spoly_certificate(I, order):
    gb = I.groebner_basis(order)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = spolynomial(gb[i], gb[j], order)
            if normal_form(s, gb, order):
                return False
    return True


def test_homogeneous_membership_agrees_with_rank_oracle():
    rng = random.Random(20260819)
    ideals = 0
    agreements = 0
    while ideals < 100:
        I = random_ideal(rng, homogeneous=True)
        ideals += 1
        order = grevlex_order(I.ring) if ideals % 2 else lex_order(I.ring)
        assert spoly_certificate(I, order)
        if I.ring.nvars == 3:
            assert spoly_certificate(I, block_order(I.ring, ideals))
        dmax = max(g.total_degree() for g in I.gens)
        for _ in range(3):
            if rng.random() < 0.5:
                # definite member: random degree-dmax combination
                f = I.ring.zero()
                for g in I.gens:
                    mono = rng.choice(monomials_of_multidegree(
                        I.ring, (dmax - g.total_degree(),)))
                    scale = Polynomial(I.ring,
                                       {mono: rat(rng.randint(-2, 2))})
                    f = f + scale * g
            else:
                f = random_poly(rng, I.ring, dmax, homogeneous=True)
            got = contains(I, f)
            assert got == membership_oracle(I, f)
            agreements += 1
    assert ideals >= 100 and agreements >= 300


def test_inhomogeneous_certificates_and_span_members():
    rng = random.Random(77)
    for k in range(60):
        I = random_ideal(rng, homogeneous=False)
        order = grevlex_order(I.ring) if k % 2 else lex_order(I.ring)
        assert spoly_certificate(I, order)
        if I.ring.nvars == 3:
            assert spoly_certificate(I, block_order(I.ring, k))
        # span members at bounded degree must test as members; the
        # converse is not linear-algebra-decidable without homogeneity
        f = I.ring.zero()
        for g in I.gens:
            head = 3 - g.total_degree()
            if head < 0:
                continue
            mono = rng.choice(monomials_of_multidegree(
                I.ring, (rng.randint(0, head),)))
            f = f + Polynomial(I.ring, {mono: rat(rng.randint(-2, 2))}) * g
        assert contains(I, f)


def test_groebner_bases_are_reduced_and_monic():
    rng = random.Random(5150)
    for k in range(20):
        I = random_ideal(rng, homogeneous=bool(k % 2))
        order = lex_order(I.ring) if k % 3 == 0 else grevlex_order(I.ring)
        gb = I.groebner_basis(order)
        for i, g in enumerate(gb):
            assert g.leading_coefficient(order) == 1
            others = gb[:i] + gb[i + 1:]
            if others:
                # no term of g is divisible by another leading monomial
                reduced = normal_form(g, others, order)
                assert reduced == g


# -- n forms in n variables: the complete-intersection target ------------


def dense_form(rng, ring, d):
    return Polynomial(ring, {m: rat(rng.choice([c for c in range(-9, 10) if c]))
                             for m in monomials_of_multidegree(ring, (d,))})


def square_system(rng, kind):
    """nvars homogeneous forms in 2-4 variables: dense generic ones, or
    a degenerate kind (a repeated form, a common factor, monomials, a
    form in the ideal of the others)."""
    nv = rng.randint(2, 4)
    ring = polynomial_ring(list("xyzw")[:nv])
    degrees = [rng.randint(1, 3 if nv < 4 else 2) for _ in range(nv)]
    gens = [dense_form(rng, ring, d) for d in degrees]
    if kind == "repeated":
        gens[-1] = gens[0]
    elif kind == "common factor":
        x = ring.var_by_index(0)
        gens = [x * dense_form(rng, ring, d) for d in degrees]
    elif kind == "monomials":
        gens = [Polynomial(ring, {rng.choice(monomials_of_multidegree(
            ring, (d,))): rat(1)}) for d in degrees]
    elif kind == "in the others":
        d = max(degrees[:-1]) + 1
        gens[-1] = sum((dense_form(rng, ring, d - g.total_degree()) * g
                        for g in gens[:-1]), ring.zero())
    return ring, gens


def final_count(gens, order):
    """S-pairs the run reduced, from its final progress call."""
    calls = []
    buchberger(gens, order, lambda *args: calls.append(args))
    return calls[-1][0]


def test_square_systems_match_one_more_generator():
    # n + 1 generators never take the target, so they are the oracle for
    # the reduced basis; the confluence certificate checks it on its own
    rng = random.Random(2020)
    square = plus = 0
    for k in range(40):
        kind = ("dense", "repeated", "common factor", "monomials",
                "in the others")[k % 5]
        ring, gens = square_system(rng, kind)
        more = gens + [ring.var_by_index(0) * gens[0]]
        I, J = Ideal(ring, gens), Ideal(ring, more)
        nv = ring.nvars
        for order in (grevlex_order(ring), lex_order(ring),
                      MonomialOrder(ring, [[nv - 1], list(range(nv - 1))])):
            assert I.groebner_basis(order) == J.groebner_basis(order)
            assert spoly_certificate(I, order)
            if kind == "dense":
                square += final_count(gens, order)
                plus += final_count(more, order)
    assert square < plus


def test_square_system_drops_pairs():
    # one dense (2, 2, 3) system: S-pairs reduced with the target, and
    # with one more generator, which switches it off: the target drops 6
    # of the 10 pairs
    ring = polynomial_ring(["x", "y", "z"])
    gens = [parse_polynomial(ring, t) for t in (
        "3*x^2 - 7*x*y + 2*x*z + 5*y^2 - y*z + 8*z^2",
        "-4*x^2 + x*y + 9*x*z - 2*y^2 + 6*y*z - 3*z^2",
        "x^3 - 5*x^2*y + 2*x^2*z + 7*x*y^2 - x*y*z + 4*x*z^2 - 6*y^3"
        " + 3*y^2*z - 9*y*z^2 + 2*z^3")]
    more = gens + [ring.var_by_index(0) * gens[0]]
    for order in (grevlex_order(ring), lex_order(ring)):
        assert final_count(gens, order) == 4 < final_count(more, order) == 10
