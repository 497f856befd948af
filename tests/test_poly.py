"""Tests for rings, monomial orders, and sparse polynomial arithmetic."""

from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m0nbar.arith import Rational, rat
from m0nbar.poly import (
    MonomialOrder,
    Polynomial,
    elimination_order,
    format_polynomial,
    grevlex_order,
    lex_order,
    moduli_ring,
    monomials_of_multidegree,
    parse_polynomial,
    polynomial_ring,
)

R6 = moduli_ring(6)
R5 = moduli_ring(5)
XYZ = polynomial_ring(["x", "y", "z"])


def P(ring, text):
    return parse_polynomial(ring, text)


def test_moduli_ring_layout():
    assert R6.block_sizes == (2, 3, 4)
    assert R6.names == ("a0", "a1", "b0", "b1", "b2", "c0", "c1", "c2", "c3")
    assert R6.nvars == 9
    assert moduli_ring(5).names == ("a0", "a1", "b0", "b1", "b2")
    r9 = moduli_ring(9)
    assert r9.block_sizes == (2, 3, 4, 5, 6, 7)
    assert r9.names[-1] == "f6"
    r10 = moduli_ring(10)
    assert r10.names[0] == "w1_0" and r10.names[-1] == "w7_7"
    with pytest.raises(ValueError):
        moduli_ring(4)


@pytest.mark.parametrize("sizes", [(3, -1), (2, 0), (0, 2), (1,)])
def test_ring_rejects_empty_blocks(sizes):
    # (1,) has no empty block, but sizes that miss the name count
    with pytest.raises(ValueError, match="block"):
        polynomial_ring(["x", "y"], sizes)


def test_ring_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        polynomial_ring(["x", "y", "x"], (1, 2))


def test_multidegree():
    p = P(R6, "a0*b1*c2^2")
    assert p.multidegree() == (1, 1, 2)
    assert p.total_degree() == 4
    q = P(R6, "a0*b1 + b0*c1")
    assert not q.is_multihomogeneous()
    with pytest.raises(ValueError, match="not multihomogeneous"):
        q.multidegree()
    zero = R6.zero()
    assert zero.is_multihomogeneous()
    with pytest.raises(ValueError, match="zero polynomial has no multidegree"):
        zero.multidegree()


# -- monomial orders ----------------------------------------------------


def sorted_names(ring, order, monos):
    return [format_polynomial(Polynomial(ring, {m: Rational(1)}))
            for m in sorted(monos, key=order.key, reverse=True)]


def test_lex_vs_grevlex():
    lex, grev = lex_order(XYZ), grevlex_order(XYZ)
    deg2 = monomials_of_multidegree(XYZ, (2,))
    assert sorted_names(XYZ, lex, deg2) == [
        "x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]
    assert sorted_names(XYZ, grev, deg2) == [
        "x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]
    # lex ignores total degree, grevlex ranks by it first
    x, y = XYZ.index("x"), XYZ.index("y")
    mx = tuple(1 if i == x else 0 for i in range(3))
    my5 = tuple(5 if i == y else 0 for i in range(3))
    assert lex.key(mx) > lex.key(my5)
    assert grev.key(my5) > grev.key(mx)


def test_elimination_order_property():
    # eliminating the last variable t, as ideal intersection does
    ext = polynomial_ring(["x", "y", "z", "t"])
    order = elimination_order(ext, [3])
    t = ext.var("t").leading_monomial(order)
    x5 = (ext.var("x") ** 5).leading_monomial(order)
    assert order.key(t) > order.key(x5)
    # t-free monomials compare as under grevlex on x, y, z
    monos = [m for d in range(4)
             for m in monomials_of_multidegree(XYZ, (d,))]
    assert ([m + (0,) for m in sorted(monos, key=grevlex_order(XYZ).key)]
            == sorted((m + (0,) for m in monos), key=order.key))


def test_orders_are_block_lists():
    assert lex_order(XYZ) == MonomialOrder(XYZ, [[0], [1], [2]])
    assert grevlex_order(XYZ) == MonomialOrder(XYZ, [[0, 1, 2]])
    assert elimination_order(XYZ, [2]) == MonomialOrder(XYZ, [[2], [0, 1]])
    assert elimination_order(XYZ, [0, 1, 2]) == grevlex_order(XYZ)
    assert hash(lex_order(XYZ)) == hash(MonomialOrder(XYZ, [[0], [1], [2]]))
    assert lex_order(XYZ) != grevlex_order(XYZ)
    assert repr(elimination_order(XYZ, [2])) == "MonomialOrder([[2], [0, 1]])"
    # a one-variable block compares its exponent
    assert lex_order(XYZ).key((1, 2, 3)) == (1, 2, 3)
    assert grevlex_order(XYZ).key((1, 2, 3)) == (6, -3, -2)


def test_lex_order_is_tuple_order():
    # format_polynomial and moduli sort by plain tuples on this identity
    R7 = moduli_ring(7)
    ms = monomials_of_multidegree(R7, (1, 2, 1, 2))
    assert sorted(ms, key=lex_order(R7).key) == sorted(ms)


@pytest.mark.parametrize("blocks", [
    [[0, 1], [], [2]],     # empty block
    [[0, 1], [1, 2]],      # repeated variable
    [[0, 2]],              # missing variable
    [[0, 1, 2, 3]],        # not a variable of the ring
])
def test_order_rejects_bad_blocks(blocks):
    with pytest.raises(ValueError):
        MonomialOrder(XYZ, blocks)


def _ordered_partitions(items):
    """Every ordered partition of items into nonempty blocks, the
    variables of each block in every order: for x, y, z, the 24 ways to
    cut a permutation, lex and one block among them."""
    if not items:
        yield []
        return
    for size in range(1, len(items) + 1):
        for head in permutations(items, size):
            rest = [v for v in items if v not in head]
            for tail in _ordered_partitions(rest):
                yield [list(head)] + tail


BLOCK_LAYOUTS = list(_ordered_partitions([0, 1, 2]))


def _block_grevlex_greater(blocks, a, b):
    """Textbook comparison: the first block where a and b differ decides;
    there the larger degree wins, then the smaller exponent at the last
    variable of the block where they differ."""
    for block in blocks:
        ea, eb = [a[i] for i in block], [b[i] for i in block]
        if ea != eb:
            if sum(ea) != sum(eb):
                return sum(ea) > sum(eb)
            last = max(j for j in range(len(ea)) if ea[j] != eb[j])
            return ea[last] < eb[last]
    return False


@pytest.mark.parametrize("blocks", BLOCK_LAYOUTS)
def test_orders_compare_blockwise_by_grevlex(blocks):
    order = MonomialOrder(XYZ, blocks)
    monos = [m for d in range(4) for m in monomials_of_multidegree(XYZ, (d,))]
    for a in monos:
        for b in monos:
            assert ((order.key(a) > order.key(b))
                    == _block_grevlex_greater(blocks, a, b))


mono3 = st.tuples(*(st.integers(min_value=0, max_value=6) for _ in range(3)))


@given(mono3, mono3, mono3, st.sampled_from(BLOCK_LAYOUTS))
def test_order_axioms(a, b, m, blocks):
    order = MonomialOrder(XYZ, blocks)
    one = (0, 0, 0)
    prod = tuple(x + y for x, y in zip(a, m))
    prod_b = tuple(x + y for x, y in zip(b, m))
    # total order
    assert (order.key(a) > order.key(b)) + (order.key(a) < order.key(b)) + (a == b) == 1
    # 1 is minimal
    if a != one:
        assert order.key(a) > order.key(one)
    # multiplicative
    assert ((order.key(prod) > order.key(prod_b))
            == (order.key(a) > order.key(b)))


# -- monomial enumeration ------------------------------------------------


def binomial_count(ring, degree):
    """Monomials of a multidegree by the product of binomials
    C(d_i + s_i - 1, s_i - 1) over blocks of s_i variables."""
    if any(d < 0 for d in degree):
        return 0
    out = 1
    for d, s in zip(degree, ring.block_sizes):
        out *= comb(d + s - 1, s - 1)
    return out


def test_monomials_of_multidegree_counts():
    assert binomial_count(R6, (1, 1, 2)) == 60
    assert len(monomials_of_multidegree(R6, (1, 1, 2))) == 60
    assert len(monomials_of_multidegree(R6, (0, 0, 0))) == 1
    assert binomial_count(R6, (2, 2, 2)) == 180
    assert len(monomials_of_multidegree(R6, (2, 2, 2))) == 180
    monos = monomials_of_multidegree(R6, (1, 1, 2))
    assert len(set(monos)) == 60
    for m in monos:
        assert R6.multidegree(m) == (1, 1, 2)
    for degree in product(range(3), repeat=3):
        assert (len(monomials_of_multidegree(R6, degree))
                == binomial_count(R6, degree))
    with pytest.raises(ValueError, match="block count"):
        monomials_of_multidegree(R6, (1,))
    assert binomial_count(R6, (-3, 1, 1)) == 0
    assert monomials_of_multidegree(R6, (-3, 1, 1)) == []
    X = polynomial_ring(["x"])
    assert binomial_count(X, (-1,)) == 0
    assert monomials_of_multidegree(X, (-1,)) == []


# -- arithmetic ----------------------------------------------------------


names5 = ["a0", "a1", "b0", "b1", "b2"]


@st.composite
def small_polys(draw):
    n = draw(st.integers(0, 4))
    pairs = []
    for _ in range(n):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(5))
        coeff = Rational(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        pairs.append((mono, coeff))
    return Polynomial.from_terms(R5, pairs)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=150)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + R5.zero() == p
    assert p * R5.one() == p
    assert p - p == R5.zero()


@given(small_polys(), small_polys())
@settings(max_examples=100)
def test_evaluation_is_ring_morphism(p, q):
    point = [rat(i - 2, 3) for i in range(5)]
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    with pytest.raises(ValueError, match="number of coordinates"):
        p.evaluate(point[:4])


@given(small_polys())
@settings(max_examples=100)
def test_format_parse_roundtrip(p):
    assert parse_polynomial(R5, format_polynomial(p)) == p


def test_format_examples():
    p = P(R5, "a0*b0*b1 - a1*b0*b1 + a1*b0*b2 - a0*b1*b2")
    assert format_polynomial(p) == "a0*b0*b1 - a0*b1*b2 - a1*b0*b1 + a1*b0*b2"
    assert format_polynomial(R5.zero()) == "0"
    assert format_polynomial(R5.constant(rat(-3, 4))) == "-3/4"
    assert format_polynomial(P(R5, "2*a0^2 - 1/2*b0")) == "2*a0^2 - 1/2*b0"
    assert str(P(R5, "a1*b2") * rat(1, 3)) == "1/3*a1*b2"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial(R5, "a0*q3")
    with pytest.raises(ValueError):
        parse_polynomial(R5, "")
    with pytest.raises(ValueError):
        parse_polynomial(R5, "a0 + ")
    with pytest.raises(ValueError, match="1/0"):
        parse_polynomial(R5, "1/0*a0")
    with pytest.raises(ValueError):
        parse_polynomial(R5, "a0++b0")
    with pytest.raises(ValueError, match=r"empty factor in 'x\*\*y'"):
        parse_polynomial(XYZ, "x**y")


def test_parse_keeps_a_sign_after_slash_in_the_denominator():
    assert (parse_polynomial(R5, "1/-2*a0")
            == parse_polynomial(R5, "-1/2*a0"))


def test_cross_ring_arithmetic_rejected():
    p = P(R5, "a0")
    q = P(R6, "a0")
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p - q
    with pytest.raises(ValueError, match="different rings"):
        p * q
    with pytest.raises(TypeError):
        p * "a0"
    with pytest.raises(TypeError):
        p * 0.5
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_scalar_products():
    p = P(XYZ, "x^2 - 1/3*y*z + 2")
    assert 0 * p == XYZ.zero() and not 0 * p
    assert not p * 0 and not p * rat(0)
    assert 3 * p == P(XYZ, "3*x^2 - y*z + 6")
    assert p * 3 == 3 * p
    assert p * rat(-2, 7) == P(XYZ, "-2/7*x^2 + 2/21*y*z - 4/7")
    assert rat(-2, 7) * p == p * rat(-2, 7)
    assert p * 1 == p and 1 * p == p


def test_subtraction_from_a_scalar():
    # a scalar on the left is coerced, as on the right; any other type is
    # declined, so the error names the operator and operands as written
    p = P(XYZ, "x^2 - 1/3*y*z + 2")
    assert 3 - p == -(p - 3) == P(XYZ, "-x^2 + 1/3*y*z + 1")
    assert rat(1, 2) - p == -(p - rat(1, 2))
    with pytest.raises(TypeError, match="for -: 'float' and 'Polynomial'"):
        1.5 - p


def test_bool_constants_print_as_ints():
    x = XYZ.var("x")
    assert str(x + True) == "x + 1" and str(True + x) == "x + 1"
    assert str(x - True) == "x - 1"
    assert str(x * True) == "x" and not x * False
    (c,) = XYZ.constant(True).terms.values()
    assert type(c.num) is int and repr(c) == "Rational(1, 1)"
    assert not XYZ.constant(False)


@given(small_polys(), small_polys(),
       st.sampled_from([lex_order, grevlex_order]))
@settings(max_examples=150)
def test_leading_term_of_product(p, q, make_order):
    if not p or not q:
        return
    order = make_order(R5)
    lp, lq = p.leading_monomial(order), q.leading_monomial(order)
    # no zero divisors over the rationals, so leads multiply
    assert (p * q).leading_monomial(order) == tuple(
        a + b for a, b in zip(lp, lq))
    assert ((p * q).leading_coefficient(order)
            == p.leading_coefficient(order) * q.leading_coefficient(order))


ORDERS_R5 = {
    "lex": lex_order(R5),
    "grevlex": grevlex_order(R5),
    "permuted grevlex": MonomialOrder(R5, [[3, 0, 4, 2, 1]]),
    "elimination": elimination_order(R5, [4, 1]),
    "two blocks": MonomialOrder(R5, [[2, 0], [4, 1, 3]]),
}


@given(st.integers(min_value=2, max_value=2 ** 40),
       st.sampled_from(sorted(ORDERS_R5)))
@settings(max_examples=40)
def test_leading_monomial_matches_the_key_oracle(B, name):
    # every pair of monomials of R5 in at most two variables, each to the
    # power 1 or B: their order digits tie or differ by 1 in the high
    # fields while a lower digit differs by B, up to the total degree
    order = ORDERS_R5[name]
    monos = sorted({tuple(e * (v == i) + f * (v == j) for v in range(5))
                    for i, j in combinations(range(5), 2)
                    for e in (0, 1, B) for f in (0, 1, B)})
    for a, b in combinations(monos, 2):
        p = Polynomial(R5, {a: Rational(1), b: Rational(-1)})
        assert p.leading_monomial(order) == max(a, b, key=order.key)
    p = Polynomial(R5, {m: Rational(1) for m in monos})
    assert p.leading_monomial(order) == max(monos, key=order.key)


def test_leading_terms():
    lex = lex_order(R5)
    p = P(R5, "a0*b0*b1 - a1*b0*b1 + a1*b0*b2 - a0*b1*b2")
    lm = p.leading_monomial(lex)
    assert Polynomial(R5, {lm: Rational(1)}) == P(R5, "a0*b0*b1")
    assert p.leading_coefficient(lex) == 1
    q = p * rat(-2, 7)
    assert q.leading_monomial(lex) == lm
    assert q.leading_coefficient(lex) == rat(-2, 7)
    assert q * q.leading_coefficient(lex).inverse() == p
    with pytest.raises(ValueError, match="zero polynomial"):
        R5.zero().leading_monomial(lex)
