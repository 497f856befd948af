"""Tests for exact rational arithmetic and exact matrix rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m0nbar.arith import Rational, _int_form, _primitive, matrix_rank, rat

nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)
ints = st.integers(min_value=-10**6, max_value=10**6)
rationals = st.builds(Rational, ints, nonzero_ints)
nonzero_rationals = st.builds(Rational, nonzero_ints, nonzero_ints)


def test_canonical_form():
    assert (Rational(2, 4).num, Rational(2, 4).den) == (1, 2)
    assert (Rational(-2, -4).num, Rational(-2, -4).den) == (1, 2)
    assert (Rational(2, -4).num, Rational(2, -4).den) == (-1, 2)
    assert (Rational(0, -7).num, Rational(0, -7).den) == (0, 1)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


def test_int_interop_and_hash():
    assert Rational(4, 2) == 2
    assert hash(Rational(4, 2)) == hash(2)
    assert Rational(1, 2) + 1 == Rational(3, 2)
    assert 1 - Rational(1, 2) == Rational(1, 2)
    assert 3 * Rational(1, 2) == Rational(3, 2)
    assert 1 / Rational(2, 3) == Rational(3, 2)
    assert {Rational(2): "x"}[2] == "x"


def test_bool_operands_are_stored_as_ints():
    # a bool entering a Rational is kept as the plain int it stands for
    for r in (Rational(True), Rational(3, True), Rational(False, True),
              Rational(1, 2) + True, True + Rational(1, 2),
              Rational(1, 2) * True, False * Rational(1, 2)):
        assert type(r.num) is int and type(r.den) is int
    assert repr(Rational(True)) == "Rational(1, 1)"
    assert repr(Rational(3, True)) == "Rational(3, 1)"
    assert str(Rational(True, 2)) == "1/2"


def test_mixed_type_operands():
    # bools are ints; floats and strings are no Rationals on either side
    assert True + Rational(1, 2) == Rational(3, 2)
    assert Rational(1, 2) * False == 0
    assert 1 - Rational(1, 2) == Rational(1, 2)
    assert Rational(3, 4) - 1 == Rational(-1, 4)
    assert Rational(3, 4) / 3 == Rational(1, 4)
    assert 2 / Rational(4) == Rational(1, 2)
    assert Rational(2) == 2 and Rational(1, 2) != 1
    assert (Rational(1) == 1.0) is False
    assert Rational(1, 2) != "1/2"
    with pytest.raises(TypeError):
        0.5 - Rational(1)
    with pytest.raises(TypeError):
        Rational(1) + 0.5
    with pytest.raises(TypeError):
        "1" * Rational(2)
    with pytest.raises(TypeError):
        Rational(1) / 0.5


def test_str_and_parse():
    assert str(Rational(3, 4)) == "3/4"
    assert str(Rational(-3, 4)) == "-3/4"
    assert str(Rational(7)) == "7"
    assert str(Rational(0)) == "0"
    for s in ["3/4", "-3/4", "7", "0", "-12/5"]:
        assert str(Rational.from_string(s)) == s


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Rational(0) == a
    assert a * Rational(1) == a
    assert a + (-a) == Rational(0)


@given(nonzero_rationals)
def test_inverse(a):
    assert a * a.inverse() == Rational(1)
    assert a.inverse() == 1 / a


@given(rationals, rationals)
def test_order_compatible_with_subtraction(a, b):
    assert (a < b) == ((b - a).num > 0)
    assert (a <= b) == (a < b or a == b)
    assert (a < b) != (a >= b)


@given(rationals, ints)
def test_order_against_ints_on_either_side(a, k):
    for x, y in ((a, k), (k, a)):
        d = y - x
        assert (x < y) == (d.num > 0)
        assert (x <= y) == (d.num >= 0)
        assert (x > y) == (d.num < 0)
        assert (x >= y) == (d.num <= 0)


def test_order_rejects_foreign_types():
    with pytest.raises(TypeError):
        Rational(1) < 0.5
    with pytest.raises(TypeError):
        0.5 >= Rational(1, 3)


@given(rationals)
def test_matches_stdlib_fractions(a):
    f = Fraction(a.num, a.den)
    assert (a.num, a.den) == (f.numerator, f.denominator)
    b = a * a - a + Rational(7, 3)
    g = f * f - f + Fraction(7, 3)
    assert (b.num, b.den) == (g.numerator, g.denominator)


# -- matrices ----------------------------------------------------------


def fraction_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    m = [[Fraction(x.num, x.den) if isinstance(x, Rational) else Fraction(x)
          for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == len(m):
            break
    return rank


def test_rank_examples():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([]) == 0
    # det = 1/2*2 - 1/3*3/2 = 1/2, nonzero
    assert matrix_rank([[rat(1, 2), rat(1, 3)], [rat(3, 2), rat(2)]]) == 2
    # det = 1/2*1 - 1/3*3/2 = 0
    assert matrix_rank([[rat(1, 2), rat(1, 3)], [rat(3, 2), rat(1)]]) == 1
    # rank 2: rows 3 and 4 are combinations of rows 1 and 2
    rows = [[1, 2, 3, 4], [0, 1, 1, 0], [1, 3, 4, 4], [2, 5, 7, 8]]
    assert matrix_rank(rows) == 2
    # sparse {column: value} rows; columns need not start at 0 or be contiguous
    assert matrix_rank([{}, {}]) == 0
    assert matrix_rank([{5: 2}, {}, {5: rat(-3, 7)}]) == 1
    assert matrix_rank([{10: 1, 20: 1}, {20: 1, 30: 1}, {10: 1, 30: -1}]) == 2
    assert matrix_rank([{10: 1, 20: 1}, {20: 1, 30: 1}, {10: 1, 30: 1}]) == 3


matrix_entries = st.integers(min_value=-30, max_value=30)


@given(st.lists(st.lists(matrix_entries, min_size=1, max_size=5),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=200)
def test_rank_matches_fraction_oracle(rows):
    assert matrix_rank(rows) == fraction_rank(rows)


@given(st.integers(min_value=1, max_value=5).flatmap(
           lambda w: st.lists(st.lists(matrix_entries, min_size=w, max_size=w),
                              min_size=2, max_size=6)),
       st.integers(min_value=0, max_value=10**6),
       nonzero_rationals)
@settings(max_examples=150)
def test_rank_invariant_under_row_operations(rows, seed, scale):
    base = matrix_rank(rows)
    i, j = seed % len(rows), (seed // len(rows)) % len(rows)
    swapped = list(rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert matrix_rank(swapped) == base
    scaled = [list(r) for r in rows]
    scaled[i] = [scale * rat(x) for x in scaled[i]]
    assert matrix_rank(scaled) == base


@given(st.lists(st.lists(matrix_entries, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_rank_transpose_invariant(rows):
    t = [list(col) for col in zip(*rows)]
    assert matrix_rank(rows) == matrix_rank(t)


# wide sparse matrices as {column: value} rows, the layout of Macaulay
# rows: empty rows, explicit zeros, entries outside +-1, denominators,
# and duplicated or scaled copies of earlier rows
sparse_entries = st.one_of(
    matrix_entries,
    st.builds(Rational, matrix_entries, st.integers(min_value=1, max_value=12)))


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=16))
    row = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1),
                          sparse_entries, max_size=4)
    rows = draw(st.lists(row, max_size=9))
    copies = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                                     st.one_of(st.just(rat(1)),
                                               nonzero_rationals)),
                           max_size=3))
    for i, k in copies:
        if rows:
            rows.append({j: k * x for j, x in rows[i % len(rows)].items()})
    return ncols, rows


def dense(ncols, rows):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


@given(sparse_matrices())
@settings(max_examples=300)
def test_sparse_rank_matches_fraction_oracle(matrix):
    ncols, rows = matrix
    assert matrix_rank(rows) == fraction_rank(dense(ncols, rows))


@given(st.integers(min_value=1, max_value=6).flatmap(
           lambda w: st.lists(st.lists(sparse_entries, min_size=w, max_size=w),
                              max_size=6)))
@settings(max_examples=150)
def test_rank_same_for_dense_and_sparse_rows(rows):
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    copies = [list(row) for row in rows], [dict(row) for row in sparse]
    assert matrix_rank(rows) == matrix_rank(sparse)
    # callers reuse their rows, so the kernel must leave them untouched
    assert (rows, sparse) == copies


def test_rank_finds_fill_in_before_stale_columns():
    # row 2 minus row 0 cancels column 3 and fills in columns 1 and 4
    # between the row's columns 0, 3 and 6; the leading column is then the
    # fill-in 1, not 3 or 6.  Adding row 1 fills column 3 back in, and the
    # row becomes the pivot of column 3.  Row 3 is row 0 + row 2.  Row 6
    # minus row 5 cancels column 3, which has a pivot, for good; the next
    # leading column is the fill-in 5, which has none.  Row 7 is row 5 +
    # row 6.
    rows = [{0: 1, 1: 1, 3: 1, 4: 2},
            {1: 1, 3: 1, 6: 1},
            {0: 1, 3: 1, 6: 1},
            {0: 2, 1: 1, 3: 2, 4: 2, 6: 1},
            {4: 1, 6: 1},
            {2: 1, 3: 1, 5: 1},
            {2: 1, 3: 1, 7: 1},
            {2: 2, 3: 2, 5: 1, 7: 1}]
    for k, want in ((3, 3), (4, 3), (5, 4), (7, 6), (8, 6)):
        assert matrix_rank(rows[:k]) == fraction_rank(dense(8, rows[:k])) == want


def test_int_form_clears_denominators():
    values = {0: rat(1, 2), 1: rat(-1, 3), 2: rat(0), 3: 4}
    assert _int_form(values) == ({0: 3, 1: -2, 3: 24}, 6)
    assert values[0] == rat(1, 2)
    assert _int_form({}) == ({}, 1)


def test_primitive_divides_content_and_makes_lead_positive():
    terms = {0: -4, 1: 6, 2: 2}
    assert _primitive(terms, 0) is terms  # in place
    assert terms == {0: 2, 1: -3, 2: -1}
    assert _primitive({0: 6, 1: -9}, 0) == {0: 2, 1: -3}
    assert _primitive({0: 1, 1: -2}, 1) == {0: -1, 1: 2}
    assert _primitive({7: -5}, 7) == {7: 1}
