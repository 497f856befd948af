"""Exact rational arithmetic and exact matrix rank.

Rationals are implemented from scratch on top of Python's arbitrary
precision integers and kept in canonical form at all times: the
denominator is positive, numerator and denominator are coprime, and
zero is stored as 0/1.  Equality and hashing agree with plain ints for
integral values, so Rational(4, 2) == 2 and both hash alike.

Matrix rank, the package's only linear-algebra routine, is computed by
sparse fraction-free elimination of integer rows (dense rows or
{column: value} dicts), so no floating point is involved anywhere.
Rows and polynomials alike become integers through one helper,
_int_form, which clears the denominators of a mapping's values, and
primitive through another, _primitive, which divides out their content
with the sign that makes a chosen leading entry positive.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import total_ordering
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union["Rational", int]


@total_ordering
class Rational:
    """An exact rational number in canonical form."""

    __slots__ = ("num", "den")

    num: int
    den: int

    def __init__(self, num: int, den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        # unary plus keeps an int and turns a bool into a plain int
        self.num = +num
        self.den = +den

    @classmethod
    def from_string(cls, text: str) -> "Rational":
        """Parse "p/q" or "p" (the serialization produced by str)."""
        s = text.strip()
        if "/" in s:
            p, q = s.split("/")
            return cls(int(p), int(q))
        return cls(int(s))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: RationalLike) -> "Rational":
        o = _rational(other)
        if o is NotImplemented:
            return NotImplemented
        return Rational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "Rational":
        o = _rational(other)
        return NotImplemented if o is NotImplemented else self + -o

    def __rsub__(self, other: RationalLike) -> "Rational":
        o = _rational(other)
        return NotImplemented if o is NotImplemented else o + -self

    def __mul__(self, other: RationalLike) -> "Rational":
        o = _rational(other)
        if o is NotImplemented:
            return NotImplemented
        return Rational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Rational":
        o = _rational(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other: RationalLike) -> "Rational":
        o = _rational(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    def __neg__(self) -> "Rational":
        r = object.__new__(Rational)
        r.num = -self.num
        r.den = self.den
        return r

    def __pos__(self) -> "Rational":
        return self

    def __abs__(self) -> "Rational":
        return -self if self.num < 0 else self

    def inverse(self) -> "Rational":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        return Rational(self.den, self.num)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = _rational(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    # denominators are positive, so cross multiplication keeps order;
    # total_ordering derives <=, > and >= from this and __eq__
    def __lt__(self, other: RationalLike) -> bool:
        o = _rational(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num * o.den < o.num * self.den

    def __bool__(self) -> bool:
        return self.num != 0

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Rational({self.num}, {self.den})"


def _rational(x: object) -> Rational:
    """The other operand of every Rational operator as a Rational: a
    Rational as is, an int (bools too) as Rational(x), else NotImplemented."""
    if isinstance(x, Rational):
        return x
    if isinstance(x, int):
        return Rational(x)
    return NotImplemented


def rat(num: int, den: int = 1) -> Rational:
    """Shorthand constructor."""
    return Rational(num, den)


def _primitive(terms: dict, lead) -> dict:
    """Divide the int values of `terms` in place by their gcd, with the
    sign that makes terms[lead] positive; return terms."""
    g = 0
    for v in terms.values():
        g = gcd(g, v)
        if g == 1:
            break
    if terms[lead] < 0:
        g = -g
    if g != 1:
        for m in terms:
            terms[m] //= g
    return terms


def _int_form(values: Mapping) -> tuple:
    """(ints, scale): the nonzero values of `values` times scale, as a new
    dict of ints with the same keys, where scale > 0 is the least common
    denominator of the values (Rational or int); values that are all
    ints (not bools) are copied as they are, with scale 1."""
    for x in values.values():
        if type(x) is not int:
            break
    else:
        return {k: x for k, x in values.items() if x}, 1
    scale = 1
    for x in values.values():
        if isinstance(x, Rational):
            scale = lcm(scale, x.den)
    ints = {}
    for k, x in values.items():
        # x.num, not bool(x): Rational.__bool__ is a Python-level call
        if isinstance(x, Rational):
            if x.num:
                ints[k] = x.num * (scale // x.den)
        elif x:
            ints[k] = x * scale
    return ints, scale


def matrix_rank(rows: Iterable[Sequence[RationalLike] | Mapping]) -> int:
    """Exact rank of a matrix of Rational/int entries, each row a dense
    sequence or a sparse {column: value} dict (absent columns are zero).

    Rows enter an echelon keyed by leading (smallest) column one at a
    time: while pivot p holds the row's leading column c, the row becomes
    (p[c] * row - row[c] * p) / gcd(p[c], row[c]).  A row that reaches a
    free column is made primitive (_primitive) and becomes its pivot.
    Scaling a row by a positive integer keeps the rank, so each row first
    has its denominators cleared, which leaves int rows as they are; the
    input rows are not modified.
    """
    pivots: dict = {}
    for row in rows:
        r, _ = _int_form(row if type(row) is dict or isinstance(row, Mapping)
                         else dict(enumerate(row)))
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = _primitive(r, c)
                break
            a, b = p[c], r[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for j in r:
                    r[j] *= a
            for j, x in p.items():
                if j in r:
                    y = r[j] - b * x
                    if y:
                        r[j] = y
                    else:
                        del r[j]
                else:
                    r[j] = -b * x
    return len(pivots)
