"""Sparse multivariate polynomials over a multigraded polynomial ring.

The coordinate ring of a product of projective spaces has its variables
grouped into blocks, one block per factor; the multidegree of a monomial
is the vector of per-block total degrees.

Representation: a monomial is a tuple of exponents over all variables,
a polynomial is a dict mapping monomials to nonzero Rational
coefficients.  Monomial orders compare precomputed integer key tuples
that are additive under monomial multiplication, which makes every
order here a genuine monomial order (multiplicative, with 1 minimal);
their digit weights pack those keys into ints that compare the same.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, product
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .arith import Rational

Monomial = tuple  # exponent tuple, one entry per ring variable
Multidegree = tuple  # per-block total degrees
Coefficient = Union[Rational, int]

_BLOCK_LETTERS = "abcdef"


@dataclass(frozen=True)
class RingSpec:
    """Variable layout of a multigraded polynomial ring.

    block_sizes lists the number of variables in each block; names lists
    all variable names, blocks concatenated in order.
    """

    block_sizes: tuple
    names: tuple

    def __post_init__(self):
        if any(size < 1 for size in self.block_sizes):
            raise ValueError("every block needs at least one variable")
        if sum(self.block_sizes) != len(self.names):
            raise ValueError("block sizes do not match name count")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def nblocks(self) -> int:
        return len(self.block_sizes)

    def block_slices(self) -> list:
        out = []
        start = 0
        for size in self.block_sizes:
            out.append((start, start + size))
            start += size
        return out

    def index(self, name: str) -> int:
        return self.names.index(name)

    def multidegree(self, mono: Monomial) -> Multidegree:
        out = []
        start = 0
        for size in self.block_sizes:
            out.append(sum(mono[start:start + size]))
            start += size
        return tuple(out)

    # -- polynomial constructors --------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Coefficient) -> "Polynomial":
        c = c if isinstance(c, Rational) else Rational(c)
        if c.num == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Polynomial":
        return self.var_by_index(self.index(name))

    def var_by_index(self, i: int) -> "Polynomial":
        mono = [0] * self.nvars
        mono[i] = 1
        return Polynomial(self, {tuple(mono): Rational(1)})


def moduli_ring(n: int) -> RingSpec:
    """Coordinate ring of P^1 x P^2 x ... x P^(n-3) for n points.

    Block i (1-based) has i+1 variables; names follow the letter scheme
    a0,a1,b0,b1,b2,... for n <= 9 and fall back to w<i>_<j> beyond.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    sizes = tuple(range(2, n - 1))
    names = []
    for i, size in enumerate(sizes, start=1):
        if n <= 9:
            prefix = _BLOCK_LETTERS[i - 1]
            names.extend(f"{prefix}{j}" for j in range(size))
        else:
            names.extend(f"w{i}_{j}" for j in range(size))
    return RingSpec(sizes, tuple(names))


def polynomial_ring(names: Sequence[str],
                    block_sizes: Sequence[int] | None = None) -> RingSpec:
    """A ring over the given variables; one block (standard grading)
    unless block_sizes says otherwise."""
    if block_sizes is None:
        block_sizes = (len(names),)
    return RingSpec(tuple(block_sizes), tuple(names))


class MonomialOrder:
    """A monomial order given by a list of grevlex blocks.

    blocks lists variable indices, highest priority first; the default is
    one block in ring order (a0 > a1 > b0 > ...).  Monomials compare by
    grevlex on the first block, then the next block breaks ties, so lex
    is every variable in a block of its own.  A block's part of the flat,
    additive integer key is its degree, then minus its exponents from the
    last variable back to the second (the degree fixes the first).
    """

    def __init__(self, ring: RingSpec,
                 blocks: Sequence[Sequence[int]] | None = None) -> None:
        if blocks is None:
            blocks = [range(ring.nvars)]
        self.ring = ring
        self.blocks = tuple(tuple(b) for b in blocks)
        if (not all(self.blocks)
                or sorted(chain(*self.blocks)) != list(range(ring.nvars))):
            raise ValueError("blocks must be nonempty and hold every "
                             "variable exactly once")

    def key(self, mono: Monomial) -> tuple:
        """Order key; bigger key = bigger monomial. Additive in mono."""
        parts: list = []
        for block in self.blocks:
            parts.append(sum([mono[i] for i in block]))
            parts.extend([-mono[i] for i in block[:0:-1]])
        return tuple(parts)

    @lru_cache(maxsize=64)
    def digit_weights(self, width: int) -> tuple:
        """One int per variable: a monomial's dot product with them holds
        its order digits, the prefix sums of key, in fields of `width`
        bits, first digit highest.  The prefix sums change the key by a
        triangular map with unit diagonal, and every digit is a 0/1 sum
        of exponents between 0 and the total degree, so packed ints of
        monomials whose total degree fits the fields compare like keys.
        One cache serves all equal orders, so that an order kept with a
        result carries no cache of its own."""
        nv = self.ring.nvars
        units = [tuple(int(u == v) for u in range(nv)) for v in range(nv)]
        return tuple(sum(d << width * (nv - 1 - j)
                         for j, d in enumerate(accumulate(self.key(unit))))
                     for unit in units)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MonomialOrder) and self.ring == other.ring
                and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.ring, self.blocks))

    def __repr__(self) -> str:
        return f"MonomialOrder({[list(b) for b in self.blocks]})"


def lex_order(ring: RingSpec) -> MonomialOrder:
    """Lex in ring order (a0 > a1 > b0 > ...): exponent tuple order."""
    return MonomialOrder(ring, [[i] for i in range(ring.nvars)])


def grevlex_order(ring: RingSpec) -> MonomialOrder:
    """Grevlex in ring order: all variables in one block."""
    return MonomialOrder(ring)


def elimination_order(ring: RingSpec, front: Sequence[int]) -> MonomialOrder:
    """Order eliminating the variables with indices in `front`: any
    monomial involving one of them beats any monomial in the rest."""
    rest = [i for i in range(ring.nvars) if i not in front]
    return MonomialOrder(ring, [b for b in (list(front), rest) if b])


class Polynomial:
    """Sparse polynomial: dict from exponent tuple to nonzero Rational."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Mapping) -> None:
        self.ring = ring
        self.terms: dict = {m: c for m, c in terms.items() if c.num != 0}

    @classmethod
    def from_terms(cls, ring: RingSpec, pairs: Iterable) -> "Polynomial":
        acc: dict = {}
        for mono, coeff in pairs:
            coeff = coeff if isinstance(coeff, Rational) else Rational(coeff)
            cur = acc.get(mono)
            acc[mono] = coeff if cur is None else cur + coeff
        return cls(ring, acc)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Rational)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial.from_terms(
            self.ring, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial.from_terms(
            self.ring, ((tuple(map(add, m1, m2)), c1 * c2)
                        for m1, c1 in self.terms.items()
                        for m2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one()
        for _ in range(e):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Rational)):
            return self.ring.constant(other)
        return NotImplemented

    # -- structure ----------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        """The largest monomial under order: the largest dot product with
        order.digit_weights, in fields that hold the top total degree."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        weights = order.digit_weights(self.total_degree().bit_length())
        return max(self.terms, key=lambda m: sum(map(mul, m, weights)))

    def leading_coefficient(self, order: MonomialOrder) -> Rational:
        return self.terms[self.leading_monomial(order)]

    def multidegree(self) -> Multidegree:
        """Common multidegree of all terms; raises if zero or inhomogeneous."""
        if not self.terms:
            raise ValueError("zero polynomial has no multidegree")
        degs = {self.ring.multidegree(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not multihomogeneous")
        return degs.pop()

    def is_multihomogeneous(self) -> bool:
        degs = {self.ring.multidegree(m) for m in self.terms}
        return len(degs) <= 1

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=-1)

    def evaluate(self, values: Sequence[Coefficient]) -> Rational:
        """Value at a point, one coordinate per ring variable."""
        if len(values) != self.ring.nvars:
            raise ValueError("wrong number of coordinates")
        vals = [v if isinstance(v, Rational) else Rational(v) for v in values]
        total = Rational(0)
        for mono, coeff in self.terms.items():
            t = coeff
            for x, e in zip(vals, mono):
                for _ in range(e):
                    t = t * x
            total = total + t
        return total

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)}>"


def _compositions(total: int, parts: int) -> Iterator:
    """All tuples of `parts` >= 1 nonnegative ints summing to `total`,
    lexicographically descending."""
    if parts == 1 and total >= 0:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials_of_multidegree(ring: RingSpec, degree: Sequence[int]) -> list:
    """All monomials of the given multidegree, in a fixed deterministic
    order."""
    if len(degree) != ring.nblocks:
        raise ValueError("degree vector length does not match block count")
    per_block = [list(_compositions(d, s))
                 for d, s in zip(degree, ring.block_sizes)]
    out = []
    for pieces in product(*per_block):
        mono = ()
        for piece in pieces:
            mono += piece
        out.append(mono)
    return out


def format_polynomial(p: Polynomial) -> str:
    """Render with terms in descending lex order: "a0*b0*b1 - a1*b0*b1"."""
    if not p.terms:
        return "0"
    names = p.ring.names
    parts: list = []
    # lex in ring order is tuple order: its key of a monomial is itself
    for mono in sorted(p.terms, reverse=True):
        coeff = p.terms[mono]
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(f"-{body}" if coeff.num < 0 else body)
        else:
            parts.append(f"- {body}" if coeff.num < 0 else f"+ {body}")
    return " ".join(parts)


def parse_polynomial(ring: RingSpec, text: str) -> Polynomial:
    """Parse the format produced by format_polynomial.

    Terms are separated by + or -, factors within a term by '*', powers
    written name^e, coefficients as integer or p/q rationals.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ring.zero()
    if s[0] not in "+-":
        s = "+" + s
    # [sign, term, sign, term, ...] after the empty text before the first
    # sign; a sign right after '/' belongs to the denominator
    parts = re.split(r"(?<!/)([+-])", s)
    pairs = []
    for sgn, term in zip(parts[1::2], parts[2::2]):
        if not term:
            raise ValueError("dangling sign in polynomial text")
        coeff = Rational(-1 if sgn == "-" else 1)
        mono = [0] * ring.nvars
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {term!r}")
            if factor[0].isdigit():
                try:
                    coeff = coeff * Rational.from_string(factor)
                except ZeroDivisionError:
                    raise ValueError(
                        f"zero denominator in {term!r}") from None
                continue
            if "^" in factor:
                name, _, e = factor.partition("^")
                exp = int(e)
            else:
                name, exp = factor, 1
            try:
                idx = ring.index(name)
            except ValueError:
                raise ValueError(f"unknown variable {name!r}") from None
            mono[idx] += exp
        pairs.append((tuple(mono), coeff))
    return Polynomial.from_terms(ring, pairs)
