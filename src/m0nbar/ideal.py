"""Groebner bases and ideal-level operations.

Division and Buchberger's algorithm run on integer polynomials
(content-free, positive leading coefficient); an exact running
denominator is tracked so that normal_form still returns the true
rational remainder.

Inside the engine a monomial is one Python int and a polynomial one
dict {monomial: coefficient}.  The int holds the monomial's exponents in
its low fixed-width fields and its order digits (prefix sums of
MonomialOrder.key) in the fields above them, and the top bit of every
field is a guard (Monagan-Pearce packed exponent vectors).  So ints
compare like the order, a product is one add, and divisibility is one
subtract and mask.  A field is 8, 16, 32 or 64 bits wide, sized from the
input's largest total degree, so the exponent fields unpack as one array
of machine integers; a product that reaches a guard bit aborts the run,
which restarts with fields twice as wide (a field past 64 bits is an
error), so fields never wrap.  Polynomials outside the engine keep their
exponent tuples: they are packed on entry and unpacked on output.

The S-pair queue is one list sorted descending by (lcm total degree, packed
lcm, i, j) and popped from its end (the normal selection strategy); the
Gebauer-Moller update implements Buchberger's coprimality and chain
criteria.  Homogeneous runs may drop pairs on a Hilbert count (Traverso):
<lm G> lies in in(I), so HF_{R/<lm G>}(d) >= HF_{R/I}(d), and once a
degree's new leads close the gap to a bound on HF_{R/I}(d), its remaining
pairs reduce to 0 and are dropped unreduced.  The exact bound is a
target, the total-degree K-polynomial T of R/I, which Ideal.groebner_basis
gives every run whose ideal has a basis cached or was handed its
K-polynomial by a block saturation: the run forms no pair if the leads of
its reduced inputs already have K-polynomial T, and stops once they do,
since <lm G> in in(I) with an equal Hilbert function in every degree is
in(I).  For n forms in n variables the bound is the Hilbert function of
a complete intersection of their degrees, which no such ideal undercuts.
Progress counts only the reduced pairs.  Public Groebner bases are
reduced, monic, and sorted by ascending leading monomial, so equal
ideals yield identical bases.  Each run checks its generators on its
packed reduced basis, and every basis an Ideal caches comes from a run.

Saturation I : v^infinity of a homogeneous ideal takes one grevlex run
with v as the smallest variable, whose basis elements divided by their
largest powers of v generate the saturation (Bayer-Stillman), or no run
when v divides no lead of a basis cached on I, which shows that v is a
nonzerodivisor.  A block is saturated the same way by one element l of
its irrelevant ideal: first its bare last variable, then linear forms of
its variables, each after a shear that puts l in that variable's slot;
normal forms against that run's basis certify that the result is the
block saturation, and a failed certificate retries with the next of the
fixed sequence.  Ideal intersection is the only place that adjoins a
variable: it builds the ring with one more variable t and eliminates t
from t*I + (1-t)*J.  Graded invariants (piece dimensions, minimal
generator counts, Hilbert codimension and degree) come either from the
ideal's one multigraded K-polynomial or from exact matrix ranks.  The
K-polynomial has one kernel: a pivot recursion on the polarized
generators as bitmasks.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate, count, product
from math import comb, gcd, prod
from operator import add, le, lshift, mul, sub
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence

from .arith import Rational, _int_form, _primitive, matrix_rank
from .poly import (
    Monomial,
    MonomialOrder,
    Polynomial,
    RingSpec,
    elimination_order,
    format_polynomial,
    grevlex_order,
    monomials_of_multidegree,
)

Progress = Callable[[int, int, int], None]


# -- packed integer polynomial engine --------------------------------------


class _Overflow(Exception):
    """A monomial outgrew its packed fields."""


class _Packer:
    """Monomials of one ring under one order packed into ints.

    A packed monomial holds exponent v in bits [v*width, (v+1)*width) and
    above those nvars fields its nvars order digits, packed by
    MonomialOrder.digit_weights, so ints compare like keys; every digit
    lies between 0 and the total degree, and fields that hold the total
    degree hold every digit.  pack is a dot product with one weight per
    variable, a product is one add, and d divides m iff (m - d) & guard
    == 0: the digits of m are at least those of d whenever its exponents
    are.  The top bit of every field is a guard that is 0 in every valid
    monomial, so a product with a guard bit set has overflowed.  A field
    is 8, 16, 32 or 64 bits wide, so unpack reads the exponent fields as
    one little-endian array of unsigned machine integers.
    """

    __slots__ = ("width", "guard", "mask", "low", "shifts", "weights",
                 "fields", "nbytes")

    def __init__(self, order: MonomialOrder, width: int) -> None:
        if width not in _FORMATS:
            raise OverflowError(f"{width}-bit exponent fields: packed "
                                "fields are 8, 16, 32 or 64 bits wide")
        nv = order.ring.nvars
        self.width = width
        self.fields = Struct(f"<{nv}{_FORMATS[width]}")
        self.nbytes = nv * width // 8
        self.shifts = tuple(range(0, nv * width, width))
        self.mask = (1 << (width - 1)) - 1
        self.low = (1 << nv * width) - 1
        self.guard = sum(1 << (s + width - 1)
                         for s in range(0, 2 * nv * width, width))
        self.weights = tuple(
            (1 << s) + (d << nv * width)
            for s, d in zip(self.shifts, order.digit_weights(width)))

    def pack(self, mono: Monomial) -> int:
        if sum(mono) > self.mask:
            raise _Overflow
        return sum(map(mul, mono, self.weights))

    def unpack(self, m: int) -> Monomial:
        return self.fields.unpack((m & self.low).to_bytes(self.nbytes,
                                                           "little"))

    def lcms(self, a: int, bs: Iterable[int],
             running: bool = False) -> Iterator[int]:
        """Fieldwise maximum of a with each packed monomial of bs, whose
        exponent fields hold their lcm; if running, each maximum replaces
        a, so the last is the fieldwise maximum of a and all of bs."""
        guard, top_bit = self.guard, self.width - 1
        for b in bs:
            ge = ((a | guard) - b) & guard  # fields where a >= b
            sel = ge - (ge >> top_bit)
            m = (a & sel) | (b & ~sel)
            if running:
                a = m
            yield m

    def poly(self, p: Polynomial) -> tuple:
        """(num, scale): num maps each packed monomial of scale*p to its
        integer coefficient, and scale > 0 is the least common
        denominator of p."""
        terms, scale = _int_form(p.terms)
        pack = self.pack
        return {pack(mono): c for mono, c in terms.items()}, scale

    def gen(self, num: dict) -> "_Gen":
        """Basis element with the terms num."""
        lm = max(num)
        tail = [(m, c) for m, c in num.items() if m != lm]
        # the running maxima grow in every field, so also as ints
        top = max(self.lcms(lm, num, running=True))
        return _Gen(lm, num[lm], tail, top)

    def polynomial(self, ring: RingSpec, num: dict, den: int) -> Polynomial:
        """The Polynomial sum of num[m]/den * m."""
        unpack = self.unpack
        return Polynomial(ring, {unpack(m): Rational(c, den)
                                 for m, c in num.items()})


# struct formats of the unsigned field widths
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _width(polys: Iterable[Polynomial]) -> int:
    """Field width with room for twice the largest total degree in polys
    and the guard bit, rounded up to 8, 16, 32 or 64 bits; past 64 bits
    it is one that _Packer rejects."""
    top = max((sum(m) for p in polys for m in p.terms), default=0)
    return max(8, 1 << (2 * top).bit_length().bit_length())


class _Gen:
    """Basis element: packed leading monomial lm with coefficient lc,
    tail terms (monomial, coefficient), and top, the fieldwise maximum
    of all its monomials (a shift s keeps every product in range iff
    top + s has no guard bit set)."""

    __slots__ = ("lm", "lc", "tail", "top")

    def __init__(self, lm: int, lc: int, tail: list, top: int) -> None:
        self.lm = lm
        self.lc = lc
        self.tail = tail
        self.top = top


def _reduce(num: dict, gens: Sequence[_Gen], guard: int, first: dict) -> tuple:
    """Fully reduce the integer polynomial `num` (consumed) modulo gens.

    num maps packed monomials to coefficients.  Returns (remainder,
    den): remainder/den is the exact rational remainder of num.  No term
    of the remainder is divisible by any generator's leading monomial.
    Deterministic: the largest unprocessed monomial is cancelled against
    the first generator (in list order) whose lead divides it.  Raises
    _Overflow when a product would leave its packed fields.

    first maps a monomial m to an index i such that no lead in gens[:i]
    divides m, and gens[i] is the first divisor if i < len(gens).  The
    caller may share it between calls as long as gens only grows at the
    end, as Buchberger's basis does.
    """
    heap = [-m for m in num]
    heapify(heap)
    n = len(gens)
    out: dict = {}
    den = 1
    while heap:
        mono = -heappop(heap)
        c = num.pop(mono)
        if not c:
            continue
        i = first.get(mono, 0)
        while i < n and (mono - gens[i].lm) & guard:
            i += 1
        first[mono] = i
        if i == n:
            out[mono] = c
            continue
        red = gens[i]
        g0 = gcd(c, red.lc)
        mult = red.lc // g0
        cc = c // g0
        if mult != 1:
            for t in num:
                num[t] *= mult
            for t in out:
                out[t] *= mult
            den *= mult
        shift = mono - red.lm
        if (red.top + shift) & guard:
            raise _Overflow
        # a cancelled term keeps its monomial (with coefficient 0) in num,
        # so every monomial of num is on the heap exactly once
        for m, c2 in red.tail:
            m += shift
            cur = num.get(m)
            if cur is None:
                num[m] = -cc * c2
                heappush(heap, -m)
            else:
                num[m] = cur - cc * c2
    return out, den


def _spoly(gi: _Gen, gj: _Gen, l: int, guard: int) -> dict:
    """Integer S-polynomial of gi and gj, whose leads have the packed
    lcm l; the lead terms cancel and are left out."""
    si = l - gi.lm
    sj = l - gj.lm
    if (gi.top + si) & guard or (gj.top + sj) & guard:
        raise _Overflow
    g0 = gcd(gi.lc, gj.lc)
    ci = gj.lc // g0
    cj = gi.lc // g0
    num = {m + si: ci * c for m, c in gi.tail}
    for m, c in gj.tail:
        m += sj
        cur = num.get(m, 0) - cj * c
        if cur:
            num[m] = cur
        else:
            num.pop(m, None)
    return num


def _update(G: list, P: list, h: _Gen, packer: _Packer) -> None:
    """Gebauer-Moller pair update: append h to G, prune and extend the
    descending list P of pairs (lcm total degree, packed lcm, i, j).

    Prunes old pairs by the chain criterion, groups the new pairs by
    lcm, keeps only minimal lcms with one representative each, and drops
    whole groups containing a coprime-lead pair (product criterion).
    Grouping and both criteria compare the exponent fields of lcms; only
    the minimal lcms are packed with their order digits.
    """
    guard, low = packer.guard, packer.low
    t = len(G)
    lmh = h.lm
    L = [l & low for l in packer.lcms(lmh, [g.lm for g in G])]
    kept = [e for e in P if (e[1] - lmh) & guard
            or L[e[2]] == e[1] & low or L[e[3]] == e[1] & low]
    groups: dict = {}
    for i, l in enumerate(L):
        groups.setdefault(l, []).append(i)
    # a proper divisor of a monomial has smaller exponent fields, and a
    # divisor that is not minimal has a minimal divisor of its own
    minimal: list = []
    for l in sorted(groups):
        for s in minimal:
            if not (l - s) & guard:
                break
        else:
            minimal.append(l)
    for l in minimal:
        members = groups[l]
        if any(l == (G[i].lm + lmh) & low for i in members):
            continue
        exps = packer.unpack(l)
        kept.append((sum(exps), packer.pack(exps), members[0], t))
    P[:] = sorted(kept, reverse=True)
    G.append(h)


class _Targeted(tuple):
    """Generators, homogeneous in total degree, with hilbert: the
    coefficients of the total-degree K-polynomial of R/<gens>, which
    buchberger takes as its target.  The target travels with the
    generators, so it passes through any wrapper of buchberger's
    (gens, order, progress) signature."""

    def __new__(cls, gens: Iterable[Polynomial], hilbert: Sequence[int]):
        self = super().__new__(cls, gens)
        self.hilbert = list(hilbert)
        return self


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder,
               progress: Progress | None = None) -> list:
    """Reduced monic Groebner basis of the ideal generated by gens.

    Output is sorted by ascending leading monomial, so it is a canonical
    form: two generating sets of the same ideal give the same list, and
    the zero ideal (no nonzero generator) gives [].
    Monomials are packed once, with their order digits over their
    exponents, in fields sized from the largest total degree of gens.

    A homogeneous run may drop S-pairs on a Hilbert count (Traverso, J.
    Symbolic Comput. 22, 1996).  Pairs come in order of lcm total degree
    d, and new pairs lie in higher degrees.  <lm G> lies in in(I), so
    HF_{R/<lm G>}(d) >= HF_{R/I}(d) >= e_d for a bound e_d; once the
    degrees below d are done, each degree-d nonzero remainder adds one
    new lead of degree d, which lowers HF_{R/<lm G>}(d) by one.  After
    HF_{R/<lm G>}(d) - e_d of them the leads span in(I)_d, so every
    remaining degree-d S-polynomial, which lies in I_d, reduces to 0 and
    its pair is dropped.  A negative count raises AssertionError.

    - _Targeted gens, homogeneous in total degree (else ValueError),
      carry as hilbert the exact total-degree K-polynomial T of
      R/<gens>, and e_d = HF_T(d).  The inputs are reduced first; no pair
      is formed if the K-polynomial of their leads is T, it is recomputed
      after each degree that gained a lead, and the run stops once it is
      T: <lm G> lies in in(I) and has its Hilbert function in every
      degree, so it is in(I).  A degree whose pairs all reduce short of
      the count, or a run that ends with another K-polynomial, shows
      that T is wrong and raises AssertionError.
    - When the nonzero gens are exactly nvars forms, form i homogeneous
      of total degree d_i >= 1, e_d is the T^d coefficient of
      prod (1 + T + ... + T^(d_i - 1)), counted against the leads'
      standard monomials of degree d.  Each Macaulay rank of the forms
      is at most its value on the open set of regular sequences
      (x_i^d_i is one), so dim (R/I)_d >= e_d.  A degree that ends short
      of the count shows that the forms are no regular sequence, and the
      run reduces every later pair.

    progress(S-pairs reduced, pairs queued, basis size) is called every
    100 reduced S-pairs while pairs remain queued and once at the end
    with 0 queued; a dropped pair is neither reduced nor queued.  A run
    that restarts with wider fields reports again from the start.  A
    generator that does not reduce to zero against the packed reduced
    basis raises AssertionError.
    """
    polys = [p for p in gens if p.terms]
    if any(p.ring != order.ring for p in polys):
        raise ValueError("generators and order must share one ring")
    if not polys:
        return []
    goal = None
    if isinstance(gens, _Targeted):
        if not _homogeneous(polys):
            raise ValueError("a Hilbert target needs generators "
                             "homogeneous in total degree")
        goal = {d: c for d, c in enumerate(gens.hilbert) if c}
    width = _width(polys)
    while True:
        try:
            return _buchberger(polys, _Packer(order, width), progress, goal)
        except _Overflow:
            width *= 2


def _homogeneous(polys: Iterable[Polynomial]) -> bool:
    """Whether every polynomial is homogeneous in total degree."""
    return all(len({sum(m) for m in p.terms}) <= 1 for p in polys)


def _complete_intersection_series(polys: Sequence[Polynomial]) -> list | None:
    """Coefficients e_d of prod (1 + T + ... + T^(d_i - 1)) when polys are
    exactly nvars forms, form i homogeneous of total degree d_i >= 1, and
    None otherwise; e_d = 0 past the end of the list."""
    if len(polys) != polys[0].ring.nvars:
        return None
    series = [1]
    for p in polys:
        degrees = {sum(m) for m in p.terms}
        if len(degrees) != 1 or 0 in degrees:
            return None
        d, = degrees
        series = [sum(series[max(0, k - d + 1):k + 1])
                  for k in range(len(series) + d - 1)]
    return series


def _gap(G: Sequence[_Gen], packer: _Packer, goal: dict) -> dict:
    """K(R/<lm G>) - goal, total-degree K-polynomials as {d: c}."""
    guard = packer.guard
    minimal: list = []
    # a divisor has smaller exponent fields than its multiples
    for e in sorted({g.lm & packer.low for g in G}):
        if all((e - f) & guard for f in minimal):
            minimal.append(e)
    K = _k_polynomial(tuple(map(packer.unpack, minimal)),
                      (1,) * len(packer.shifts))
    return _add_shifted(K, goal, 0, -1)


def _buchberger(polys: list, packer: _Packer, progress: Progress | None,
                goal: dict | None) -> list:
    guard, low = packer.guard, packer.low
    nums = [packer.poly(p)[0] for p in polys]
    inputs: list = []
    first: dict = {}
    for num in nums:
        r, _ = _reduce(dict(num), inputs, guard, first)
        if r:
            inputs.append(packer.gen(_primitive(r, max(r))))
    G: list = []
    P: list = []
    gap = None if goal is None else _gap(inputs, packer, goal)
    if gap == {}:
        G = inputs  # their leads are in(I) already
    else:
        for h in inputs:
            _update(G, P, h, packer)

    series = _complete_intersection_series(polys) if goal is None else None
    nv = len(packer.shifts)
    units = [1 << s for s in packer.shifts]
    # S: exponent fields of the leads' standard monomials of degree at,
    # kept for series; need: the new leads degree at still lacks
    S, at, need, gained = {0}, 0, 0, False
    done = 0
    while P:
        d, l, i, j = P.pop()
        if (gap or series) and d != at:
            if need and gap:
                raise AssertionError("the leads miss the Hilbert target")
            if need:
                series = None  # no regular sequence: reduce every pair
            elif gap:
                if gained:
                    gap, gained = _gap(G, packer, goal), False
                    if not gap:
                        break
                need = sum(c * comb(d - a + nv - 1, nv - 1)
                           for a, c in gap.items() if a <= d)
            else:
                leads = [g.lm & low for g in G]
                for at in range(at + 1, d + 1):
                    S = {m for m in {s + u for s in S for u in units}
                         if all((m - f) & guard for f in leads)}
                need = len(S) - (series[d] if d < len(series) else 0)
            if need < 0:
                raise AssertionError("fewer standard monomials than "
                                     "the Hilbert bound allows")
            at = d
        if (gap or series) and not need:
            continue
        r, _ = _reduce(_spoly(G[i], G[j], l, guard), G, guard, first)
        done += 1
        if r:
            h = packer.gen(_primitive(r, max(r)))
            need -= 1
            gained = True
            if series:
                S.remove(h.lm & low)
            _update(G, P, h, packer)
        if progress is not None and done % 100 == 0 and P:
            progress(done, len(P), len(G))
    if progress is not None:
        progress(done, 0, len(G))
    if gap and (not gained or _gap(G, packer, goal)):
        raise AssertionError("the leads miss the Hilbert target")

    rows = _reduced_basis(G, packer)
    basis = [packer.gen(r) for r in rows]
    first = {}
    if any(_reduce(num, basis, guard, first)[0] for num in nums):
        raise AssertionError("generator does not reduce to zero "
                             "against its own Groebner basis")
    ring = polys[0].ring
    return [packer.polynomial(ring, r, g.lc) for r, g in zip(rows, basis)]


def _reduced_basis(G: Sequence[_Gen], packer: _Packer) -> list:
    """Minimalize and tail-reduce; the primitive integer rows, sorted by
    leading monomial, each with a positive leading coefficient."""
    guard = packer.guard
    kept: list = []
    for g in sorted(G, key=lambda g: g.lm):
        if all((g.lm - f.lm) & guard for f in kept):
            kept.append(g)
    # no lead divides a monomial below it, so reducing g's tail against
    # the leads below g takes the same steps as against all of kept; that
    # list grows at the end, as the shared first cache needs
    first: dict = {}
    below: list = []
    out = []
    for g in kept:
        r, den = _reduce(dict(g.tail), below, guard, first)
        r[g.lm] = g.lc * den
        out.append(_primitive(r, g.lm))
        below.append(g)
    return out


# -- ideals ---------------------------------------------------------------


class Ideal:
    """An ideal given by generators, with its reduced Groebner bases
    cached by order and one multigraded K-polynomial _numerator, set once:
    saturate_by_block hands it over, or it is read off in(I) under the
    first cached order, or grevlex when the generators are inhomogeneous.
    Homogeneous (multihomogeneous) I have one total-degree (multigraded)
    Hilbert series under every order and every shear of a block."""

    def __init__(self, ring: RingSpec, gens: Iterable[Polynomial]) -> None:
        self.ring = ring
        self.gens = tuple(gens)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._gb: dict = {}

    @cached_property
    def _numerator(self) -> dict:
        """{multidegree a: c}, the K-polynomial of R/I = that of R/in(I)."""
        order = next(iter(self._gb), None) if _homogeneous(self.gens) else None
        return initial_ideal(self, order)._numerator

    def groebner_basis(self, order: MonomialOrder | None = None,
                       progress: Progress | None = None) -> tuple:
        """Reduced basis under order (grevlex by default), cached.  A miss
        is one run, targeted if the generators are homogeneous and K needs
        no run to read: a basis is cached or K was handed over."""
        if order is None:
            order = grevlex_order(self.ring)
        if order.ring != self.ring:
            raise ValueError("order from a different ring")
        cached = self._gb.get(order)
        if cached is None:
            gens = self.gens
            if _homogeneous(gens) and (self._gb or "_numerator" in vars(self)):
                gens = _Targeted(gens, hilbert_numerator(self))
            cached = self._gb[order] = tuple(buchberger(gens, order, progress))
        return cached

    def with_cached_basis(self, order: MonomialOrder,
                          basis: Sequence[Polynomial]) -> "Ideal":
        """Cache basis, the reduced basis under order sorted by lead."""
        self._gb[order] = tuple(basis)
        return self

    def __repr__(self) -> str:
        k, b = len(self.gens), self.ring.nblocks
        return (f"Ideal({k} generator{'s' * (k != 1)} "
                f"in {b} block{'s' * (b != 1)})")


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: MonomialOrder) -> Polynomial:
    """Remainder of f on division by basis (deterministic: first divisor
    in list order wins).  Exact: returns the textbook rational remainder."""
    return _remainders([f], basis, order)[0]


def _remainders(fs: Sequence[Polynomial], basis: Sequence[Polynomial],
                order: MonomialOrder) -> list:
    """normal_form of each f in fs, packing the basis once."""
    if any(p.ring != order.ring for p in (*fs, *basis)):
        raise ValueError("polynomials, basis and order must share one ring")
    polys = [g for g in basis if g.terms]
    width = _width(list(fs) + polys)
    while True:
        packer = _Packer(order, width)
        try:
            gens = [packer.gen(packer.poly(g)[0]) for g in polys]
            first: dict = {}
            out = []
            for f in fs:
                num, scale = packer.poly(f)
                r, den = _reduce(num, gens, packer.guard, first)
                out.append(packer.polynomial(f.ring, r, den * scale))
            return out
        except _Overflow:
            width *= 2


def spolynomial(f: Polynomial, g: Polynomial,
                order: MonomialOrder) -> Polynomial:
    """S-polynomial lcm/lt(f)*f - lcm/lt(g)*g over the rationals."""
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
    l = tuple(map(max, lmf, lmg))
    mf = Polynomial(f.ring, {tuple(map(sub, l, lmf)):
                             f.leading_coefficient(order).inverse()})
    mg = Polynomial(g.ring, {tuple(map(sub, l, lmg)):
                             g.leading_coefficient(order).inverse()})
    return mf * f - mg * g


def contains(I: Ideal, f: Polynomial) -> bool:
    """Ideal membership via normal form against the grevlex basis."""
    if f.ring != I.ring:
        raise ValueError("polynomial from a different ring")
    if not f.terms:
        return True
    return not normal_form(f, I.groebner_basis(), grevlex_order(I.ring)).terms


def equal_ideals(I: Ideal, J: Ideal) -> bool:
    """Compare via reduced grevlex Groebner bases, which are canonical."""
    if J.ring != I.ring:
        raise ValueError("ideals live in different rings")
    return I.groebner_basis() == J.groebner_basis()


# -- elimination, saturation, intersection --------------------------------


def saturate_by_variable(I: Ideal, var: str | int,
                         progress: Progress | None = None) -> Ideal:
    """I : v^infinity for an ideal I homogeneous in total degree.

    Returns I itself, with no run, when v divides no lead of a basis
    cached on I: if v divides no lead of a reduced Groebner basis of I
    under some order, v is a nonzerodivisor mod I.  Proof: v divides no
    minimal generator of in(I), so v is a nonzerodivisor mod in(I).  Let
    v*f lie in I and r be the normal form of f; then v*r lies in I, and
    if r != 0, in(I) holds lm(v*r) = v*lm(r), hence lm(r), which no term
    of a normal form is.  So r = 0, f lies in I, and I : v^infinity = I.

    Otherwise one grevlex run with v as the smallest variable
    (Bayer-Stillman): v divides a homogeneous element iff it divides its
    leading monomial, so dividing every basis element by its largest
    power of v gives a Groebner basis of I : v^infinity under the same
    order.  The run's basis stays cached on I under that order.  Returns
    I itself when no basis element is divisible by v; otherwise a new
    ideal J whose J.gens[i] is basis[i] divided by its largest power of
    v.  Raises ValueError on a generator that is not homogeneous, and on
    a var that names no variable of the ring.
    """
    ring = I.ring
    idx = ring.index(var) if var in ring.names else var
    if type(idx) is not int or not 0 <= idx < ring.nvars:
        raise ValueError(f"no variable {var!r} in {ring.names}")
    if not _homogeneous(I.gens):
        raise ValueError("saturation by a variable needs generators "
                         "homogeneous in total degree")
    if any(all(not g.leading_monomial(order)[idx] for g in basis)
           for order, basis in I._gb.items()):
        return I
    others = [i for i in range(ring.nvars) if i != idx]
    gb = I.groebner_basis(MonomialOrder(ring, [others + [idx]]), progress)
    powers = [min(m[idx] for m in g.terms) for g in gb]
    if not any(powers):
        return I
    return Ideal(ring, [
        Polynomial(ring, {m[:idx] + (m[idx] - k,) + m[idx + 1:]: c
                          for m, c in g.terms.items()})
        for g, k in zip(gb, powers)])


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """Ideal intersection via t*I + (1-t)*J and elimination of t.

    t is one more variable, appended to the ring in a block of its own.
    The t-free elements of the reduced basis under an order eliminating
    t are the reduced grevlex basis of the intersection."""
    ring = I.ring
    if J.ring != ring:
        raise ValueError("ideals live in different rings")
    name = "_t"
    while name in ring.names:
        name += "_"
    nv = ring.nvars
    ext = RingSpec(ring.block_sizes + (1,), ring.names + (name,))

    def times_t(g: Polynomial, e: int) -> Polynomial:
        return Polynomial(ext, {m + (e,): c for m, c in g.terms.items()})

    gens = [times_t(g, 1) for g in I.gens]
    gens += [times_t(g, 0) - times_t(g, 1) for g in J.gens]
    gb = buchberger(gens, elimination_order(ext, [nv]))
    kept = [Polynomial(ring, {m[:nv]: c for m, c in g.terms.items()})
            for g in gb if not any(m[nv] for m in g.terms)]
    return Ideal(ring, kept).with_cached_basis(grevlex_order(ring), kept)


def _shear(p: Polynomial, idx: int, lin: Polynomial) -> Polynomial:
    """p with variable idx replaced by the linear form lin."""
    powers = list(accumulate([lin] * max((m[idx] for m in p.terms), default=0),
                             mul, initial=p.ring.one()))
    return Polynomial.from_terms(p.ring, (
        (tuple(map(add, m[:idx] + (0,) + m[idx + 1:], m2)), c * c2)
        for m, c in p.terms.items() for m2, c2 in powers[m[idx]].terms.items()))


def saturate_by_block(I: Ideal, block: int,
                      progress: Progress | None = None) -> Ideal:
    """Saturate a homogeneous I by the irrelevant ideal B of one block,
    with one Bayer-Stillman run per attempt j = 0, 1, ..., 9.

    Attempt j takes the linear form l = x_last + sum of j^(last - v) * x_v
    over the block's other variables x_v, so attempt 0 takes x_last
    itself and saturates by it unsheared.  Attempt j > 0 shears
    x_last -> y - (l - x_last) (multidegrees are kept and y sits in
    x_last's slot) and saturates by y.  Any l in B will do: if y is a
    nonzerodivisor, I <= I : B^infinity <= I : l^infinity = I, so I itself
    is returned.  Otherwise every generator g of I : l^infinity that the
    run divided is certified in the run's own basis: x_v^(max(j, 1)*k) * g
    in I for every other block variable, where k is the largest power of
    y divided out, and y^k * g in I holds by construction; an undivided
    basis element is in I already.  A certified result is sheared back and
    returned as its reduced grevlex basis; a failed certificate moves on
    to attempt j + 1.  All but finitely many l avoid the associated primes
    of I : B^infinity that do not contain B, and B^M (I : B^infinity) <= I
    for one M, so some attempt succeeds; every block of
    saturation_pipeline up to n = 8 is settled at j = 0, those whose
    last variable divides no lead of a basis cached on I with no run
    (block b at n = 5 and 6, c and d at n = 7, d and e at n = 8), and at
    n = 9 every block but a and b, which are settled at j = 1.
    Raises ValueError unless 0 <= block < nblocks, and RuntimeError if no
    attempt is certified, which points to a wrong Groebner basis."""
    ring = I.ring
    if not 0 <= block < ring.nblocks:
        raise ValueError(f"no block {block} among {ring.nblocks}")
    start, stop = ring.block_slices()[block]
    last = stop - 1
    y = ring.var_by_index(last)
    order = MonomialOrder(ring, [[v for v in range(ring.nvars) if v != last]
                                 + [last]])
    for j in range(10):
        rest = sum((j ** (last - v) * ring.var_by_index(v)
                    for v in range(start, last)), ring.zero())
        sheared = I
        if j:
            sheared = Ideal(ring, [_shear(g, last, y - rest) for g in I.gens])
            sheared._numerator = I._numerator  # a shear keeps the series
        J = saturate_by_variable(sheared, last, progress)
        if J is sheared:
            return I
        basis = sheared.groebner_basis(order)
        powers = [min(m[last] for m in g.terms) for g in basis]
        k = max(powers)
        tests = [ring.var_by_index(v) ** (max(j, 1) * k) * g
                 for v in range(start, last)
                 for g, p in zip(J.gens, powers) if p]
        if not any(r.terms for r in _remainders(tests, basis, order)):
            # J.gens are a Groebner basis under order, and the shear back
            # keeps the Hilbert series
            back = Ideal(ring, [_shear(g, last, y + rest) for g in J.gens]
                         if j else J.gens)
            back._numerator = MonomialIdeal(
                ring, [g.leading_monomial(order) for g in J.gens])._numerator
            gb = back.groebner_basis(grevlex_order(ring), progress)
            out = Ideal(ring, gb).with_cached_basis(grevlex_order(ring), gb)
            out._numerator = back._numerator
            return out
    raise RuntimeError(f"block {block}: no saturation certified in "
                       f"{j + 1} attempts")


# -- monomial ideals and graded invariants ---------------------------------


def _minimalize(monos: Iterable[Monomial]) -> tuple:
    out: list = []
    for m in sorted(set(monos), key=lambda m: (sum(m), m)):
        if not any(all(map(le, g, m)) for g in out):
            out.append(m)
    return tuple(out)


class MonomialIdeal:
    """A monomial ideal stored by its minimal (mutually indivisible)
    generating monomials, each a tuple of ring.nvars ints >= 0."""

    def __init__(self, ring: RingSpec, monos: Iterable[Monomial]) -> None:
        monos = tuple(monos)
        if not all(type(m) is tuple and len(m) == ring.nvars and all(
                type(e) is int and e >= 0 for e in m) for m in monos):
            raise ValueError(f"a monomial is not {ring.nvars} ints >= 0")
        self.ring = ring
        self.gens = _minimalize(monos)

    @cached_property
    def _numerator(self) -> dict:
        """{multidegree a: c}, the K-polynomial sum c*t^a of R/M: the
        multigraded Hilbert series is K(t) / prod_i (1 - t_i)^(n_i)."""
        sizes = self.ring.block_sizes
        w = sum(map(max, zip(*self.gens))).bit_length() + 1
        weights = [1 << w * b for b, n in enumerate(sizes) for _ in range(n)]
        mask = (1 << w) - 1
        return {tuple(k >> w * b & mask for b in range(len(sizes))): c
                for k, c in _k_polynomial(self.gens, weights).items()}

    def contains(self, mono: Monomial) -> bool:
        return any(all(map(le, g, mono)) for g in self.gens)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ring == other.ring and self.gens == other.gens

    def __repr__(self) -> str:
        return "MonomialIdeal(" + ", ".join(
            format_polynomial(Polynomial(self.ring, {m: Rational(1)}))
            for m in self.gens) + ")"


def initial_ideal(I: Ideal, order: MonomialOrder | None = None) -> MonomialIdeal:
    """Ideal of the leads of I's Groebner basis under order (grevlex)."""
    order = order or grevlex_order(I.ring)
    return MonomialIdeal(I.ring, [g.leading_monomial(order)
                                  for g in I.groebner_basis(order)])


def _add_shifted(K: dict, L: dict, a: int, sign: int) -> dict:
    """K + sign * t^a * L, a new dict with no zero coefficient."""
    out = dict(K)
    for k, c in L.items():
        k += a
        c = out.get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _k_polynomial(gens: tuple, weights: Sequence[int]) -> dict:
    """K-polynomial {packed degree: c}, c != 0, of R/M for minimal gens,
    variable v of packed degree weights[v].  Every key is the degree of
    a divisor of lcm(gens), by induction (lcm(M + x) and x * lcm(M : x)
    divide lcm(M)), so fields holding its total degree never carry.

    M is polarized first: x_v^e becomes x_v1 * ... * x_ve in new
    variables of x_v's degree, and each generator one bitmask.  a divides
    b iff a's bits lie in b's, so the masks stay minimal.  The
    differences x_vk - x_v1 are a regular sequence on the polarized
    quotient whose quotient is R/M, and each multiplies the Hilbert
    series by its (1 - t^x_v) and drops one variable, so the two
    K-polynomials agree (Herzog-Hibi, Monomial Ideals, sec. 1.6)."""
    bits: dict = {}
    shifts = []
    for v, top in enumerate(map(max, zip(*gens))):
        shifts.append(len(bits))
        for k in range(len(bits), len(bits) + top):
            bits[1 << k] = weights[v]
    masks = [sum(((1 << e) - 1) << s for e, s in zip(g, shifts))
             for g in gens]
    return {} if 0 in masks else _k_squarefree(masks, bits)


def _k_squarefree(gens: list, weights: dict) -> dict:
    """_k_polynomial of the minimal squarefree monomials gens, each a
    bitmask; weights maps each bit to its packed degree."""
    singles = [g for g in gens if not g & (g - 1)]
    if singles:
        # a variable x divides no other minimal generator, so for the
        # others N, R/(N + x) is R/N over one variable fewer and
        # K(N + x) = (1 - t^x) K(N)
        result = _k_squarefree([g for g in gens if g & (g - 1)], weights)
        for g in singles:
            result = _add_shifted(result, result, weights[g], -1)
        return result
    union = overlap = 0
    for g in gens:
        overlap |= union & g
        union |= g
    if not overlap:
        # pairwise disjoint supports: K = prod (1 - t^deg g)
        result = {0: 1}
        for g in gens:
            a = 0
            while g:
                low = g & -g
                a += weights[low]
                g ^= low
            result = _add_shifted(result, result, a, -1)
        return result
    # K(M) = K(M + x) + t^deg x * K(M : x) for the most frequent variable
    # x, with K(M + x) = (1 - t^x) K(gens without x).  The g/x are as
    # mutually indivisible as the g and no h without x divides one (it
    # would divide g), so M : x is minimal once the h they divide are gone
    counts: dict = {}
    for g in gens:
        g &= overlap
        while g:
            low = g & -g
            counts[low] = counts.get(low, 0) + 1
            g ^= low
    x = max(counts, key=counts.get)
    w = weights[x]
    rest = [g for g in gens if not g & x]
    colon = rest
    quotients = [g ^ x for g in gens if g & x]
    for q in quotients:
        colon = [h for h in colon if h & q != q]
    result = _k_squarefree(rest, weights)
    return _add_shifted(_add_shifted(result, result, w, -1),
                        _k_squarefree(quotients + colon, weights), w, 1)


def hilbert_numerator(M: MonomialIdeal | Ideal) -> list:
    """Coefficients of N(T) with H_{R/M}(T) = N(T)/(1-T)^nvars under the
    flattened grading (every variable has degree 1), up to the last
    nonzero one, from M's K-polynomial; [0] for the unit ideal."""
    N = [0] * (1 + max(map(sum, M._numerator), default=0))
    for a, c in M._numerator.items():
        N[sum(a)] += c
    while len(N) > 1 and not N[-1]:
        N.pop()
    return N


def hilbert_degree(I: Ideal) -> tuple:
    """(codimension, degree) of R/I under the flattened total grading.

    Computed from the K-polynomial of I: the Hilbert series numerator
    N(T) = sum a_i T^i is (1-T)^c Q(T) with c the codimension and Q(1)
    the degree.  Its c-th Taylor coefficient at T = 1, the moment
    sum a_i * binomial(i, c), is (-1)^c Q(1), and every lower one is 0.
    """
    N = hilbert_numerator(I)
    if not any(N):
        raise ValueError("unit ideal has no degree")
    for c in count():
        moment = sum(a * comb(i, c) for i, a in enumerate(N))
        if moment:
            return c, (-1) ** c * moment


def _count_in(M: MonomialIdeal | Ideal, D: tuple) -> int:
    """Number of monomials of multidegree D inside M, or inside in(M) for
    an Ideal: dim R_D minus dim (R/M)_D = sum c * dim R_(D-a) over M's
    K-polynomial terms c*t^a with a <= D, read off the box of those a."""
    sizes = M.ring.block_sizes
    if len(D) != len(sizes):
        raise ValueError("degree vector length does not match block count")
    if any(d < 0 for d in D):
        return 0
    K = M._numerator
    out = prod(comb(d + n - 1, n - 1) for d, n in zip(D, sizes))
    for a in product(*(range(d + 1) for d in D)):
        c = K.get(a)
        if c:
            out -= c * prod(comb(d - e + n - 1, n - 1)
                            for d, e, n in zip(D, a, sizes))
    return out


def _macaulay_rows(polys: Iterable[Polynomial], ring: RingSpec,
                   degrees: Sequence[tuple], skip_unit: bool) -> Iterator:
    """For each multidegree D of degrees in turn, yield the rows
    {column: int} of the products monomial * p (monomial != 1 if
    skip_unit) in D, p's coefficients with denominators cleared.  A
    column is the monomial itself packed into fields that hold every D,
    variable 0 in the top field, so columns compare like exponent tuples
    and matrix_rank pivots on lex-smallest monomials: on the n = 8
    matrices that has 35-45% less fill-in than pivoting on lex-largest.
    A product is one add, and each p is packed once for all degrees.
    Raises ValueError for a D whose length is not the block count."""
    if any(len(D) != ring.nblocks for D in degrees):
        raise ValueError("degree vector length does not match block count")
    width = max(map(max, degrees), default=0).bit_length() + 1
    shifts = range((ring.nvars - 1) * width, -1, -width)

    def pack(mono: Monomial) -> int:
        return sum(map(lshift, mono, shifts))

    compiled = [(p.multidegree(),
                 [(pack(m), c) for m, c in _int_form(p.terms)[0].items()])
                for p in polys if p.terms]
    multipliers: dict = {}
    for D in degrees:
        rows = []
        for deg, terms in compiled:
            rem = tuple(map(sub, D, deg))
            if any(d < 0 for d in rem) or (skip_unit and not any(rem)):
                continue
            ms = multipliers.get(rem)
            if ms is None:
                ms = [pack(m) for m in monomials_of_multidegree(ring, rem)]
                multipliers[rem] = ms
            for m in ms:
                rows.append({t + m: c for t, c in terms})
        yield rows


def graded_piece_dim(I: Ideal, degree: Sequence[int],
                     method: str = "standard") -> int:
    """Dimension of the ideal's graded piece in one multidegree.

    method "standard": count monomials of that multidegree inside the
    initial ideal, from the ideal's one K-polynomial.
    method "rank": rank of the coefficient matrix of all products
    monomial * generator landing in that degree; works straight from
    the given generators, no Groebner basis involved.
    """
    degree = tuple(degree)
    if method == "standard":
        if not all(g.is_multihomogeneous() for g in I.gens):
            raise ValueError("polynomial is not multihomogeneous")
        return _count_in(I, degree)
    if method != "rank":
        raise ValueError(f"unknown method {method!r}")
    rows, = _macaulay_rows(I.gens, I.ring, [degree], skip_unit=False)
    return matrix_rank(rows)


def min_gens_by_total_degree(I: Ideal) -> dict:
    """Number of minimal generators of I, grouped by total degree.

    Graded Nakayama: the minimal generators of multidegree D number
    dim (I/mI)_D, with m the ideal of the variables, and the images of
    the given generators span I/mI, so (I/mI)_D is 0 unless a generator
    has multidegree D.  Only those multidegrees are counted, each as
    dim I_D, from the K-polynomial, minus the dimension of (mI)_D, the
    span of all products (monomial != 1) * (generator) landing in D.
    Raises ValueError if a generator is not multihomogeneous.
    """
    degrees = sorted({p.multidegree() for p in I.gens if p.terms})
    out: dict = {}
    for D, rows in zip(degrees,
                       _macaulay_rows(I.gens, I.ring, degrees, skip_unit=True)):
        count = _count_in(I, D) - matrix_rank(rows)
        if count:
            td = sum(D)
            out[td] = out.get(td, 0) + count
    return out
