"""Equations and combinatorics of the moduli space of stable n-pointed
rational curves embedded in P^1 x P^2 x ... x P^(n-3).

An n-tuple of distinct points (p_1, ..., p_n) on the line maps to the
product of projective spaces by cross ratios: the block-i coordinates
are

    w_j = (p_1 - p_{j+2}) / (p_{i+3} - p_{j+2}),    j = 0, ..., i.

The conjectured defining equations come from 2x2 minors of one 2x(i+1)
matrix per pair of blocks i < j:

    row 1:  w_r^(i) * (w_r^(j) - w_{i+1}^(j))       r = 0, ..., i
    row 2:  w_r^(j)

All minors together give binomial(n-1, 4) cubics; saturating the ideal
they generate by every block's irrelevant ideal produces one extra
minimal generator per degree 4, 5, ..., n-3, the first layer of which
is the six-term quartic family below (binomial(n-1, 5) equations, one
per 5-subset of {0, ..., n-2}).  saturation_pipeline saturates the
ideal of the cubics and the quartics together, block by block: the
same saturation, without rediscovering the quartics.

This module also covers the associated combinatorics: counts of
boundary strata (trivalent leaf-labeled trees, enumerated as sets of
leaf splits), the pairwise-nesting graph of boundary divisors, and the
binomial identity predicting the number of degree-d generators.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress, count
from math import comb, lcm
from operator import add, floordiv, mul, sub
from typing import Iterable, Sequence

from .arith import Rational, _int_form, _primitive
from .ideal import (
    Ideal,
    Progress,
    contains,
    equal_ideals,
    saturate_by_block,
)
from .poly import (
    Polynomial,
    RingSpec,
    grevlex_order,
    moduli_ring,
    monomials_of_multidegree,
    parse_polynomial,
    polynomial_ring,
)


def _block_var(ring: RingSpec, block: int, j: int) -> Polynomial:
    """w_j of block `block` (1-based) as a polynomial."""
    start, stop = ring.block_slices()[block - 1]
    if not 0 <= j < stop - start:
        raise IndexError(f"block {block} has no coordinate {j}")
    return ring.var_by_index(start + j)


def _canonical_sign(p: Polynomial) -> Polynomial:
    """Scale to integer, content-free coefficients with a positive
    lex-leading coefficient."""
    terms, _ = _int_form(p.terms)
    _primitive(terms, max(terms))  # lex is tuple order
    return Polynomial(p.ring, {m: Rational(c) for m, c in terms.items()})


def _sorted_by_lead(polys: Iterable[Polynomial], ring: RingSpec) -> list:
    """Ascending by graded-reverse-lex leading monomial, the
    conventional display order for the generator lists."""
    order = grevlex_order(ring)
    return sorted(polys, key=lambda p: order.key(p.leading_monomial(order)))


# -- minor matrices and cubic generators -----------------------------------


def minor_matrices(n: int) -> list:
    """One 2x(i+1) matrix per pair of blocks 1 <= i < j <= n-3, by i
    then j, as its rows (row1, row2): tuples of polynomials."""
    ring = moduli_ring(n)
    out = []
    for i in range(1, n - 3):
        for j in range(i + 1, n - 2):
            wi = [_block_var(ring, i, r) for r in range(i + 1)]
            wj = [_block_var(ring, j, r) for r in range(j + 1)]
            row1 = tuple(wi[r] * (wj[r] - wj[i + 1]) for r in range(i + 1))
            out.append((row1, tuple(wj[:i + 1])))
    return out


def cubic_generators(n: int) -> list:
    """All 2x2 minors of all minor matrices: binomial(n-1, 4) cubics,
    content-free with positive lex-leading coefficient, sorted by
    ascending graded-reverse-lex leading monomial."""
    gens = [_canonical_sign(row1[r] * row2[s] - row1[s] * row2[r])
            for row1, row2 in minor_matrices(n)
            for r, s in combinations(range(len(row1)), 2)]
    return _sorted_by_lead(gens, moduli_ring(n))


def minor_ideal(n: int) -> Ideal:
    """The ideal generated by the cubic minors."""
    return Ideal(moduli_ring(n), cubic_generators(n))


def saturation_pipeline(n: int,
                        progress: Progress | None = None) -> Ideal:
    """Saturate the ideal of the cubics and the quartics by every block
    in turn (first block first), returning the conjectured defining
    ideal.  Saturating minor_ideal(n) gives the same ideal (checked up
    to n = 8), but spends most of its S-pairs finding the quartics."""
    I = Ideal(moduli_ring(n), cubic_generators(n) + quartic_equations(n))
    for block in range(I.ring.nblocks):
        I = saturate_by_block(I, block, progress)
    return I


# -- quartic equations ------------------------------------------------------


def quartic_tuples(n: int) -> list:
    """Index tuples (i, j, k, l, m) with 0 <= i < j <= k < l < m <= n-3,
    sorted by m, then l, k, j, i.  (i, j, k+1, l+1, m+1) runs once over
    each 5-subset of {0, ..., n-2}, so there are binomial(n-1, 5)."""
    return sorted(((i, j, k - 1, l - 1, m - 1)
                   for i, j, k, l, m in combinations(range(n - 1), 5)),
                  key=lambda t: t[::-1])


def _quartic_coordinates(n: int, tup: Sequence[int]) -> tuple:
    """The eight block coordinates of one quartic, named (block, index):
    (ik, jk, il, jl, kl, jm, km, lm) = w_i, w_j of block k; w_i, w_j,
    w_(k+1) of block l; w_j, w_(k+1), w_(l+1) of block m.  Raises
    ValueError unless 0 <= i < j <= k < l < m <= n-3."""
    i, j, k, l, m = tup
    if not 0 <= i < j <= k < l < m <= n - 3:
        raise ValueError(f"{tuple(tup)} is no quartic index tuple at n={n}")
    ring = moduli_ring(n)
    return tuple(_block_var(ring, block, r) for block, r in (
        (k, i), (k, j), (l, i), (l, j), (l, k + 1),
        (m, j), (m, k + 1), (m, l + 1)))


def quartic_equation(n: int, tup: Sequence[int]) -> Polynomial:
    """The six-term quartic generator for one index tuple."""
    ik, jk, il, jl, kl, jm, km, lm = _quartic_coordinates(n, tup)
    return _canonical_sign(ik * il * jm * km - ik * kl * jm * km
                           - ik * il * jm * lm + jk * il * jm * lm
                           + ik * kl * jm * lm - jk * il * km * lm)


def quartic_raw_form(n: int, tup: Sequence[int]) -> Polynomial:
    """The minor-style expansion of the same quartic: manifestly a
    combination of products of block coordinates that vanish on the
    cross-ratio locus.  Differs from quartic_equation by an element of
    the cubic ideal."""
    ik, jk, il, jl, kl, jm, km, lm = _quartic_coordinates(n, tup)
    return (km * lm * (ik * jl - jk * il)
            + lm * jm * (jk * il - ik * il)
            + jm * km * (ik * il - ik * jl))


def quartic_equations(n: int) -> list:
    """The full quartic family: binomial(n-1, 5) equations, canonically
    normalized and sorted like cubic_generators."""
    ring = moduli_ring(n)
    return _sorted_by_lead(
        (quartic_equation(n, t) for t in quartic_tuples(n)), ring)


def quartic_membership_witness(J: Ideal, tup: Sequence[int]) -> Polynomial:
    """Difference between the two quartic expansions, verified to lie in
    the cubic ideal J by a normal-form computation.

    Returns the difference; raises AssertionError if its normal form
    against the grevlex basis of J is nonzero (contains).
    """
    n = len(J.ring.block_sizes) + 3
    diff = quartic_raw_form(n, tup) - quartic_equation(n, tup)
    if not diff.is_multihomogeneous():
        raise AssertionError("witness difference is not multihomogeneous")
    if not contains(J, diff):
        raise AssertionError(
            f"quartic witness for {tuple(tup)} does not reduce to zero")
    return diff


# -- point configurations and the embedding --------------------------------


@dataclass(frozen=True)
class PointConfig:
    """n distinct rational points on the affine line."""

    points: tuple

    def __post_init__(self):
        pts = tuple(p if isinstance(p, Rational) else Rational(p)
                    for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if len(pts) < 4:
            raise ValueError("need at least four points")


def embedding_coordinates(config: PointConfig) -> list:
    """Cross-ratio coordinates of a point configuration, flattened in
    ring variable order (block 1 first)."""
    p = config.points
    return [(p[0] - p[j + 1]) / (p[i + 2] - p[j + 1])
            for i in range(1, len(p) - 2) for j in range(i + 1)]


def _coordinate_columns(batch: Sequence[Sequence[int]]) -> dict:
    """The leaf columns of a program from _horner for a batch of distinct
    integer point tuples: (v,) maps to variable v's column over the
    batch, its cross ratio times L_i, the lcm of block i's denominators,
    as ints; and () to the column of ones."""
    p = list(zip(*batch))
    nums = [list(map(sub, p[0], q)) for q in p[1:-1]]
    columns = []
    for i in range(1, len(p) - 2):
        dens = [list(map(sub, p[i + 2], q)) for q in p[1:i + 2]]
        scale = list(map(lcm, *dens))
        columns.extend(list(map(mul, num, map(floordiv, scale, den)))
                       for num, den in zip(nums, dens))
    products = {(v,): col for v, col in enumerate(columns)}
    products[()] = [1] * len(batch)
    return products


def _horner(polys: Sequence[Polynomial]) -> tuple:
    """(steps, outputs): one straight-line program for `polys` times the
    lcms of their coefficient denominators.

    Each polynomial is split as x*A + B on the variable x in most of its
    terms, the smallest index on a tie, and A and B are split in turn
    (multivariate Horner).  Every form is divided by its content, signed
    to make its first term (the least index tuple) positive, so a form
    and its multiples, across all the polynomials, share one column.  A
    column is named by a key of _coordinate_columns' products ((v,) for
    variable v, () for the ones) or by the index of the step that builds
    it.  Step (op, a, b) is column a op column b for op in add, sub,
    mul, and op times column a for an int op (b is None).  outputs[e]
    names the column of polys[e]'s scaled value.  Raises ValueError if a
    polynomial is not multihomogeneous."""
    steps, index, forms = [], {}, {}

    def step(op, a, b):
        if (op, a, b) not in index:
            index[op, a, b] = len(steps)
            steps.append((op, a, b))
        return index[op, a, b]

    def scaled(c, a):
        return a if c == 1 else step(c, a, None)

    def column(poly):
        # (g, the column of poly / g), poly / g built once
        lead = min(poly)
        g = poly[lead]
        g //= _primitive(poly, lead)[lead]
        key = frozenset(poly.items())
        if key not in forms:
            forms[key] = horner(poly)
        return g, forms[key]

    def horner(poly):
        freq = Counter(v for idx in poly for v in set(idx))
        if not freq:  # poly is the constant 1
            return ()
        x = min(freq, key=lambda v: (-freq[v], v))
        a, b = {}, {}
        for idx, c in poly.items():
            if x in idx:
                i = idx.index(x)
                a[idx[:i] + idx[i + 1:]] = c
            else:
                b[idx] = c
        ga, xa = column(a)
        xa = (x,) if xa == () else step(mul, (x,), xa)
        if not b:
            return scaled(ga, xa)
        # a positive factor first: the part holding poly's first term
        # has one, so a homogeneous poly needs no scaling by -1
        (g1, r1), (g2, r2) = sorted([(ga, xa), column(b)],
                                    key=lambda part: part[0] < 0)
        return step(add if g2 > 0 else sub, scaled(g1, r1),
                    scaled(abs(g2), r2))

    def terms(p):
        # p's terms, denominators cleared, keyed by variable indices
        # with repetition
        p.multidegree()
        return {tuple(i for i, e in enumerate(mono) for _ in range(e)): c
                for mono, c in _int_form(p.terms)[0].items()}

    outputs = [scaled(*column(terms(p))) for p in polys]
    return steps, outputs


def _run(program: tuple, products: dict) -> list:
    """The output columns of a program from _horner over one batch's
    products from _coordinate_columns.  A step's column is dropped right
    after the last step that reads it, and the outputs are kept, so at
    most the program's live width of step columns is held at once."""
    steps, outputs = program
    last = {c: k for k, (_, a, b) in enumerate(steps) for c in (a, b)}
    last.update(dict.fromkeys(outputs, len(steps)))
    dead = [[] for _ in range(len(steps) + 1)]
    for c, k in last.items():
        if isinstance(c, int):
            dead[k].append(c)
    cols = dict(products)
    for k, (op, a, b) in enumerate(steps):
        cols[k] = (list(map(op.__mul__, cols[a])) if b is None
                   else list(map(op, cols[a], cols[b])))
        for c in dead[k]:
            del cols[c]
    return [cols[k] for k in outputs]


def _draw(rand, n: int) -> tuple:
    """n distinct integers of [-20, 20], by a partial Fisher-Yates pass
    that takes one float of `rand` per point."""
    pool = list(range(-20, 21))
    points = []
    for m in range(41, 41 - n, -1):
        j = int(rand() * m)
        points.append(pool[j])
        pool[j] = pool[m - 1]
    return tuple(points)


_BATCH = 512  # trials per batch: one batch's live columns are all that is held


@dataclass
class VanishingReport:
    """vanishing_test's outcome: (trial, points, index, value) per
    failure, by trial, then by equation index."""
    n: int
    trials: int
    equations: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def checks(self) -> int:
        return self.trials * self.equations


def vanishing_test(n: int, trials: int = 50, seed: int = 0) -> VanishingReport:
    """Evaluate every cubic and quartic generator at random distinct
    integer point configurations; exact zeros required.

    Points are drawn without repetition from [-20, 20] (_draw) from the
    floats of a seeded random.Random, so runs are reproducible, also
    across Python versions, which keep that sequence but not the output
    of Random.sample.

    The test runs in plain ints, a batch of trials at a time, as integer
    columns.  All the equations are compiled once, each times `scale`,
    the lcm of its coefficient denominators, into one Horner program
    (_horner) that shares their common sub-forms; each batch runs every
    step of it once, holding only the columns a later step still reads
    (_run).  Each trial scales block i's cross ratios by L_i,
    the lcm of that block's denominators.  An equation of multidegree d
    is homogeneous of degree d_i in block i, so its integer value is its
    exact value times the nonzero constant scale * prod_i L_i^(d_i):
    zero exactly when the exact value is zero.
    A nonzero value is recomputed as a Rational at that point alone for
    the report.  Raises ValueError if an equation is not multihomogeneous.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if n > 41:
        raise ValueError("need n <= 41 distinct points in [-20, 20]")
    rng = random.Random(seed)
    eqs = cubic_generators(n) + quartic_equations(n)
    program = _horner(eqs)
    failures = []
    for start in range(0, trials, _BATCH):
        batch = [_draw(rng.random, n)
                 for _ in range(min(_BATCH, trials - start))]
        products = _coordinate_columns(batch)
        hits = sorted(
            (t, idx) for idx, values in enumerate(_run(program, products))
            for t in compress(count(), values))
        for t, idx in hits:
            exact = embedding_coordinates(PointConfig(batch[t]))
            failures.append((start + t, batch[t], idx,
                             str(eqs[idx].evaluate(exact))))
    return VanishingReport(n, trials, len(eqs), failures)


# -- the n=5 Segre re-embedding ---------------------------------------------

# quadrics cutting out the image of the five-point moduli space inside
# P^5 under t_{3i+j} = a_i * b_j
SEGRE_QUADRICS_N5 = (
    "t0*t1 - t0*t4 + t2*t3 - t1*t2",
    "t0*t4 - t3*t4 + t3*t5 - t1*t5",
    "t1*t3 - t0*t4",
    "t2*t3 - t0*t5",
    "t2*t4 - t1*t5",
)


def segre_quadrics_n5() -> Ideal:
    """Quadric ideal of the five-point moduli space re-embedded in P^5.

    Constructs the ideal from first principles: the Segre identification
    t_{3i+j} = a_i * b_j is a monomial map, sending each quadratic
    t-monomial to one monomial of degree (2,2).  Pull the products
    a0 * (cubic) and a1 * (cubic) back term by term through the first
    preimage of each monomial, add the three 2x2 Segre relations of the
    matrix [[t0,t1,t2],[t3,t4,t5]], and check that the construction and
    the five reference quadrics have the same reduced grevlex basis.
    Raises AssertionError on any mismatch.
    """
    tring = polynomial_ring([f"t{i}" for i in range(6)])
    base = moduli_ring(5)
    cubic = cubic_generators(5)[0]

    # first preimage of each (2,2) monomial among the quadratic t-monomials
    preimage: dict = {}
    for mono in monomials_of_multidegree(tring, (2,)):
        img = [0] * base.nvars
        for idx, e in enumerate(mono):
            ai, bj = divmod(idx, 3)
            img[base.index(f"a{ai}")] += e
            img[base.index(f"b{bj}")] += e
        preimage.setdefault(tuple(img), mono)

    lifted = []
    for a in ("a0", "a1"):
        target = base.var(a) * cubic
        if not all(mono in preimage for mono in target.terms):
            raise AssertionError(f"{a} * cubic is not a quadric pullback")
        lifted.append(Polynomial(tring, {preimage[mono]: c for mono, c
                                         in target.terms.items()}))

    t = [tring.var(f"t{i}") for i in range(6)]
    relations = [t[0] * t[4] - t[1] * t[3],
                 t[0] * t[5] - t[2] * t[3],
                 t[1] * t[5] - t[2] * t[4]]
    constructed = Ideal(tring, lifted + relations)
    reference = Ideal(tring, [parse_polynomial(tring, s)
                              for s in SEGRE_QUADRICS_N5])
    if not equal_ideals(constructed, reference):
        raise AssertionError("constructed quadrics and reference differ")
    return constructed


# -- boundary combinatorics -------------------------------------------------


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def enumerate_trivalent_trees(leaves: int) -> set:
    """All trivalent trees with the given labeled leaves, as canonical
    forms: the frozenset of leaf bipartitions (one side per edge, the
    side not containing leaf 0).  Leaf k is inserted into every edge s
    of every tree on leaves 0..k-1: edge s becomes the sides s and
    s | {k}, the pendant side {k} is added, and every side strictly
    containing s gains k."""
    if leaves < 3:
        raise ValueError("need at least three leaves")
    trees = [frozenset(map(frozenset, ({1}, {2}, {1, 2})))]
    for k in range(3, leaves):
        trees = [frozenset([frozenset({k}), s | {k}]
                           + [t | {k} if s < t else t for t in tree])
                 for tree in trees for s in tree]
    return set(trees)


def stable_tree_count(n: int) -> int:
    """Number of trivalent trees with n-1 labeled leaves: the product
    formula (2n-7)!!, cross-checked against explicit enumeration for
    n <= 8."""
    if n < 4:
        raise ValueError("need n >= 4")
    count = double_factorial(2 * n - 7)
    if n <= 8:
        enumerated = len(enumerate_trivalent_trees(n - 1))
        if enumerated != count:
            raise AssertionError(
                f"enumeration found {enumerated} trees, formula says {count}")
    return count


def generator_count_identity(n: int, d: int) -> tuple:
    """Both sides of the degree-d generator count identity:

        sum_i binomial(n-3-i, d-2) * binomial(i+1, 2) = binomial(n-1, d+1)
    """
    lhs = sum(comb(n - 3 - i, d - 2) * comb(i + 1, 2)
              for i in range(1, n - 2))
    rhs = comb(n - 1, d + 1)
    return lhs, rhs


@dataclass(frozen=True, order=True)
class BoundaryDivisor:
    """A boundary divisor: an unordered partition {I, I^c} of the marked
    points 1..n with both sides of size >= 2, stored by the
    lexicographically smaller side."""

    n: int
    part: tuple

    @classmethod
    def from_subset(cls, n: int, subset: Iterable[int]) -> "BoundaryDivisor":
        side = tuple(sorted(set(subset)))
        if not all(1 <= x <= n for x in side):
            raise ValueError("marked points run from 1 to n")
        other = tuple(x for x in range(1, n + 1) if x not in side)
        if len(side) < 2 or len(other) < 2:
            raise ValueError("both sides need at least two points")
        return cls(n, min(side, other))

    @property
    def label(self) -> str:
        return "d{" + ",".join(str(x) for x in self.part) + "}"

    def compatible(self, other: "BoundaryDivisor") -> bool:
        """Whether the two partitions nest (the divisors intersect)."""
        a, b = set(self.part), set(other.part)
        full = set(range(1, self.n + 1))
        return (a <= b or b <= a or not (a & b) or (a | b) == full)


@dataclass
class BoundaryGraph:
    """boundary_graph's result: sorted vertices, each one's neighbours."""
    n: int
    vertices: list
    adjacency: dict

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

    def degrees(self) -> list:
        return [len(self.adjacency[v]) for v in self.vertices]

    def girth(self) -> int | None:
        """Length of a shortest cycle, None for a forest."""
        best = None
        for root in self.vertices:
            dist = {root: 0}
            parent = {root: None}
            queue = [root]
            while queue:
                u = queue.pop(0)
                for w in self.adjacency[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif parent[u] != w:
                        cycle = dist[u] + dist[w] + 1
                        if best is None or cycle < best:
                            best = cycle
        return best

    def export(self) -> str:
        """Adjacency list, one line per vertex: "d{1,2}: d{3,4} d{3,5}"."""
        lines = []
        for v in self.vertices:
            nbrs = " ".join(w.label for w in sorted(self.adjacency[v]))
            lines.append(f"{v.label}: {nbrs}".rstrip())
        return "\n".join(lines)


def boundary_graph(n: int) -> BoundaryGraph:
    """Vertices: boundary divisors (2^(n-1) - n - 1 of them); edges:
    pairs whose partitions nest, i.e. whose divisors intersect."""
    if n < 4:
        raise ValueError("need n >= 4")
    seen = set()
    for size in range(2, n - 1):
        for subset in combinations(range(1, n + 1), size):
            seen.add(BoundaryDivisor.from_subset(n, subset))
    vertices = sorted(seen)
    adjacency = {v: set() for v in vertices}
    for v, w in combinations(vertices, 2):
        if v.compatible(w):
            adjacency[v].add(w)
            adjacency[w].add(v)
    return BoundaryGraph(n, vertices, adjacency)


# -- equation export ---------------------------------------------------------


def format_generator_file(n: int, include_quartics: bool = False) -> str:
    """Plain-text export: a header recording n and the counts, then one
    polynomial per line (lex-descending terms)."""
    cubics = cubic_generators(n)
    quartics = quartic_equations(n) if include_quartics else []
    header = f"# n={n} cubics={len(cubics)} quartics={len(quartics)}"
    lines = [header] + [str(p) for p in cubics] + [str(p) for p in quartics]
    return "\n".join(lines) + "\n"
