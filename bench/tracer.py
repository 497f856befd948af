"""Span tracing of m0nbar from outside the package.

The traced run wraps public functions of `arith`, `poly`, `ideal`,
`moduli` and `cli` in spans.  A function imported by name into another
module (`from .ideal import buchberger`) is a separate binding there, so
every `m0nbar` module attribute bound to the original object is replaced,
and each replacement is undone by `restore`.

A span's self time is its duration minus the time covered by the spans
it called.  Work done by the tracer after a call returns (counting basis
sizes or coefficient bits) is charged to no span.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# (module, attribute) of each traced function; "Class.method" names a method
TARGETS = (
    ("m0nbar.arith", "matrix_rank"),
    ("m0nbar.poly", "Polynomial.evaluate"),
    ("m0nbar.poly", "monomials_of_multidegree"),
    ("m0nbar.poly", "format_polynomial"),
    ("m0nbar.ideal", "buchberger"),
    ("m0nbar.ideal", "normal_form"),
    ("m0nbar.ideal", "saturate_by_variable"),
    ("m0nbar.ideal", "intersect"),
    ("m0nbar.ideal", "saturate_by_block"),
    ("m0nbar.ideal", "initial_ideal"),
    ("m0nbar.ideal", "hilbert_degree"),
    ("m0nbar.ideal", "graded_piece_dim"),
    ("m0nbar.ideal", "min_gens_by_total_degree"),
    ("m0nbar.moduli", "cubic_generators"),
    ("m0nbar.moduli", "quartic_equations"),
    ("m0nbar.moduli", "vanishing_test"),
    ("m0nbar.cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    """`m0nbar.poly`, `Polynomial.evaluate` -> `poly.evaluate`."""
    return module.split(".")[-1] + "." + attr.split(".")[-1]


class Tracer:
    """Accumulates calls, total and self seconds per span name, plus
    named counters, in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict = {}      # name -> [calls, total_s, self_s]
        self.counters: dict = {}   # name -> number
        self._open: list = []      # child seconds of each open span
        self._patches: list = []   # (owner, attr, original)

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called `name`.  after(args, kwargs, result)
        runs once the span has closed; its time is charged to no span."""
        clock = self.clock
        open_spans = self._open
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])

        @wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = open_spans.pop()
                stat[0] += 1
                stat[1] += took
                stat[2] += took - child
                if open_spans:
                    open_spans[-1] += took
            if after is not None:
                start_after = clock()
                after(args, kwargs, result)
                if open_spans:
                    open_spans[-1] += clock() - start_after
            return result

        return traced

    # -- installing wrappers into m0nbar --------------------------------

    def install(self) -> None:
        """Wrap every function in TARGETS wherever m0nbar bound it."""
        hooks = {
            "ideal.buchberger": self._after_buchberger,
            "arith.matrix_rank": self._after_matrix_rank,
            "moduli.vanishing_test": self._after_vanishing_test,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "m0nbar" or n.startswith("m0nbar."))]
        for module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            *cls, fn_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = vars(owner)[fn_name]
            name = span_name(module_name, attr)
            inner = self._counted_buchberger(original) \
                if name == "ideal.buchberger" else original
            traced = self.wrap(name, inner, hooks.get(name))
            if cls:
                self._patch(owner, fn_name, original, traced)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, traced)

    def restore(self) -> None:
        """Put every original binding back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- counters read at layer boundaries -------------------------------

    def _counted_buchberger(self, original):
        """buchberger with the public progress hook tapped: the final
        call reports (S-pairs processed, 0, unreduced basis size)."""
        tracer = self

        def buchberger(gens, order, progress=None):
            last = [0, 0, 0]

            def tap(done, queued, basis_size):
                last[:] = (done, queued, basis_size)
                if progress is not None:
                    progress(done, queued, basis_size)

            result = original(gens, order, tap)
            tracer.count("ideal.buchberger.spairs", last[0])
            tracer.count("ideal.buchberger.basis_unreduced", last[2])
            return result

        return buchberger

    def _after_buchberger(self, args, kwargs, basis) -> None:
        self.count("ideal.buchberger.basis_reduced", len(basis))
        bits = max((max(c.num.bit_length(), c.den.bit_length())
                    for g in basis for c in g.terms.values()), default=0)
        self.maximum("ideal.coeff_bits_max", bits)

    def _after_matrix_rank(self, args, kwargs, rank) -> None:
        rows = args[0] if args else kwargs["rows"]
        self.count("arith.matrix_rank.rows", len(rows))
        self.count("arith.matrix_rank.cells",
                   len(rows) * (len(rows[0]) if rows else 0))
        self.count("arith.matrix_rank.rank", rank)

    def _after_vanishing_test(self, args, kwargs, report) -> None:
        self.count("moduli.vanishing_test.evals", report.checks)
