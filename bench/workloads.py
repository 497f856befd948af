"""The benchmark's four workloads.

Each workload makes its inputs from a seed (`setup`), runs one pass of
operations over them (`run_pass`), and checks one operation's result
(`check`).  `digest` fingerprints a result so that later passes and the
traced pass can be compared with the first.  `cli_argv` is the command
line of a `Command` workload, which the end-to-end run executes in a
fresh interpreter, and None otherwise.  Every call into m0nbar goes through a module attribute
(`m0nbar.ideal.buchberger`, never a name imported here), so the traced
run's wrappers see it.

Why these four: each layer does most of the work in one workload and
little in another, so a change to one layer shows a gain on the
workload that exercises it and no change on the one that bypasses it.

- saturate-n7: `m0nbar saturate 7`.  Nearly all of it is Buchberger
  runs with +-1 coefficients inside block saturations and
  intersections.  It bypasses `Polynomial.evaluate`.
- invariants-n7: graded invariants of the n = 7 cubic+quartic ideal.
  Its Groebner basis is cheap; Bareiss rank on Macaulay rows dominates.
  It bypasses saturation and intersection.
- engine-random: dense random homogeneous ideals with coefficients in
  +-9 under grevlex and lex, so leading coefficients other than 1 and
  200-bit lex coefficients exercise the general engine.  It
  bypasses the moduli layer and matrix rank.
- verify-n7: `m0nbar verify 7` with many trials.  Nearly all of it is
  exact evaluation of the generators at random points; it runs no
  Groebner basis.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from math import comb

import m0nbar.cli
import m0nbar.ideal
import m0nbar.moduli
import m0nbar.poly
from m0nbar.arith import Rational

N = 7
VERIFY_TRIALS = 3000
# (1,2,1,2) and (1,2,2,1) cost about 2.5 s of rank together; more would
# make one pass of invariants-n7 longer than the timed phase needs
MULTIDEGREES = ((1, 2, 1, 2), (1, 2, 2, 1))
EXPECTED_MINGENS = {3: 15, 4: 6}
# dense generic complete intersections: (variables, generator degrees).
# Fewer generators than variables let a lex basis take minutes, and five
# variables make the S-polynomial check of the outputs cost seconds per
# ideal, so every shape has as many generators as variables, at most four.
ENGINE_SHAPES = ((3, (2, 2, 3)), (4, (2, 2, 2, 3)), (4, (2, 2, 3, 3)))
ENGINE_IDEALS = 102
ENGINE_COEFFS = tuple(c for c in range(-9, 10) if c)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_cli(argv: list) -> tuple:
    """(exit code, stdout) of `m0nbar argv`; stderr is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = m0nbar.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Command:
    """A workload whose input is one m0nbar command line; one pass runs
    it once."""

    def run_pass(self, argv: list) -> list:
        return [timed(run_cli, argv)]

    def cli_argv(self, argv: list) -> list:
        return argv

    @staticmethod
    def digest(result: tuple) -> str:
        code, text = result
        return digest(f"exit {code}\n{text}")


# -- saturate-n7 -------------------------------------------------------------


class SaturateN7(Command):
    name = "saturate-n7"

    def setup(self, seed: int) -> list:
        return ["saturate", str(N)]

    def check(self, argv: list, result: tuple) -> str | None:
        code, text = result
        lines = text.splitlines()
        want = ["mingens by total degree: 3:15, 4:6, 5:1",
                f"codim {(N - 3) * (N - 4) // 2}",
                f"degree {double_factorial(2 * N - 7)}",
                "lex initial ideal square-free: yes"]
        missing = [w for w in want if w not in lines]
        if code != 0 or missing:
            return f"saturate exit {code}, missing lines {missing}"
        return None


# -- verify-n7 ---------------------------------------------------------------


class VerifyN7(Command):
    name = "verify-n7"

    def setup(self, seed: int) -> list:
        return ["verify", str(N), "--trials", str(VERIFY_TRIALS),
                "--seed", str(seed)]

    def check(self, argv: list, result: tuple) -> str | None:
        code, text = result
        last = text.splitlines()[-1] if text else ""
        parts = last.split()
        ok = (len(parts) == 4 and parts[0] == "result:"
              and parts[1].count("/") == 1
              and parts[1].split("/")[0] == parts[1].split("/")[1])
        equations = comb(N - 1, 4) + comb(N - 1, 5)
        evals = (f"vanishing: {VERIFY_TRIALS * equations} evaluations, "
                 "0 nonzero: pass")
        if code != 0 or not ok or evals not in text:
            return f"verify exit {code}, last line {last!r}"
        return None


# -- invariants-n7 -----------------------------------------------------------


class InvariantsN7:
    """The seed shuffles the generator list, which changes the order of
    Macaulay rows and of Buchberger's input but none of the invariants."""

    name = "invariants-n7"

    def setup(self, seed: int) -> tuple:
        ring = m0nbar.poly.moduli_ring(N)
        gens = (m0nbar.moduli.cubic_generators(N)
                + m0nbar.moduli.quartic_equations(N))
        random.Random(seed).shuffle(gens)
        return ring, gens

    def run_pass(self, inputs: tuple) -> list:
        return [timed(self._invariants, *inputs)]

    def cli_argv(self, inputs: tuple) -> None:
        return None

    @staticmethod
    def _invariants(ring, gens) -> dict:
        ideal = m0nbar.ideal
        I = ideal.Ideal(ring, gens)
        return {
            "mingens": ideal.min_gens_by_total_degree(I),
            "hilbert": ideal.hilbert_degree(I),
            "rank": [ideal.graded_piece_dim(I, D, method="rank")
                     for D in MULTIDEGREES],
            "standard": [ideal.graded_piece_dim(I, D, method="standard")
                         for D in MULTIDEGREES],
        }

    @staticmethod
    def digest(result: dict) -> str:
        return digest(repr(sorted(result.items())))

    def check(self, inputs: tuple, result: dict) -> str | None:
        want_hilbert = ((N - 3) * (N - 4) // 2, double_factorial(2 * N - 7))
        if (result["mingens"] != EXPECTED_MINGENS
                or result["hilbert"] != want_hilbert
                or result["rank"] != result["standard"]):
            return f"invariants {result}"
        return None


# -- engine-random -----------------------------------------------------------


def random_ideals(seed: int, count: int = ENGINE_IDEALS) -> list:
    """`count` ideals, cycling through ENGINE_SHAPES; every coefficient of
    every generator is a nonzero integer in [-9, 9]."""
    rng = random.Random(seed)
    poly = m0nbar.poly
    out = []
    for k in range(count):
        nvars, degrees = ENGINE_SHAPES[k % len(ENGINE_SHAPES)]
        ring = poly.polynomial_ring([f"x{i}" for i in range(nvars)])
        gens = [poly.Polynomial(ring, {
                    m: Rational(rng.choice(ENGINE_COEFFS))
                    for m in poly.monomials_of_multidegree(ring, (d,))})
                for d in degrees]
        out.append((ring, gens))
    return out


class EngineRandom:
    """One operation is one ideal's reduced bases under grevlex and lex."""

    name = "engine-random"

    def setup(self, seed: int) -> list:
        return random_ideals(seed)

    def run_pass(self, ideals: list) -> list:
        return [timed(self._bases, ring, gens) for ring, gens in ideals]

    def cli_argv(self, ideals: list) -> None:
        return None

    @staticmethod
    def _bases(ring, gens) -> list:
        poly = m0nbar.poly
        out = []
        for order in (poly.grevlex_order(ring), poly.lex_order(ring)):
            I = m0nbar.ideal.Ideal(ring, gens)
            out.append((order, gens, I.groebner_basis(order)))
        return out

    @staticmethod
    def digest(result: list) -> str:
        return digest("\n".join(f"{order!r}: " + ", ".join(map(str, basis))
                                for order, _, basis in result))

    def check(self, ideals, result: list) -> str | None:
        ideal = m0nbar.ideal
        for order, gens, basis in result:
            for i, f in enumerate(basis):
                for g in basis[i + 1:]:
                    s = ideal.spolynomial(f, g, order)
                    if ideal.normal_form(s, basis, order).terms:
                        return f"{order!r}: S-polynomial does not reduce to 0"
            for f in gens:
                if ideal.normal_form(f, basis, order).terms:
                    return f"{order!r}: generator not in the ideal of its basis"
        return None


WORKLOADS = {w.name: w for w in (SaturateN7(), InvariantsN7(),
                                 EngineRandom(), VerifyN7())}
