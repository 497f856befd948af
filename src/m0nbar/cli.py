"""Command-line front end.

Four subcommands: `gen` writes the generator lists, `saturate` runs the
saturation pipeline and summarizes the result, `verify` checks every
fast numeric claim for one n and exits nonzero on any failure, and
`boundary` prints the boundary-divisor intersection graph.

Standard output is byte-identical across reruns with the same flags and
seed; wall times and Groebner progress go to standard error.
"""

import argparse
import sys
import time
from math import comb

from .ideal import (
    Ideal,
    contains,
    graded_piece_dim,
    hilbert_degree,
    initial_ideal,
    min_gens_by_total_degree,
)
from .moduli import (
    boundary_graph,
    cubic_generators,
    format_generator_file,
    generator_count_identity,
    minor_ideal,
    quartic_equations,
    saturation_pipeline,
    vanishing_test,
)
from .poly import grevlex_order, lex_order, moduli_ring

# inclusive n ranges per subcommand; None means unbounded above
_RANGES = {"gen": (5, None), "saturate": (5, None),
           "verify": (5, 8), "boundary": (4, None)}


def _progress(done: int, remaining: int, basis_size: int) -> None:
    print(f"S-pairs: {done} processed, {remaining} queued, "
          f"basis size {basis_size}", file=sys.stderr)


def cmd_gen(args) -> int:
    text = format_generator_file(args.n, include_quartics=args.deg4)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_saturate(args) -> int:
    n = args.n
    t0 = time.perf_counter()
    progress = _progress if n >= 7 else None
    I = saturation_pipeline(n, progress=progress)
    order = (lex_order if args.order == "lex" else grevlex_order)(I.ring)
    basis = I.groebner_basis(order)
    print(f"saturate n={n} order={args.order}")
    plural = "s" if len(basis) != 1 else ""
    print(f"basis ({len(basis)} element{plural}):")
    for g in basis:
        print(g)
    mingens = min_gens_by_total_degree(I)
    print("mingens by total degree: "
          + ", ".join(f"{d}:{c}" for d, c in sorted(mingens.items())))
    codim, degree = hilbert_degree(I)
    print(f"codim {codim}")
    print(f"degree {degree}")
    squarefree = initial_ideal(I, lex_order(I.ring)).is_squarefree()
    print(f"lex initial ideal square-free: {'yes' if squarefree else 'no'}")
    print(f"wall time: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    n = args.n
    t0 = time.perf_counter()
    checks: list = []

    cubics = cubic_generators(n)
    quartics = quartic_equations(n)
    want_c, want_q = comb(n - 1, 4), comb(n - 1, 5)
    checks.append((f"cubic count={len(cubics)} (expected {want_c})",
                   len(cubics) == want_c))
    checks.append((f"quartic count={len(quartics)} (expected {want_q})",
                   len(quartics) == want_q))
    for d in range(3, n - 1):
        lhs, rhs = generator_count_identity(n, d)
        checks.append((f"count identity d={d}: {lhs}={rhs}", lhs == rhs))

    report = vanishing_test(n, trials=args.trials, seed=args.seed)
    checks.append((f"vanishing: {report.checks} evaluations, "
                   f"{len(report.failures)} nonzero", report.ok))

    if n == 6:
        J = minor_ideal(6)
        f6 = quartics[0]
        I = Ideal(moduli_ring(6), list(J.gens) + [f6])
        for label, ideal, deg, want in (
                ("dim J(1,1,2)", J, (1, 1, 2), 9),
                ("dim I(1,1,2)", I, (1, 1, 2), 10),
                ("dim J(2,2,2)", J, (2, 2, 2), 55),
                ("dim I(2,2,2)", I, (2, 2, 2), 55)):
            got = graded_piece_dim(ideal, deg)
            checks.append((f"{label}={got} (expected {want})", got == want))
        in_i = contains(I, f6)
        in_j = contains(J, f6)
        checks.append((f"f6 in I6: {str(in_i).lower()} (expected true)", in_i))
        checks.append((f"f6 in J6: {str(in_j).lower()} (expected false)",
                       not in_j))

    if n == 5:
        g = boundary_graph(5)
        degs = g.degrees()
        regular = bool(degs) and len(set(degs)) == 1
        shape = (f"{g.num_vertices} vertices / {g.num_edges} edges / "
                 + (f"{degs[0]}-regular" if regular else "irregular"))
        checks.append((f"Petersen: {shape}",
                       g.num_vertices == 10 and g.num_edges == 15
                       and regular and degs[0] == 3))
        girth = g.girth()
        checks.append((f"boundary girth={girth} (expected 5)", girth == 5))

    print(f"verify n={n} trials={args.trials} seed={args.seed}")
    for label, ok in checks:
        print(f"{label}: {'pass' if ok else 'FAIL'}")
    passed = sum(1 for _, ok in checks if ok)
    print(f"result: {passed}/{len(checks)} checks passed")
    print(f"wall time: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return 0 if passed == len(checks) else 1


def cmd_boundary(args) -> int:
    g = boundary_graph(args.n)
    print(g.export())
    degs = g.degrees()
    if g.num_edges == 0:
        print(f"{g.num_vertices} isolated vertices, 0 edges")
    elif len(set(degs)) == 1:
        print(f"{g.num_vertices} vertices, {g.num_edges} edges, "
              f"{degs[0]}-regular")
    else:
        print(f"{g.num_vertices} vertices, {g.num_edges} edges, "
              f"degrees {min(degs)}..{max(degs)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="m0nbar",
        description="equations and checks for the moduli space of "
                    "stable n-pointed rational curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write the generator lists")
    p.add_argument("n", type=int)
    p.add_argument("--deg4", action="store_true",
                   help="append the quartic family")
    p.add_argument("--out", metavar="FILE",
                   help="write to FILE instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("saturate",
                       help="saturate the cubics and quartics and summarize")
    p.add_argument("n", type=int)
    p.add_argument("--order", choices=("lex", "grevlex"), default="lex",
                   help="term order for the printed basis")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("verify", help="check the numeric claims for one n")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=50,
                   help="random point configurations per vanishing test")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("boundary", help="print the boundary divisor graph")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_boundary)

    args = parser.parse_args(argv)
    lo, hi = _RANGES[args.command]
    if args.n < lo or (hi is not None and args.n > hi):
        top = f" and <= {hi}" if hi is not None else ""
        parser.error(f"{args.command}: n must be >= {lo}{top}")
    if args.command == "verify" and args.trials < 1:
        parser.error("verify: --trials must be >= 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
