"""m0nbar benchmark: one command, four seeded workloads, each pass
single-threaded in one process at a time.

    python3 bench/run.py --workload saturate-n7 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; m0nbar is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 (end to end): sets the workload up, runs whole passes over its
inputs until --seconds have gone by, then checks every result outside
the timed phase.  Metrics:
  wall_probes  median over the passes of one pass's wall time divided by
               the mean time of the host-speed probe (`probe.py`) that
               runs on the same core every 50 ms during the pass: the
               pass's cost in probe units.  The cores of a shared host
               change speed by up to a factor of two within seconds, so
               the plain wall time of a pass spreads past any useful
               bound between runs; the ratio spreads far less.
  setup_s      median over SETUP_REPEATS fresh interpreters of process
               start to inputs ready (imports, input generation)
  peak_rss_mb  peak resident memory of the process that ran the passes
The `info` line before the result adds the plain median wall seconds of
a pass (wall_s), the median and 90th percentile latency of one operation
(one ideal for engine-random, one pass for the others) and the number
of operations.  They are not gated: on a shared 2-core host they spread
between runs more than any bound allows.
saturate-n7 and verify-n7 run the user command, `python3 bench/probe.py
ARGS`, which runs `m0nbar ARGS` as `python3 -m m0nbar.cli` does, under
the probe, in a fresh interpreter per pass, at least twice, each pass
under another PYTHONHASHSEED; a stdout that differs from the first
pass's counts as a failed operation.  The other two workloads run in
this process.

--trace 1 (per layer): one untraced pass, then the set-up and one pass
again with the wrappers of `tracer.py` installed.  Both passes must give
identical results.  Layer metrics are for the traced set-up and pass;
LAYER_METRICS lists them.

An operation fails when it raises or its check fails; `attempted` and
`failed` count operations, so the error rate is failed / attempted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import Probe, probe_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 150

E2E_METRICS = {
    "wall_probes": "probes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {
    "ideal.buchberger.calls": "count",
    "ideal.buchberger.self_s": "s",
    "ideal.buchberger.spairs": "count",
    "ideal.buchberger.basis_unreduced": "count",
    "ideal.buchberger.basis_reduced": "count",
    "ideal.buchberger.reduced_frac": "ratio",
    "ideal.saturate_by_variable.calls": "count",
    "ideal.saturate_by_variable.self_s": "s",
    "ideal.intersect.calls": "count",
    "ideal.intersect.self_s": "s",
    "ideal.saturate_by_block.self_s": "s",
    "ideal.min_gens_by_total_degree.self_s": "s",
    "ideal.graded_piece_dim.self_s": "s",
    "ideal.hilbert_degree.self_s": "s",
    "ideal.initial_ideal.self_s": "s",
    "ideal.normal_form.calls": "count",
    "ideal.normal_form.self_s": "s",
    "ideal.coeff_bits_max": "bits",
    "arith.matrix_rank.calls": "count",
    "arith.matrix_rank.self_s": "s",
    "arith.matrix_rank.cells": "count",
    "arith.matrix_rank.rank_frac": "ratio",
    "poly.evaluate.calls": "count",
    "poly.evaluate.self_s": "s",
    "poly.monomials_of_multidegree.calls": "count",
    "poly.monomials_of_multidegree.self_s": "s",
    "poly.format_polynomial.self_s": "s",
    "moduli.vanishing_test.self_s": "s",
    "moduli.vanishing_test.evals": "count",
    "moduli.cubic_generators.self_s": "s",
    "moduli.quartic_equations.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import m0nbar from this checkout's src/ and the workload table."""
    if not (SRC / "m0nbar" / "__init__.py").is_file():
        fail(f"no m0nbar sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import m0nbar
    if Path(m0nbar.__file__).resolve().parent != SRC / "m0nbar":
        fail(f"imported m0nbar from {m0nbar.__file__}, not from {SRC}")
    import workloads
    return workloads


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env.update(extra)
    return env


def run_child(cmd: list, env: dict) -> tuple:
    """(exit code, stdout, stderr) of a child process, which has ended on
    return."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return proc.returncode, out.decode(), err.decode()


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that only set up."""
    code = ("import sys, workloads; "
            "workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rc, _, _ = run_child([sys.executable, "-c", code, name, str(seed)],
                             child_env())
        times.append(time.perf_counter() - start)
        if rc != 0:
            fail(f"set-up of {name} exited with {rc}")
    return statistics.median(times)


def judge(workload, inputs, first: list, later: list = ()) -> list:
    """Problems found in the operations of the first pass, whose results
    are checked, and of later passes, given as digests, which must
    repeat the first pass's results exactly."""
    problems = []
    reference = []
    for _, result in first:
        try:
            problem = workload.check(inputs, result)
            reference.append(workload.digest(result))
        except Exception as exc:
            problem = f"check raised {exc!r}"
            reference.append(None)
        if problem:
            problems.append(problem)
    for digests in later:
        problems += ["result differs from the first pass"
                     for got, ref in zip(digests, reference) if got != ref]
    return problems


def command_pass(argv: list, hash_seed: int) -> tuple:
    """One run of `m0nbar argv` under the probe in a fresh interpreter, as
    a user runs it, under the given PYTHONHASHSEED: (operations, probe
    units of the run)."""
    start = time.perf_counter()
    code, out, err = run_child(
        [sys.executable, str(BENCH / "probe.py"), *argv],
        child_env(PYTHONHASHSEED=str(hash_seed)))
    wall = time.perf_counter() - start
    lines = err.splitlines()
    if not lines or not lines[-1].startswith("probe "):
        raise RuntimeError(f"m0nbar {' '.join(argv)} exited with {code} "
                           "before the probe reported")
    report = json.loads(lines[-1][len("probe "):])
    return [(wall, (code, out))], probe_units(report["work_s"],
                                              report["samples"])


def in_process_pass(workload, inputs) -> tuple:
    """One pass of the workload in this process under the probe:
    (operations, probe units of the pass)."""
    with Probe() as probe:
        ops = workload.run_pass(inputs)
    return ops, probe.relative()


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, seed: int, seconds: int) -> tuple:
    inputs = workload.setup(seed)
    setup_s = setup_seconds(workload.name, seed)
    # a user command runs in a fresh interpreter per pass, each under its
    # own PYTHONHASHSEED, so equal results across passes show that stdout
    # does not depend on the hash seed; at least two passes make the check
    argv = workload.cli_argv(inputs)
    min_passes = 1 if argv is None else 2
    first, later, walls, units, latencies, problems = None, [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        try:
            if argv is None:
                ops, pass_units = in_process_pass(workload, inputs)
            else:
                ops, pass_units = command_pass(
                    argv, (1000 * seed + len(walls)) % 2**32)
        except Exception as exc:
            problems.append(f"pass raised {exc!r}")
            break
        walls.append(time.perf_counter() - t0)
        units.append(pass_units)
        latencies += [lat for lat, _ in ops]
        # later passes keep only digests, so peak memory does not grow
        # with the number of passes
        if first is None:
            first = ops
        else:
            later.append([workload.digest(result) for _, result in ops])
        del ops
    who = resource.RUSAGE_SELF if argv is None else resource.RUSAGE_CHILDREN
    peak_kib = resource.getrusage(who).ru_maxrss
    if first is None:
        fail("; ".join(problems))
    attempted = len(latencies) + len(problems)
    problems += judge(workload, inputs, first, later)
    metrics = {
        "wall_probes": statistics.median(units),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024,
    }
    info = {"passes": len(walls), "wall_s": statistics.median(walls),
            "operations": len(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p90_ms": percentile(latencies, 90) * 1000}
    return metrics, E2E_METRICS, attempted, problems, info


def per_layer(workload, seed: int) -> tuple:
    from tracer import Tracer

    inputs = workload.setup(seed)
    gc.collect()
    t0 = time.perf_counter()
    plain = workload.run_pass(inputs)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        traced_inputs = workload.setup(seed)
        gc.collect()
        t0 = time.perf_counter()
        traced = workload.run_pass(traced_inputs)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()

    problems = judge(workload, inputs, plain)
    problems += [f"operation {i}: traced result differs from untraced"
                 for i, ((_, a), (_, b)) in enumerate(zip(plain, traced))
                 if workload.digest(a) != workload.digest(b)]
    metrics = layer_values(tracer, traced_s / plain_s - 1)
    shares = sorted(((s[2] / traced_s, name)
                     for name, s in tracer.spans.items()), reverse=True)
    info = {"untraced_s": plain_s, "traced_s": traced_s,
            "self_share": {name: round(share, 4)
                           for share, name in shares[:5]}}
    return metrics, LAYER_METRICS, 2 * len(plain), problems, info


def layer_values(tracer, overhead_frac: float) -> dict:
    """LAYER_METRICS from the tracer's spans and counters."""
    counters = tracer.counters
    out = {}
    for name in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            calls, _, self_s = tracer.spans.get(span, (0, 0.0, 0.0))
            out[name] = calls if field == "calls" else self_s
        else:
            out[name] = counters.get(name, 0)
    out["ideal.buchberger.reduced_frac"] = ratio(
        counters.get("ideal.buchberger.basis_reduced", 0),
        counters.get("ideal.buchberger.basis_unreduced", 0))
    out["arith.matrix_rank.rank_frac"] = ratio(
        counters.get("arith.matrix_rank.rank", 0),
        counters.get("arith.matrix_rank.rows", 0))
    out["trace.overhead_frac"] = overhead_frac
    return out


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("saturate-n7", "invariants-n7",
                                 "engine-random", "verify-n7"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    workload = import_workloads().WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    run_args = (args.seed,) if args.trace else (args.seed, args.seconds)
    values, units, attempted, problems, info = measure(workload, *run_args)

    for problem in problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    info.update(nproc=os.cpu_count(), python=platform.python_version(),
                src_lines=src_lines())
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
