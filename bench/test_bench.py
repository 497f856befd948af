"""Tests of the benchmark itself: input generation, span arithmetic,
the host-speed probe, wrapper installation, and the metric names it
prints.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import m0nbar  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def m0nbar_bindings() -> dict:
    """Every attribute of every m0nbar module, and of Polynomial."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "m0nbar" or name.startswith("m0nbar."):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("Polynomial", k): v
                for k, v in vars(m0nbar.poly.Polynomial).items()})
    return out


def engine_inputs(seed: int) -> list:
    return [[str(g) for g in gens]
            for _, gens in workloads.random_ideals(seed, count=12)]


def test_engine_inputs_follow_the_seed():
    assert engine_inputs(3) == engine_inputs(3)
    assert engine_inputs(3) != engine_inputs(4)


def test_engine_inputs_shape():
    ideals = workloads.random_ideals(5, count=6)
    for k, (ring, gens) in enumerate(ideals):
        nvars, degrees = workloads.ENGINE_SHAPES[k % 3]
        assert len(ring.names) == nvars
        assert [g.total_degree() for g in gens] == list(degrees)
        for g in gens:
            assert all(c.den == 1 and 1 <= abs(c.num) <= 9
                       for c in g.terms.values())


def test_self_time_of_nested_spans():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = t.wrap("leaf", lambda: tick(2.0))

    def middle():
        tick(1.0)
        leaf()
        leaf()
        tick(0.5)

    middle = t.wrap("middle", middle)
    outer = t.wrap("outer", lambda: (tick(3.0), middle()))
    outer()
    assert t.spans == {"leaf": [2, 4.0, 4.0],
                       "middle": [1, 5.5, 1.5],
                       "outer": [1, 8.5, 3.0]}


def test_after_hook_time_is_charged_to_no_span():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def slow_hook(args, kwargs, result):
        now[0] += 10.0

    inner = t.wrap("inner", lambda: now.__setitem__(0, now[0] + 1.0),
                   after=slow_hook)

    def outer_body():
        now[0] += 2.0
        inner()

    t.wrap("outer", outer_body)()
    assert t.spans["inner"] == [1, 1.0, 1.0]
    assert t.spans["outer"] == [1, 13.0, 2.0]


def test_probe_samples_during_the_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.Probe() as p:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # entry, exit and at least a few ticks in between
    assert len(p.samples) >= 5
    assert 0 < p.work_s < p.elapsed
    assert p.work_s == pytest.approx(p.elapsed - sum(p.samples[1:-1]))
    assert p.relative() == pytest.approx(
        p.work_s * len(p.samples) / sum(p.samples))


def test_probed_command_prints_what_the_plain_command_prints():
    def run_m0nbar(*cmd):
        return subprocess.run(
            [sys.executable, *cmd, "saturate", "5"], cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=170)

    plain = run_m0nbar("-m", "m0nbar.cli")
    probed = run_m0nbar(str(BENCH / "probe.py"))
    assert (probed.returncode, probed.stdout) == (plain.returncode,
                                                  plain.stdout)
    report = json.loads(probed.stderr.splitlines()[-1].split(" ", 1)[1])
    assert 0 < report["work_s"] <= report["elapsed_s"]
    assert len(report["samples"]) >= 2


def test_wrappers_are_installed_everywhere_and_removed():
    before = m0nbar_bindings()
    plain = workloads.run_cli(["saturate", "5"])
    t = tracer.Tracer()
    t.install()
    try:
        # names imported into other modules are replaced too
        assert m0nbar.ideal.buchberger is not before[("m0nbar.ideal", "buchberger")]
        assert (m0nbar.cli.min_gens_by_total_degree
                is m0nbar.ideal.min_gens_by_total_degree
                is not before[("m0nbar.ideal", "min_gens_by_total_degree")])
        assert m0nbar.ideal.matrix_rank is m0nbar.arith.matrix_rank
        assert m0nbar.moduli.normal_form is m0nbar.ideal.normal_form
        assert m0nbar.matrix_rank is m0nbar.arith.matrix_rank
        traced = workloads.run_cli(["saturate", "5"])
    finally:
        t.restore()
    after = m0nbar_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    assert t.spans["ideal.buchberger"][0] > 0
    assert t.spans["cli.main"][0] == 1
    assert t.counters["ideal.buchberger.spairs"] > 0
    values = run.layer_values(t, 0.0)
    assert values.keys() == run.LAYER_METRICS.keys()
    assert 0 < values["ideal.buchberger.reduced_frac"] <= 1


def test_declared_metrics_match_the_code():
    e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert e2e == run.E2E_METRICS
    assert layer == run.LAYER_METRICS
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-n7",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-n7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
