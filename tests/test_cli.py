"""Command-line interface tests: output formats, exit codes,
determinism of standard output for fixed flags and seed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from m0nbar.cli import main
from m0nbar.moduli import cubic_generators, quartic_equations
from m0nbar.poly import moduli_ring, parse_polynomial


# sha256 of the full stdout of two saturate runs: a change to the
# Groebner engine must keep the printed bases and invariants byte for byte
SATURATE_7_SHA256 = (
    "80ba43a1e51d6f6d4ef4578a40e654aae34d338df2c9fed8a3ae7a3c639e4953")
SATURATE_6_GREVLEX_SHA256 = (
    "903683d866ac6b8e7c15ee917d1bb8238dfdff41f92dab4cc50d17be95a673e4")
# the 4 progress lines of saturate 7 on stderr, from the pipeline that
# starts at the cubics and the quartics and saturates each block by its
# bare last variable first; their queued counts must be live pairs only.
# Block b's back run ends "S-pairs: 0 processed, 0 queued, basis size
# 35": without its Hilbert target it reduced 160 S-pairs, all to zero,
# and kept its 35 inputs, so their leads already span the initial ideal
# and their K-polynomial meets the target before any pair is formed.
# Block b's own run takes its target from block a's basis, cached on the
# ideal that block a returns unchanged: of the 201 pairs it reduced
# without one, only the 87 up to the last nonzero remainder of each
# total degree are left, so it reports once, at its end.  Block c makes
# no run: c3 divides no lead of block b's reduced grevlex basis, cached
# on block b's result, so c3 is a nonzerodivisor
SATURATE_7_PROGRESS_SHA256 = (
    "5f798e32e7310c53fe720a5f78c93e7c293bff560535cc758882e3d42186ec9f")
# sha256 of the full stdout of two verify runs: a change to the vanishing
# test must keep the printed checks and counts byte for byte
VERIFY_7_SHA256 = (
    "ce8086130c7a69cadfbbc438a69a4950d042d736dc54ded56911771974ee41ba")
VERIFY_8_SHA256 = (
    "4b1f9ab5166c7dd1958189df3d41aff4227bbf4c9a7086bfda65b594031461a7")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_n6(capsys):
    code, out, _ = run(capsys, "gen", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# n=6 cubics=5 quartics=0"
    assert len(lines) == 6
    ring = moduli_ring(6)
    assert [parse_polynomial(ring, s) for s in lines[1:]] == cubic_generators(6)


def test_gen_n7_deg4(capsys):
    code, out, _ = run(capsys, "gen", "7", "--deg4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# n=7 cubics=15 quartics=6"
    assert len(lines) == 22
    ring = moduli_ring(7)
    parsed = [parse_polynomial(ring, s) for s in lines[1:]]
    assert parsed == cubic_generators(7) + quartic_equations(7)


def test_gen_out_file(capsys, tmp_path):
    target = tmp_path / "eqs.txt"
    code, out, _ = run(capsys, "gen", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# n=5 cubics=1 quartics=0\n")
    assert text.endswith("\n")


def test_gen_usage_error_below_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "4"])
    assert exc.value.code == 2
    assert "n must be >= 5" in capsys.readouterr().err


def test_verify_usage_error_above_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_usage_error_without_trials(capsys, trials):
    # no trial means no evaluation, which must not read as a pass
    with pytest.raises(SystemExit) as exc:
        main(["verify", "5", "--trials", trials])
    assert exc.value.code == 2
    assert "--trials must be >= 1" in capsys.readouterr().err


def test_saturate_n5(capsys):
    code, out, err = run(capsys, "saturate", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "saturate n=5 order=lex"
    assert lines[1] == "basis (1 element):"
    assert lines[2] == "a0*b0*b1 - a0*b1*b2 - a1*b0*b1 + a1*b0*b2"
    assert "mingens by total degree: 3:1" in lines
    assert "codim 1" in lines
    assert "degree 3" in lines
    assert "lex initial ideal square-free: yes" in lines
    assert err.startswith("wall time:")


def test_saturate_n6_grevlex(capsys):
    code, out, _ = run(capsys, "saturate", "6", "--order", "grevlex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "saturate n=6 order=grevlex"
    assert "mingens by total degree: 3:5, 4:1" in lines
    assert "codim 3" in lines
    assert "degree 15" in lines
    assert "lex initial ideal square-free: yes" in lines
    assert sha256(out) == SATURATE_6_GREVLEX_SHA256


def stdout_under_hash_seed(seed, *argv):
    """Standard output of a fresh `m0nbar` process with PYTHONHASHSEED
    set to seed."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=seed)
    done = subprocess.run([sys.executable, "-m", "m0nbar.cli", *argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_saturate_stdout_independent_of_hash_seed():
    for seed in ("1", "2"):
        out = stdout_under_hash_seed(seed, "saturate", "6",
                                     "--order", "grevlex")
        assert sha256(out) == SATURATE_6_GREVLEX_SHA256


@pytest.mark.parametrize("argv", [
    ("verify", "6", "--trials", "20", "--seed", "1"),
    ("boundary", "6"),
])
def test_stdout_independent_of_hash_seed(argv):
    first, second = (stdout_under_hash_seed(s, *argv) for s in ("1", "2"))
    assert first
    assert first == second


def test_verify_n5_passes(capsys):
    code, out, _ = run(capsys, "verify", "5", "--trials", "3")
    assert code == 0
    assert "Petersen: 10 vertices / 15 edges / 3-regular: pass" in out
    assert "boundary girth=5 (expected 5): pass" in out
    assert out.splitlines()[-1] == "result: 6/6 checks passed"


def test_verify_n6_passes(capsys):
    code, out, _ = run(capsys, "verify", "6", "--trials", "2")
    assert code == 0
    assert "dim J(1,1,2)=9" in out
    assert "dim I(1,1,2)=10" in out
    assert "dim J(2,2,2)=55" in out
    assert "dim I(2,2,2)=55" in out
    assert "f6 in I6: true (expected true): pass" in out
    assert "f6 in J6: false (expected false): pass" in out
    assert "FAIL" not in out


def test_verify_n7_counts(capsys):
    code, out, _ = run(capsys, "verify", "7", "--trials", "2")
    assert code == 0
    assert "cubic count=15 (expected 15): pass" in out
    assert "quartic count=6 (expected 6): pass" in out
    for d in (3, 4, 5):
        assert f"count identity d={d}" in out


def test_verify_n8_counts(capsys):
    code, out, _ = run(capsys, "verify", "8", "--trials", "2")
    assert code == 0
    assert "cubic count=35 (expected 35): pass" in out
    assert "quartic count=21 (expected 21): pass" in out
    for d in (3, 4, 5, 6):
        assert f"count identity d={d}: " in out
    assert "vanishing: 112 evaluations, 0 nonzero: pass" in out
    assert "result: 7/7 checks passed" in out


def test_verify_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "7", "--trials", "3000",
                       "--seed", "1")
    assert code == 0
    assert "vanishing: 63000 evaluations, 0 nonzero: pass" in out
    assert sha256(out) == VERIFY_7_SHA256
    code, out, _ = run(capsys, "verify", "8", "--trials", "50", "--seed", "0")
    assert code == 0
    assert sha256(out) == VERIFY_8_SHA256


def test_verify_stdout_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "5", "--trials", "4", "--seed", "9")
    _, second, _ = run(capsys, "verify", "5", "--trials", "4", "--seed", "9")
    assert first == second


def test_verify_exit_code_on_failing_check(capsys, monkeypatch):
    import m0nbar.cli as cli
    monkeypatch.setattr(cli, "generator_count_identity", lambda n, d: (0, 1))
    code = cli.main(["verify", "5", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "count identity d=3: 0=1: FAIL" in out
    assert out.splitlines()[-1] == "result: 5/6 checks passed"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """{arguments: the output lines shown} for each `$ m0nbar ...` line
    of the README that is followed by output, in README order; a line
    "..." stands for omitted output and is skipped."""
    examples, shown = {}, None
    for line in README.read_text().splitlines():
        if line.startswith("$ m0nbar "):
            shown = examples.setdefault(line[len("$ m0nbar "):], [])
        elif not line.strip() or line.startswith("```"):
            shown = None
        elif shown is not None and line != "...":
            shown.append(line)
    return {argv: lines for argv, lines in examples.items() if lines}


def test_readme_examples_match_stdout(capsys):
    # every line the README shows appears in the real stdout, in order
    examples = readme_examples()
    assert list(examples) == ["gen 6", "saturate 6",
                              "verify 6 --trials 100 --seed 1", "boundary 5"]
    for argv, shown in examples.items():
        code, out, _ = run(capsys, *argv.split())
        assert code == 0, argv
        lines = iter(out.splitlines())
        assert all(line in lines for line in shown), argv


def test_boundary_n4(capsys):
    code, out, _ = run(capsys, "boundary", "4")
    assert code == 0
    assert out == "d{1,2}:\nd{1,3}:\nd{1,4}:\n3 isolated vertices, 0 edges\n"


def test_boundary_n5(capsys):
    code, out, _ = run(capsys, "boundary", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[-1] == "10 vertices, 15 edges, 3-regular"


def test_boundary_n6_summary(capsys):
    code, out, _ = run(capsys, "boundary", "6")
    assert code == 0
    assert out.splitlines()[-1].startswith("25 vertices,")


def test_saturate_n7_reports_progress(capsys):
    code, out, err = run(capsys, "saturate", "7")
    assert code == 0
    lines = out.splitlines()
    assert "mingens by total degree: 3:15, 4:6, 5:1" in lines
    assert "codim 6" in lines
    assert "degree 105" in lines
    assert "lex initial ideal square-free: yes" in lines
    assert sha256(out) == SATURATE_7_SHA256
    progress = [l for l in err.splitlines() if l.startswith("S-pairs:")]
    assert len(progress) == 4
    # each of the 3 Groebner runs reports its end once: one each for
    # blocks a and b, and block b's reduced grevlex basis after its
    # certificate, which forms no pair.  Block b's result carries that
    # basis, and neither c3 nor d4 divides one of its leads, so blocks c
    # and d run nothing.  Only block a's run, of 196 pairs, also reports
    # at 100
    assert sum(", 0 queued" in l for l in progress) == 3
    assert sha256("\n".join(progress)) == SATURATE_7_PROGRESS_SHA256
