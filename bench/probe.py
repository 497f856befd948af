"""Host-speed probe: a fixed piece of work timed at regular intervals
inside the process that does the measured work.

The cores of a shared host run at a speed that drifts by up to a factor
of two within seconds, and each core drifts on its own, so a wall time
alone says more about the neighbours than about the program.  `Probe`
interrupts the work every INTERVAL_S seconds (SIGALRM) and times the
probe on the same core, as well as once on entry and once on exit.
`relative()` is the work's wall time, probes excluded, divided by the
mean probe time: the work's cost in probe units, which the host's drift
moves far less than the wall time.

The probe is exact rational arithmetic with the standard library's
`fractions` (Python-level calls, object allocation, big-integer gcds),
the kind of work m0nbar does, but none of m0nbar's code, so a change to
m0nbar does not move the probe.  Of the probes tried (a bare integer
loop, dict updates, big-integer products, hand-written gcd pairs), it
followed the drift of Bareiss rank and Buchberger passes most closely.

    python3 bench/probe.py ARGS...

runs `m0nbar ARGS` (as `python3 -m m0nbar.cli ARGS` does) under a probe
and prints, as the last line of standard error, `probe` and a JSON
object with the probed wall seconds, the work seconds and the probe
samples.  Standard output and the exit code are m0nbar's.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from fractions import Fraction

PROBE_TERMS = 300
INTERVAL_S = 0.05


def probe_once() -> float:
    """Seconds to sum i / (i + 7) for i below PROBE_TERMS."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i, i + 7)
    return time.perf_counter() - start


def probe_units(work_s: float, samples: list) -> float:
    """Work seconds over mean probe seconds."""
    return work_s / statistics.mean(samples)


class Probe:
    """Context manager: probes the host while the body runs."""

    def __init__(self) -> None:
        self.samples: list = []
        self.elapsed = 0.0
        self.work_s = 0.0
        self._start = 0.0
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_once())

    def __enter__(self) -> "Probe":
        self.samples.append(probe_once())
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._old_handler)
        # the entry sample ran before the clock started
        self.work_s = self.elapsed - sum(self.samples[1:])
        self.samples.append(probe_once())

    def relative(self) -> float:
        return probe_units(self.work_s, self.samples)

    def report(self) -> dict:
        return {"elapsed_s": self.elapsed, "work_s": self.work_s,
                "samples": self.samples}


def main(argv: list) -> int:
    import m0nbar.cli

    with Probe() as probe:
        try:
            code = m0nbar.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    print("probe " + json.dumps(probe.report()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
