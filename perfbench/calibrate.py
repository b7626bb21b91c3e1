"""Machine-speed calibration for the benchmark's timings.

    python3 perfbench/calibrate.py                  # one probe: the median slice time in ns
    python3 perfbench/calibrate.py --reference 200  # measure the two reference constants

The reference machine is shared: other tenants slow everything that runs
on it, by up to 1.8x, and the slowdown changes from one second to the
next.  A fixed pure-Python kernel slows down with it.  The kernel does
exact rational arithmetic on small tuples and dicts, the same kind of work
as the program.

A probe runs the kernel in a fresh interpreter of its own, so nothing of the
program (its heap, its imports, its caches) is in the process that is timed.
The benchmark probes before its first unit and after every unit, one
process at a time, and scales each unit's times by

    scale = REFERENCE_NS / mean(probe before the unit, probe after it)

so every reported time reads as on the reference machine when nothing else
is running on it.  A cold CLI invocation is mostly interpreter start-up,
which contention slows less than the kernel, so ``cli`` blocks are probed
with a bare ``python -c pass`` against FLOOR_REFERENCE_NS instead.  The raw,
unscaled figures and the scales are kept in the run record.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction

ROUNDS = 150
SLICES = 15

# Median slice time of one probe on the reference machine (2-vCPU Xeon,
# CPython 3.11.7) when uncontended: the 10th percentile over 200 probes,
# as ``--reference 200`` prints it.
REFERENCE_NS = 2_060_000

# Cold ``python -c pass`` on the same machine: the 10th percentile of 200.
FLOOR_REFERENCE_NS = 44_700_000


def _work(rounds: int) -> int:
    memo: dict[int, Fraction] = {}
    for i in range(rounds):
        a = Fraction(i % 7 - 3, i % 5 + 1)
        b = Fraction(i % 11, 6)
        row = (a * b + a - b, a * a, b * b)
        memo[i & 63] = row[0] - row[1] / 12 + row[2] / 24
    return len(memo)


def probe_ns() -> float:
    """Median wall time of SLICES kernel slices in this interpreter."""
    slices = []
    for _ in range(SLICES):
        start = time.perf_counter_ns()
        _work(ROUNDS)
        slices.append(time.perf_counter_ns() - start)
    return statistics.median(slices)


def scale(before: float, after: float, reference: float = REFERENCE_NS) -> float:
    """Factor that turns times measured between two probes into reference times."""
    return reference / ((before + after) / 2)


def _p10(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[0]


def reference(probes: int) -> tuple[float, float]:
    """(kernel, floor): the 10th percentile of ``probes`` fresh probes of each."""
    import subprocess  # only here, so that a probe's interpreter does not load it

    kernel, floor = [], []
    for _ in range(probes):
        out = subprocess.run([sys.executable, __file__], capture_output=True, check=True)
        kernel.append(float(out.stdout))
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        floor.append(time.perf_counter_ns() - start)
    return _p10(kernel), _p10(floor)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--reference"]:
        kernel, floor = reference(int(sys.argv[2]) if len(sys.argv) > 2 else 200)
        print(f"REFERENCE_NS = {kernel:_.0f}\nFLOOR_REFERENCE_NS = {floor:_.0f}")
    else:
        print(probe_ns())
