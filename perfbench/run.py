"""The acmbundles benchmark.

    python3 perfbench/run.py --workload {sweep,expr,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload is a closed loop with a single caller: one process,
one thread, and at most one child process at a time.

* ``sweep``: ``analyze_extension`` over the 784 catalog triples, one fresh
  interpreter per pass, each pass in its own seed-shuffled order.
* ``expr``: a seeded corpus of bundle expressions, parse -> evaluate -> one
  query, one fresh interpreter per chunk of the corpus.
* ``cli``: cold ``python -m acmbundles`` invocations of a fixed command mix
  in seed-shuffled blocks.

With ``--trace 0`` the run repeats units for ``--seconds`` and reports the
end-to-end metrics in calibrated time (see calibrate.py); with ``--trace 1``
it runs unit 0 three times untraced and three times under the span tracer,
alternately, then once under cProfile, and reports the per-layer metrics.
Every output is checked (see checks.py).  Human-readable lines come first;
the last line of stdout is the JSON result.  A run record is also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120
FLOOR_SAMPLES = 5
CLI_FLOOR_SAMPLES = 3

# Tail levels, highest first, in tenths of a percent.  A workload's tail is
# the highest level that leaves at least TAIL_BEYOND samples above it in the
# smallest sample it is taken over: one sweep pass (p95), one expr chunk
# (p99), or CLI_MIN_BLOCKS blocks of the cli mix (p90).  The level is fixed
# per workload, whatever the number of samples a run gets.
TAIL_LEVELS = (999, 990, 950, 900, 750, 500)
TAIL_BEYOND = 10
CLI_MIN_BLOCKS = 12

# Pairs of untraced and traced units the trace overhead is measured over.
OVERHEAD_PAIRS = 3

CERTIFIED = "indecomposable-by-numeric-filters"
FILTERS = ("trivial-split", "h0-mismatch", "undecided")

class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


def python(*args: str, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, timeout=timeout
    )


def run_child(workload: str, mode: str, seed: int, index: int, spans_path: Path | None = None) -> dict:
    args = [str(CHILD), workload, mode, str(seed), str(index)]
    if spans_path is not None:
        args.append(str(spans_path))
    try:
        proc = python(*args)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} unit {index} ({mode}) timed out")
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise ChildError(f"{workload} unit {index} ({mode}) exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def interpreter_ns(samples: int = FLOOR_SAMPLES) -> float:
    """The bare ``python -c pass`` floor, median of a few fresh interpreters."""
    times = []
    for _ in range(samples):
        start = time.perf_counter_ns()
        python("-c", "pass")
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def kernel_ns() -> float:
    """One calibration probe: the kernel of calibrate.py in a fresh interpreter."""
    proc = python(str(HERE / "calibrate.py"))
    if proc.returncode != 0:
        raise ChildError(f"calibration probe failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return float(proc.stdout)


IMPORT_CLI = (
    "import time; t = time.perf_counter(); import acmbundles.cli; "
    "print(time.perf_counter() - t)"
)


def cli_import_s() -> float:
    """Seconds a fresh interpreter spends importing ``acmbundles.cli``."""
    proc = python("-c", IMPORT_CLI)
    if proc.returncode != 0:
        raise ChildError(f"importing acmbundles.cli failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return float(proc.stdout)


def _rank(level: int, n: int) -> int:
    return -(-level * n // 1000)


def tail_level(n: int) -> int:
    """The highest of TAIL_LEVELS that leaves TAIL_BEYOND of ``n`` samples beyond it."""
    for level in TAIL_LEVELS:
        if n - _rank(level, n) >= TAIL_BEYOND:
            return level
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} samples beyond it")


def tail(samples: list[float], level: int) -> tuple[float, int]:
    """(value, samples beyond) of the ``level`` percentile, in tenths of a percent."""
    n = len(samples)
    rank = _rank(level, n)
    if n - rank < TAIL_BEYOND:
        raise ValueError(f"p{level / 10:g} of {n} samples leaves fewer than {TAIL_BEYOND} beyond it")
    return sorted(samples)[rank - 1], n - rank


def workload_tail_level(workload: str) -> int:
    if workload == "cli":
        return tail_level(CLI_MIN_BLOCKS * len(workloads.CLI_MIX))
    return tail_level(unit_size(workload))


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            return (git / ref).read_text().strip()
        except OSError:
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------- timed runs


class Tally:
    """Ops attempted and failed, with a short list of what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def check_unit(workload: str, seed: int, index: int, out: dict, golden) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one unit's results."""
    results = out["results"]
    if workload == "sweep":
        keys = [workloads.triple_key(*t) for t in workloads.sweep_order(seed, index)]
        failed, problems = checks.check_sweep(keys, results, golden)
        return len(keys), len(failed), [f"sweep pass {index}: {p}" for p in problems] + [
            f"sweep {keys[i]}: {results[i] if i < len(results) else 'missing'}" for i in failed[:3]
        ]
    if workload == "expr":
        chunk = workloads.expr_chunk(seed, index)
        failed = checks.check_expr(chunk, results)
        return len(chunk), len(failed), [f"expr {chunk[i][:3]}: {results[i] if i < len(results) else 'missing'}" for i in failed[:3]]
    names = [name for name, _ in workloads.CLI_MIX]
    failed = [
        name
        for name, (code, stdout, stderr) in zip(names, results)
        if not checks.cli_ok(golden[name], code, stdout.encode(), stderr.encode())
    ]
    failed += names[len(results):]
    return len(names), len(failed), [f"cli in-process {name}" for name in failed]


def unit_size(workload: str) -> int:
    if workload == "sweep":
        return len(workloads.sweep_triples())
    if workload == "expr":
        return workloads.EXPR_CHUNK
    return len(workloads.CLI_MIX)


def load_golden(workload: str):
    if workload == "sweep":
        return checks.load_sweep_golden()
    if workload == "cli":
        return checks.load_cli_golden(name for name, _ in workloads.CLI_MIX)
    return None


class Figures:
    """The ops and set-ups of a timed run, each unit with its calibration scale.

    The tail is taken at the fixed ``level`` (tenths of a percent).
    ``pooled`` takes the median and tail over every op of the run instead of
    per unit, for units too small to have a tail of their own.
    """

    def __init__(self, level: int, pooled: bool = False) -> None:
        self.level = level
        self.pooled = pooled
        self.units: list[tuple[list[int], float]] = []
        self.setups: list[tuple[float, float]] = []

    def metrics(self, calibrated: bool) -> tuple[dict[str, float], int]:
        """The end-to-end figures, and the fewest samples beyond the tail."""
        units = [(lat, scale if calibrated else 1.0) for lat, scale in self.units]
        rates = [len(lat) / (sum(lat) * scale / 1e9) for lat, scale in units]
        if self.pooled:
            every = [t * scale for lat, scale in units for t in lat]
            p50 = statistics.median(every)
            tail_ns, beyond = tail(every, self.level)
        else:
            p50 = statistics.median(statistics.median(lat) * scale for lat, scale in units)
            tails = [tail(lat, self.level) for lat, _ in units]
            tail_ns = statistics.median(value * scale for (value, _), (_, scale) in zip(tails, units))
            beyond = min(b for _, b in tails)
        setups = [setup * (scale if calibrated else 1.0) for setup, scale in self.setups]
        figures = {
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": p50 / 1e6,
            "latency_tail_ms": tail_ns / 1e6,
            "setup_s": statistics.median(setups),
        }
        return figures, beyond


def timed_library(workload: str, seed: int, seconds: int, tally: Tally) -> tuple[Figures, float]:
    """sweep / expr: one fresh interpreter per unit until the time is used.

    A calibration probe runs before the first unit and after each one.
    """
    golden = load_golden(workload)
    figures, rss_kb = Figures(workload_tail_level(workload)), []
    start = time.monotonic()
    index = 0
    before = kernel_ns()
    while index == 0 or time.monotonic() - start < seconds:
        try:
            out = run_child(workload, "plain", seed, index)
        except ChildError as exc:
            size = unit_size(workload)
            tally.add(size, size, [str(exc)])
            out = None
        after = kernel_ns()
        if out is not None:
            tally.add(*check_unit(workload, seed, index, out, golden))
            scale = calibrate.scale(before, after)
            figures.units.append((out["lat_ns"], scale))
            # Set-up comes first in the unit: scale it by the probe just before it.
            figures.setups.append((out["setup_s"], calibrate.scale(before, before)))
            rss_kb.append(out["maxrss_kb"])
        before = after
        index += 1
    if not figures.units:
        raise ChildError("no unit completed")
    return figures, statistics.median(rss_kb)


def timed_cli(seed: int, seconds: int, tally: Tally) -> tuple[Figures, float]:
    """cli: blocks of the command mix, each command a cold interpreter.

    The interpreter floor is probed before the first block and after each one.
    """
    golden = load_golden("cli")
    argvs = dict(workloads.CLI_MIX)
    figures = Figures(workload_tail_level("cli"), pooled=True)
    start = time.monotonic()
    block = 0
    before = interpreter_ns(CLI_FLOOR_SAMPLES)
    while block < CLI_MIN_BLOCKS or time.monotonic() - start < seconds:
        setup = cli_import_s()
        latencies = []
        for name in workloads.cli_order(seed, block):
            begin = time.perf_counter_ns()
            try:
                proc = python("-m", "acmbundles", *argvs[name], timeout=60)
            except subprocess.TimeoutExpired:
                ok = False
            else:
                ok = checks.cli_ok(golden[name], proc.returncode, proc.stdout, proc.stderr)
            latencies.append(time.perf_counter_ns() - begin)
            tally.add(1, 0 if ok else 1, [] if ok else [f"cli {name} (block {block})"])
        after = interpreter_ns(CLI_FLOOR_SAMPLES)
        scale = calibrate.scale(before, after, calibrate.FLOOR_REFERENCE_NS)
        figures.units.append((latencies, scale))
        figures.setups.append((setup, calibrate.scale(before, before, calibrate.FLOOR_REFERENCE_NS)))
        before = after
        block += 1
    return figures, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def timed_run(workload: str, seed: int, seconds: int, tally: Tally, record: dict) -> dict:
    if workload == "cli":
        figures, rss_kb = timed_cli(seed, seconds, tally)
    else:
        figures, rss_kb = timed_library(workload, seed, seconds, tally)
    calibrated, beyond = figures.metrics(calibrated=True)
    record.update(
        units=len(figures.units),
        samples=sum(len(lat) for lat, _ in figures.units),
        tail_level=figures.level / 10,
        tail_beyond=beyond,
        setup_samples=len(figures.setups),
        scales=[scale for _, scale in figures.units],
        scale_median=statistics.median(scale for _, scale in figures.units),
        raw=figures.metrics(calibrated=False)[0],
    )
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in calibrated.items()}
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return metrics


# ---------------------------------------------------------------- traced run


def analysis_counters(reports: list[tuple[str, list[str], int]]) -> dict[str, tuple[float, str]]:
    """Counters from (conclusion, survivor filters, rejected count) per report."""
    candidates = sum(len(filters) + rejected for _, filters, rejected in reports)
    survivors = sum(len(filters) for _, filters, _ in reports)
    metrics = {
        "analysis.candidates": (candidates, "count"),
        "analysis.survivors": (survivors, "count"),
        "analysis.survivor_ratio": (survivors / candidates if candidates else 0.0, "ratio"),
    }
    for name in FILTERS:
        metrics[f"analysis.filter.{name}"] = (sum(f.count(name) for _, f, _ in reports), "count")
    metrics["analysis.certified"] = (sum(c == CERTIFIED for c, _, _ in reports), "count")
    return metrics


def reports_of(workload: str, results: list) -> list[tuple[str, list[str], int]]:
    if workload == "sweep":
        return [(r["conclusion"], [s[5] for s in r["survivors"]], r["rejected"]) for r in results if "error" not in r]
    if workload == "cli":
        names = [name for name, _ in workloads.CLI_MIX]
        _, output, _ = results[names.index("analyze_all_verbose_json")]
        return [
            (r["conclusion"], [v["filter"] for v in r["verdicts"]], len(r["rejected"]))
            for r in json.loads(output)
        ]
    return []


def traced_run(workload: str, seed: int, tally: Tally, record: dict) -> dict:
    golden = load_golden(workload)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    # Untraced and traced units alternate, each between two calibration
    # probes, because they run in different processes; the counts come from
    # the first of each.
    units: dict[str, dict] = {}
    op_ns: dict[str, float] = {"plain": 0.0, "spans": 0.0}
    probes = [kernel_ns()]
    for _ in range(OVERHEAD_PAIRS):
        for mode in op_ns:
            out = run_child(workload, mode, seed, 0, spans_path if mode == "spans" else None)
            tally.add(*check_unit(workload, seed, 0, out, golden))
            probes.append(kernel_ns())
            op_ns[mode] += sum(out["lat_ns"]) * calibrate.scale(probes[-2], probes[-1])
            units.setdefault(mode, out)
    profiled = run_child(workload, "cprofile", seed, 0)
    tally.add(*check_unit(workload, seed, 0, profiled, golden))
    plain, traced = units["plain"], units["spans"]
    metrics = spans.layer_metrics(traced["layers"])
    metrics["fractions.new.calls"] = (profiled["fraction_new"], "count")
    metrics.update(analysis_counters(reports_of(workload, traced["results"])))
    metrics["expr.parse.bytes"] = (traced["parse_bytes"], "bytes")
    metrics["cli.interpreter_ms"] = (record["cli.interpreter_ms"], "ms")
    imports = [cli_import_s() for _ in range(FLOOR_SAMPLES)]
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    is_cli = workload == "cli"
    metrics["cli.main_ms"] = (statistics.mean(plain["lat_ns"]) / 1e6 if is_cli else 0.0, "ms")
    metrics["cli.output_bytes"] = (
        sum(len(out.encode()) for _, out, _ in plain["results"]) if is_cli else 0,
        "bytes",
    )
    metrics["trace.overhead_ratio"] = (op_ns["spans"] / op_ns["plain"], "ratio")
    record.update(absent=traced["absent"], spans_file=str(spans_path.relative_to(ROOT)))
    return metrics


# -------------------------------------------------------------- command line


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "expr", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "acmbundles" / "__init__.py").is_file():
        print(f"error: no acmbundles package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }
    # One untimed invocation first, so bytecode caches exist as for an installed package.
    warm = python("-c", "import acmbundles.cli")
    if warm.returncode != 0:
        print(f"error: importing acmbundles failed:\n{warm.stderr.decode(errors='replace')}", file=sys.stderr)
        return 1
    record["warmup_invocations"] = 1
    record["cli.interpreter_ms"] = interpreter_ns() / 1e6

    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(args.workload, args.seed, tally, record)
        else:
            metrics = timed_run(args.workload, args.seed, args.seconds, tally, record)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record.update(
        wall_s=time.perf_counter() - wall_start,
        cpu_s=time.process_time() - cpu_start,
        children_cpu_s=children.ru_utime + children.ru_stime,
        fail_ratio=tally.failed / tally.attempted if tally.attempted else 1.0,
        problems=tally.problems[:20],
    )
    correct = tally.failed == 0 and not tally.problems

    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':<32} {record['fail_ratio']:>14.6g} ({tally.failed}/{tally.attempted})")
    if "tail_level" in record:
        print(
            f"tail is p{record['tail_level']:g} with at least {record['tail_beyond']} samples beyond it;"
            f" {record['samples']} samples in {record['units']} units"
        )
    if record.get("absent"):
        print("absent layers: " + ", ".join(record["absent"]))
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
