"""Run one unit of a perfbench workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD MODE SEED INDEX [SPANS_PATH]

WORKLOAD is sweep (one pass over the 784 triples), expr (one corpus chunk)
or cli (the CLI mix through ``cli.main`` in-process).  MODE is ``plain``
(timed), ``spans`` (timed under the span tracer, spans written to
SPANS_PATH) or ``cprofile`` (under cProfile, to count Fraction
constructions).  Prints one JSON object on stdout.

Each unit gets its own interpreter, so no memo inside the program carries
over from one unit to the next; set-up (import plus the lazy catalog and
extension-table initialisation) is timed before anything else is imported.
"""

import sys
import time


def set_up(workload: str) -> float:
    start = time.perf_counter()
    if workload == "cli":
        import acmbundles.cli  # noqa: F401
    else:
        import acmbundles

        if workload == "expr":
            import acmbundles.expr  # noqa: F401
        acmbundles.catalog()
        acmbundles.extension_cases()
    return time.perf_counter() - start


class Failure:
    def __init__(self, exc: BaseException) -> None:
        self.message = f"{type(exc).__name__}: {exc}"


def ch_components(ch) -> tuple:
    """The four components of whatever ``to_ch`` returns."""
    for names in (("ch0", "ch1", "ch2", "ch3"), ("a0", "a1", "a2", "a3")):
        if all(hasattr(ch, n) for n in names):
            return tuple(getattr(ch, n) for n in names)
    return tuple(ch)


def sweep_unit(seed: int, index: int):
    from acmbundles import analysis, catalog

    import workloads
    from checks import sweep_record

    entries = {entry.pair: entry for entry in catalog()}
    if sorted(entries) != sorted(workloads.CATALOG_PAIRS):
        raise SystemExit(f"catalog pairs {sorted(entries)} differ from the benchmark's")
    ops, keys = [], []
    for F, E, m in workloads.sweep_order(seed, index):
        ops.append(lambda F=entries[F], E=entries[E], m=m: analysis.analyze_extension(F, E, m))
        keys.append(workloads.triple_key(F, E, m))
    return ops, lambda i, report: sweep_record(keys[i], report)


def expr_unit(seed: int, index: int):
    from fractions import Fraction

    from acmbundles import bundles, expr
    from acmbundles.chowring import Hypersurface

    import workloads

    spaces = {r: Hypersurface(r) for r in (5, *workloads.OTHER_DEGREES)}
    queries = {
        "chi": lambda E, X: bundles.chi_hrr(E, X),
        "ch": lambda E, X: bundles.to_ch(E, X),
        "chern": lambda E, X: E,
    }
    shapes = {
        "chi": lambda v: str(Fraction(v)),
        "ch": lambda v: [str(Fraction(c)) for c in ch_components(v)],
        "chern": lambda v: [v.rank, v.c1, v.c2, v.c3],
    }

    def op(text, X, query):
        return query(expr.evaluate(expr.parse(text), X), X)

    chunk = workloads.expr_chunk(seed, index)
    ops = [lambda t=text, X=spaces[r], q=queries[query]: op(t, X, q) for r, query, text, _ in chunk]
    return ops, lambda i, value: shapes[chunk[i][1]](value)


def cli_unit(seed: int, index: int):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from acmbundles import cli

    import workloads

    def op(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    ops = [lambda argv=argv: op(argv) for _, argv in workloads.CLI_MIX]
    return ops, lambda i, value: list(value)


UNITS = {"sweep": sweep_unit, "expr": expr_unit, "cli": cli_unit}


def measure(ops, tracer):
    """Time each op, and keep its value or its failure."""
    clock = time.perf_counter_ns
    latencies, values = [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i)
        start = clock()
        try:
            value = op()
        except Exception as exc:
            value = Failure(exc)
        latencies.append(clock() - start)
        if tracer:
            tracer.end_op()
        values.append(value)
    return latencies, values


def main(argv: list[str]) -> int:
    workload, mode, seed, index = argv[0], argv[1], int(argv[2]), int(argv[3])
    setup_s = set_up(workload)

    import json
    import resource

    ops, extract = UNITS[workload](seed, index)
    tracer = profile = None
    if mode == "spans":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    elif mode == "cprofile":
        import cProfile

        profile = cProfile.Profile()

    if profile:
        profile.enable()
    latencies, values = measure(ops, tracer)
    if profile:
        profile.disable()
    if tracer:
        tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "lat_ns": latencies,
        "results": [
            {"error": v.message} if isinstance(v, Failure) else extract(i, v)
            for i, v in enumerate(values)
        ],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        out["layers"] = tracer.summary()
        out["parse_bytes"] = tracer.parse_bytes
        out["absent"] = tracer.absent
        tracer.write(argv[4])
    if profile:
        import pstats

        stats = pstats.Stats(profile).stats
        out["fraction_new"] = sum(
            calls[1]
            for (path, _, func), calls in stats.items()
            if func == "__new__" and path.endswith("fractions.py")
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
