"""Span tracer for the traced perfbench run.

The tracer wraps each layer's public functions at the names their callers
look them up under (``analysis.twist``, ``Hypersurface.mul``, ``cli.parse``
and so on), records one span per call in memory and restores the originals
afterwards.  The program's source is never touched.  A target that no longer
exists, because a later change removed or renamed it, is skipped; a layer
none of whose targets exists is reported as absent.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Calls run on
one thread, so a span's children never overlap and its self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# Layer name -> (fields reported as per-layer metrics, targets): every
# (module under acmbundles, attribute path) a caller inside the program, or
# the benchmark itself, calls the layer through.  The per-layer metrics are
# ``<layer>.<field>`` for each field listed here.
CS = ("calls", "self_ms")
LAYERS: tuple[tuple[str, tuple[str, ...], tuple[tuple[str, str], ...]], ...] = (
    ("chowring.mul", CS, (("chowring", "Hypersurface.mul"),)),
    ("chowring.todd", CS, (("chowring", "Hypersurface.todd"),)),
    ("bundles.to_ch", CS, (("bundles", "to_ch"), ("cli", "to_ch"))),
    ("bundles.from_ch", CS, (("bundles", "from_ch"),)),
    ("bundles.twist", CS, (("bundles", "twist"), ("analysis", "twist"), ("expr", "twist"))),
    ("bundles.tensor", CS, (("bundles", "tensor"), ("analysis", "tensor"), ("expr", "tensor"))),
    ("bundles.direct_sum", ("self_ms",),
     (("bundles", "direct_sum"), ("analysis", "direct_sum"), ("expr", "direct_sum"))),
    ("bundles.chi_hrr", CS, (("bundles", "chi_hrr"), ("analysis", "chi_hrr"), ("cli", "chi_hrr"))),
    ("bundles.chi_rank2", CS, (("bundles", "chi_rank2"), ("analysis", "chi_rank2"), ("catalog", "chi_rank2"))),
    ("catalog.h0_acm_twist", CS, (("catalog", "h0_acm_twist"), ("analysis", "h0_acm_twist"))),
    ("catalog.lookup", ("calls",), (("catalog", "lookup"), ("analysis", "lookup"), ("expr", "lookup"))),
    ("analysis.build_case", CS, (("analysis", "build_case"),)),
    ("analysis.classify", ("self_ms",), (("analysis", "_classify"),)),
    ("expr.parse", CS, (("expr", "parse"), ("cli", "parse"))),
    ("expr.evaluate", ("self_ms",), (("expr", "evaluate"), ("cli", "evaluate"))),
    ("cli.render", ("self_ms",), tuple(("cli", f"render_{what}") for what in ("table", "reports", "catalog", "eval"))),
)
FIELD_UNITS = {"calls": "count", "self_ms": "ms"}

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.parse_bytes = 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        present = set()
        for name, _, targets in LAYERS:
            for module, path in targets:
                try:
                    owner = importlib.import_module(f"acmbundles.{module}")
                except ImportError:
                    continue
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    continue
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append((owner, attr, original))
                present.add(name)
        self.absent = [name for name, _, _ in LAYERS if name not in present]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        counts_bytes = name == "expr.parse"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_bytes and args and isinstance(args[0], str):
                self.parse_bytes += len(args[0].encode())
            record = self._open(name)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.stack.pop()

        return wrapper

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op = op_id
        self._open(OP)[1] = time.perf_counter_ns()

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time in ms per span name."""
        return summarize(self.spans)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans}, handle)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
    return {name: {"calls": calls[name], "self_ms": self_ns[name] / 1e6} for name in calls}


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of LAYERS from a summary; an absent layer reads 0."""
    return {
        f"{name}.{field}": (summary.get(name, {}).get(field, 0), FIELD_UNITS[field])
        for name, fields, _ in LAYERS
        for field in fields
    }
