"""Output checks for the perfbench workloads, and the golden files they use.

* sweep: every triple's report digest must equal the frozen one; the pass
  must reproduce the frozen conclusion and filter counts; and every Whitney
  survivor must satisfy the README identity
  chi(G1) + chi(G2) - chi(G) = (c3_sum - c3(G)) / 2, with all three chi
  values recomputed by reference.py.
* expr: every answer must equal reference.py's, which must itself satisfy
  Serre duality.
* cli: exit code 0, empty stderr, and stdout equal byte for byte to the
  golden file of that command.

Golden files are regenerated only by regen_golden.py (see README.md).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import reference

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_GOLDEN = GOLDEN / "sweep.json"
CLI_GOLDEN = GOLDEN / "cli"


def _verdict(v) -> list:
    return [v.pair_key, list(v.sum_chern), v.filter, v.details]


def sweep_record(key: str, report) -> dict:
    """What the benchmark keeps of one sweep report: its digest and the data the checks need."""
    case = report.case
    body = {
        "conclusion": report.conclusion,
        "rank1_hypothesis_ok": report.rank1_hypothesis_ok,
        "notes": list(report.notes),
        "chi": case.chi_tensor,
        "d_min": case.d_lower,
        "G": list(case.g_chern),
        "verdicts": [_verdict(v) for v in report.verdicts],
        "rejected": [_verdict(v) for v in report.rejected],
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return {
        "key": key,
        "digest": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "conclusion": report.conclusion,
        "G": list(case.g_chern),
        "survivors": [[*v.pair_key[0], *v.pair_key[1], v.sum_chern[2], v.filter] for v in report.verdicts],
        "rejected": len(report.rejected),
    }


def sweep_aggregates(records: list[dict]) -> dict:
    conclusions = Counter(r["conclusion"] for r in records)
    filters = Counter(s[5] for r in records for s in r["survivors"])
    return {"conclusions": dict(sorted(conclusions.items())), "filters": dict(sorted(filters.items()))}


def load_sweep_golden() -> dict:
    return json.loads(SWEEP_GOLDEN.read_text())


def _rank2_chi(c1: int, c2: int) -> Fraction:
    return reference.chi(5, reference.ch_of_chern(5, 2, c1, c2, 0))


def identity_holds(record: dict) -> bool:
    """The README chi/c3 identity for every Whitney survivor of one report."""
    c1, c2, c3 = record["G"]
    chi_g = reference.chi(5, reference.ch_of_chern(5, 4, c1, c2, c3))
    return all(
        _rank2_chi(p1, p2) + _rank2_chi(q1, q2) - chi_g == Fraction(c3_sum - c3, 2)
        for p1, p2, q1, q2, c3_sum, _ in record["survivors"]
    )


def check_sweep(keys: list[str], results: list[dict], golden: dict) -> tuple[list[int], list[str]]:
    """Indices of failed triples, and pass-level problems (aggregates, coverage)."""
    failed = []
    for i, (key, result) in enumerate(zip(keys, results)):
        if (
            "error" in result
            or result["key"] != key
            or result["digest"] != golden["digests"].get(key)
            or not identity_holds(result)
        ):
            failed.append(i)
    failed.extend(range(len(results), len(keys)))
    problems = []
    if len(results) != len(keys) or sorted(keys) != sorted(golden["digests"]):
        problems.append("the pass did not cover exactly the golden triples")
    ok = [r for r in results if "error" not in r]
    if sweep_aggregates(ok) != golden["aggregates"]:
        problems.append(f"aggregates {sweep_aggregates(ok)} != {golden['aggregates']}")
    return failed, problems


def check_expr(chunk: list[tuple], results: list) -> list[int]:
    """Indices of expressions whose answer disagrees with the reference."""
    failed = []
    for i, ((r, query, _, tree), result) in enumerate(zip(chunk, results)):
        ch = reference.evaluate(r, tree)
        if result != reference.answer_of(r, query, ch) or not reference.serre_holds(r, ch):
            failed.append(i)
    failed.extend(range(len(results), len(chunk)))
    return failed


def load_cli_golden(names) -> dict[str, bytes]:
    return {name: (CLI_GOLDEN / f"{name}.out").read_bytes() for name in names}


def cli_ok(golden: bytes, code: int, stdout: bytes, stderr: bytes) -> bool:
    return code == 0 and stdout == golden and not stderr
