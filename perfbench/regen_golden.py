"""Regenerate the golden outputs the benchmark checks against.

    python3 perfbench/regen_golden.py

Writes ``perfbench/golden/sweep.json`` (one digest per sweep triple, plus the
conclusion and filter counts) and ``perfbench/golden/cli/<name>.out`` (stdout
of each command in the CLI mix).  Run it only in a change whose stated
purpose is to change program output, such as verdicts or JSON keys; a
change that claims a speed-up must leave every golden byte as it is.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from acmbundles import analyze_extension, catalog

    entries = {entry.pair: entry for entry in catalog()}
    records = [
        checks.sweep_record(workloads.triple_key(F, E, m), analyze_extension(entries[F], entries[E], m))
        for F, E, m in workloads.sweep_triples()
    ]
    bad = [r["key"] for r in records if not checks.identity_holds(r)]
    if bad:
        print(f"error: the chi/c3 identity fails for {bad[:5]}", file=sys.stderr)
        return 1
    golden = {
        "triples": len(records),
        "aggregates": checks.sweep_aggregates(records),
        "digests": {r["key"]: r["digest"] for r in records},
    }
    checks.SWEEP_GOLDEN.parent.mkdir(exist_ok=True)
    checks.SWEEP_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")

    checks.CLI_GOLDEN.mkdir(exist_ok=True)
    for name, argv in workloads.CLI_MIX:
        proc = run.python("-m", "acmbundles", *argv)
        if proc.returncode != 0 or proc.stderr:
            print(f"error: {name} exited {proc.returncode}: {proc.stderr.decode()}", file=sys.stderr)
            return 1
        (checks.CLI_GOLDEN / f"{name}.out").write_bytes(proc.stdout)
    print(f"wrote {checks.SWEEP_GOLDEN} and {len(workloads.CLI_MIX)} files in {checks.CLI_GOLDEN}")
    print(json.dumps(golden["aggregates"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
