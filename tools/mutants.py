"""Named mutants of ``src/``: each is killed by the tests, or declared equivalent with a reason.

    python3 tools/mutants.py    # run every killed mutant; exit 1 if one survives

A mutant is a record: a name, a file, an old text that occurs exactly once
in that file, the new text that replaces it, and a status: ``killed`` (the
tests must fail on it) or ``equivalent`` (no input tells it apart from the
code, and its reason says why).  The tool copies the files ``git ls-files``
lists (tracked, and untracked but not ignored) into a temporary directory,
so it writes nothing in the checkout.  There it applies one ``killed``
mutant at a time and runs ``python -m pytest -x -q -p no:cacheprovider
tests`` with ``PYTHONPATH=src``, then puts the file back; the unmutated copy
must pass the same run first.  The run deselects the one test that checks
this list (``LIST_CHECK``), which every mutant would fail.  A mutant counts as killed when pytest exits 1
(a test failed) or 2 (collection stopped).  The tool prints one verdict line
per mutant and exits 1 if a ``killed`` mutant passes the tests, if an old
text does not occur exactly once, or if the unmutated copy fails.
Equivalent mutants are checked for their text and reason only, never run.
A change that adds a trust check adds its mutants here.  Uses the standard
library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
STATUSES = ("killed", "equivalent")
# This test checks that each old text occurs in the unmutated tree, so every mutant fails it.
LIST_CHECK = "tests/test_tooling.py::test_every_named_mutant_applies_once_and_says_why_if_equivalent"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    status: str
    reason: str = ""


MUTANTS = (
    Mutant(
        "tensor-chain-depth-guard",
        "src/acmbundles/expr.py",
        "        node, height = Tensor(node, right), 1 + max(height, right_height)\n"
        "        if height > MAX_DEPTH:\n"
        "            raise _ParseError(_TOO_DEEP, at)\n",
        "        node, height = Tensor(node, right), 1 + max(height, right_height)\n",
        "killed",
    ),
    Mutant(
        "dual-depth-guard",
        "src/acmbundles/expr.py",
        "            node, height = Dual(node), height + 1\n"
        "            if height > MAX_DEPTH:\n"
        "                raise _ParseError(_TOO_DEEP, at)\n",
        "            node, height = Dual(node), height + 1\n",
        "killed",
    ),
    Mutant(
        "trivial-key-at-every-m",
        "src/acmbundles/analysis.py",
        "trivial = m == 0 and tuple(sorted((F.pair, E.pair)))",
        "trivial = tuple(sorted((F.pair, E.pair)))",
        "equivalent",
        "the pair (F, E) has c1 sum c1(G) - 2m, so at m < 0 it is never in the c1(G) group _classify visits",
    ),
    Mutant(
        "rank1-premise-admits-zero",
        "src/acmbundles/analysis.py",
        "rank1 = F.c1 + m > 0",
        "rank1 = F.c1 + m >= 0",
        "killed",
    ),
    Mutant(
        "c1-disjoint-placeholder-kept",
        "src/acmbundles/analysis.py",
        '"chi_sum": P.chi + Q.chi, "chi_target": None})',
        '"chi_sum": P.chi + Q.chi, "chi_target": None, "c1_disjoint": None})',
        "killed",
    ),
    Mutant(
        "c1-zero-entry-has-no-section",
        "src/acmbundles/catalog.py",
        "    if n == 0 and E.c1 == 0:\n        return 1\n",
        "    if n == 0 and E.c1 == 0:\n        return 0\n",
        "killed",
    ),
)


def problems(mutants: tuple[Mutant, ...] = MUTANTS, root: Path = ROOT) -> list[str]:
    """What is wrong with the list itself: names, statuses, reasons, and old texts that do not occur once."""
    found = []
    names = [mutant.name for mutant in mutants]
    found += [f"{name}: the name is used twice" for name in sorted(set(names)) if names.count(name) > 1]
    for mutant in mutants:
        if mutant.status not in STATUSES:
            found.append(f"{mutant.name}: status {mutant.status!r} is not one of {STATUSES}")
        if (mutant.status == "equivalent") != bool(mutant.reason.strip()):
            found.append(f"{mutant.name}: an equivalent mutant, and only one, gives a reason")
        if mutant.new == mutant.old:
            found.append(f"{mutant.name}: the new text is the old text")
        count = (root / mutant.file).read_text().count(mutant.old)
        if count != 1:
            found.append(f"{mutant.name}: the old text occurs {count} times in {mutant.file}, not once")
    return found


def copy_tree(destination: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the worktree is not copied
            (destination / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, destination / name)


def run_tests(tree: Path) -> subprocess.CompletedProcess:
    # No bytecode caches: a mutant of the same size, written within the same second
    # as the file it replaces, would otherwise load the cached unmutated module.
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", LIST_CHECK, "tests"],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def main() -> int:
    found = problems()
    for line in found:
        print(f"error: {line}", file=sys.stderr)
    if found:
        return 1
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        done = run_tests(tree)
        if done.returncode != 0:
            print(f"error: the unmutated tree fails its tests:\n{done.stdout[-2000:]}", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            if mutant.status == "equivalent":
                print(f"equivalent {mutant.name}: {mutant.reason}", flush=True)
                continue
            path = tree / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            done = run_tests(tree)
            seconds = time.perf_counter() - start
            path.write_text(original)
            if done.returncode in (1, 2):
                first = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
                print(f"killed     {mutant.name} ({seconds:.1f} s): {(first or ['(no test named)'])[0]}", flush=True)
                continue
            failures.append(mutant.name)
            if done.returncode == 0:
                print(f"SURVIVED   {mutant.name}: the tests pass ({seconds:.1f} s)", flush=True)
            else:
                print(f"error      {mutant.name}: pytest exited {done.returncode}\n{done.stdout[-2000:]}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
