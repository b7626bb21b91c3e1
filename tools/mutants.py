"""Named mutants of ``src/``: each is killed by the test it names, or declared equivalent with a reason.

    python3 tools/mutants.py    # run every killed mutant; exit 1 if one survives

A mutant is a record: a name, a file, an old text that occurs exactly once
in that file, the new text that replaces it, and a status: ``killed`` (the
test it names must fail on it) or ``equivalent`` (no input tells it apart
from the code, and its reason says why).  A killed mutant's test is a pytest
node id, ``tests/<file>.py::<function>`` with an optional ``[<parameters>]``.
The tool copies the files ``git ls-files`` lists (tracked, and untracked but
not ignored) into a temporary directory, so it writes nothing in the
checkout.  There the unmutated copy must first pass the whole suite.  Then
the tool applies one ``killed`` mutant at a time, runs its named test alone
with ``python -m pytest -q -p no:cacheprovider`` and ``PYTHONPATH=src``, and
puts the file back.  A mutant counts as killed only when pytest exits 1: its
test ran and failed.  The tool prints one verdict line per mutant and exits
1 if a ``killed`` mutant's test passes or does not run, if the list itself
is unsound (see ``problems``), or if the unmutated copy fails.  Equivalent
mutants are checked for their text and reason only, never run.  A change
that adds a trust check adds its mutants here.  Uses the standard library
only.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
STATUSES = ("killed", "equivalent")
TEST_ID = re.compile(r"(tests/[\w/]+\.py)::(\w+)(\[.*\])?")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    status: str
    test: str = ""  # a killed mutant's pytest node id
    reason: str = ""  # why an equivalent mutant is equivalent


MUTANTS = (
    Mutant(
        "operator-loop-depth-guard",
        "src/acmbundles/expr.py",
        "            node, height = op[1](node, right), 1 + max(height, right_height)\n"
        "        if height > MAX_DEPTH:\n"
        "            raise _ParseError(_TOO_DEEP, at)\n",
        "            node, height = op[1](node, right), 1 + max(height, right_height)\n",
        "killed",
        "tests/test_cli.py::test_eval_deep_expression_exits_two",
    ),
    Mutant(
        "dual-depth-guard",
        "src/acmbundles/expr.py",
        "            node, height = Dual(node), height + 1\n"
        "            if height > MAX_DEPTH:\n"
        "                raise _ParseError(_TOO_DEEP, at)\n",
        "            node, height = Dual(node), height + 1\n",
        "killed",
        "tests/test_cli.py::test_eval_deep_expression_exits_two",
    ),
    Mutant(
        "binary-operators-right-associative",
        "src/acmbundles/expr.py",
        "op[0] + 1",
        "op[0]",
        "killed",
        "tests/test_expr.py::test_binary_operators_are_left_associative",
    ),
    Mutant(
        "sum-binds-tighter-than-tensor",
        "src/acmbundles/expr.py",
        '_BINARY = {"++": (1, Sum), "*": (2, Tensor)}',
        '_BINARY = {"++": (2, Sum), "*": (1, Tensor)}',
        "killed",
        "tests/test_expr.py::test_tensor_binds_tighter_than_sum",
    ),
    Mutant(
        "twist-only-at-the-loosest-level",
        "src/acmbundles/expr.py",
        'if tokens[i] == "(":',
        'if tokens[i] == "(" and least == 1:',
        "killed",
        "tests/test_expr.py::test_twist_binds_tightest",
    ),
    Mutant(
        "printer-wraps-equal-power",
        "src/acmbundles/expr.py",
        "binds < needs",
        "binds <= needs",
        "killed",
        "tests/test_expr.py::test_printer_parenthesizes_exactly_the_looser_operands",
    ),
    Mutant(
        "printer-leaf-binds-tighter",
        "src/acmbundles/expr.py",
        '("", _TIGHT))',
        '("", _TIGHT + 1))',
        "equivalent",
        reason="no position needs more than _TIGHT (a twist's operand), so a twist, dual or leaf binding _TIGHT + 1 is never wrapped, as at _TIGHT",
    ),
    Mutant(
        "trivial-key-at-every-m",
        "src/acmbundles/analysis.py",
        "trivial = m == 0 and tuple(sorted((F.pair, E.pair)))",
        "trivial = tuple(sorted((F.pair, E.pair)))",
        "equivalent",
        reason="the pair (F, E) has c1 sum c1(G) - 2m, so at m < 0 it is never in the c1(G) group _classify visits",
    ),
    Mutant(
        "rank1-premise-admits-zero",
        "src/acmbundles/analysis.py",
        "rank1 = F.c1 + m > 0",
        "rank1 = F.c1 + m >= 0",
        "killed",
        "tests/test_analysis.py::test_general_engine_requires_rank1_hypothesis_for_a_conclusion",
    ),
    Mutant(
        "c1-disjoint-placeholder-kept",
        "src/acmbundles/analysis.py",
        '"chi_sum": P.chi + Q.chi, "chi_target": None})',
        '"chi_sum": P.chi + Q.chi, "chi_target": None, "c1_disjoint": None})',
        "killed",
        "tests/test_analysis.py::test_every_survivor_has_the_details_keys_of_its_filter_in_order",
    ),
    Mutant(
        "h0-mismatch-one-sided",
        "src/acmbundles/analysis.py",
        'details["h0_lhs"] != details["h0_rhs"]',
        'details["h0_lhs"] > details["h0_rhs"]',
        "killed",
        "tests/test_analysis.py::test_serre_dual_sweep_triples_agree_on_chi_and_on_all_but_the_known_conclusions",
    ),
    Mutant(
        "c1-zero-entry-has-no-section",
        "src/acmbundles/catalog.py",
        "    if n == 0 and E.c1 == 0:\n        return 1\n",
        "    if n == 0 and E.c1 == 0:\n        return 0\n",
        "killed",
        "tests/test_catalog.py::test_h0_twist_oracle_values",
    ),
    Mutant(
        "newton-ch2-adds-c2",
        "src/acmbundles/bundles.py",
        "- 2 * c2",
        "+ 2 * c2",
        "killed",
        "tests/test_bundles.py::test_to_ch_values",
    ),
    Mutant(
        "tensor-c2-cross-term-unshifted",
        "src/acmbundles/bundles.py",
        "(s * t - 1) * a1 * b1",
        "s * t * a1 * b1",
        "killed",
        "tests/test_bundles.py::test_tensor_is_the_product_of_characters_on_every_pair_of_a_box",
    ),
    Mutant(
        "tensor-c3-drops-c1-c2",
        "src/acmbundles/bundles.py",
        "(p3 - r * c1**3 + 3 * c1 * c2) // 3",
        "(p3 - r * c1**3) // 3",
        "killed",
        "tests/test_bundles.py::test_tensor_is_the_product_of_characters_on_every_pair_of_a_box",
    ),
    Mutant(
        "triple-reader-drops-r",
        "src/acmbundles/chowring.py",
        "r * x1 * y1",
        "x1 * y1",
        "killed",
        "tests/test_chowring.py::test_the_triple_reader_is_the_integral_of_the_product",
    ),
    Mutant(
        "td-integral-swaps-two-terms",
        "src/acmbundles/chowring.py",
        "n1 * t2 + n2 * t1",
        "n1 * t1 + n2 * t2",
        "killed",
        "tests/test_chowring.py::test_the_triple_reader_is_the_integral_of_the_product",
    ),
    Mutant(
        "twist-by-minus-n",
        "src/acmbundles/bundles.py",
        "_line_ch(X.r, n)",
        "_line_ch(X.r, -n)",
        "killed",
        "tests/test_bundles.py::test_twist_values",
    ),
    Mutant(
        "degree-one-refused",
        "src/acmbundles/cli.py",
        "if value < 1:",
        "if value <= 1:",
        "killed",
        "tests/test_cli.py::test_degree_one_is_the_least_degree_accepted",
    ),
)


def problems(mutants: tuple[Mutant, ...] = MUTANTS, root: Path = ROOT) -> list[str]:
    """What is wrong with the list itself: names, statuses, tests, reasons, and old texts that do not occur once."""
    found = []
    names = [mutant.name for mutant in mutants]
    found += [f"{name}: the name is used twice" for name in sorted(set(names)) if names.count(name) > 1]
    for mutant in mutants:
        if mutant.status not in STATUSES:
            found.append(f"{mutant.name}: status {mutant.status!r} is not one of {STATUSES}")
        if (mutant.status == "equivalent") != bool(mutant.reason.strip()):
            found.append(f"{mutant.name}: an equivalent mutant, and only one, gives a reason")
        if (mutant.status == "killed") != bool(mutant.test):
            found.append(f"{mutant.name}: a killed mutant, and only one, names the test that kills it")
        elif mutant.test:
            found += [f"{mutant.name}: {line}" for line in _test_problems(mutant.test, root)]
        if mutant.new == mutant.old:
            found.append(f"{mutant.name}: the new text is the old text")
        count = (root / mutant.file).read_text().count(mutant.old)
        if count != 1:
            found.append(f"{mutant.name}: the old text occurs {count} times in {mutant.file}, not once")
    return found


def _test_problems(test: str, root: Path) -> list[str]:
    match = TEST_ID.fullmatch(test)
    if match is None:
        return [f"{test!r} is not a node id tests/<file>.py::<function>[<parameters>]"]
    file, function = match[1], match[2]
    if not (root / file).is_file():
        return [f"the test file {file} does not exist"]
    if not re.search(rf"^def {function}\(", (root / file).read_text(), re.M):
        return [f"{file} defines no test function {function}"]
    return []


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


def run_tests(tree: Path, target: str) -> subprocess.CompletedProcess:
    # No bytecode caches: a mutant of the same size, written within the same second
    # as the file it replaces, would otherwise load the cached unmutated module.
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", target],
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
        done = run_tests(tree, "tests")
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
            done = run_tests(tree, mutant.test)
            seconds = time.perf_counter() - start
            path.write_text(original)
            if done.returncode == 1:
                print(f"killed     {mutant.name} ({seconds:.1f} s) by {mutant.test}", flush=True)
                continue
            failures.append(mutant.name)
            if done.returncode == 0:
                print(f"SURVIVED   {mutant.name}: {mutant.test} passes ({seconds:.1f} s)", flush=True)
            else:
                output = done.stdout[-2000:] + done.stderr[-2000:]
                print(f"error      {mutant.name}: pytest exited {done.returncode}\n{output}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
