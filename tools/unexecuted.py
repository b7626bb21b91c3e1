"""Statements of ``src/acmbundles`` that no test executes, against a committed known list.

    python3 tools/unexecuted.py    # exit 1 on a new unexecuted statement or a stale known entry

The tool runs ``pytest tests`` in this process under a line tracer that
records only frames whose code lives in ``src/acmbundles``.  A statement's
lines are the lines of its source span that no statement nested in it
claims; it is executable if the compiled module gives one of them a line
number, and it ran if the tracer saw one of them.  A function's docstring,
``global`` or a bare ``else:`` compiles to nothing and is never listed.  Only
the main thread is traced, and no test runs package code in another.  Code
that only a child process runs (``python -m acmbundles``, the console
script) is not traced, so ``KNOWN`` lists it.

Each unexecuted statement is keyed by its file and the stripped text of its
first line, not by its line number, so an edit elsewhere in the file does not
move it.  ``KNOWN`` holds one entry per unexecuted statement, so a text that
occurs twice unexecuted is listed twice.  The tool prints every unexecuted
statement with its line, then each new one (not in ``KNOWN``) and each stale
entry (in ``KNOWN``, but executed or gone), and exits 1 if there is either
or if a test fails.  An exception inside the tracer removes it; a
RecursionError does so in the recursion-limit test of ``tests/test_expr.py``.
The tool names on stderr each test after which the tracer is gone and puts
it back before the next test.  What that test ran afterwards is not counted,
which can make a statement look unexecuted but never hides a new one.  Line
numbers and line events differ between Python versions: the list is checked
on Python 3.11.  Uses the standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/acmbundles"

# (file, statement text) of each statement that only a child process runs, or nothing does.
KNOWN = (
    # python -m acmbundles
    ("src/acmbundles/__main__.py", "import sys"),
    ("src/acmbundles/__main__.py", "from .cli import main"),
    ("src/acmbundles/__main__.py", "sys.exit(main())"),
    # _Record._validate, which a record class without checks never calls
    ("src/acmbundles/chowring.py", "pass"),
    # type-checking imports
    ("src/acmbundles/cli.py", "from .analysis import CaseReport, ExtensionCase, SplitVerdict"),
    ("src/acmbundles/cli.py", "from .expr import Expression"),
    # a closed, full or broken stdout, which the tests give only a child process
    ("src/acmbundles/cli.py", 'raise OSError("stdout is closed")'),
    ("src/acmbundles/cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), 1)"),
    ("src/acmbundles/cli.py", "if not isinstance(exc, BrokenPipeError):"),
    ("src/acmbundles/cli.py", 'print(f"error: cannot write the output: {exc}", file=sys.stderr)'),
    ("src/acmbundles/cli.py", "return 1"),
    # python -m acmbundles.cli
    ("src/acmbundles/cli.py", "sys.exit(main())"),
)


def statements(source: str, file: str) -> dict[int, set[int]]:
    """Each statement's first line -> its executable lines: those of its span that no nested statement claims."""
    tree = ast.parse(source, file)
    owner: dict[int, int] = {}
    # ast.walk goes outside in, so a nested statement claims its lines after the statement around it.
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node.lineno
    found: dict[int, set[int]] = {}
    for line in _code_lines(compile(source, file, "exec")):
        if line in owner:
            found.setdefault(owner[line], set()).add(line)
    return found


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer: its exit code and, per package file, the lines seen."""
    seen = {os.path.realpath(path): set() for path in (ROOT / PACKAGE).glob("*.py")}
    by_name: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:  # realpath makes system calls: once per file name, not per call
            by_name[name] = seen.get(os.path.realpath(name))
        lines = by_name[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    class KeepTracing:
        """A pytest plugin that puts the tracer back before each test and names each test that lost it."""

        def pytest_runtest_logstart(self, nodeid, location):
            sys.settrace(tracer)

        def pytest_runtest_logfinish(self, nodeid, location):
            if sys.gettrace() is not tracer:
                print(f"\nnote: {nodeid} lost the tracer; lines it ran after that are not counted", file=sys.stderr)

    sys.settrace(tracer)
    try:
        code = pytest.main(args, plugins=[KeepTracing()])
    finally:
        sys.settrace(None)
    return int(code), {os.path.relpath(path, ROOT).replace(os.sep, "/"): lines for path, lines in seen.items()}


def unexecuted(seen: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(file, line, text) of each executable statement none of whose lines was seen, in file and line order."""
    found = []
    for file in sorted(seen):
        source = (ROOT / file).read_text()
        text = source.splitlines()
        for first, lines in sorted(statements(source, file).items()):
            if not lines & seen[file]:
                found.append((file, first, text[first - 1].strip()))
    return found


def compare(found: list[tuple[str, str]], known: tuple[tuple[str, str], ...] = KNOWN) -> tuple[list, list]:
    """The (file, text) keys unexecuted beyond ``known`` (new), and those ``known`` holds beyond them (stale)."""
    found_count, known_count = Counter(found), Counter(known)
    return sorted((found_count - known_count).elements()), sorted((known_count - found_count).elements())


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, seen = run_traced(["-q", "-p", "no:cacheprovider", "tests"])
    found = unexecuted(seen)
    for file, line, text in found:
        print(f"unexecuted {file}:{line}: {text}")
    new, stale = compare([(file, text) for file, _, text in found])
    for file, text in new:
        print(f"NEW        {file}: {text}")
    for file, text in stale:
        print(f"STALE      {file}: {text}")
    if code != 0:
        print(f"error: the tests exited {code} under the tracer", file=sys.stderr)
    return 1 if code != 0 or new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
