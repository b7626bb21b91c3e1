"""CI and ``pyproject.toml`` agree: the same pinned test versions, and the same lowest Python.

``filterwarnings = ["error"]`` makes any new upstream warning fail the run, so
``pip install -e ".[test]"`` (the README's command) must install what CI runs
with.  CI's lowest Python is the ``requires-python`` floor, so the oldest
interpreter the package admits is the one that runs the suite.  Both files
are read as text: Python 3.10 has no ``tomllib``.

The list of named mutants in ``tools/mutants.py`` is sound: each old text
occurs once in its file, each new text differs from it, each killed mutant
names a test that exists, and each equivalent mutant says why.

Each entry of the known list of ``tools/unexecuted.py`` names an executable
statement of its file, and the tool's comparison reports new and stale
entries.
"""

import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_PIN = re.compile(r"([A-Za-z][\w-]*)==([\w.]+)")


def _test_extra() -> dict[str, str]:
    (line,) = re.findall(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    names = re.findall(r'"([^"]*)"', line)
    pins = dict(_PIN.findall(line))
    assert len(pins) == len(names), f"every test requirement is pinned with ==: {names}"
    return pins


def _workflow() -> str:
    return (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def _ci_installs() -> list[dict[str, str]]:
    lines = re.findall(r"run: python -m pip install (.*pytest.*)$", _workflow(), re.M)
    return [dict(_PIN.findall(line)) for line in lines]


def _version(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(".")))


def test_the_test_extra_pins_the_versions_ci_installs():
    pins = _test_extra()
    assert set(pins) == {"pytest", "hypothesis"}
    installs = _ci_installs()
    assert installs and all(install == pins for install in installs), installs


def test_ci_runs_the_requires_python_floor_as_its_lowest_version():
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]$", _workflow(), re.M)
    versions = re.findall(r'"([\d.]+)"', matrix)
    assert len(versions) == matrix.count(",") + 1, f"every matrix version is a quoted number: {matrix}"
    assert min(versions, key=_version) == floor


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _tool("mutants")


def test_every_named_mutant_applies_once_and_says_why_if_equivalent():
    # The cheap half of ``tools/mutants.py``: the list itself is sound, so each
    # mutant it runs is the one it names, against a test that exists (the next
    # test shows the check catches each fault).  Running them is a CI job of its own.
    assert mutants.problems() == []


def test_the_mutant_list_check_reports_each_fault():
    Mutant = mutants.Mutant
    analysis = "src/acmbundles/analysis.py"
    old = "rank1 = F.c1 + m > 0"
    test = "tests/test_analysis.py::test_general_engine_requires_rank1_hypothesis_for_a_conclusion"
    broken = (
        Mutant("sound", analysis, old, "rank1 = True", "killed", test),
        Mutant("sound-with-parameters", analysis, old, "rank1 = True", "killed", test + "[a-1]"),
        Mutant("absent", analysis, "no such text anywhere", "x", "killed", test),
        Mutant("twice", analysis, "return", "yield", "killed", test),
        Mutant("same", analysis, old, old, "killed", test),
        Mutant("silent", analysis, old, "rank1 = True", "equivalent"),
        Mutant("excused", analysis, old, "rank1 = True", "killed", test, "a reason"),
        Mutant("unsure", analysis, old, "rank1 = True", "maybe"),
        Mutant("unsure", analysis, old, "rank1 = False", "killed", test),
        Mutant("untested", analysis, old, "rank1 = True", "killed"),
        Mutant("tested-equivalent", analysis, old, "rank1 = True", "equivalent", test, "a reason"),
        Mutant("file-only", analysis, old, "rank1 = True", "killed", "tests/test_analysis.py"),
        Mutant("no-file", analysis, old, "rank1 = True", "killed", "tests/test_absent.py::test_general"),
        Mutant("no-function", analysis, old, "rank1 = True", "killed", "tests/test_analysis.py::test_absent"),
        Mutant("function-prefix", analysis, old, "rank1 = True", "killed", test[:-1]),
    )
    found = mutants.problems(broken)
    faulty = {line.split(": ", 1)[0] for line in found}
    assert faulty == {mutant.name for mutant in broken} - {"sound", "sound-with-parameters"}, found
    assert "unsure: the name is used twice" in found
    assert "no-file: the test file tests/test_absent.py does not exist" in found
    assert "no-function: tests/test_analysis.py defines no test function test_absent" in found


unexecuted = _tool("unexecuted")


def test_every_known_unexecuted_statement_is_a_statement_of_its_file():
    # The cheap half of ``tools/unexecuted.py``: each entry still names as many
    # executable statements as it is listed times.  Tracing the suite is a CI job of its own.
    for (file, text), count in Counter(unexecuted.KNOWN).items():
        source = (ROOT / file).read_text()
        lines = source.splitlines()
        firsts = [lines[first - 1].strip() for first in unexecuted.statements(source, file)]
        assert firsts.count(text) >= count, (file, text)


def test_a_statement_is_keyed_by_its_first_line_and_owns_the_lines_no_nested_statement_claims():
    source = (
        '"""A module."""\n'           # 1
        "import functools\n"          # 2
        "\n"                          # 3
        "@functools.cache\n"          # 4
        "def f(x):\n"                 # 5
        '    """f."""\n'              # 6: a function's docstring compiles to nothing
        "    if x:\n"                 # 7
        "        return (\n"          # 8
        "            x\n"             # 9
        "            + 1)\n"          # 10
        "    else:\n"                 # 11: no statement of its own
        "        global y\n"          # 12: compiles to nothing
        "        pass\n"              # 13
    )
    found = unexecuted.statements(source, "example.py")
    assert set(found) == {1, 2, 5, 7, 8, 13}
    assert found[5] >= {5} and found[5] <= {4, 5}
    assert found[8] <= {8, 9, 10} and found[8]
    assert found[7] == {7} and found[13] == {13}


def test_the_statement_check_reports_new_and_stale_keys_counting_repeats():
    known = (("a.py", "return 1"), ("a.py", "return 1"), ("a.py", "pass"), ("b.py", "pass"))
    found = [("a.py", "return 1"), ("a.py", "pass"), ("a.py", "pass"), ("c.py", "x = 1")]
    new, stale = unexecuted.compare(found, known)
    assert new == [("a.py", "pass"), ("c.py", "x = 1")]
    assert stale == [("a.py", "return 1"), ("b.py", "pass")]
    assert unexecuted.compare(list(known), known) == ([], [])
