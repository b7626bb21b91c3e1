"""CI and ``pyproject.toml`` agree: the same pinned test versions, and the same lowest Python.

``filterwarnings = ["error"]`` makes any new upstream warning fail the run, so
``pip install -e ".[test]"`` (the README's command) must install what CI runs
with.  CI's lowest Python is the ``requires-python`` floor, so the oldest
interpreter the package admits is the one that runs the suite.  Both files
are read as text: Python 3.10 has no ``tomllib``.

The list of named mutants in ``tools/mutants.py`` is sound: each old text
occurs once in its file, each new text differs from it, and each equivalent
mutant says why.
"""

import importlib.util
import re
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


_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_named_mutant_applies_once_and_says_why_if_equivalent():
    # The cheap half of ``tools/mutants.py``: the list itself is sound, so each
    # mutant it runs is the one it names (the next test shows the check catches
    # each fault).  Running them is a CI job of its own.
    assert mutants.problems() == []
    # The tool deselects this test by name, as no mutated tree can pass it.
    this = test_every_named_mutant_applies_once_and_says_why_if_equivalent
    assert mutants.LIST_CHECK == f"tests/test_tooling.py::{this.__name__}"


def test_the_mutant_list_check_reports_each_fault():
    Mutant = mutants.Mutant
    analysis = "src/acmbundles/analysis.py"
    broken = (
        Mutant("absent", analysis, "no such text anywhere", "x", "killed"),
        Mutant("twice", analysis, "return", "yield", "killed"),
        Mutant("same", analysis, "rank1 = F.c1 + m > 0", "rank1 = F.c1 + m > 0", "killed"),
        Mutant("silent", analysis, "rank1 = F.c1 + m > 0", "rank1 = True", "equivalent"),
        Mutant("excused", analysis, "rank1 = F.c1 + m > 0", "rank1 = True", "killed", "a reason"),
        Mutant("unsure", analysis, "rank1 = F.c1 + m > 0", "rank1 = True", "maybe"),
        Mutant("unsure", analysis, "rank1 = F.c1 + m > 0", "rank1 = False", "killed"),
    )
    found = mutants.problems(broken)
    for name in ("absent", "twice", "same", "silent", "excused", "unsure"):
        assert any(line.startswith(f"{name}: ") for line in found), name
    assert "unsure: the name is used twice" in found
