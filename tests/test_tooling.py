"""CI and ``pyproject.toml`` agree: the same pinned test versions, and the same lowest Python.

``filterwarnings = ["error"]`` makes any new upstream warning fail the run, so
``pip install -e ".[test]"`` (the README's command) must install what CI runs
with.  CI's lowest Python is the ``requires-python`` floor, so the oldest
interpreter the package admits is the one that runs the suite.  Both files
are read as text: Python 3.10 has no ``tomllib``.
"""

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


def _ci_install() -> dict[str, str]:
    (line,) = re.findall(r"run: python -m pip install (.*pytest.*)$", _workflow(), re.M)
    return dict(_PIN.findall(line))


def _version(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(".")))


def test_the_test_extra_pins_the_versions_ci_installs():
    pins = _test_extra()
    assert set(pins) == {"pytest", "hypothesis"}
    assert pins == _ci_install()


def test_ci_runs_the_requires_python_floor_as_its_lowest_version():
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]$", _workflow(), re.M)
    versions = re.findall(r'"([\d.]+)"', matrix)
    assert len(versions) == matrix.count(",") + 1, f"every matrix version is a quoted number: {matrix}"
    assert min(versions, key=_version) == floor
