"""The test dependencies are pinned once: the ``test`` extra and CI install the same versions.

``filterwarnings = ["error"]`` makes any new upstream warning fail the run, so
``pip install -e ".[test]"`` (the README's command) must install what CI runs
with.  Both files are read as text: Python 3.10 has no ``tomllib``.
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


def _ci_install() -> dict[str, str]:
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (line,) = re.findall(r"run: python -m pip install (.*pytest.*)$", workflow, re.M)
    return dict(_PIN.findall(line))


def test_the_test_extra_pins_the_versions_ci_installs():
    pins = _test_extra()
    assert set(pins) == {"pytest", "hypothesis"}
    assert pins == _ci_install()
