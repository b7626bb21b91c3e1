"""What a fresh interpreter loads and prints for each command.

Every check here runs in its own interpreter: inside the test session every
module is already imported, so neither the import graph nor an import-order
fault (such as ``acmbundles.catalog`` turning into the submodule) shows.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.append(str(PERFBENCH))
from workloads import CLI_MIX  # noqa: E402

ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
)

# Runs cli.main on its arguments (none: only imports the cli) and prints the
# exit code and the modules the import and the command loaded.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from acmbundles import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

NEVER = {"dataclasses", "inspect"}


def python(*args: str, env: dict[str, str] = ENV) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
    )


def loaded_by(*argv: str) -> set[str]:
    proc = python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return set(modules)


def test_importing_the_cli_loads_no_dataclasses_and_no_optional_layer():
    loaded = loaded_by()
    assert "acmbundles.cli" in loaded
    assert not loaded & (NEVER | {"acmbundles.analysis", "acmbundles.expr"})


@pytest.mark.parametrize("name, argv", CLI_MIX, ids=[name for name, _ in CLI_MIX])
def test_each_command_loads_only_its_layers(name, argv):
    loaded = loaded_by(*argv)
    assert not loaded & NEVER
    if argv[0] == "eval":
        assert "acmbundles.expr" in loaded and "acmbundles.analysis" not in loaded
    else:
        assert "acmbundles.expr" not in loaded
        assert ("acmbundles.analysis" in loaded) == (argv[0] != "catalog")


# PROBE prints with json, so it cannot show whether a command loads json: this one
# prints with repr whether the command loaded it.
JSON_PROBE = """
import contextlib, io, sys
from acmbundles import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(repr((code, "json" in sys.modules)))
"""


@pytest.mark.parametrize("name, argv", CLI_MIX, ids=[name for name, _ in CLI_MIX])
def test_only_a_json_output_loads_json(name, argv):
    proc = python("-c", JSON_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == repr((0, "json" in argv))


@pytest.mark.parametrize(
    "first",
    ["", "import acmbundles.cli", "import acmbundles.analysis", "import acmbundles.expr",
     "import acmbundles; acmbundles.extension_cases()"],
    ids=["fresh", "after-cli", "after-analysis", "after-expr", "after-lazy-name"],
)
def test_the_package_catalog_is_the_function_and_analysis_the_module(first):
    probe = (
        f"{first}\nfrom acmbundles import analysis, catalog\n"
        "import types\n"
        "print(analysis.__name__, isinstance(catalog, types.ModuleType), len(catalog()))"
    )
    proc = python("-c", probe)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["acmbundles.analysis", "False", "14"]


def test_lazy_names_are_the_analysis_objects_and_unknown_names_fail():
    probe = (
        "import acmbundles, acmbundles.analysis as a\n"
        "print(all(getattr(acmbundles, n) is getattr(a, n) for n in acmbundles._ANALYSIS))\n"
        "print(all(hasattr(acmbundles, n) for n in acmbundles.__all__))\n"
        "try:\n    acmbundles.no_such_name\nexcept AttributeError as exc:\n    print(exc)"
    )
    proc = python("-c", probe)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == [
        "True",
        "True",
        "module 'acmbundles' has no attribute 'no_such_name'",
    ]


# Every command prints its golden bytes under two hash seeds, so no output
# order rests on set or dict hashing.  Seed "0" keeps the plain command id.
HASH_SEEDS = ("0", "4242")


@pytest.mark.parametrize(
    "seed, name, argv",
    [(seed, name, argv) for seed in HASH_SEEDS for name, argv in CLI_MIX],
    ids=[name if seed == "0" else f"{name}-hashseed{seed}" for seed in HASH_SEEDS for name, _ in CLI_MIX],
)
def test_cold_cli_mix_matches_the_golden_output(seed, name, argv):
    proc = python("-m", "acmbundles", *argv, env=dict(ENV, PYTHONHASHSEED=seed))
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (PERFBENCH / "golden" / "cli" / f"{name}.out").read_bytes()
