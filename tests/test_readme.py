"""The README's "Library" and "CLI" blocks run, and their comments state their values."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import acmbundles
from acmbundles.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", section, re.S)
    assert len(blocks) == 1, f"the {heading} section has one {language} block"
    return blocks[0]


def _run(source: str) -> dict[str, object]:
    # Execute the block statement by statement; keep each bare expression's value by its text.
    namespace: dict[str, object] = {}
    values: dict[str, object] = {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[text] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_library_block_runs_and_states_its_values():
    values = _run(_block("Library", "python"))
    assert values["chi_hrr(E, X)"] == 10
    assert values["chi_rank2(4, 30)"] == 10
    assert values["to_ch(E, X)"].coefficients() == (2, 4, 10, Fraction(-20, 3))
    assert values["X.mul(to_ch(E, X), X.todd()).a3"] == 10
    assert values["extension_cases()[0].chi_tensor"] == -14
    pairing = values["chi_hrr(tensor(dual(BundleDescriptor(2, 1, 8)), E, X), X)"]
    assert type(pairing) is Fraction and pairing == -14
    assert values["analyze_case(1).rank1_hypothesis_ok"] is True
    assert values["report.conclusion"] == "indecomposable-by-numeric-filters"


# A CLI line that states its output: "# -> stdout" or "# exit N: stderr".
_STATED = re.compile(r"(acmbundles .*?) +# (?:-> (.*)|exit (\d+): (.*))")


def test_cli_block_states_its_outputs(capsys):
    stated = [_STATED.fullmatch(line) for line in _block("CLI", "sh").splitlines()]
    stated = [match.groups() for match in stated if match]
    assert len(stated) == 4
    for command, out, code, err in stated:
        expected = (0, out + "\n", "") if code is None else (int(code), "", err + "\n")
        assert (main(shlex.split(command)[1:]), *capsys.readouterr()) == expected, command


def test_every_public_name_is_in_the_readme():
    # The API docs keep up with ``acmbundles.__all__``: the README names every public name.
    text = README.read_text(encoding="utf-8")
    missing = [name for name in acmbundles.__all__ if name != "__version__" and not re.search(rf"\b{name}\b", text)]
    assert missing == []
