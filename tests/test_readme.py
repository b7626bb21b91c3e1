"""The README's "Library" block runs, and its comments state its values."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the Library section has one python block"
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
    values = _run(_library_block())
    assert values["chi_hrr(E, X)"] == 10
    assert values["chi_rank2(4, 30)"] == 10
    assert values["to_ch(E, X)"].coefficients() == (2, 4, 10, Fraction(-20, 3))
    assert values["extension_cases()[0].chi_tensor"] == -14
    pairing = values["euler_pairing(BundleDescriptor(2, 1, 8), E, X)"]
    assert type(pairing) is Fraction and pairing == -14
    assert values["extension_cases()[0].h3_vanishes"] is True
    assert values["report.conclusion"] == "indecomposable-by-numeric-filters"
