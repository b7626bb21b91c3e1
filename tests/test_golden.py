"""Byte-for-byte golden outputs of the CLI and its renderers.

    PYTHONPATH=src python3 tests/test_golden.py   # rewrites tests/golden/

Rewrite the files only in a change whose stated purpose is to change output.

``perfbench/golden/cli/`` pins the nine commands of the benchmark's CLI mix
(``test_cli.py`` checks them); the files in ``tests/golden/`` pin the rest:
every other format of ``table``, ``catalog`` and ``analyze --all``, the
verbose text and TSV reports, the ``ch`` and ``rank`` queries, and the
renderers on reports outside the seven table cases, whose case index is
``None``.
"""

from pathlib import Path

import pytest

from acmbundles import analyze_extension
from acmbundles.catalog import lookup
from acmbundles.cli import main, render_reports, render_table

GOLDEN = Path(__file__).resolve().parent / "golden"

# The README's chi example.
EVAL_EXPR = "bundle(2,4,30)(-1) * dual(bundle(2,0,3))"

CLI_CASES = (
    ("table_json", ("table", "--format", "json")),
    ("table_tsv", ("table", "--format", "tsv")),
    ("catalog_text", ("catalog",)),
    ("catalog_json", ("catalog", "--format", "json")),
    ("analyze_all_text", ("analyze", "--all")),
    ("analyze_all_json", ("analyze", "--all", "--format", "json")),
    ("analyze_all_tsv", ("analyze", "--all", "--format", "tsv")),
    ("analyze_all_verbose_text", ("analyze", "--all", "--verbose")),
    ("analyze_all_verbose_tsv", ("analyze", "--all", "--verbose", "--format", "tsv")),
) + tuple(
    (f"eval_{query}_{fmt}", ("eval", query, EVAL_EXPR, "--format", fmt))
    for query in ("ch", "rank")
    for fmt in ("text", "json", "tsv")
)

# (F, E, m) outside the extension table: a certificate with one survivor,
# one with no survivor (its TSV report prints the "-" row), and an
# inconclusive report.
EXTENSIONS = (((1, 4), (-2, 1), 0), ((4, 30), (1, 8), -1), ((0, 3), (0, 3), 0))

RENDERINGS = {
    "extension_reports_verbose_text": lambda reports: render_reports(reports, "text", True),
    "extension_reports_tsv": lambda reports: render_reports(reports, "tsv", False),
    "extension_table_tsv": lambda reports: render_table(tuple(r.case for r in reports), "tsv"),
}


def extension_reports():
    return [analyze_extension(lookup(*F), lookup(*E), m) for F, E, m in EXTENSIONS]


@pytest.mark.parametrize("name, argv", CLI_CASES, ids=[name for name, _ in CLI_CASES])
def test_cli_output_matches_its_golden(capsys, name, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(RENDERINGS))
def test_rendering_outside_the_table_matches_its_golden(name):
    reports = extension_reports()
    assert [r.case.index for r in reports] == [None, None, None]
    text = RENDERINGS[name](reports) + "\n"
    assert text.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    import io
    from contextlib import redirect_stdout

    for name, argv in CLI_CASES:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        (GOLDEN / f"{name}.out").write_bytes(out.getvalue().encode())
    for name, render in RENDERINGS.items():
        (GOLDEN / f"{name}.out").write_bytes((render(extension_reports()) + "\n").encode())
    print(f"wrote {len(CLI_CASES) + len(RENDERINGS)} files in {GOLDEN}")
