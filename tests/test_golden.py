"""Byte-for-byte golden outputs of the CLI and its renderers.

    PYTHONPATH=src python3 tests/test_golden.py   # rewrites tests/golden/

Rewrite the files only in a change whose stated purpose is to change output.

``perfbench/golden/cli/`` pins the nine commands of the benchmark's CLI mix
(``test_cli.py`` checks them); the files in ``tests/golden/`` pin the rest:
every other format of ``table``, ``catalog`` and ``analyze --all``, the
verbose text and TSV reports, the ``ch`` and ``rank`` queries, the
renderers on reports outside the seven table cases, whose case index is
``None``, and the outcome of ``expr.parse`` on a fixed list of texts.
"""

import random
from pathlib import Path

import pytest

from acmbundles import analyze_extension
from acmbundles.catalog import lookup
from acmbundles.cli import main, render_reports, render_table
from acmbundles.expr import MAX_DEPTH, MAX_DIGITS, ExpressionError, parse

from strategies import DEEP_EXPRESSIONS, HUGE_LITERAL, TEXT_ALPHABET

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


def random_texts(count: int) -> list[str]:
    rng = random.Random("parse-outcomes")
    return ["".join(rng.choices(TEXT_ALPHABET, k=rng.randint(0, 16))) for _ in range(count)]


# Hand-written texts that parse: the README and benchmark examples and nested
# mixes of every node.
PARSING_TEXTS = (
    EVAL_EXPR,
    "cat(4,30) ++ cat(1,8)",
    "bundle(2,4,30) ++ bundle(2,1,8)",
    "cat(4,30) * cat(1,8)",
    "o(0)",
    "(o(1) ++ o(0))(2) * cat(4,30)",
    "  o( 1 )++\to(0)   ",
    "bundle(3,1,8,7)",
    "dual(dual(bundle(1,-1,0)(-2)(-3)))",
    "(bundle(2,1,12)(3) ++ (cat(0,5) ++ bundle(2,-2,0)) ++ dual(cat(4,30)))(2)",
    "(bundle(3,1,11,-5) ++ o(-3))(-2) * bundle(1,0,0)",
    "dual(dual(o(2)(-3))) ++ bundle(3,-3,-1,4)(-2) * cat(-1,2)(3) * dual(bundle(1,-2,0))",
    "cat(2,11)(-1)",
)


def near_misses(texts) -> list[str]:
    """Every proper prefix of each text, then every text one character shorter."""
    prefixes = [text[:k] for text in texts for k in range(len(text))]
    return prefixes + [text[:k] + text[k + 1:] for text in texts for k in range(len(text))]


# Written texts whose parse outcome is pinned: the parsing texts, each kind of
# error message, literals at and past the digit limit, expressions at and past
# the depth limit, and seeded random texts over TEXT_ALPHABET.
WRITTEN_TEXTS = (
    *PARSING_TEXTS,
    # unexpected character
    "o(1) + o(2)",
    "o(-)",
    "o(1)\té",
    "o(x1)",
    # expected X, found Y
    "o 1",
    "o(1",
    "o(x)",
    "cat(4,)",
    "dual o(1)",
    "dual(o(1)",
    "o(1)(",
    "",
    "   ",
    "o(1) ++",
    "* o(1)",
    "()",
    "o(1) ++ ++ o(2)",
    # unexpected trailing
    "o(1) o(2)",
    "o(1))",
    "o(1) 2",
    "o(1),o(2)",
    # unknown name
    "spam(1)",
    "twist(1)",
    "x",
    "o(1) * dual(cats(4,30))",
    # unknown catalog pair
    "cat(3,19)",
    "cat(2,15)",
    "o(1) ++ cat(-1,-2)",
    # invalid bundle literal
    "bundle(2,1,8,7)",
    "bundle(0,1,0)",
    "bundle(-1,0,0)",
    "o(2) * bundle(1,1,1)",
    # arity, the postfix twist among them
    "o()",
    "o(1,2)",
    "cat(1)",
    "cat(4,30,1)",
    "bundle(2,1)",
    "bundle(1,1,0,0,0)",
    "o(1)(1,2)",
    "o(0) ++ o(1)(1,2)",
    # the digit limit
    f"o({'9' * MAX_DIGITS})",
    f"o(-{'9' * MAX_DIGITS})",
    f"o({'1' * (MAX_DIGITS + 1)})",
    f"bundle(2, 1, -{'1' * (MAX_DIGITS + 1)})",
    HUGE_LITERAL,
    # the depth limit
    "dual(" * (MAX_DEPTH - 1) + "o(1)" + ")" * (MAX_DEPTH - 1),
    "(" * MAX_DEPTH + "o(1)" + ")" * MAX_DEPTH,
    " ++ ".join(["o(1)"] * MAX_DEPTH),
    "o(1)" + "(1)" * (MAX_DEPTH - 1),
    *DEEP_EXPRESSIONS.values(),
    *random_texts(2000),
)

# Every pinned text, once, where it first comes: the written texts, then the
# near misses of the parsing texts, which reach each error from inside a valid
# text.  An outcome depends only on its text, so a repeat would pin nothing.
PARSE_TEXTS = tuple(dict.fromkeys([*WRITTEN_TEXTS, *near_misses(PARSING_TEXTS)]))


def parse_outcome(text: str) -> str:
    try:
        return repr(parse(text))
    except ExpressionError as exc:
        return str(exc)


def parse_outcomes() -> str:
    """One line per text of PARSE_TEXTS: its repr, a tab, and its outcome."""
    return "".join(f"{text!r}\t{parse_outcome(text)}\n" for text in PARSE_TEXTS)


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


def test_parse_texts_hold_no_repeats():
    assert len(set(PARSE_TEXTS)) == len(PARSE_TEXTS)


def test_parse_outcomes_match_their_golden():
    assert parse_outcomes().encode() == (GOLDEN / "parse_outcomes.out").read_bytes()


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
    (GOLDEN / "parse_outcomes.out").write_bytes(parse_outcomes().encode())
    print(f"wrote {len(CLI_CASES) + len(RENDERINGS) + 1} files in {GOLDEN}")
