import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acmbundles import analyze_case, analyze_extension, catalog
from acmbundles.analysis import FILTER_UNDECIDED
from acmbundles.catalog import CASE_INDICES
from acmbundles.cli import QUERIES, build_parser, main, render_reports, report_json

from strategies import DEEP_EXPRESSIONS, HUGE_LITERAL

# The benchmark's CLI mix and its golden stdout, read from perfbench/.
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.append(str(PERFBENCH))
from workloads import CLI_MIX  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, err = run(capsys, "table")
    assert code == 0 and err == ""
    assert "(5,58,62)" in out
    assert out.count("\n") >= 8


def test_table_tsv(capsys):
    code, out, _ = run(capsys, "table", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "case\tF\tE\tm\tchi\td_min\tG_c1\tG_c2\tG_c3"
    assert len(lines) == 8
    assert lines[1] == "1\t(4,30)\t(1,8)\t0\t-14\t14\t5\t58\t62"
    assert lines[4] == "4\t(4,30)\t(0,5)\t-1\t-10\t10\t2\t20\t10"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["chi"] for row in rows] == [-14, -6, -8, -10, -1, -2, -3]
    assert rows[0] == {
        "case": 1,
        "F": [4, 30],
        "E": [1, 8],
        "m": 0,
        "chi": -14,
        "d_min": 14,
        "G": [5, 58, 62],
    }


# The table, the analysis and the catalog are statements about the quintic:
# they take no degree, not even 5.
@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--degree", "4"],
        ["analyze", "--case", "2", "--degree", "3"],
        ["analyze", "--all", "--degree", "7"],
        ["catalog", "--degree", "5"],
    ],
    ids=["table", "analyze-case", "analyze-all", "catalog"],
)
def test_table_requires_degree_five(argv):
    code, out, err = _call(argv)
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: --degree {argv[-1]}\n")


def test_only_eval_has_a_degree_option():
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    with_degree = {
        name for name, parser in subcommands.items()
        if any("--degree" in action.option_strings for action in parser._actions)
    }
    assert with_degree == {"eval"}


def test_analyze_single_case_text(capsys):
    code, out, _ = run(capsys, "analyze", "--case", "4")
    assert code == 0
    assert "(none)" in out
    assert "indecomposable-by-numeric-filters" in out


def test_analyze_case_one_json_round_trips(capsys):
    code, out, _ = run(capsys, "analyze", "--case", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"case", "rank1_hypothesis_ok", "verdicts", "conclusion", "notes"}
    assert payload == report_json(analyze_case(1))
    assert payload["verdicts"][0]["pair"] == [[1, 8], [4, 30]]
    assert payload["verdicts"][0]["filter"] == "trivial-split"


def test_analyze_verbose_includes_chern_rejected_pairs(capsys):
    code, plain, _ = run(capsys, "analyze", "--case", "1", "--format", "json")
    code2, verbose, _ = run(capsys, "analyze", "--case", "1", "--format", "json", "--verbose")
    assert code == code2 == 0
    assert "rejected" not in json.loads(plain)
    rejected = json.loads(verbose)["rejected"]
    assert len(rejected) == 6
    disjoint = [v["pair"] for v in rejected if v["details"]["c1_disjoint"]]
    assert disjoint == [
        [[2, 11], [3, 20]],
        [[2, 12], [3, 20]],
        [[2, 13], [3, 20]],
        [[2, 14], [3, 20]],
    ]


def test_analyze_all_is_the_default(capsys):
    _, explicit, _ = run(capsys, "analyze", "--all")
    _, implicit, _ = run(capsys, "analyze")
    assert explicit == implicit
    assert explicit.count("case (") == 7


def test_every_undecided_verdict_has_a_reason_the_text_renders():
    # The text renderer reads an undecided verdict's reason with no default:
    # check every verdict of the seven table cases and the 784 sweep triples.
    reports = [analyze_case(index) for index in CASE_INDICES]
    reports += [analyze_extension(F, E, m) for F in catalog() for E in catalog() for m in range(-3, 1)]
    undecided = [v for r in reports for v in r.verdicts if v.filter == FILTER_UNDECIDED]
    reasons = {v.details["reason"] for v in undecided}
    assert reasons == {"h0 undetermined", "all numeric filters agree"}
    text = render_reports(reports, "text", True)
    assert text.count("case (") == len(reports) == 791
    assert text.count(f": {FILTER_UNDECIDED} (") == len(undecided)


def test_analyze_tsv(capsys):
    code, out, _ = run(capsys, "analyze", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "case\tG1\tG2\tsum_c1\tsum_c2\tsum_c3\tfilter\tconclusion"
    assert any(line.startswith("4\t-\t-") for line in lines)


def test_outputs_are_deterministic(capsys):
    for argv in (["table"], ["analyze", "--all", "--verbose"], ["catalog", "--format", "tsv"]):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


@pytest.mark.parametrize("name, argv", CLI_MIX, ids=[name for name, _ in CLI_MIX])
def test_cli_mix_matches_the_golden_output(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == (PERFBENCH / "golden" / "cli" / f"{name}.out").read_bytes()


def test_catalog_tsv(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c1\tc2\tfamily\texists_on_general\tchi\th0\tstable"
    assert len(lines) == 15
    assert lines[1] == "-2\t1\tA\ttrue\t-14\tundetermined\tfalse"
    assert lines[10] == "2\t11\tB\tconditional\t4\t4\ttrue"


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 14
    assert entries[0] == {
        "c1": -2,
        "c2": 1,
        "family": "A",
        "exists_on_general": True,
        "chi": -14,
        "h0": None,
        "stable": False,
    }
    assert entries[-1]["exists_on_general"] == "conditional"


def test_eval_chi(capsys):
    code, out, _ = run(capsys, "eval", "chi", "bundle(2,4,30)(-1) * dual(bundle(2,0,3))")
    assert code == 0
    assert out.strip() == "chi = -6"


def test_eval_chern(capsys):
    code, out, _ = run(capsys, "eval", "chern", "bundle(2,4,30) ++ bundle(2,1,8)")
    assert code == 0
    assert out.strip() == "rank 4, c = (5,58,62)"


def test_eval_chi_of_structure_sheaf(capsys):
    code, out, _ = run(capsys, "eval", "chi", "o(0)")
    assert code == 0
    assert out.strip() == "chi = 0"


def test_eval_ch_json_uses_rational_strings(capsys):
    code, out, _ = run(capsys, "eval", "ch", "cat(1,8)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"ch0": 2, "ch1": 1, "ch2": "-11/2", "ch3": "-19/6"}
    assert payload["degree"] == 5
    assert payload["expr"] == "cat(1,8)"


def test_eval_prints_a_rank_one_literal_as_a_line_bundle(capsys):
    code, out, _ = run(capsys, "eval", "chi", "bundle(1,3,0)", "--format", "json")
    assert code == 0
    assert '"expr": "o(3)"' in out
    assert json.loads(out) == {"query": "chi", "degree": 5, "expr": "o(3)", "value": 35}


def test_eval_rank_other_degree(capsys):
    code, out, _ = run(capsys, "eval", "rank", "cat(4,30) * cat(1,8)", "--degree", "3")
    assert code == 0
    assert out.strip() == "rank = 4"


@pytest.mark.parametrize("query", ["chi", "chern", "ch"])
def test_eval_catalog_queries_require_the_quintic(capsys, query):
    code, out, err = run(capsys, "eval", "--degree", "3", query, "cat(4,30)")
    assert code == 1
    assert out == ""
    assert "requires degree 5, got 3" in err


_PLAIN, _CAT = "bundle(2,4,30)(-1) * dual(bundle(2,0,3))", "cat(4,30) * cat(1,8)"
# query -> the text line, the TSV table and the JSON value of _PLAIN on degree 3;
# a rank query on _CAT prints the same, as a rank is the same on every degree.
_ON_DEGREE_3 = {
    "chi": ("chi = -64", "chi\n-64", -64),
    "chern": ("rank 4, c = (4,60,96)", "rank\tc1\tc2\tc3\n4\t4\t60\t96", {"rank": 4, "c1": 4, "c2": 60, "c3": 96}),
    "ch": ("ch = (4, 4, -36, -40)", "ch0\tch1\tch2\tch3\n4\t4\t-36\t-40", {"ch0": 4, "ch1": 4, "ch2": -36, "ch3": -40}),
    "rank": ("rank = 4", "rank\n4", 4),
}


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("text", [_PLAIN, _CAT], ids=["plain", "cat"])
def test_eval_on_degree_three_states_every_query_and_format(capsys, text, query, fmt):
    code, out, err = run(capsys, "eval", "--degree", "3", "--format", fmt, query, text)
    if text == _CAT and query != "rank":
        assert (code, out, err) == (1, "", "error: cat() requires degree 5, got 3\n")
        return
    line, tsv, value = _ON_DEGREE_3[query]
    document = json.dumps({"query": query, "degree": 3, "expr": text, "value": value}, indent=2)
    assert (code, out, err) == (0, {"text": line, "tsv": tsv, "json": document}[fmt] + "\n", "")


@pytest.mark.parametrize("shape", sorted(DEEP_EXPRESSIONS))
def test_eval_deep_expression_exits_two(capsys, shape):
    code, out, err = run(capsys, "eval", "chi", DEEP_EXPRESSIONS[shape])
    assert code == 2
    assert out == ""
    assert "nested deeper" in err and "column" in err


def test_eval_overlong_integer_literal_exits_two(capsys):
    code, out, err = run(capsys, "eval", "chi", HUGE_LITERAL)
    assert code == 2
    assert out == ""
    assert "digits (column 3)" in err


def test_eval_parse_error_exits_two(capsys):
    code, out, err = run(capsys, "eval", "chi", "bundle(2,1,8,7)")
    assert code == 2
    assert out == ""
    assert "c3" in err and "column" in err


@pytest.mark.parametrize("text", ["o(1,2)", "cat(1)", "cat(4,30,1)", "bundle(2,1)", "bundle(1,1,0,0,0)"])
def test_eval_arity_error_exits_two_without_a_traceback(capsys, text):
    code, out, err = run(capsys, "eval", "chi", text)
    assert code == 2
    assert out == ""
    assert "() takes " in err and "(column 1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("query, digit", [("chi", "\u0663"), ("chern", "\U0001d7d7")])
def test_eval_non_ascii_digit_exits_two(capsys, query, digit):
    # int() reads both as digits (3 and 9); an integer literal is ASCII only.
    code, out, err = run(capsys, "eval", query, f"o({digit})")
    assert code == 2
    assert out == ""
    assert err == f"error: unexpected character {digit!r} (column 3)\n"


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\x1c", "\x85", "\u3000"])
def test_eval_whitespace_that_is_not_a_blank_exits_two(capsys, blank):
    code, out, err = run(capsys, "eval", "chi", f"o(1){blank}++ o(2)")
    assert code == 2
    assert out == ""
    assert err == f"error: unexpected character {blank!r} (column 5)\n"


def test_eval_postfix_twist_arity_error_exits_two_without_a_traceback(capsys):
    code, out, err = run(capsys, "eval", "chi", "o(1)(1,2)")
    assert code == 2
    assert out == ""
    assert err == "error: twist() takes n; got 2 values (column 5)\n"


@pytest.mark.parametrize(
    "argv",
    [["table"], ["analyze", "--all", "--verbose", "--format", "json"]],
    ids=["table", "analyze-all-verbose-json"],
)
def test_a_closed_stdout_exits_one_with_nothing_on_stderr(argv):
    # The reader closes the pipe before the command writes, as "| head -c 0"
    # would.  stdout stays block-buffered, as by default, so a write that
    # main does not flush would only fail in the interpreter's exit flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "acmbundles", *argv],
        cwd=ROOT,
        env=dict(env, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def _run_with_stdout(argv, stdout):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        argv, cwd=ROOT, env=dict(env, PYTHONPATH=str(ROOT / "src")),
        stdout=stdout, stderr=subprocess.PIPE, timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["table"], ["eval", "chi", "o(1)"]], ids=["table", "eval"])
def test_a_full_stdout_exits_one_with_one_error_line(argv):
    with open("/dev/full", "w") as full:
        proc = _run_with_stdout([sys.executable, "-m", "acmbundles", *argv], full)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write the output: [Errno 28] No space left on device\n"


def test_a_missing_stdout_exits_one_with_one_error_line():
    # The shell starts the command with file descriptor 1 closed, so sys.stdout is None.
    proc = _run_with_stdout(["sh", "-c", 'exec "$0" -m acmbundles table >&-', sys.executable], None)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write the output: stdout is closed\n"


@pytest.mark.parametrize(
    "argv", [["eval", "chi", "--", "--"], ["eval", "--", "chi", "--"]], ids=["after-query", "before-query"]
)
def test_eval_with_a_double_dash_for_its_expression_exits_two(argv):
    # Depending on the Python release, argparse drops the second "--" and hands main [] for the
    # expression, which main makes a usage error, or passes "--" as the expression, which does not parse.
    code, out, err = _call(argv)
    assert code == 2
    assert out == ""
    assert err.endswith(("error: the following arguments are required: expr\n", "(column 1)\n"))


def test_eval_unknown_catalog_pair_exits_two(capsys):
    code, _, err = run(capsys, "eval", "chi", "cat(3,19)")
    assert code == 2
    assert "unknown catalog pair" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--case", "9"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "rank", "o(1)", "--degree", "0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "spelling", ["\u0665", "\uff15", "1_0", " 5 ", "+5", pytest.param("9" * 5000, id="5000-digits")]
)
@pytest.mark.parametrize("argv", [["eval", "rank", "o(1)", "--degree"], ["analyze", "--case"]], ids=["degree", "case"])
def test_an_integer_option_is_ascii_digits_only(capsys, argv, spelling):
    # int() reads the first five spellings as integers and refuses 5000 digits; each is a usage error,
    # as an integer literal of the expression language is ASCII -?[0-9]+.
    assert run(capsys, *argv, "5")[0] == 0
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, spelling])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {argv[-1]}: not an integer: {spelling!r}\n")


def test_catalog_requires_degree_five():
    code, out, err = _call(["catalog", "--degree", "2"])
    assert code == 2
    assert out == ""
    assert err.endswith("error: unrecognized arguments: --degree 2\n")


_FRAGMENTS = (
    "o(", "dual(", "cat(", "bundle(", "4,30", "1,8", "0,3", "2,1,8,7",
    "(", ")", ",", "++", "*", "-", "1", "0", "12", " ", "x",
)
_expressions = st.one_of(
    st.text(max_size=24),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
)
_words = st.one_of(
    st.sampled_from(
        ("eval", "table", "analyze", "catalog", *QUERIES, "--degree", "--format",
         "--case", "--all", "--verbose", "text", "json", "tsv", "-h")
    ),
    st.integers(-2, 9).map(str),
    _expressions,
)
_argvs = st.one_of(
    st.lists(_words, max_size=6),
    st.builds(
        lambda query, text, rest: ["eval", query, text, *rest],
        st.sampled_from(QUERIES), _expressions, st.lists(_words, max_size=4),
    ),
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends usage errors and -h this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_argvs)
@example(["eval", "--degree", "3", "chi", "cat(4,30)"])
@example(["eval", "chi", DEEP_EXPRESSIONS["nested_duals"]])
@example(["eval", "chi", DEEP_EXPRESSIONS["sum_chain"]])
@example(["eval", "chi", DEEP_EXPRESSIONS["twist_chain"]])
@example(["eval", "chi", HUGE_LITERAL])
@example(["eval", "chi", "--", "--"])
def test_cli_contract_holds_for_arbitrary_arguments(argv):
    # Any other exception escaping main fails the test with its traceback.
    code, out, err = _call(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
