"""Command-line front end.

Subcommands:

* ``eval <query> "<expr>"``: evaluate a bundle expression; query is one of
  chi, chern, ch, rank.
* ``table``: the seven extension cases with their invariants.
* ``analyze [--case N | --all] [--verbose]``: splitting-exclusion reports;
  verbose output includes the Chern-rejected candidate pairs.
* ``catalog``: the fourteen rank-2 entries with derived statistics.

Options: ``--format text|json|tsv`` (default text) on every subcommand and
``--degree r`` (default 5) on ``eval`` alone.  ``table``, ``analyze`` and
``catalog`` are statements about the quintic and take no degree.
``expr.evaluate`` checks the degree of each cat() bundle, and a rank query,
the same on every degree, is evaluated on the quintic.
Results go to stdout, from one place in ``main``, errors to stderr.  Exit
codes: 0 on success, 1 on domain errors (e.g. a cat() off the quintic) or a
stdout that cannot take the output (one error line on stderr; none when the
reader closed the pipe), 2 on usage or parse errors.

Each record's fields are named once, in its JSON form; text and TSV cells
come from that form through one rule, ``_cell``.  JSON schemas (rationals
serialize as lowest-term "p/q" strings, integers as bare numbers):

* extension case: {case, F: [c1,c2], E: [c1,c2], m, chi, d_min, G: [c1,c2,c3]}
* split verdict:  {pair: [[c1,c2],[c1,c2]], sum_chern: [c1,c2,c3], filter, details}
* case report:    {case, rank1_hypothesis_ok, verdicts: [...], conclusion,
                   notes} (+ rejected under --verbose)
* catalog entry:  {c1, c2, family, exists_on_general, chi, h0, stable}
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .bundles import BundleDescriptor, chi_hrr, to_ch
from .catalog import CASE_INDICES, CatalogEntry, catalog
from .chowring import QUINTIC, Hypersurface

if TYPE_CHECKING:
    from .analysis import CaseReport, ExtensionCase, SplitVerdict
    from .expr import Expression

__all__ = ["main"]

QUERIES = ("chi", "chern", "ch", "rank")


def _rational(q: Fraction | int) -> int | str:
    n, d = q.as_integer_ratio()
    return n if d == 1 else f"{n}/{d}"


def _cell(value: Any) -> str:
    """A JSON value as a text or TSV cell: a list as (a,b,...), a bool as true/false."""
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(map(_cell, value)) + ")"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------- JSON forms


def case_json(case: ExtensionCase) -> dict[str, Any]:
    return {
        "case": case.index,
        "F": [case.F.c1, case.F.c2],
        "E": [case.E.c1, case.E.c2],
        "m": case.m,
        "chi": case.chi_tensor,
        "d_min": case.d_lower,
        "G": list(case.g_chern),
    }


def verdict_json(verdict: SplitVerdict) -> dict[str, Any]:
    return {
        "pair": [list(p) for p in verdict.pair_key],
        "sum_chern": list(verdict.sum_chern),
        "filter": verdict.filter,
        "details": verdict.details,
    }


def report_json(report: CaseReport, verbose: bool = False) -> dict[str, Any]:
    out: dict[str, Any] = {
        "case": case_json(report.case),
        "rank1_hypothesis_ok": report.rank1_hypothesis_ok,
        "verdicts": [verdict_json(v) for v in report.verdicts],
        "conclusion": report.conclusion,
        "notes": list(report.notes),
    }
    if verbose:
        out["rejected"] = [verdict_json(v) for v in report.rejected]
    return out


def entry_json(entry: CatalogEntry) -> dict[str, Any]:
    return dict(zip(entry._fields, entry._values()))


def _json(value: Any) -> str:
    import json  # only a json output loads it

    return json.dumps(value, indent=2)


def _tsv(header: str, rows: Any) -> str:
    return "\n".join([header] + ["\t".join(map(_cell, row)) for row in rows])


# ----------------------------------------------------------------- renderers


def render_table(cases: tuple[ExtensionCase, ...], fmt: str) -> str:
    records = [case_json(c) for c in cases]
    if fmt == "json":
        return _json(records)
    if fmt == "tsv":
        rows = [[*head, *g] for *head, g in map(dict.values, records)]
        return _tsv("case\tF\tE\tm\tchi\td_min\tG_c1\tG_c2\tG_c3", rows)
    row = "{:<6}{:<9}{:<8}{:>3}  {:>4}  {:>5}  {}".format
    lines = [row("case", "F", "E", "m", "chi", "d_min", "G (c1,c2,c3)")]
    lines.extend(row(*map(_cell, record.values())) for record in records)
    lines.append("")
    lines.append(
        "d_min = max(0, -chi) bounds dim Ext^1(E, F(m)) from below; "
        "the bound is strict whenever h0 + h2 > 0."
    )
    return "\n".join(lines)


def _verdict_text(verdict: dict[str, Any]) -> str:
    from . import analysis

    d, kind = verdict["details"], verdict["filter"]
    if kind == analysis.FILTER_CHERN_MISMATCH:
        where = "disjoint from" if d["c1_disjoint"] else "overlapping"
        reason = (
            f"c2 sum {d['c2_sum']} != {d['c2_target']}; "
            f"c1 values {where} those of F(m) and E"
        )
    elif kind == analysis.FILTER_TRIVIAL_SPLIT:
        reason = "equals {F(m), E}; a nontrivial extension class forbids it"
    elif kind == analysis.FILTER_H0_MISMATCH:
        reason = f"h0(F(m)) + h0(E) = {d['h0_lhs']} != {d['h0_rhs']} = h0(G1) + h0(G2)"
    else:
        reason = d["reason"]
    return "{" + ", ".join(map(_cell, verdict["pair"])) + f"}}: {kind} ({reason})"


def render_reports(reports: list[CaseReport], fmt: str, verbose: bool) -> str:
    records = [report_json(r, verbose) for r in reports]
    if fmt == "json":
        return _json(records[0] if len(records) == 1 else records)
    if fmt == "tsv":
        rows = []
        for record in records:
            shown = record["verdicts"] + record.get("rejected", [])
            cells = [[*v["pair"], *v["sum_chern"], v["filter"]] for v in shown]
            for c in cells or [["-"] * 5 + ["none"]]:
                rows.append([record["case"]["case"], *c, record["conclusion"]])
        return _tsv("case\tG1\tG2\tsum_c1\tsum_c2\tsum_c3\tfilter\tconclusion", rows)
    blocks = []
    for record in records:
        (_, index), *fields = record["case"].items()
        lines = [
            f"case ({index}): " + ", ".join(f"{name}={_cell(value)}" for name, value in fields),
            "  rank-1 summand hypothesis c1(F) + m > 0: "
            + ("holds" if record["rank1_hypothesis_ok"] else "fails"),
        ]
        # "rejected" is in the record only under --verbose.
        for key, heading in (
            ("verdicts", "candidate decompositions (Whitney (c1,c2) survivors)"),
            ("rejected", "chern-rejected pairs"),
        ):
            if key in record:
                lines.append(f"  {heading}:")
                lines.extend([f"    {_verdict_text(v)}" for v in record[key]] or ["    (none)"])
        lines.extend(f"  note: {note}" for note in record["notes"])
        lines.append(f"  conclusion: {record['conclusion']}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_catalog(entries: tuple[CatalogEntry, ...], fmt: str) -> str:
    records = [entry_json(e) for e in entries]
    if fmt == "json":
        return _json(records)
    rows = [list(CatalogEntry._fields)] + [
        ["undetermined" if value is None else _cell(value) for value in record.values()]
        for record in records
    ]
    if fmt == "tsv":
        return _tsv("\t".join(rows[0]), rows[1:])
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    )


def render_eval(
    expression: Expression, query: str, result: BundleDescriptor, X: Hypersurface, fmt: str
) -> str:
    from .expr import to_text

    if query == "chern":
        fields = {"rank": result.rank, "c1": result.c1, "c2": result.c2, "c3": result.c3}
        text = f"rank {result.rank}, c = {_cell((result.c1, result.c2, result.c3))}"
    elif query == "ch":
        fields = dict(zip(("ch0", "ch1", "ch2", "ch3"), to_ch(result, X).coefficients()))
        text = "ch = (" + ", ".join(str(v) for v in fields.values()) + ")"
    else:
        value = chi_hrr(result, X) if query == "chi" else result.rank
        fields = {query: value}
        text = f"{query} = {value}"
    if fmt == "json":
        values = {name: _rational(v) for name, v in fields.items()}
        return _json(
            {
                "query": query,
                "degree": X.r,
                "expr": to_text(expression),
                "value": values[query] if len(values) == 1 else values,
            }
        )
    if fmt == "tsv":
        return _tsv("\t".join(fields), [fields.values()])
    return text


# -------------------------------------------------------------------- driver


def _integer(text: str) -> int:
    """An integer option spelled as the expression language spells one: ASCII -?[0-9]+."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():  # int() alone also takes "+5", " 5", "1_0" and "٥"
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"degree must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "tsv"), default="text", help="output format"
    )
    parser = argparse.ArgumentParser(
        prog="acmbundles",
        description="Exact Chern-class calculus and splitting analysis on hypersurface threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a bundle expression")
    p_eval.add_argument(
        "--degree", type=_positive_int, default=QUINTIC.r,
        help="degree r of the hypersurface (default %(default)s)",
    )
    p_eval.add_argument("query", choices=QUERIES)
    p_eval.add_argument("expr")
    sub.add_parser("table", parents=[common], help="the seven extension cases")
    p_analyze = sub.add_parser("analyze", parents=[common], help="splitting-exclusion reports")
    scope = p_analyze.add_mutually_exclusive_group()
    scope.add_argument("--case", type=_integer, choices=CASE_INDICES, metavar="N")
    scope.add_argument("--all", action="store_true")
    p_analyze.add_argument(
        "--verbose", action="store_true", help="include Chern-rejected candidate pairs"
    )
    sub.add_parser("catalog", parents=[common], help="the rank-2 catalog")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.expr == []:  # argparse's reading of "eval chi -- --"
        parser.error("the following arguments are required: expr")
    try:
        # Each subcommand imports only the layers it uses.
        if args.command == "eval":
            from .expr import ExpressionError, evaluate, parse

            try:
                expression = parse(args.expr)
            except ExpressionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            X = Hypersurface(args.degree)
            # A rank is the same on every degree, so a rank query may name cat().
            result = evaluate(expression, QUINTIC if args.query == "rank" else X)
            text = render_eval(expression, args.query, result, X, args.format)
        elif args.command == "catalog":
            text = render_catalog(catalog(), args.format)
        else:
            from . import analysis

            if args.command == "table":
                text = render_table(analysis.extension_cases(), args.format)
            else:
                indices = CASE_INDICES if args.case is None else [args.case]
                reports = [analysis.analyze_case(i) for i in indices]
                text = render_reports(reports, args.format, args.verbose)
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        # stdout cannot take the output.  Point fd 1 at devnull so that the interpreter's
        # final flush cannot fail again.  A reader that closed the pipe gets no error line.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
