"""Command-line front end.

Subcommands:

* ``eval <query> "<expr>"``: evaluate a bundle expression; query is one of
  chi, chern, ch, rank.
* ``table``: the seven extension cases with their invariants.
* ``analyze [--case N | --all] [--verbose]``: splitting-exclusion reports;
  verbose output includes the Chern-rejected candidate pairs.
* ``catalog``: the fourteen rank-2 entries with derived statistics.

Global options: ``--degree r`` (default 5) and ``--format text|json|tsv``
(default text).  ``table``, ``analyze`` and ``catalog`` are statements about
the quintic: ``main`` checks their degree once, before dispatch, and the
analysis functions they call take no degree.  ``eval`` works on any degree,
except that a chi, chern or ch query on a cat() bundle needs degree 5.
Results go to stdout, errors to stderr.  Exit codes: 0 on success, 1 on
domain errors (e.g. any of those degree checks failing), 2 on usage or
parse errors.

JSON schemas (rationals serialize as lowest-term "p/q" strings, integers as
bare numbers):

* extension case: {case, F: [c1,c2], E: [c1,c2], m, chi, d_min, G: [c1,c2,c3]}
* split verdict:  {pair: [[c1,c2],[c1,c2]], sum_chern: [c1,c2,c3], filter, details}
* case report:    {case, rank1_hypothesis_ok, verdicts: [...], conclusion,
                   notes} (+ rejected under --verbose)
* catalog entry:  {c1, c2, family, exists_on_general, chi, h0, stable}
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .bundles import BundleDescriptor, chi_hrr, to_ch
from .catalog import CASE_INDICES, CatalogEntry, catalog
from .chowring import QUINTIC, Hypersurface, require_quintic

if TYPE_CHECKING:
    from .analysis import CaseReport, ExtensionCase, SplitVerdict
    from .expr import Expression

__all__ = ["main"]

QUERIES = ("chi", "chern", "ch", "rank")

# The subcommands that rest on the quintic catalog, each with the name its
# degree error gives it.  Their library calls take no degree.
QUINTIC_ONLY = {
    "table": "the extension table",
    "analyze": "the extension table",
    "catalog": "the catalog",
}


def _rational(q: Fraction | int) -> int | str:
    q = Fraction(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _pair_text(pair: tuple[int, int]) -> str:
    return f"({pair[0]},{pair[1]})"


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


_CATALOG_FIELDS = ("c1", "c2", "family", "exists_on_general", "chi", "h0", "stable")


def entry_json(entry: CatalogEntry) -> dict[str, Any]:
    return {name: getattr(entry, name) for name in _CATALOG_FIELDS}


def _dump(obj: Any) -> str:
    return json.dumps(obj, indent=2)


# ----------------------------------------------------------------- renderers


def render_table(cases: tuple[ExtensionCase, ...], fmt: str) -> str:
    if fmt == "json":
        return _dump([case_json(c) for c in cases])
    if fmt == "tsv":
        lines = ["case\tF\tE\tm\tchi\td_min\tG_c1\tG_c2\tG_c3"]
        for c in cases:
            g = c.g_chern
            lines.append(
                f"{c.index}\t{_pair_text(c.F.pair)}\t{_pair_text(c.E.pair)}"
                f"\t{c.m}\t{c.chi_tensor}\t{c.d_lower}\t{g[0]}\t{g[1]}\t{g[2]}"
            )
        return "\n".join(lines)
    lines = [
        f"{'case':<6}{'F':<9}{'E':<8}{'m':>3}  {'chi':>4}  {'d_min':>5}  G (c1,c2,c3)"
    ]
    for c in cases:
        g = c.g_chern
        lines.append(
            f"{c.index:<6}{_pair_text(c.F.pair):<9}{_pair_text(c.E.pair):<8}"
            f"{c.m:>3}  {c.chi_tensor:>4}  {c.d_lower:>5}  ({g[0]},{g[1]},{g[2]})"
        )
    lines.append("")
    lines.append(
        "d_min = max(0, -chi) bounds dim Ext^1(E, F(m)) from below; "
        "the bound is strict whenever h0 + h2 > 0."
    )
    return "\n".join(lines)


def _verdict_text(verdict: SplitVerdict) -> str:
    from . import analysis

    a, b = verdict.pair_key
    head = f"{{{_pair_text(a)}, {_pair_text(b)}}}: {verdict.filter}"
    d = verdict.details
    if verdict.filter == analysis.FILTER_CHERN_MISMATCH:
        where = "disjoint from" if d["c1_disjoint"] else "overlapping"
        return (
            f"{head} (c2 sum {d['c2_sum']} != {d['c2_target']}; "
            f"c1 values {where} those of F(m) and E)"
        )
    if verdict.filter == analysis.FILTER_TRIVIAL_SPLIT:
        return f"{head} (equals {{F(m), E}}; a nontrivial extension class forbids it)"
    if verdict.filter == analysis.FILTER_H0_MISMATCH:
        return (
            f"{head} (h0(F(m)) + h0(E) = {d['h0_lhs']} != {d['h0_rhs']}"
            f" = h0(G1) + h0(G2))"
        )
    return f"{head} ({d.get('reason', 'no filter applied')})"


def render_reports(reports: list[CaseReport], fmt: str, verbose: bool) -> str:
    if fmt == "json":
        payload: Any = [report_json(r, verbose) for r in reports]
        if len(payload) == 1:
            payload = payload[0]
        return _dump(payload)
    if fmt == "tsv":
        lines = ["case\tG1\tG2\tsum_c1\tsum_c2\tsum_c3\tfilter\tconclusion"]
        for r in reports:
            idx = r.case.index
            shown = list(r.verdicts) + (list(r.rejected) if verbose else [])
            if not shown:
                lines.append(f"{idx}\t-\t-\t-\t-\t-\tnone\t{r.conclusion}")
            for v in shown:
                a, b = v.pair_key
                s = v.sum_chern
                lines.append(
                    f"{idx}\t{_pair_text(a)}\t{_pair_text(b)}"
                    f"\t{s[0]}\t{s[1]}\t{s[2]}\t{v.filter}\t{r.conclusion}"
                )
        return "\n".join(lines)
    blocks = []
    for r in reports:
        c = r.case
        g = c.g_chern
        lines = [
            f"case ({c.index}): F={_pair_text(c.F.pair)}, E={_pair_text(c.E.pair)}, "
            f"m={c.m}, chi={c.chi_tensor}, d_min={c.d_lower}, G=({g[0]},{g[1]},{g[2]})",
            "  rank-1 summand hypothesis c1(F) + m > 0: "
            + ("holds" if r.rank1_hypothesis_ok else "fails"),
            "  candidate decompositions (Whitney (c1,c2) survivors):",
        ]
        if r.verdicts:
            lines.extend(f"    {_verdict_text(v)}" for v in r.verdicts)
        else:
            lines.append("    (none)")
        if verbose:
            lines.append("  chern-rejected pairs:")
            if r.rejected:
                lines.extend(f"    {_verdict_text(v)}" for v in r.rejected)
            else:
                lines.append("    (none)")
        for note in r.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  conclusion: {r.conclusion}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_catalog(entries: tuple[CatalogEntry, ...], fmt: str) -> str:
    if fmt == "json":
        return _dump([entry_json(e) for e in entries])
    rows = []
    for e in entries:
        exists = "true" if e.exists_on_general is True else e.exists_on_general
        h0 = "undetermined" if e.h0 is None else str(e.h0)
        stable = "true" if e.stable else "false"
        rows.append((str(e.c1), str(e.c2), e.family, exists, str(e.chi), h0, stable))
    header = _CATALOG_FIELDS
    if fmt == "tsv":
        return "\n".join(["\t".join(header)] + ["\t".join(row) for row in rows])
    widths = [max(len(header[i]), max(len(row[i]) for row in rows)) for i in range(len(header))]
    fmt_row = lambda row: "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    return "\n".join([fmt_row(header)] + [fmt_row(row) for row in rows])


def render_eval(
    expression: Expression, query: str, result: BundleDescriptor, X: Hypersurface, fmt: str
) -> str:
    from .expr import to_text

    if query == "chern":
        fields = {"rank": result.rank, "c1": result.c1, "c2": result.c2, "c3": result.c3}
        text = f"rank {result.rank}, c = ({result.c1},{result.c2},{result.c3})"
    elif query == "ch":
        fields = dict(zip(("ch0", "ch1", "ch2", "ch3"), to_ch(result, X).coefficients()))
        text = "ch = (" + ", ".join(str(v) for v in fields.values()) + ")"
    else:
        value = chi_hrr(result, X) if query == "chi" else result.rank
        fields = {query: value}
        text = f"{query} = {value}"
    if fmt == "json":
        values = {name: _rational(v) for name, v in fields.items()}
        return _dump(
            {
                "query": query,
                "degree": X.r,
                "expr": to_text(expression),
                "value": values[query] if len(values) == 1 else values,
            }
        )
    if fmt == "tsv":
        return "\t".join(fields) + "\n" + "\t".join(str(v) for v in fields.values())
    return text


# -------------------------------------------------------------------- driver


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"degree must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--degree", type=_positive_int, default=QUINTIC.r,
        help="degree r of the hypersurface (default %(default)s)",
    )
    common.add_argument(
        "--format", choices=("text", "json", "tsv"), default="text", help="output format"
    )
    parser = argparse.ArgumentParser(
        prog="acmbundles",
        description="Exact Chern-class calculus and splitting analysis on hypersurface threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a bundle expression")
    p_eval.add_argument("query", choices=QUERIES)
    p_eval.add_argument("expr")
    sub.add_parser("table", parents=[common], help="the seven extension cases")
    p_analyze = sub.add_parser("analyze", parents=[common], help="splitting-exclusion reports")
    scope = p_analyze.add_mutually_exclusive_group()
    scope.add_argument("--case", type=int, choices=CASE_INDICES, metavar="N")
    scope.add_argument("--all", action="store_true")
    p_analyze.add_argument(
        "--verbose", action="store_true", help="include Chern-rejected candidate pairs"
    )
    sub.add_parser("catalog", parents=[common], help="the rank-2 catalog")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        X = Hypersurface(args.degree)
        if args.command in QUINTIC_ONLY:
            require_quintic(X, QUINTIC_ONLY[args.command])
        # Each subcommand imports only the layers it uses.
        if args.command == "eval":
            from .expr import ExpressionError, evaluate, parse, uses_catalog

            try:
                expression = parse(args.expr)
            except ExpressionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.query != "rank" and uses_catalog(expression):
                require_quintic(X, "cat() in a chi, chern or ch query")
            print(render_eval(expression, args.query, evaluate(expression, X), X, args.format))
            return 0
        if args.command == "catalog":
            print(render_catalog(catalog(), args.format))
            return 0
        from . import analysis

        if args.command == "table":
            print(render_table(analysis.extension_cases(), args.format))
            return 0
        indices = CASE_INDICES if args.case is None else [args.case]
        reports = [analysis.analyze_case(i) for i in indices]
        print(render_reports(reports, args.format, args.verbose))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
