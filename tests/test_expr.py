import ast
import re
import sys
import traceback

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acmbundles import (
    QUINTIC, BundleDescriptor, ChowClass, Hypersurface, UnsupportedDegreeError, catalog, chi_hrr, lookup, twist,
)
from acmbundles.expr import (
    MAX_DEPTH,
    MAX_DIGITS,
    Dual,
    ExpressionError,
    Sum,
    Tensor,
    Twist,
    evaluate,
    parse,
    to_text,
)

from strategies import DEEP_EXPRESSIONS, HUGE_LITERAL, expression_texts

X5 = Hypersurface(5)


def O(n):
    return BundleDescriptor(1, n)


def test_parse_the_case_two_expression():
    ast = parse("bundle(2,4,30)(-1) * dual(bundle(2,0,3))")
    assert ast == Tensor(Twist(BundleDescriptor(2, 4, 30), -1), Dual(BundleDescriptor(2, 0, 3)))


def test_parse_line_bundle_sum():
    assert parse("o(1) ++ o(0)") == Sum(O(1), O(0))


def test_tensor_binds_tighter_than_sum():
    ast = parse("o(1) ++ o(0) * o(2)")
    assert ast == Sum(O(1), Tensor(O(0), O(2)))


def test_twist_binds_tightest():
    assert parse("dual(o(1))(2)") == Twist(Dual(O(1)), 2)
    assert parse("o(1)(2)(3)") == Twist(Twist(O(1), 2), 3)


def test_grouped_expression_can_be_twisted():
    ast = parse("(o(1) ++ o(0))(2)")
    assert ast == Twist(Sum(O(1), O(0)), 2)


def test_binary_operators_are_left_associative():
    assert parse("o(1) ++ o(2) ++ o(3)") == Sum(Sum(O(1), O(2)), O(3))
    assert parse("o(1) * o(2) * o(3)") == Tensor(Tensor(O(1), O(2)), O(3))


def test_whitespace_is_insignificant():
    assert parse("  o( 1 )++ o(0)   ") == parse("o(1)++o(0)")


def test_catalog_references():
    assert parse("cat(4,30)") is lookup(4, 30)
    with pytest.raises(ExpressionError, match="unknown catalog pair"):
        parse("cat(2,15)")


def test_invalid_bundle_literal():
    with pytest.raises(ExpressionError, match="rank-2 bundle has c3 = 0"):
        parse("bundle(2,1,8,7)")
    with pytest.raises(ExpressionError, match="rank must be positive"):
        parse("bundle(0,1,0)")
    with pytest.raises(ExpressionError, match="bundle"):
        parse("bundle(2,1)")


def test_syntax_errors_carry_one_based_columns():
    with pytest.raises(ExpressionError) as excinfo:
        parse("o(1) + o(2)")
    assert excinfo.value.column == 6
    with pytest.raises(ExpressionError) as excinfo:
        parse("o(1) ++")
    assert excinfo.value.column == 8
    with pytest.raises(ExpressionError) as excinfo:
        parse("o(x)")
    assert excinfo.value.column == 3
    with pytest.raises(ExpressionError) as excinfo:
        parse("o(1) o(2)")
    assert excinfo.value.column == 6


@pytest.mark.parametrize(
    "text, message",
    [
        ("o(1,2)", "o() takes n; got 2 values"),
        ("cat(1)", "cat() takes c1 and c2; got 1 values"),
        ("cat(4,30,1)", "cat() takes c1 and c2; got 3 values"),
        ("bundle(2,1)", "bundle() takes rank, c1, c2 and optional c3; got 2 values"),
        ("bundle(1,1,0,0,0)", "bundle() takes rank, c1, c2 and optional c3; got 5 values"),
        ("o(1)(1,2)", "twist() takes n; got 2 values"),
    ],
)
def test_arity_errors_name_the_arguments_at_the_constructor_column(text, message):
    # A constructor's error is at its name; a postfix twist's at its "(".
    column = 9 + text.rfind(")(") + 1
    with pytest.raises(ExpressionError) as excinfo:
        parse("o(0) ++ " + text)
    assert excinfo.value.column == column
    assert str(excinfo.value) == f"{message} (column {column})"


@pytest.mark.parametrize(
    "shape, column",
    [("nested_duals", 321), ("nested_groups", 65), ("sum_chain", 510), ("twist_chain", 194)],
)
def test_deep_expressions_are_rejected_at_the_level_past_the_limit(shape, column):
    with pytest.raises(ExpressionError, match=f"nested deeper than {MAX_DEPTH}") as excinfo:
        parse(DEEP_EXPRESSIONS[shape])
    assert excinfo.value.column == column


def test_expressions_at_the_depth_limit_parse_print_and_evaluate():
    for text in (
        "dual(" * (MAX_DEPTH - 1) + "o(1)" + ")" * (MAX_DEPTH - 1),
        "(" * MAX_DEPTH + "o(1)" + ")" * MAX_DEPTH,
        " ++ ".join(["o(1)"] * MAX_DEPTH),
        "o(1)" + "(1)" * (MAX_DEPTH - 1),
    ):
        ast = parse(text)
        assert parse(to_text(ast)) == ast
        evaluate(ast, X5)


def _frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_the_depth_limit_keeps_the_parser_within_five_frames_per_level():
    # The two deepest accepted texts parse with 5 frames per level, and 10
    # to spare, above the caller's depth.
    deepest = ("dual(" * (MAX_DEPTH - 1) + "o(1)" + ")" * (MAX_DEPTH - 1), "(" * MAX_DEPTH + "o(1)" + ")" * MAX_DEPTH)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 5 * MAX_DEPTH + 10)
    try:
        trees = [parse(text) for text in deepest]
    finally:
        sys.setrecursionlimit(limit)
    assert trees[1] == O(1)
    for _ in range(MAX_DEPTH - 1):
        assert type(trees[0]) is Dual
        trees[0] = trees[0].inner
    assert trees[0] == O(1)


@pytest.mark.parametrize(
    "text, message",
    [("bundle(2,1,8,7)", "invalid bundle literal: a rank-2 bundle has c3 = 0"), ("cat(9,9)", "unknown catalog pair (9,9)")],
)
def test_a_leaf_error_keeps_the_constructor_error_as_its_cause(text, message):
    with pytest.raises(ExpressionError) as excinfo:
        parse(text)
    cause = excinfo.value.__cause__
    assert type(cause) is ValueError and message.endswith(str(cause))
    assert str(excinfo.value) == f"{message} (column 1)"
    shown = "".join(traceback.format_exception(excinfo.value))
    assert shown.count("The above exception was the direct cause") == 1 and "During handling" not in shown
    assert shown.index(f"ValueError: {cause}") < shown.index(f"ExpressionError: {message}")


@pytest.mark.parametrize("text", ["o(1) + o(2)", "o(1"])
def test_a_syntax_error_has_no_cause_and_shows_no_other_exception(text):
    with pytest.raises(ExpressionError) as excinfo:
        parse(text)
    assert excinfo.value.__cause__ is None
    shown = "".join(traceback.format_exception(excinfo.value))
    assert "direct cause" not in shown and "During handling" not in shown
    assert shown.count("Error: ") == 1 and shown.endswith(f"ExpressionError: {excinfo.value}\n")


def test_overlong_integer_literals_are_rejected_with_their_column():
    with pytest.raises(ExpressionError, match=f"longer than {MAX_DIGITS} digits") as excinfo:
        parse(HUGE_LITERAL)
    assert excinfo.value.column == 3
    with pytest.raises(ExpressionError) as excinfo:
        parse("bundle(2, 1, -" + "1" * (MAX_DIGITS + 1) + ")")
    assert excinfo.value.column == 14


def test_integer_literals_at_the_digit_limit_parse():
    nines = "9" * MAX_DIGITS
    assert parse(f"o(-{nines})") == O(-int(nines))


@pytest.mark.parametrize(
    "text, character, column",
    [("o(\u0663)", "\u0663", 3), ("o(\U0001d7d7)", "\U0001d7d7", 3), ("o(\uff13)", "\uff13", 3),
     ("o(1\u0663)", "\u0663", 4), ("o(-\u0663)", "-", 3), ("bundle(2,\u0966,3)", "\u0966", 10)],
)
def test_an_integer_literal_is_ascii_digits_only(text, character, column):
    # Arabic-Indic three, mathematical bold nine, fullwidth three and
    # Devanagari zero are decimal digits to int(), but not to the grammar.
    with pytest.raises(ExpressionError) as excinfo:
        parse(text)
    assert str(excinfo.value) == f"unexpected character {character!r} (column {column})"


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\x1c", "\x85", "\u3000"])
def test_only_ascii_space_tab_cr_and_lf_are_blanks(blank):
    # Python calls each of these whitespace; the grammar does not.
    assert parse("o(1) \t\r\n++\no(2)") == Sum(O(1), O(2))
    for text, column in ((f"o(1){blank}++ o(2)", 5), (f"o(1)\x1c++{blank}o(2)", 5), (f"{blank}o(1)", 1)):
        with pytest.raises(ExpressionError) as excinfo:
            parse(text)
        assert str(excinfo.value) == f"unexpected character {text[column - 1]!r} (column {column})"


def _validations(run):
    """How many times the descriptor's rule runs during ``run()``."""
    code, calls = BundleDescriptor._validate.__code__, []
    sys.setprofile(lambda frame, event, arg: calls.append(1) if event == "call" and frame.f_code is code else None)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_the_descriptor_rule_runs_once_per_descriptor_built():
    text = "bundle(2,1,8) ++ dual(bundle(3,1,8,7))"
    assert _validations(lambda: evaluate(parse(text), X5)) == 4  # two literals, one dual, one direct sum
    tree = parse(text)
    assert _validations(lambda: evaluate(tree, X5)) == 2  # one dual, one direct sum
    for literal in (BundleDescriptor(2, 1, 8), BundleDescriptor(3, 1, 8, 7), BundleDescriptor(1, -4, 0)):
        E = evaluate(literal, X5)
        again = BundleDescriptor(literal.rank, literal.c1, literal.c2, literal.c3)
        assert E == again and repr(E) == repr(again)
        assert list(zip(E._fields, E._values())) == list(zip(again._fields, again._values()))
    # A hand-built tree is checked too, with the descriptor's messages.
    for args, message in (((2, 1, 8, 1), "a rank-2 bundle has c3 = 0"), ((0, 1, 0), "rank must be positive, got 0"),
                          ((2, True, 8), "c1 must be an integer, got True")):
        with pytest.raises(ValueError) as excinfo:
            BundleDescriptor(*args)
        assert str(excinfo.value) == message
    with pytest.raises(ExpressionError) as excinfo:
        parse("o(1) ++ bundle(2,1,8,1)")
    assert str(excinfo.value) == "invalid bundle literal: a rank-2 bundle has c3 = 0 (column 9)"


def test_a_bundle_literal_is_its_descriptor():
    E = parse("bundle(2,4,30)")
    assert type(E) is BundleDescriptor and E == BundleDescriptor(2, 4, 30)
    assert evaluate(E, X5) is E
    tree = parse("bundle(3,1,8,7)(1)")
    assert evaluate(tree.inner, X5) is tree.inner


@pytest.mark.parametrize(
    "value",
    [object(), (2, 1, 8, 0), ChowClass(1, 2, 3, 4), Hypersurface(5)],
    ids=["object", "tuple", "ChowClass", "Hypersurface"],
)
def test_a_value_that_is_no_node_is_not_an_expression(value):
    for function in (lambda: evaluate(value, X5), lambda: to_text(value), lambda: to_text(Dual(value))):
        with pytest.raises(TypeError) as excinfo:
            function()
        assert str(excinfo.value) == f"not an expression: {value!r}"


def test_twist_builds_one_descriptor_per_call():
    E = lookup(1, 8).descriptor()
    assert _validations(lambda: twist(E, 2, X5)) == 1
    assert twist(E, 2, X5) == BundleDescriptor(2, 5, 38)
    assert _validations(lambda: twist(E, 0, X5)) == 0  # E(0) is E


def test_a_catalog_reference_is_checked_when_built(monkeypatch):
    calls = []
    monkeypatch.setattr("acmbundles.expr.lookup", lambda c1, c2: calls.append((c1, c2)) or lookup(c1, c2))
    tree = parse("cat(1,8)(2)")
    assert calls == [(1, 8)] and tree.inner is lookup(1, 8)
    assert evaluate(tree, X5) == twist(lookup(1, 8).descriptor(), 2, X5) and calls == [(1, 8)]


def test_a_rank_one_descriptor_has_one_text():
    assert to_text(parse("bundle(1,3,0)")) == to_text(parse("o(3)")) == to_text(BundleDescriptor(1, 3)) == "o(3)"
    assert parse("o(3)") == parse("bundle(1,3,0)") == parse("bundle(1,3,0,0)") == BundleDescriptor(1, 3)
    assert type(parse("o(-2)")) is BundleDescriptor


def test_a_bad_character_is_reported_before_an_earlier_syntax_error():
    # The whole text is tokenized before the parser reports anything.
    with pytest.raises(ExpressionError) as excinfo:
        parse("o(1 ++ o(2) \u00e9")
    assert str(excinfo.value) == "unexpected character '\u00e9' (column 13)"


# An error message that quotes a token of the text, and the quoted token.
_QUOTED = re.compile(
    r"(?:unexpected character|expected .*?, found|unexpected trailing|unknown name) (.+)"
)


@settings(max_examples=400)
@given(expression_texts())
@example("")
@example("o(1) +")
@example("\to(1)\t(")
@example("dual(x)")
def test_a_text_parses_to_a_round_trip_tree_or_fails_inside_the_text(text):
    try:
        tree = parse(text)
    except ExpressionError as exc:
        message = str(exc).removesuffix(f" (column {exc.column})")
        assert 1 <= exc.column <= len(text) + 1, (message, exc.column)
        quoted = _QUOTED.fullmatch(message)
        if quoted:
            lexeme = ast.literal_eval(quoted[1])
            if lexeme == "end of input":
                assert exc.column == len(text) + 1
            else:
                assert text[exc.column - 1 :].startswith(lexeme), (message, exc.column)
    else:
        assert parse(to_text(tree)) == tree


def test_evaluate_checks_the_degree_of_every_nested_catalog_reference():
    X3 = Hypersurface(3)
    for text in ("o(1) ++ dual(cat(1,8))(2)", "bundle(2,0,3) * cat(4,30)"):
        with pytest.raises(UnsupportedDegreeError) as excinfo:
            evaluate(parse(text), X3)
        assert str(excinfo.value) == "cat() requires degree 5, got 3"
    E = evaluate(parse("o(1) * dual(bundle(2,0,3))(-1) ++ o(2)"), X3)
    assert E == BundleDescriptor(3, 2, 3, 6)


@pytest.mark.parametrize("r", range(1, 9))
def test_every_catalog_reference_evaluates_on_the_quintic_only(r):
    for entry in catalog():
        ref = lookup(entry.c1, entry.c2)
        if r == 5:
            assert evaluate(ref, Hypersurface(r)) == lookup(entry.c1, entry.c2).descriptor()
        else:
            with pytest.raises(UnsupportedDegreeError) as excinfo:
                evaluate(ref, Hypersurface(r))
            assert str(excinfo.value) == f"cat() requires degree 5, got {r}"


def test_unknown_name():
    # "twist" names the postfix twist in arity messages but is not a name.
    for name in ("spam", "twist"):
        with pytest.raises(ExpressionError) as excinfo:
            parse(f"{name}(1)")
        assert str(excinfo.value) == f"unknown name {name!r} (column 1)"


def test_evaluate_literals_and_operations():
    assert evaluate(parse("o(2)"), X5) == BundleDescriptor(1, 2)
    assert evaluate(parse("cat(1,8)"), X5) == BundleDescriptor(2, 1, 8)
    assert evaluate(parse("bundle(2,4,30)(-1)"), X5) == BundleDescriptor(2, 2, 15)
    assert evaluate(parse("dual(bundle(2,1,8))"), X5) == BundleDescriptor(2, -1, 8)
    tensor_e = evaluate(parse("bundle(2,4,30)(-1) * dual(bundle(2,0,3))"), X5)
    assert tensor_e.rank == 4
    assert chi_hrr(tensor_e, X5) == -6
    sum_e = evaluate(parse("bundle(2,4,30) ++ bundle(2,1,8)"), X5)
    assert (sum_e.rank, sum_e.c1, sum_e.c2, sum_e.c3) == (4, 5, 58, 62)


def test_tensoring_with_the_structure_sheaf_is_neutral():
    e = evaluate(parse("cat(1,8) * o(0)"), X5)
    assert e == evaluate(parse("cat(1,8)"), X5)


def test_printer_round_trips_the_examples():
    for text in (
        "bundle(2,4,30)(-1) * dual(bundle(2,0,3))",
        "o(1) ++ o(0)",
        "(o(1) ++ o(0))(2) * cat(4,30)",
        "bundle(3,1,8,7)",
    ):
        ast = parse(text)
        assert parse(to_text(ast)) == ast
        assert to_text(parse(to_text(ast))) == to_text(ast)


_A, _B, _C = O(1), O(2), O(3)


@pytest.mark.parametrize(
    "tree, text",
    [
        # atoms print without parentheses
        (BundleDescriptor(2, 4, 30), "bundle(2,4,30)"),
        (BundleDescriptor(3, 1, 8, 7), "bundle(3,1,8,7)"),
        (lookup(4, 30), "cat(4,30)"),
        (Dual(Sum(_A, _B)), "dual(o(1) ++ o(2))"),
        # twist: only a sum or a tensor is wrapped
        (Twist(_A, 2), "o(1)(2)"),
        (Twist(Dual(_A), 2), "dual(o(1))(2)"),
        (Twist(Twist(_A, 2), 3), "o(1)(2)(3)"),
        (Twist(Tensor(_A, _B), 3), "(o(1) * o(2))(3)"),
        (Twist(Sum(_A, _B), 3), "(o(1) ++ o(2))(3)"),
        # tensor: a sum on the left is wrapped; a sum or tensor on the right is
        (Tensor(Tensor(_A, _B), _C), "o(1) * o(2) * o(3)"),
        (Tensor(Sum(_A, _B), _C), "(o(1) ++ o(2)) * o(3)"),
        (Tensor(_A, Tensor(_B, _C)), "o(1) * (o(2) * o(3))"),
        (Tensor(_A, Sum(_B, _C)), "o(1) * (o(2) ++ o(3))"),
        (Tensor(Twist(_A, 2), _B), "o(1)(2) * o(2)"),
        # sum: nothing on the left is wrapped; a sum on the right is
        (Sum(Sum(_A, _B), _C), "o(1) ++ o(2) ++ o(3)"),
        (Sum(Tensor(_A, _B), _C), "o(1) * o(2) ++ o(3)"),
        (Sum(_A, Tensor(_B, _C)), "o(1) ++ o(2) * o(3)"),
        (Sum(_A, Sum(_B, _C)), "o(1) ++ (o(2) ++ o(3))"),
    ],
)
def test_printer_parenthesizes_exactly_the_looser_operands(tree, text):
    assert to_text(tree) == text


def _bundle_lits():
    rank1 = st.builds(lambda c1: BundleDescriptor(1, c1, 0, 0), st.integers(-9, 9))
    rank2 = st.builds(
        lambda c1, c2: BundleDescriptor(2, c1, c2, 0), st.integers(-9, 9), st.integers(-30, 30)
    )
    rank3 = st.builds(
        BundleDescriptor,
        st.integers(3, 4),
        st.integers(-9, 9),
        st.integers(-30, 30),
        st.integers(-30, 30),
    )
    return st.one_of(rank1, rank2, rank3)


_atoms = st.one_of(
    _bundle_lits(),  # o(n) among them, as rank-1 descriptors
    st.sampled_from(catalog()),
)

_expressions = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(Dual, inner),
        st.builds(Twist, inner, st.integers(-5, 5)),
        st.builds(Tensor, inner, inner),
        st.builds(Sum, inner, inner),
    ),
    max_leaves=8,
)


@given(_expressions)
def test_printer_parser_round_trip(ast):
    assert parse(to_text(ast)) == ast


def _trees(depth):
    """Trees of o, bundle, cat, dual, twist, * and ++, at most ``depth`` levels."""
    if depth == 1:
        return _atoms
    inner = _trees(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(Dual, inner),
        st.builds(Twist, inner, st.integers(-3, 3)),
        st.builds(Tensor, inner, inner),
        st.builds(Sum, inner, inner),
    )


@settings(max_examples=300, deadline=None)
@given(_trees(4), st.integers(1, 8))
@example(Sum(O(1), Dual(Twist(lookup(1, 8), 2))), 3)
@example(Sum(O(1), Dual(Twist(lookup(1, 8), 2))), 5)
def test_evaluate_raises_exactly_when_a_catalog_reference_meets_another_degree(tree, r):
    X = Hypersurface(r)
    if r != 5 and "cat(" in to_text(tree):
        with pytest.raises(UnsupportedDegreeError) as excinfo:
            evaluate(tree, X)
        assert str(excinfo.value) == f"cat() requires degree 5, got {r}"
    else:
        # The CLI evaluates a rank query on the quintic: a rank is the same on every degree.
        assert evaluate(tree, X).rank == evaluate(tree, QUINTIC).rank
