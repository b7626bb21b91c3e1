import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmbundles import BundleDescriptor, Hypersurface, chi_hrr
from acmbundles.expr import (
    MAX_DEPTH,
    MAX_DIGITS,
    BundleLit,
    CatRef,
    Dual,
    ExpressionError,
    LineBundle,
    Sum,
    Tensor,
    Twist,
    evaluate,
    parse,
    to_text,
    uses_catalog,
)

from strategies import DEEP_EXPRESSIONS, HUGE_LITERAL

X5 = Hypersurface(5)


def test_parse_the_case_two_expression():
    ast = parse("bundle(2,4,30)(-1) * dual(bundle(2,0,3))")
    assert ast == Tensor(Twist(BundleLit(2, 4, 30), -1), Dual(BundleLit(2, 0, 3)))


def test_parse_line_bundle_sum():
    assert parse("o(1) ++ o(0)") == Sum(LineBundle(1), LineBundle(0))


def test_tensor_binds_tighter_than_sum():
    ast = parse("o(1) ++ o(0) * o(2)")
    assert ast == Sum(LineBundle(1), Tensor(LineBundle(0), LineBundle(2)))


def test_twist_binds_tightest():
    assert parse("dual(o(1))(2)") == Twist(Dual(LineBundle(1)), 2)
    assert parse("o(1)(2)(3)") == Twist(Twist(LineBundle(1), 2), 3)


def test_grouped_expression_can_be_twisted():
    ast = parse("(o(1) ++ o(0))(2)")
    assert ast == Twist(Sum(LineBundle(1), LineBundle(0)), 2)


def test_binary_operators_are_left_associative():
    assert parse("o(1) ++ o(2) ++ o(3)") == Sum(Sum(LineBundle(1), LineBundle(2)), LineBundle(3))
    assert parse("o(1) * o(2) * o(3)") == Tensor(
        Tensor(LineBundle(1), LineBundle(2)), LineBundle(3)
    )


def test_whitespace_is_insignificant():
    assert parse("  o( 1 )++ o(0)   ") == parse("o(1)++o(0)")


def test_catalog_references():
    assert parse("cat(4,30)") == CatRef(4, 30)
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


def test_overlong_integer_literals_are_rejected_with_their_column():
    with pytest.raises(ExpressionError, match=f"longer than {MAX_DIGITS} digits") as excinfo:
        parse(HUGE_LITERAL)
    assert excinfo.value.column == 3
    with pytest.raises(ExpressionError) as excinfo:
        parse("bundle(2, 1, -" + "1" * (MAX_DIGITS + 1) + ")")
    assert excinfo.value.column == 14


def test_integer_literals_at_the_digit_limit_parse():
    nines = "9" * MAX_DIGITS
    assert parse(f"o(-{nines})") == LineBundle(-int(nines))


def test_uses_catalog_finds_nested_references():
    assert uses_catalog(parse("o(1) ++ dual(cat(1,8))(2)"))
    assert uses_catalog(parse("bundle(2,0,3) * cat(4,30)"))
    assert not uses_catalog(parse("o(1) * dual(bundle(2,0,3))(-1) ++ o(2)"))


def test_unknown_name():
    # "twist" names the postfix twist in arity messages but is not a name.
    for name in ("spam", "twist"):
        with pytest.raises(ExpressionError) as excinfo:
            parse(f"{name}(1)")
        assert str(excinfo.value) == f"unknown name {name!r} (column 1)"


def test_evaluate_literals_and_operations():
    assert evaluate(parse("o(2)"), X5) == BundleDescriptor(1, 2, 0, 0, b=2, acm=True)
    assert evaluate(parse("cat(1,8)"), X5) == BundleDescriptor(2, 1, 8, 0, b=0, acm=True)
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


def _bundle_lits():
    rank1 = st.builds(lambda c1: BundleLit(1, c1, 0, 0), st.integers(-9, 9))
    rank2 = st.builds(
        lambda c1, c2: BundleLit(2, c1, c2, 0), st.integers(-9, 9), st.integers(-30, 30)
    )
    rank3 = st.builds(
        BundleLit,
        st.integers(3, 4),
        st.integers(-9, 9),
        st.integers(-30, 30),
        st.integers(-30, 30),
    )
    return st.one_of(rank1, rank2, rank3)


_atoms = st.one_of(
    st.builds(LineBundle, st.integers(-9, 9)),
    _bundle_lits(),
    st.sampled_from([CatRef(4, 30), CatRef(1, 8), CatRef(0, 3)]),
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
