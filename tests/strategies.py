"""Shared hypothesis strategies."""

from fractions import Fraction

from hypothesis import strategies as st

from acmbundles import BundleDescriptor, ChowClass, Hypersurface


def rationals(max_num: int = 20, max_den: int = 6):
    return st.builds(
        Fraction, st.integers(-max_num, max_num), st.integers(1, max_den)
    )


def chow_classes():
    return st.builds(ChowClass, rationals(), rationals(), rationals(), rationals())


def hypersurfaces(max_degree: int = 6):
    return st.builds(Hypersurface, st.integers(1, max_degree))


@st.composite
def descriptors(draw, max_rank: int = 4, max_c1: int = 10, max_c: int = 100):
    rank = draw(st.integers(1, max_rank))
    c1 = draw(st.integers(-max_c1, max_c1))
    c2 = draw(st.integers(-max_c, max_c)) if rank >= 2 else 0
    c3 = draw(st.integers(-max_c, max_c)) if rank >= 3 else 0
    return BundleDescriptor(rank, c1, c2, c3)


# Expressions too deep to print or evaluate recursively: each must be
# rejected by the parser rather than raise RecursionError.
DEEP_EXPRESSIONS = {
    "nested_duals": "dual(" * 2000 + "o(1)" + ")" * 2000,
    "nested_groups": "(" * 2000 + "o(1)" + ")" * 2000,
    "sum_chain": " ++ ".join(["o(1)"] * 1500),
    "twist_chain": "o(1)" + "(1)" * 1500,
    "tensor_chain": " * ".join(["o(1)"] * 1500),
    "dual_over_chain": "dual(" + " * ".join(["o(1)"] * 64) + ")",
}

# An integer literal past the interpreter's default 4,300-digit limit on
# int/str conversion: the parser must reject it before calling int().
HUGE_LITERAL = "o(" + "9" * 5000 + ")"

# The tokens of random expression texts: every constructor head (and the
# postfix twist's name, which the grammar does not accept), every operator
# and near-miss operator, the ASCII digits, two blanks, a letter that names
# nothing and a non-ASCII letter.
TEXT_ALPHABET = (
    "o(", "cat(", "bundle(", "dual(", "twist(", "(", ")", ",", "*", "++", "+", "-",
    *"0123456789", " ", "\t", "x", "é",
)


def expression_texts():
    return st.lists(st.sampled_from(TEXT_ALPHABET), max_size=16).map("".join)
