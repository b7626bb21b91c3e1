"""A small expression language for bundle arithmetic.

Grammar (blanks between tokens are space, tab, CR and LF only; integers are
ASCII digits and may be negative):

    expr  := sum
    sum   := prod { "++" prod }            direct sum, left associative
    prod  := unary { "*" unary }           tensor product, left associative
    unary := atom { "(" int ")" }          postfix twist
    atom  := "bundle(" int "," int "," int ["," int] ")"
           | "o(" int ")"                  line bundle O(n)
           | "dual(" expr ")"
           | "cat(" int "," int ")"        catalog reference
           | "(" expr ")"

o, cat, bundle and the postfix twist read their integers through one reader.
Each leaf is the value it names, so a tree holds only values and the four
operations Dual, Twist, Tensor and Sum.  bundle(...) parses to its
``BundleDescriptor``, checked once, when built (rank 2 needs c3 = 0); o(n)
parses to ``BundleDescriptor(1, n)``, printed as o(n) also when written
bundle(1,n,0).  cat(c1,c2) parses to its ``CatalogEntry``, so the pair is
checked when parsed; a tree built by hand names one by ``lookup(c1, c2)``.
A catalog bundle lives on the quintic: ``evaluate`` checks the degree at each
catalog leaf, the one place that rule is stated.
Neither the parsed tree nor the nesting of parentheses may be deeper than
MAX_DEPTH, so that printing and evaluating a tree stay within the
interpreter's recursion limit, and an integer literal may have at most
MAX_DIGITS digits.  The operation nodes are immutable value classes, not
dataclasses.

The whole text is tokenized, in one scan of one pattern, before any syntax
error is raised.  The parser is a set of functions over the token list that
pass the token index along and keep no positions.  Errors carry a 1-based
column, which only ``parse`` computes, for an error, by scanning the text
again.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Union

from .bundles import BundleDescriptor, dual as dual_bundle, direct_sum, tensor, twist
from .catalog import CatalogEntry, lookup
from .chowring import Hypersurface, _Record, require_quintic

__all__ = [
    "Expression",
    "Dual",
    "Twist",
    "Tensor",
    "Sum",
    "ExpressionError",
    "MAX_DEPTH",
    "MAX_DIGITS",
    "parse",
    "to_text",
    "evaluate",
]

MAX_DEPTH = 64
# Below 640, the lowest int/str conversion limit the interpreter accepts.
MAX_DIGITS = 100


class ExpressionError(ValueError):
    """Parse or validation failure, with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class Dual(_Record):
    inner: "Expression"


class Twist(_Record):
    inner: "Expression"
    n: int


class Tensor(_Record):
    left: "Expression"
    right: "Expression"


class Sum(_Record):
    left: "Expression"
    right: "Expression"


Expression = Union[BundleDescriptor, CatalogEntry, Dual, Twist, Tensor, Sum]


# One alternation, the most frequent tokens first.  A token is group 1; a
# character that starts no token matches the catch-all and leaves group 1
# empty.  Only space, tab, CR and LF match neither, so a scan steps over them.
_TOKEN_RE = re.compile(r"([(),]|[0-9]+|[A-Za-z_]+|-[0-9]+|\+\+|\*)|[^ \t\r\n]")

Parsed = tuple[Expression, int, int]  # a tree, its height and the index of the token after it
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def _catalog_leaf(c1: int, c2: int) -> CatalogEntry:
    entry = lookup(c1, c2)
    if entry is None:
        raise ValueError(f"unknown catalog pair ({c1},{c2})")
    return entry


# Leaf name -> (the value it builds, (fewest, most) integers and how to name them, its error prefix).
_LEAVES = {
    "o": (partial(BundleDescriptor, 1), (1, 1, "n"), ""),
    "cat": (_catalog_leaf, (2, 2, "c1 and c2"), ""),
    "bundle": (BundleDescriptor, (3, 4, "rank, c1, c2 and optional c3"), "invalid bundle literal: "),
}


class _ParseError(Exception):
    """A message and the index of the token it is about; ``parse`` turns it into an ExpressionError."""


def _expected(what: str, tokens: list[str], i: int) -> _ParseError:
    return _ParseError(f"expected {what}, found {tokens[i] or 'end of input'!r}", i)


# Recursive descent over the token texts.  Each function reads from token i,
# with ``groups`` parentheses open around it, and returns what it parsed and
# the index after it.  The token after the last is "", the end of input.
def _sum(tokens: list[str], i: int, groups: int) -> Parsed:
    node, height, i = _prod(tokens, i, groups)
    while tokens[i] == "++":
        at = i
        right, right_height, i = _prod(tokens, i + 1, groups)
        node, height = Sum(node, right), 1 + max(height, right_height)
        if height > MAX_DEPTH:
            raise _ParseError(_TOO_DEEP, at)
    return node, height, i


def _prod(tokens: list[str], i: int, groups: int) -> Parsed:
    node, height, i = _unary(tokens, i, groups)
    while tokens[i] == "*":
        at = i
        right, right_height, i = _unary(tokens, i + 1, groups)
        node, height = Tensor(node, right), 1 + max(height, right_height)
        if height > MAX_DEPTH:
            raise _ParseError(_TOO_DEEP, at)
    return node, height, i


def _unary(tokens: list[str], i: int, groups: int) -> Parsed:
    at = i
    name = tokens[i]
    leaf = _LEAVES.get(name)
    if leaf is not None:
        build, arity, prefix = leaf
        values, i = _arguments(tokens, i + 1, name, arity, at)
        try:
            node, height = build(*values), 1
        except ValueError as exc:
            raise _ParseError(f"{prefix}{exc}", at) from exc
    elif name == "(" or name == "dual":
        # "(" expr ")" or "dual(" expr ")".  Bounds the parser's own
        # recursion, which the tree height cannot: it is only known once the
        # group is parsed.
        i += name == "dual"  # from "dual" to its "("
        if tokens[i] != "(":
            raise _expected("'('", tokens, i)
        if groups == MAX_DEPTH:
            raise _ParseError(_TOO_DEEP, at)
        node, height, i = _sum(tokens, i + 1, groups + 1)
        if tokens[i] != ")":
            raise _expected("')'", tokens, i)
        i += 1
        if name == "dual":
            node, height = Dual(node), height + 1
            if height > MAX_DEPTH:
                raise _ParseError(_TOO_DEEP, at)
    elif name.isidentifier():
        raise _ParseError(f"unknown name {name!r}", at)
    else:
        raise _expected("an expression", tokens, i)
    while tokens[i] == "(":
        at = i
        (n,), i = _arguments(tokens, i, "twist", (1, 1, "n"), at)
        node, height = Twist(node, n), height + 1
        if height > MAX_DEPTH:
            raise _ParseError(_TOO_DEEP, at)
    return node, height, i


def _arguments(tokens: list[str], i: int, name: str, arity: tuple[int, int, str], at: int) -> tuple[list[int], int]:
    """The integers of "(" int {"," int} ")" from token i, and the index after; arity errors go to token ``at``."""
    fewest, most, takes = arity
    if tokens[i] != "(":
        raise _expected("'('", tokens, i)
    values = []
    while True:
        i += 1
        token = tokens[i]
        if not token[-1:].isdigit():  # only an integer ends in a digit
            raise _expected("'int'", tokens, i)
        if len(token) > MAX_DIGITS and len(token.lstrip("-")) > MAX_DIGITS:
            raise _ParseError(f"integer literal longer than {MAX_DIGITS} digits", i)
        values.append(int(token))
        i += 1
        if tokens[i] != ",":
            break
    if tokens[i] != ")":
        raise _expected("')'", tokens, i)
    if not fewest <= len(values) <= most:
        raise _ParseError(f"{name}() takes {takes}; got {len(values)} values", at)
    return values, i + 1


def _column(text: str, index: int) -> int:
    """The 1-based column of token ``index`` of ``text``, or the column after the text."""
    starts = [match.start() for match in _TOKEN_RE.finditer(text)]
    return starts[index] + 1 if index < len(starts) else len(text) + 1


def parse(text: str) -> Expression:
    """Parse an expression; raises ExpressionError with a column on failure."""
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:  # a character that starts no token
        column = _column(text, tokens.index(""))
        raise ExpressionError(f"unexpected character {text[column - 1]!r}", column)
    tokens.append("")
    try:
        expr, _, i = _sum(tokens, 0, 0)
        if tokens[i]:
            raise _ParseError(f"unexpected trailing {tokens[i]!r}", i)
    except _ParseError as exc:
        message, index = exc.args
        # A leaf's own error stays the cause; nothing shows the internal exception.
        raise ExpressionError(message, _column(text, index)) from exc.__cause__
    return expr


def to_text(expr: Expression) -> str:
    """Canonical printer; parse(to_text(e)) == e for every expression e whose catalog leaves come from lookup."""
    kind = type(expr)  # the node classes are a closed set: a record's subclass is not a node
    if kind is BundleDescriptor:
        if expr.rank == 1:  # c2 = c3 = 0, so o(c1) is its one text
            return f"o({expr.c1})"
        if expr.c3:
            return f"bundle({expr.rank},{expr.c1},{expr.c2},{expr.c3})"
        return f"bundle({expr.rank},{expr.c1},{expr.c2})"
    if kind is CatalogEntry:
        return f"cat({expr.c1},{expr.c2})"
    if kind is Dual:
        return f"dual({to_text(expr.inner)})"
    if kind is Twist:
        return f"{_operand(expr.inner, 3)}({expr.n})"
    if kind is Tensor:
        return f"{_operand(expr.left, 2)} * {_operand(expr.right, 3)}"
    if kind is Sum:
        return f"{_operand(expr.left, 1)} ++ {_operand(expr.right, 2)}"
    raise TypeError(f"not an expression: {expr!r}")


def _operand(expr: Expression, needs: int) -> str:
    # "++" binds 1, "*" binds 2, every other node 3: wrap what binds looser than its position needs.
    binds = 1 if type(expr) is Sum else 2 if type(expr) is Tensor else 3
    text = to_text(expr)
    return f"({text})" if binds < needs else text


def evaluate(expr: Expression, X: Hypersurface) -> BundleDescriptor:
    """Evaluate an expression to a bundle descriptor on X; a cat() leaf needs X to be the quintic."""
    kind = type(expr)
    if kind is BundleDescriptor:
        return expr  # a literal is its descriptor, checked when it was built
    if kind is CatalogEntry:
        require_quintic(X, "cat()")
        return expr.descriptor()
    if kind is Dual:
        return dual_bundle(evaluate(expr.inner, X))
    if kind is Twist:
        return twist(evaluate(expr.inner, X), expr.n, X)
    if kind is Tensor:
        return tensor(evaluate(expr.left, X), evaluate(expr.right, X), X)
    if kind is Sum:
        return direct_sum(evaluate(expr.left, X), evaluate(expr.right, X), X)
    raise TypeError(f"not an expression: {expr!r}")
