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
error is raised.  The parser reads the token texts by position and keeps no
positions: errors carry a 1-based column, which the error path finds by
scanning the text again.
"""

from __future__ import annotations

import re
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

Parsed = tuple[Expression, int]  # a tree and its height


def _catalog_leaf(c1: int, c2: int) -> CatalogEntry:
    entry = lookup(c1, c2)
    if entry is None:
        raise ValueError(f"unknown catalog pair ({c1},{c2})")
    return entry


# Leaf name -> (the value it builds, (fewest, most) integers and how to name them, its error prefix).
_LEAVES = {
    "o": (lambda n: BundleDescriptor(1, n), (1, 1, "n"), ""),
    "cat": (_catalog_leaf, (2, 2, "c1 and c2"), ""),
    "bundle": (BundleDescriptor, (3, 4, "rank, c1, c2 and optional c3"), "invalid bundle literal: "),
}


class _Parser:
    """Recursive descent over the token texts; ``pos`` indexes the next one.

    The token after the last is "", the end of input.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        if "" in self.tokens:  # a character that starts no token
            column = self.column(self.tokens.index(""))
            raise ExpressionError(f"unexpected character {text[column - 1]!r}", column)
        self.tokens.append("")
        self.pos = 0
        self.open_groups = 0

    def column(self, index: int) -> int:
        starts = [match.start() for match in _TOKEN_RE.finditer(self.text)]
        return starts[index] + 1 if index < len(starts) else len(self.text) + 1

    def error(self, message: str, index: int) -> ExpressionError:
        return ExpressionError(message, self.column(index))

    def expected(self, what: str) -> ExpressionError:
        found = self.tokens[self.pos] or "end of input"
        return self.error(f"expected {what}, found {found!r}", self.pos)

    def expect(self, token: str) -> None:
        if self.tokens[self.pos] != token:
            raise self.expected(repr(token))
        self.pos += 1

    def parse(self) -> Expression:
        expr, _ = self.sum()
        if self.tokens[self.pos]:
            raise self.error(f"unexpected trailing {self.tokens[self.pos]!r}", self.pos)
        return expr

    def bounded(self, depth: int, index: int) -> int:
        if depth > MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", index)
        return depth

    def chain(self, operator: str, operand, build) -> Parsed:
        # A left-associative chain of binary operators, e.g. "a ++ b ++ c".
        node, height = operand()
        while self.tokens[self.pos] == operator:
            at = self.pos
            self.pos += 1
            right, right_height = operand()
            node, height = build(node, right), self.bounded(1 + max(height, right_height), at)
        return node, height

    def sum(self) -> Parsed:
        return self.chain("++", self.prod, Sum)

    def prod(self) -> Parsed:
        return self.chain("*", self.unary, Tensor)

    def unary(self) -> Parsed:
        node, height = self.atom()
        while self.tokens[self.pos] == "(":
            at = self.pos
            (n,) = self.arguments("twist", (1, 1, "n"), at)
            node, height = Twist(node, n), self.bounded(height + 1, at)
        return node, height

    def group(self, at: int) -> Parsed:
        # "(" expr ")", opened by token ``at``.  Bounds the parser's own
        # recursion, which the tree height cannot: it is only known once the
        # group is parsed.
        self.expect("(")
        self.open_groups = self.bounded(self.open_groups + 1, at)
        parsed = self.sum()
        self.expect(")")
        self.open_groups -= 1
        return parsed

    def atom(self) -> Parsed:
        at = self.pos
        name = self.tokens[at]
        if name == "(":
            return self.group(at)
        if not name.isidentifier():
            raise self.expected("an expression")
        self.pos += 1
        if name == "dual":
            inner, height = self.group(at)
            return Dual(inner), self.bounded(height + 1, at)
        if name not in _LEAVES:
            raise self.error(f"unknown name {name!r}", at)
        build, arity, prefix = _LEAVES[name]
        values = self.arguments(name, arity, at)
        try:
            return build(*values), 1
        except ValueError as exc:
            raise self.error(f"{prefix}{exc}", at) from exc

    def arguments(self, name: str, arity: tuple[int, int, str], at: int) -> list[int]:
        """The list "(" int {"," int} ")" after ``name``; an arity error is reported at ``at``."""
        fewest, most, takes = arity
        tokens = self.tokens
        self.expect("(")
        values = []
        while True:
            token = tokens[self.pos]
            if not token[-1:].isdigit():  # only an integer ends in a digit
                raise self.expected("'int'")
            if len(token.lstrip("-")) > MAX_DIGITS:
                raise self.error(f"integer literal longer than {MAX_DIGITS} digits", self.pos)
            values.append(int(token))
            self.pos += 1
            if tokens[self.pos] != ",":
                break
            self.pos += 1
        self.expect(")")
        if not fewest <= len(values) <= most:
            raise self.error(f"{name}() takes {takes}; got {len(values)} values", at)
        return values


def parse(text: str) -> Expression:
    """Parse an expression; raises ExpressionError with a column on failure."""
    return _Parser(text).parse()


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
