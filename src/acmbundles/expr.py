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

o, cat, bundle and the postfix twist read their integers through one reader
checked against one arity table.  A ``BundleLit`` checks the descriptor's rule
when built (rank 2 needs c3 = 0), and a ``CatRef`` that it names a catalog pair.
Neither the parsed tree nor the nesting of parentheses may be deeper than
MAX_DEPTH, so that printing and evaluating a tree stay within the
interpreter's recursion limit, and an integer literal may have at most
MAX_DIGITS digits.  The tree nodes are immutable value classes, not
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
from .catalog import lookup
from .chowring import Hypersurface, _Record

__all__ = [
    "Expression",
    "BundleLit",
    "LineBundle",
    "CatRef",
    "Dual",
    "Twist",
    "Tensor",
    "Sum",
    "ExpressionError",
    "MAX_DEPTH",
    "MAX_DIGITS",
    "parse",
    "to_text",
    "uses_catalog",
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


class BundleLit(_Record):
    rank: int
    c1: int
    c2: int
    c3: int = 0
    b = None  # not a field: a literal has no normalization level
    _validate = BundleDescriptor._validate  # the descriptor's rule, once per literal


class LineBundle(_Record):
    n: int


class CatRef(_Record):
    c1: int
    c2: int

    def _validate(self) -> None:
        if lookup(self.c1, self.c2) is None:
            raise ValueError(f"unknown catalog pair ({self.c1},{self.c2})")


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


Expression = Union[BundleLit, LineBundle, CatRef, Dual, Twist, Tensor, Sum]


# One alternation, the most frequent tokens first.  A token is group 1; a
# character that starts no token matches the catch-all and leaves group 1
# empty.  Only space, tab, CR and LF match neither, so a scan steps over them.
_TOKEN_RE = re.compile(r"([(),]|[0-9]+|[A-Za-z_]+|-[0-9]+|\+\+|\*)|[^ \t\r\n]")

Parsed = tuple[Expression, int]  # a tree and its height

# Constructor name -> (fewest, most) integer arguments and how to name them.
_ARITY = {
    "o": (1, 1, "n"),
    "cat": (2, 2, "c1 and c2"),
    "bundle": (3, 4, "rank, c1, c2 and optional c3"),
    "twist": (1, 1, "n"),  # the postfix twist e(n), not a name the grammar accepts
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
            (n,) = self.arguments("twist", at)
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
        if name not in _ARITY or name == "twist":
            raise self.error(f"unknown name {name!r}", at)
        values = self.arguments(name, at)
        if name == "o":
            return LineBundle(*values), 1
        build, prefix = (CatRef, "") if name == "cat" else (BundleLit, "invalid bundle literal: ")
        try:
            return build(*values), 1
        except ValueError as exc:
            raise self.error(f"{prefix}{exc}", at) from exc

    def arguments(self, name: str, at: int) -> list[int]:
        """The list "(" int {"," int} ")" after ``name``; an arity error is reported at ``at``."""
        fewest, most, takes = _ARITY[name]
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
    """Canonical printer; parse(to_text(e)) == e for every expression e."""
    if isinstance(expr, BundleLit):
        if expr.c3:
            return f"bundle({expr.rank},{expr.c1},{expr.c2},{expr.c3})"
        return f"bundle({expr.rank},{expr.c1},{expr.c2})"
    if isinstance(expr, LineBundle):
        return f"o({expr.n})"
    if isinstance(expr, CatRef):
        return f"cat({expr.c1},{expr.c2})"
    if isinstance(expr, Dual):
        return f"dual({to_text(expr.inner)})"
    if isinstance(expr, Twist):
        return f"{_operand(expr.inner, 3)}({expr.n})"
    if isinstance(expr, Tensor):
        return f"{_operand(expr.left, 2)} * {_operand(expr.right, 3)}"
    if isinstance(expr, Sum):
        return f"{_operand(expr.left, 1)} ++ {_operand(expr.right, 2)}"
    raise TypeError(f"not an expression: {expr!r}")


def _operand(expr: Expression, needs: int) -> str:
    # "++" binds 1, "*" binds 2, every other node 3: wrap what binds looser than its position needs.
    binds = 1 if isinstance(expr, Sum) else 2 if isinstance(expr, Tensor) else 3
    text = to_text(expr)
    return f"({text})" if binds < needs else text


def uses_catalog(expr: Expression) -> bool:
    """Whether the expression names a catalog bundle, which lives on the quintic."""
    if isinstance(expr, (Dual, Twist)):
        return uses_catalog(expr.inner)
    if isinstance(expr, (Tensor, Sum)):
        return uses_catalog(expr.left) or uses_catalog(expr.right)
    return isinstance(expr, CatRef)


def evaluate(expr: Expression, X: Hypersurface) -> BundleDescriptor:
    """Evaluate an expression to a bundle descriptor on X."""
    if isinstance(expr, BundleLit):
        return BundleDescriptor(expr.rank, expr.c1, expr.c2, expr.c3)
    if isinstance(expr, LineBundle):
        return BundleDescriptor(1, expr.n, 0, 0, b=expr.n, acm=True)
    if isinstance(expr, CatRef):
        return lookup(expr.c1, expr.c2).descriptor()  # CatRef checked the pair when built
    if isinstance(expr, Dual):
        return dual_bundle(evaluate(expr.inner, X))
    if isinstance(expr, Twist):
        return twist(evaluate(expr.inner, X), expr.n, X)
    if isinstance(expr, Tensor):
        return tensor(evaluate(expr.left, X), evaluate(expr.right, X), X)
    if isinstance(expr, Sum):
        return direct_sum(evaluate(expr.left, X), evaluate(expr.right, X), X)
    raise TypeError(f"not an expression: {expr!r}")
