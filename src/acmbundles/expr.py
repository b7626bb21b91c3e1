"""A small expression language for bundle arithmetic.

Grammar (whitespace insensitive, integers may be negative):

    expr  := sum
    sum   := prod { "++" prod }            direct sum, left associative
    prod  := unary { "*" unary }           tensor product, left associative
    unary := atom { "(" int ")" }          postfix twist
    atom  := "bundle(" int "," int "," int ["," int] ")"
           | "o(" int ")"                  line bundle O(n)
           | "dual(" expr ")"
           | "cat(" int "," int ")"        catalog reference
           | "(" expr ")"

Bundle literals are validated while parsing (a rank-2 literal with c3 != 0 is
rejected, and cat() must name a catalog pair).  Neither the parsed tree nor
the nesting of parentheses may be deeper than MAX_DEPTH, so that printing and
evaluating a tree stay within the interpreter's recursion limit, and an integer
literal may have at most MAX_DIGITS digits.  Errors carry a 1-based column.
The tree nodes are immutable value classes, not dataclasses.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

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


class LineBundle(_Record):
    n: int


class CatRef(_Record):
    c1: int
    c2: int


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


class Token(NamedTuple):
    kind: str  # "name" | "int" | "++" | "(" | ")" | "," | "*" | "end"
    text: str
    column: int


_TOKEN_RE = re.compile(
    r"""(?P<space>\s+)
      | (?P<name>[A-Za-z_]+)
      | (?P<int>-?\d+)
      | (?P<pp>\+\+)
      | (?P<sym>[(),*])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos + 1)
        if match.lastgroup == "name":
            tokens.append(Token("name", match.group(), pos + 1))
        elif match.lastgroup == "int":
            tokens.append(Token("int", match.group(), pos + 1))
        elif match.lastgroup == "pp":
            tokens.append(Token("++", "++", pos + 1))
        elif match.lastgroup == "sym":
            tokens.append(Token(match.group(), match.group(), pos + 1))
        pos = match.end()
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


Parsed = tuple[Expression, int]  # a tree and its height


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open_groups = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            shown = token.text or "end of input"
            raise ExpressionError(f"expected {kind!r}, found {shown!r}", token.column)
        return self.advance()

    def int_value(self) -> int:
        token = self.expect("int")
        if len(token.text.lstrip("-")) > MAX_DIGITS:
            raise ExpressionError(f"integer literal longer than {MAX_DIGITS} digits", token.column)
        return int(token.text)

    def parse(self) -> Expression:
        expr, _ = self.sum()
        tail = self.peek()
        if tail.kind != "end":
            raise ExpressionError(f"unexpected trailing {tail.text!r}", tail.column)
        return expr

    def bounded(self, depth: int, token: Token) -> int:
        if depth > MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise ExpressionError(message, token.column)
        return depth

    def chain(self, operator: str, operand, build) -> Parsed:
        # A left-associative chain of binary operators, e.g. "a ++ b ++ c".
        node, height = operand()
        while self.peek().kind == operator:
            token = self.advance()
            right, right_height = operand()
            node, height = build(node, right), self.bounded(1 + max(height, right_height), token)
        return node, height

    def sum(self) -> Parsed:
        return self.chain("++", self.prod, Sum)

    def prod(self) -> Parsed:
        return self.chain("*", self.unary, Tensor)

    def unary(self) -> Parsed:
        node, height = self.atom()
        while self.peek().kind == "(":
            token = self.advance()
            n = self.int_value()
            self.expect(")")
            node, height = Twist(node, n), self.bounded(height + 1, token)
        return node, height

    def group(self, token: Token) -> Parsed:
        # Bounds the parser's own recursion, which the tree height cannot:
        # it is only known once the group has been parsed.
        self.open_groups = self.bounded(self.open_groups + 1, token)
        parsed = self.sum()
        self.expect(")")
        self.open_groups -= 1
        return parsed

    def atom(self) -> Parsed:
        token = self.peek()
        if token.kind == "(":
            self.advance()
            return self.group(token)
        if token.kind == "name":
            self.advance()
            if token.text == "bundle":
                return self.bundle_literal(token.column), 1
            if token.text == "o":
                self.expect("(")
                n = self.int_value()
                self.expect(")")
                return LineBundle(n), 1
            if token.text == "dual":
                self.expect("(")
                inner, height = self.group(token)
                return Dual(inner), self.bounded(height + 1, token)
            if token.text == "cat":
                self.expect("(")
                c1 = self.int_value()
                self.expect(",")
                c2 = self.int_value()
                self.expect(")")
                if lookup(c1, c2) is None:
                    raise ExpressionError(
                        f"unknown catalog pair ({c1},{c2})", token.column
                    )
                return CatRef(c1, c2), 1
            raise ExpressionError(f"unknown name {token.text!r}", token.column)
        shown = token.text or "end of input"
        raise ExpressionError(f"expected an expression, found {shown!r}", token.column)

    def bundle_literal(self, column: int) -> BundleLit:
        self.expect("(")
        values = [self.int_value()]
        while self.peek().kind == ",":
            self.advance()
            values.append(self.int_value())
        self.expect(")")
        if len(values) not in (3, 4):
            raise ExpressionError(
                f"bundle() takes rank, c1, c2 and optional c3; got {len(values)} values",
                column,
            )
        rank, c1, c2 = values[:3]
        c3 = values[3] if len(values) == 4 else 0
        try:
            BundleDescriptor(rank, c1, c2, c3)
        except ValueError as exc:
            raise ExpressionError(f"invalid bundle literal: {exc}", column) from exc
        return BundleLit(rank, c1, c2, c3)


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
        inner = to_text(expr.inner)
        if isinstance(expr.inner, (Sum, Tensor)):
            inner = f"({inner})"
        return f"{inner}({expr.n})"
    if isinstance(expr, Tensor):
        left = to_text(expr.left)
        if isinstance(expr.left, Sum):
            left = f"({left})"
        right = to_text(expr.right)
        if isinstance(expr.right, (Sum, Tensor)):
            right = f"({right})"
        return f"{left} * {right}"
    if isinstance(expr, Sum):
        right = to_text(expr.right)
        if isinstance(expr.right, Sum):
            right = f"({right})"
        return f"{to_text(expr.left)} ++ {right}"
    raise TypeError(f"not an expression: {expr!r}")


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
        entry = lookup(expr.c1, expr.c2)
        assert entry is not None  # checked at parse time
        return entry.descriptor()
    if isinstance(expr, Dual):
        return dual_bundle(evaluate(expr.inner, X))
    if isinstance(expr, Twist):
        return twist(evaluate(expr.inner, X), expr.n, X)
    if isinstance(expr, Tensor):
        return tensor(evaluate(expr.left, X), evaluate(expr.right, X), X)
    if isinstance(expr, Sum):
        return direct_sum(evaluate(expr.left, X), evaluate(expr.right, X), X)
    raise TypeError(f"not an expression: {expr!r}")
