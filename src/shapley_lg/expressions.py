"""Minimal arithmetic expression language for model files.

Supports numbers, named inputs and constants, ``+ - * /``, powers (``^`` or
``**``), unary minus, parentheses and the functions ``sin``, ``cos`` and
``exp``. An expression compiles to its top-level terms: it is split at
``+`` and ``-`` outside parentheses, a unary minus stays with its term,
and each term names what it reads. Folded in order, the terms evaluate
the whole expression over numpy arrays, one column per input, so a batch
of points is one call. Nothing is ever executed as Python code.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ExpressionParseError

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])"
    r"|(?P<ws>\s+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str          # "num" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    lines = text.split("\n")           # any other line break is whitespace
    for line_no, line in enumerate(lines, start=1):
        pos = 0
        while pos < len(line):
            match = _TOKEN_RE.match(line, pos)
            if match is None:
                raise ExpressionParseError(
                    f"unexpected character {line[pos]!r}", line_no, pos + 1
                )
            kind = match.lastgroup
            if kind != "ws":
                tokens.append(_Token(kind, match.group(), line_no, pos + 1))
            pos = match.end()
    tokens.append(_Token("end", "", len(lines), len(lines[-1]) + 1))
    return tokens


@dataclass(frozen=True)
class Term:
    """One top-level term: ``op`` is how the expression adds it to the
    terms before it (``operator.add`` for the first), ``fn(env)`` its
    value and ``reads`` the names it reads, through definitions too."""

    op: Callable
    fn: Callable
    reads: frozenset[str]


def _fold(first: Callable, rest: list) -> Callable:
    """One closure applying each ``(op, operand)`` of ``rest`` in turn, left
    to right, so a long chain does not nest one closure per operator."""
    if not rest:
        return first

    def fn(env):
        value = first(env)
        for op, operand in rest:
            value = op(value, operand(env))
        return value
    return fn


class _Parser:
    """Recursive descent over the token stream; builds evaluator closures."""

    def __init__(self, tokens: list[_Token],
                 names: Mapping[str, Iterable[str]]):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.read = []             # every name read so far, in order

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExpressionParseError(
                f"expected {text!r}, found {tok.text!r}" if tok.kind != "end"
                else f"expected {text!r}, found end of input",
                tok.line, tok.column,
            )
        self.advance()

    def parse(self) -> list[Term]:
        terms = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionParseError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.column
            )
        return terms

    def expression(self) -> list[Term]:
        terms, op = [], operator.add
        while True:
            start = len(self.read)
            terms.append(Term(op, self.term(),
                              frozenset(self.read[start:])))
            if not (self.peek().kind == "op" and self.peek().text in "+-"):
                return terms
            op = _BINARY[self.advance().text]

    def term(self) -> Callable:
        first, rest = self.factor(), []
        while self.peek().kind == "op" and self.peek().text in "*/":
            rest.append((_BINARY[self.advance().text], self.factor()))
        return _fold(first, rest)

    def factor(self) -> Callable:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.factor()
            return lambda env, a=inner: -a(env)
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("^", "**"):
            self.advance()
            exponent = self.factor()
            return lambda env, a=base, b=exponent: a(env) ** b(env)
        return base

    def atom(self) -> Callable:
        tok = self.advance()
        if tok.kind == "num":
            # numpy's rules: 10^400 is inf and (-8)^(1/3) NaN, not an error
            value = np.float64(tok.text)
            return lambda env, v=value: v
        if tok.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                func = FUNCTIONS.get(tok.text)
                if func is None:
                    raise ExpressionParseError(
                        f"unknown function {tok.text!r} (have: "
                        f"{', '.join(sorted(FUNCTIONS))})",
                        tok.line, tok.column,
                    )
                self.advance()
                arg = fold(self.expression())
                self.expect_op(")")
                return lambda env, f=func, a=arg: f(a(env))
            if tok.text not in self.names:
                raise ExpressionParseError(
                    f"unknown name {tok.text!r}", tok.line, tok.column
                )
            self.read.extend(self.names[tok.text])
            return lambda env, n=tok.text: env[n]
        if tok.kind == "op" and tok.text == "(":
            inner = fold(self.expression())
            self.expect_op(")")
            return inner
        where = f"{tok.text!r}" if tok.kind != "end" else "end of input"
        raise ExpressionParseError(f"expected a value, found {where}",
                                   tok.line, tok.column)


def fold(terms: Sequence[Term]) -> Callable:
    """``fn(env)`` summing ``terms`` in order, each by its ``op``, as the
    expression they come from does. A first term that is subtracted is
    negated; no terms sum to 0."""
    if not terms:
        return lambda env: np.float64(0.0)
    first = terms[0].fn
    if terms[0].op is operator.sub:
        first = lambda env, a=first: -a(env)
    return _fold(first, [(t.op, t.fn) for t in terms[1:]])


def compile_terms(text: str,
                  names: Mapping[str, Iterable[str]]) -> list[Term]:
    """Compile one expression into its top-level terms.

    ``names`` maps each identifier the expression may reference to the
    names a read of it stands for: itself, and for a definition every name
    its body reads, so a term's ``reads`` follow definitions transitively.
    ``env`` must map each referenced name to a float or numpy array. Parse and
    name-resolution failures raise :class:`ExpressionParseError` with a
    1-based line and column.
    """
    parser = _Parser(_tokenize(text), names)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.peek()
        raise ExpressionParseError("expression nests too deeply", tok.line,
                                   tok.column) from None
