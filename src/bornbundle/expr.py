"""Scalar expression mini-language: parser and jet evaluator.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' number)? | '-' factor
    atom   := number | name | name '(' expr ')' | '(' expr ')'

'^' accepts only a numeric literal exponent and binds tighter than unary
minus, so ``-u^2`` reads as ``-(u^2)``.  Function names (sin, cos, exp,
log, sqrt, tanh) are reserved; any other name must be a declared
coordinate.  Numbers are decimal with an optional exponent part.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from . import jets
from .jets import JetBatch, JetDomainError


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Domain violation during evaluation, tagged with the node offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var:
    index: int
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"
    offset: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ExprAst"
    right: "ExprAst"
    offset: int = 0


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: float
    offset: int = 0


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"
    offset: int = 0


ExprAst = Union[Const, Var, Neg, BinOp, Pow, Call]

FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "tanh": jets.tanh,
}

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("number", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.text = text
        self.coords = list(coords)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", offset)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term(), offset)
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor(), offset)
            else:
                return node

    def factor(self) -> ExprAst:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor(), offset)
        node = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, off2 = self.peek()
            if kind == "name":
                raise ParseError("variable exponent is not allowed", off2)
            if kind != "number":
                raise ParseError("exponent must be a numeric literal", off2)
            self.advance()
            node = Pow(node, float(text), offset)
        return node

    def atom(self) -> ExprAst:
        kind, text, offset = self.advance()
        if kind == "number":
            return Const(float(text), offset)
        if kind == "name":
            if text in FUNCTIONS:
                k2, t2, o2 = self.peek()
                if k2 != "op" or t2 != "(":
                    raise ParseError(f"function {text!r} needs one parenthesized argument", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg, offset)
            if text in self.coords:
                return Var(self.coords.index(text), text, offset)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


def parse(text: str, coords: Sequence[str]) -> ExprAst:
    """Parse ``text`` against the declared coordinate names."""
    if not coords:
        raise ValueError("coordinate list must be non-empty")
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    for name in coords:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid coordinate name {name!r}")
        if name in FUNCTIONS:
            raise ValueError(f"coordinate name {name!r} shadows a function")
    return _Parser(text, coords).parse()


def evaluate(ast: ExprAst, args: Sequence[JetBatch]) -> JetBatch:
    """Evaluate on jet-valued coordinates; derivative-correct through the
    order of the arguments.  Constants are made by the arguments' type, so
    any jet type with the JetBatch operators and ``constant`` works."""
    if not args:
        raise jets.JetUsageError("evaluate needs at least one argument jet")
    order, nvars = args[0].order, args[0].nvars
    for a in args:
        if a.order != order or a.nvars != nvars:
            raise jets.JetUsageError("argument jets must share order and arity")
    return _eval(ast, args, order, nvars)


def _eval(node: ExprAst, args, order, nvars) -> JetBatch:
    if isinstance(node, Const):
        return type(args[0]).constant(node.value, order, nvars)
    if isinstance(node, Var):
        if node.index >= len(args):
            raise jets.JetUsageError(
                f"coordinate {node.name!r} has index {node.index} but only "
                f"{len(args)} arguments were supplied")
        return args[node.index]
    if isinstance(node, Neg):
        return -_eval(node.child, args, order, nvars)
    # a child's domain error is already an EvalDomainError at its own offset
    try:
        if isinstance(node, BinOp):
            left = _eval(node.left, args, order, nvars)
            right = _eval(node.right, args, order, nvars)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return left / right
        if isinstance(node, Pow):
            return jets.pow_const(_eval(node.base, args, order, nvars), node.exponent)
        if isinstance(node, Call):
            return FUNCTIONS[node.func](_eval(node.arg, args, order, nvars))
    except JetDomainError as e:
        raise EvalDomainError(str(e), node.offset) from e
    raise TypeError(f"not an expression node: {node!r}")


def free_coordinates(ast: ExprAst) -> set[int]:
    """Indices of the coordinates appearing in the tree."""
    out: set[int] = set()
    _collect(ast, out)
    return out


def _collect(node: ExprAst, out: set[int]) -> None:
    if isinstance(node, Var):
        out.add(node.index)
    elif isinstance(node, Neg):
        _collect(node.child, out)
    elif isinstance(node, BinOp):
        _collect(node.left, out)
        _collect(node.right, out)
    elif isinstance(node, Pow):
        _collect(node.base, out)
    elif isinstance(node, Call):
        _collect(node.arg, out)
