"""Scalar expression mini-language: a compiler to value-numbered
instruction lists, and their jet evaluator.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' number)? | '-' factor
    atom   := number | name | name '(' expr ')' | '(' expr ')'

'^' accepts only a numeric literal exponent and binds tighter than unary
minus, so ``-u^2`` reads as ``-(u^2)``.  Function names (sin, cos, exp,
log, sqrt, tanh) are reserved; any other name must be a declared
coordinate.  Numbers are decimal with an optional exponent part.  One
regular expression splits a text into tokens, skipping what ``str.isspace``
calls whitespace; ``expr`` and ``term`` are one left-associative rule over
two operator sets.  A factor inside more than 100 parentheses, function
calls and unary minuses is a :class:`ParseError` at its offset, well before
the recursion would reach Python's limit.

:func:`parse` compiles one text, or a sequence of texts such as the
entries of a grid, into one :class:`Program` with an output per text; each
distinct text is parsed once.  The parser emits every node as an
instruction to a compiler that numbers values (Ershov 1958): an
instruction is keyed by its operation and its operands, a number by its
float bits, so that 0.0 and -0.0 stay apart, and a node that occurs again,
in the same text or another, reads the value of its first occurrence and
keeps that occurrence's offset; outputs whose texts are one value read
one slot.  The instructions lie in the order of
their first occurrence, each text's in post-order, so :func:`evaluate`
meets the first failing node where a walk of each text's tree in turn
would.  Every instruction sees the operands and operation of the tree's
node, so every coefficient keeps the bits of the tree walk.
"""
from __future__ import annotations

import operator
import re
from functools import partial
from typing import Sequence

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


FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "tanh": jets.tanh,
}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# one token after any whitespace (what str.isspace skips); a character that
# starts no token is "bad"
_TOKEN_RE = re.compile(r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       rf"|(?P<name>{_NAME_RE.pattern})|(?P<op>[-+*/^()])|(?P<bad>\S))")
_MAX_NESTING = 100  # parentheses, function calls and unary minuses around a factor


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _constant(value: float, like):
    """``value`` as a constant jet of the type, order and arity of ``like``."""
    return type(like).constant(value, like.order, like.nvars)


class Program:
    """Expression texts compiled against n coordinates.  Slots 0..n-1 hold
    the coordinate jets; each instruction ``(function, operand slots,
    offset)`` writes the next slot, a number's reading slot 0 for the type,
    order and arity of its constant.  Per output: its slot, whether the
    text is the bare number 0 (``zeros``), and the coordinates it reads
    (``free``, bit i for coordinate i).  Outputs that read one slot share
    its value: ``_reads`` numbers each output's value among the distinct
    ones, and ``_firsts`` gives the first output to read each.  ``len`` counts the outputs."""

    def __init__(self, arity: int, code, outputs, zeros, free):
        self._arity, self._code, self._outputs = arity, tuple(code), tuple(outputs)
        self.zeros, self.free = tuple(zeros), tuple(free)
        # the slots each instruction is the last to read, outputs aside: the
        # evaluation drops them there, so that its working set stays that of a
        # tree walk (holding every value made the order-3 evaluation of a
        # 47-instruction potential a third slower)
        last = {s: k for k, (_, operands, _) in enumerate(self._code) for s in operands}
        self._dead = [[] for _ in self._code]
        for s in sorted(last.keys() - set(self._outputs)):
            self._dead[last[s]].append(s)
        # per output, the index of the value it reads among the distinct
        # output values, and the first output to read each of them
        index: dict[int, int] = {}
        self._reads = [index.setdefault(s, len(index)) for s in self._outputs]
        self._firsts = [self._outputs.index(s) for s in index]

    def __len__(self) -> int:
        return len(self._outputs)


class _Compiler:
    """Recursive descent over expression texts against one list of
    coordinates.  Each rule emits its node as an instruction once per key,
    a repeated key reading the slot of its first occurrence, and returns
    the node's slot."""

    def __init__(self, coords: Sequence[str]):
        self.coords = list(coords)
        self.code: list = []
        self.slots: dict = {}
        self.free = [1 << i for i in range(len(self.coords))]  # coordinates read, as bits
        self.depth = 0  # the factors open around the current one

    def emit(self, key: tuple, fn, operands: tuple, offset: int) -> int:
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.free)
            self.code.append((fn, operands, offset))
            # every operation has one or two operands
            self.free.append(self.free[operands[0]] | self.free[operands[-1]])
        return slot

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

    def parse(self, text: str) -> int:
        if not self.slots:  # the names, checked before the first instruction
            if not self.coords:
                raise ValueError("coordinate list must be non-empty")
            if len(set(self.coords)) != len(self.coords):
                raise ValueError("coordinate names must be distinct")
            for name in self.coords:
                if not _NAME_RE.fullmatch(name):
                    raise ValueError(f"invalid coordinate name {name!r}")
                if name in FUNCTIONS:
                    raise ValueError(f"coordinate name {name!r} shadows a function")
        self.tokens, self.pos = _tokenize(text), 0
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", offset)
        return node

    def expr(self, ops: str = "+-") -> int:
        """A left-associative chain of binary operations: over '+' and '-'
        a sum of terms, over '*' and '/' a term, a product of factors."""
        operand = partial(self.expr, "*/") if ops == "+-" else self.factor
        node = operand()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in ops:
                return node
            self.advance()
            right = operand()
            node = self.emit((text, node, right), _BINARY[text], (node, right), offset)

    def factor(self) -> int:
        kind, text, offset = self.peek()
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nested more than {_MAX_NESTING} levels deep", offset)
        self.depth += 1
        if kind == "op" and text == "-":
            self.advance()
            child = self.factor()
            node = self.emit(("neg", child), operator.neg, (child,), offset)
        else:
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
                exponent = float(text)
                node = self.emit(("^", node, exponent.hex()),
                                 partial(jets.pow_const, c=exponent), (node,), offset)
        self.depth -= 1
        return node

    def atom(self) -> int:
        kind, text, offset = self.advance()
        if kind == "number":
            value = float(text)
            slot = self.emit(("number", value.hex()), partial(_constant, value), (0,), offset)
            self.free[slot] = 0
            return slot
        if kind == "name":
            if text in FUNCTIONS:
                k2, t2, o2 = self.peek()
                if k2 != "op" or t2 != "(":
                    raise ParseError(f"function {text!r} needs one parenthesized argument", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return self.emit((text, arg), FUNCTIONS[text], (arg,), offset)
            if text in self.coords:
                return self.coords.index(text)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


def parse(texts: str | Sequence[str], coords: Sequence[str]) -> Program:
    """Compile one expression text, or a sequence of them, against the
    declared coordinate names into one program with an output per text.
    The names are checked as the first text is parsed."""
    compiler, slots = _Compiler(coords), {}
    outputs = [slots[t] if t in slots else slots.setdefault(t, compiler.parse(t))
               for t in ([texts] if isinstance(texts, str) else texts)]
    zero = compiler.slots.get(("number", (0.0).hex()))  # every bare 0 reads this slot
    return Program(len(coords), compiler.code, outputs, [slot == zero for slot in outputs],
                   [compiler.free[slot] for slot in outputs])


def evaluate(program: Program, args: Sequence[JetBatch]) -> list:
    """Every output of ``program`` on jet-valued coordinates, one jet per
    output; derivative-correct through the order of the arguments.  One
    loop runs the instructions in order.  Constants are made by the
    arguments' type, so any jet type with the JetBatch operators and
    ``constant`` works.  A domain error is an EvalDomainError at the offset
    of the failing instruction.  An empty argument list, jets of differing
    order or arity, or fewer jets than coordinates is a usage error."""
    if not args:
        raise jets.JetUsageError("evaluate needs at least one argument jet")
    order, nvars = args[0].order, args[0].nvars
    for a in args:
        if a.order != order or a.nvars != nvars:
            raise jets.JetUsageError("argument jets must share order and arity")
    if len(args) < program._arity:
        raise jets.JetUsageError(f"{program._arity} coordinates need as many argument jets")
    values = list(args[:program._arity])
    for (fn, operands, offset), dead in zip(program._code, program._dead):
        try:
            values.append(fn(*map(values.__getitem__, operands)))
        except JetDomainError as e:
            raise EvalDomainError(str(e), offset) from e
        for s in dead:
            values[s] = None
    return [values[s] for s in program._outputs]
