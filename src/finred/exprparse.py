"""Tiny expression language for scalar energy functions of q1..qn.

Grammar (infix, case-sensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Variables are ``q1`` .. ``qn``; functions are sin, cos, tanh, exp.
Parsing produces a small AST that can be pretty-printed, compiled to a
numpy function, differentiated exactly (the derivative is again an AST),
and analysed for unbounded curvature.  ``compile`` is the one evaluator:
it turns the tree into nested closures once, so a potential's V' and V''
pay no per-call walk of the tree (V' of ``-g*cos(q1)`` on 121 points went
from about 17 to about 6 us, most of it numpy's own call costs).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

FUNCTIONS = ("sin", "cos", "tanh", "exp")

# "log" is not in the grammar: it appears only in derivatives of general powers
_NUMPY_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp, "log": np.log}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}


class ExpressionError(ValueError):
    """Parse or validation failure, carrying the 0-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; displays as q{index+1}


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'name', 'op', 'end'
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_exp = False
            while j < n and (src[j].isdigit() or src[j] == "." or
                             (src[j] in "eE" and not seen_exp) or
                             (src[j] in "+-" and j > i and src[j - 1] in "eE")):
                if src[j] in "eE":
                    seen_exp = True
                j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionError(f"malformed number '{text}'", i)
            if not math.isfinite(value):
                raise ExpressionError(f"number '{text}' is not finite", i)
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character '{ch}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, dim: int):
        self.tokens = _tokenize(src)
        self.k = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExpressionError(f"expected '{text}', found '{tok.text or 'end of input'}'", tok.pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input '{tok.text}'", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            arg = self.factor()
            return arg if tok.text == "+" else Neg(arg)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text.startswith("q") and tok.text[1:].isdigit():
                idx = int(tok.text[1:])
                if not 1 <= idx <= self.dim:
                    raise ExpressionError(
                        f"variable '{tok.text}' out of range for dimension {self.dim}", tok.pos)
                return Var(idx - 1)
            raise ExpressionError(f"unknown name '{tok.text}'", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"expected a value, found '{tok.text or 'end of input'}'", tok.pos)


def parse(src: str, dim: int) -> Node:
    """Parse ``src`` over variables q1..q{dim}; raises ExpressionError with position."""
    if not src or not src.strip():
        raise ExpressionError("empty expression", 0)
    return _Parser(src, dim).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(node: Node) -> str:
    """Render with minimal parentheses; output reparses to the same AST."""
    return _render(node, 0)


def _render(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"q{node.index + 1}"
    if isinstance(node, Neg):
        s = "-" + _render(node.arg, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, 0)})"
    prec = _PREC[node.op]
    # left-assoc for + - * /; '^' is right-assoc, and '-'/'/' need a tighter right side
    left = _render(node.left, prec + (1 if node.op == "^" else 0))
    right = _render(node.right, prec + (0 if node.op == "^" else 1))
    s = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    return f"({s})" if parent_prec > prec else s


def compile(node: Node):
    """The function ``q -> value of node at q``, built once from the AST.

    ``q`` holds points of shape ``(..., n)``.  Each node becomes one closure
    that applies the node's numpy operation to its children's results, so
    the dispatch on node types is paid here, once, and not on every call.
    A subtree without variables evaluates to a numpy scalar, so the result
    may be one; callers broadcast it to ``q.shape[:-1]``.
    """
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda q: value
    if isinstance(node, Var):
        index = node.index
        return lambda q: q[..., index]
    if isinstance(node, Neg):
        arg = compile(node.arg)
        return lambda q: -arg(q)
    if isinstance(node, Call):
        func, arg = _NUMPY_FUNCS[node.func], compile(node.arg)
        return lambda q: func(arg(q))
    op, right = _OPERATORS[node.op], compile(node.right)
    if isinstance(node.left, Num):  # a leading literal, as derivatives put it
        value = np.float64(node.left.value)
        return lambda q: op(value, right(q))
    left = compile(node.left)
    return lambda q: op(left(q), right(q))


def derivative(node: Node, i: int) -> Node:
    """Exact partial derivative of ``node`` in ``q{i+1}``, as an AST.

    Only exact simplifications are made: zero terms and unit factors are
    dropped, a sign flip moves into the leading literal of a product or
    quotient, and subtrees of literals are folded, so ``-g*cos(q1)``
    differentiates to ``g*sin(q1)``, one multiply.
    """
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.index == i else 0.0)
    if isinstance(node, Neg):
        return _neg(derivative(node.arg, i))
    if isinstance(node, Call):
        a, da = node.arg, derivative(node.arg, i)
        if node.func == "sin":
            return _mul(Call("cos", a), da)
        if node.func == "cos":
            return _neg(_mul(Call("sin", a), da))
        if node.func == "tanh":
            return _mul(_sub(Num(1.0), _pow(node, Num(2.0))), da)
        if node.func == "exp":
            return _mul(node, da)
        return _div(da, a)  # log, made only by the power rule below
    a, b = node.left, node.right
    da, db = derivative(a, i), derivative(b, i)
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if node.op == "/":
        return _sub(_div(da, b), _div(_mul(a, db), _pow(b, Num(2.0))))
    if _is(db, 0.0):  # a^c with c constant in q{i+1}: c a^(c-1) a'
        return _mul(_mul(b, _pow(a, _sub(b, Num(1.0)))), da)
    return _mul(node, _add(_mul(db, _fold(Call("log", a))), _div(_mul(b, da), a)))


def _is(node: Node, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _children(node: Node) -> tuple:
    if isinstance(node, (Num, Var)):
        return ()
    return (node.arg,) if isinstance(node, (Neg, Call)) else (node.left, node.right)


def _fold(node: Node) -> Node:
    """A node whose children are all literals, folded to one literal."""
    if all(isinstance(c, Num) for c in _children(node)):
        return Num(float(compile(node)(None)))
    return node


def _has_variable(node: Node) -> bool:
    return isinstance(node, Var) or any(_has_variable(c) for c in _children(node))


def nonfinite_constant(node: Node) -> Node | None:
    """The first subtree without variables whose value is not finite, such as
    the ``inf`` in the derivative of ``q1/0`` or ``log(-2)``, or None."""
    if not _has_variable(node):
        return None if np.isfinite(compile(node)(None)) else node
    return next(filter(None, map(nonfinite_constant, _children(node))), None)


def _neg(a: Node) -> Node:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    if isinstance(a, BinOp) and a.op in "*/":  # -(x*y) = (-x)*y, where -x folds
        left = _neg(a.left)
        if not isinstance(left, Neg):
            return (_mul if a.op == "*" else _div)(left, a.right)
    return Neg(a)


def _add(a: Node, b: Node) -> Node:
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    if isinstance(b, Neg):
        return _sub(a, b.arg)
    return _fold(BinOp("+", a, b))


def _sub(a: Node, b: Node) -> Node:
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return _neg(b)
    if isinstance(b, Neg):
        return _add(a, b.arg)
    return _fold(BinOp("-", a, b))


def _mul(a: Node, b: Node) -> Node:
    if _is(a, 0.0) or _is(b, 0.0):
        return Num(0.0)
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    if isinstance(a, Neg):
        return _neg(_mul(a.arg, b))
    if isinstance(b, Neg):
        return _neg(_mul(a, b.arg))
    if isinstance(b, Num):  # the literal goes first, where _neg can flip it
        a, b = b, a
    return _fold(BinOp("*", a, b))


def _div(a: Node, b: Node) -> Node:
    if _is(a, 0.0):
        return Num(0.0)
    if _is(b, 1.0):
        return a
    return _fold(BinOp("/", a, b))


def _pow(a: Node, b: Node) -> Node:
    if _is(b, 0.0):
        return Num(1.0)
    if _is(b, 1.0):
        return a
    return _fold(BinOp("^", a, b))


def growth_degree(node: Node) -> float:
    """Conservative polynomial growth degree of the expression in q.

    Returns the degree when the expression is (bounded function of affine
    arguments) x polynomial; returns ``inf`` when boundedness of the second
    derivative cannot be certified (transcendentals of nonlinear arguments,
    division by variable expressions, non-integer powers).  A result > 2
    means sup|V''| may be infinite.
    """
    if isinstance(node, Num):
        return 0.0
    if isinstance(node, Var):
        return 1.0
    if isinstance(node, Neg):
        return growth_degree(node.arg)
    if isinstance(node, Call):
        d = growth_degree(node.arg)
        if node.func == "exp":
            return 0.0 if d == 0.0 else math.inf
        # sin/cos/tanh keep curvature bounded only for affine arguments
        return 0.0 if d <= 1.0 else math.inf
    dl, dr = growth_degree(node.left), growth_degree(node.right)
    if node.op in "+-":
        return max(dl, dr)
    if node.op == "*":
        return dl + dr
    if node.op == "/":
        return dl if dr == 0.0 else math.inf
    # power: certify only nonnegative-integer literal exponents
    if isinstance(node.right, Num) and float(node.right.value).is_integer() and node.right.value >= 0:
        return dl * node.right.value
    if dl == 0.0 and dr == 0.0:
        return 0.0
    return math.inf
