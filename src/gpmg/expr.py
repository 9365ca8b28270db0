"""Recursive-descent parser/evaluator for potential expressions V(x).

Grammar (byte offsets reported on error):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | 'x'<k> | func '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, abs. Variables: x1..x<dim>.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GpmgError

__all__ = ["Expr", "ParseError", "EvalError", "parse", "evaluate", "pretty"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": np.power}

# Nesting depth (parentheses, calls, unary minus, exponents) the parser
# accepts; deeper input would exhaust the Python stack.
MAX_DEPTH = 100


class ParseError(ConfigurationError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class EvalError(GpmgError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (expression byte {offset})")
        self.offset = offset


# AST nodes: ("num", v, off) ("var", idx, off) ("neg", e, off)
# ("call", name, arg, off) ("chain", first, ((op, operand, off), ...)).
# A chain is applied left to right in a loop, so a long `+`/`*` run costs
# no stack depth; `a^b` is a chain of one.
@dataclass(frozen=True)
class Expr:
    root: tuple
    dim: int
    source: str


class _Parser:
    def __init__(self, src, dim):
        self.src = src
        self.dim = dim
        self.pos = 0
        self.depth = 0

    def error(self, msg, offset=None):
        raise ParseError(msg, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, chars):
        if self.peek() in chars and self.peek():
            ch = self.src[self.pos]
            self.pos += 1
            return ch
        return None

    def expect(self, ch):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("unexpected trailing input")
        return node

    def expr(self, ops="+-"):
        """Terms joined by '+'/'-' or, for ops "*/", a term: unaries joined
        by '*'/'/'. One flat chain node, or the lone operand."""
        items = []
        op = off = None
        while not items or op:
            operand = self.expr("*/") if ops == "+-" else self.unary()
            items.append((op, operand, off))
            off = self.pos
            op = self.accept(ops)
        first = items[0][1]
        return ("chain", first, tuple(items[1:])) if len(items) > 1 else first

    def unary(self):
        # every nesting construct recurses through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        off = self.pos
        node = ("neg", self.unary(), off) if self.accept("-") else self.power()
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        off = self.pos
        if self.accept("^"):
            return ("chain", node, (("^", self.unary(), off),))
        return node

    def atom(self):
        self.skip_ws()
        off = self.pos
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number(off)
        if ch.isalpha():
            return self.identifier(off)
        self.error("expected a number, variable, function or '('")

    def number(self, off):
        i = self.pos
        src = self.src
        while i < len(src) and (src[i].isdigit() or src[i] == "."):
            i += 1
        if i < len(src) and src[i] in "eE":
            j = i + 1
            if j < len(src) and src[j] in "+-":
                j += 1
            if j < len(src) and src[j].isdigit():
                i = j
                while i < len(src) and src[i].isdigit():
                    i += 1
        text = src[self.pos : i]
        try:
            value = float(text)
        except ValueError:
            self.error(f"bad numeric literal {text!r}", off)
        self.pos = i
        return ("num", value, off)

    def identifier(self, off):
        i = self.pos
        src = self.src
        while i < len(src) and (src[i].isalnum() or src[i] == "_"):
            i += 1
        name = src[self.pos : i]
        self.pos = i
        if name == "pi":
            return ("num", math.pi, off)
        if name in _FUNCS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ("call", name, arg, off)
        if name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= self.dim:
                self.error(
                    f"variable {name} exceeds dimension {self.dim}", off
                )
            return ("var", idx - 1, off)
        self.error(f"unknown identifier {name!r}", off)


def parse(src, dim):
    """Parse an expression over variables x1..x<dim>."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    root = _Parser(src, dim).parse()
    return Expr(root=root, dim=dim, source=src)


def _eval_node(node, cols):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return cols[node[1]]
    if kind == "neg":
        return -_eval_node(node[1], cols)
    if kind == "call":
        return _FUNCS[node[1]](_eval_node(node[2], cols))
    a = _eval_node(node[1], cols)
    for op, rhs, off in node[2]:
        b = _eval_node(rhs, cols)
        if op == "/" and np.any(np.asarray(b) == 0):
            raise EvalError("division by zero", off)
        a = _BINARY[op](a, b)
    return a


def evaluate(e, points):
    """Evaluate at one point (dim,) or many points (npts, dim)."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != e.dim:
        raise ConfigurationError(
            f"expected points of dimension {e.dim}, got {pts.shape[1]}"
        )
    cols = [pts[:, i] for i in range(e.dim)]
    # overflow yields inf or nan, which Operators rejects as a config error
    with np.errstate(all="ignore"):
        vals = np.asarray(_eval_node(e.root, cols), dtype=float)
    vals = np.broadcast_to(vals, (pts.shape[0],))
    return float(vals[0]) if single else vals.copy()


def _pretty_node(node):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return f"x{node[1] + 1}"
    if kind == "neg":
        return f"(-{_pretty_node(node[1])})"
    if kind == "call":
        return f"{node[1]}({_pretty_node(node[2])})"
    rest = "".join(op + _pretty_node(rhs) for op, rhs, _ in node[2])
    return f"({_pretty_node(node[1])}{rest})"


def pretty(e):
    """Fully parenthesized form; reparses to an equivalent expression."""
    return _pretty_node(e.root)
