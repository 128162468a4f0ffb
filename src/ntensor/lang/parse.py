"""Recursive-descent parser and printer for tensor programs.

A program is a sequence of axis declarations, shape declarations, bindings,
and directives; the grammar is whitespace-insensitive.  Expressions reuse
the :mod:`ntensor.autodiff` node classes directly, so the parser's output
feeds the shape checker, the evaluator, and the differentiator without
translation.  Each node and statement carries the (line, col) of its first
token; positions never participate in equality, so ``parse(print(parse(s)))
== parse(s)``.

Operator precedence, loosest first: ``+ -``, then ``* /``, then the
contraction operator ``.{axes}``, then postfix suffixes ``[old->new]``,
``[(a,b)->merged]``, ``[ax=i]``, then atoms.  ``-inf`` and ``-3`` are atoms;
there is no general unary minus.

The parser takes tokens from the lexer one at a time and finds a tensor
literal itself, reading its source text with the standard JSON parser
where it can (``_Parser.bulk``) and token by token where it cannot.

Calls ``name{axes}(args)`` are defined in one place, the table ``_CALLS``:
the parser builds every call from it and the printer inverts it, so a new
call form is one table row.  The printer renders children before parents
and never recurses, so an expression of any depth prints.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..errors import NamedTensorError
from ..tensor import NamedTensor
from .diagnostics import ParseError
from .lex import RESERVED, Positions, Token, is_name, next_token, tokenize

__all__ = [
    "AxisDecl", "ShapeDecl", "Binding", "Directive", "Program",
    "parse", "format_program", "format_expr",
]


# ---------------------------------------------------------------------------
# statements

@dataclass
class AxisDecl:
    name: str
    size: int
    span: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass
class ShapeDecl:
    name: str
    axes: Tuple[str, ...] = ()
    span: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass
class Binding:
    name: str
    expr: ad.Expr
    span: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass
class Directive:
    kind: str  # "print" | "check" | "grad"
    target: str
    span: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass
class Program:
    statements: Tuple = ()

    @property
    def axis_sizes(self):
        return {st.name: st.size for st in self.statements if isinstance(st, AxisDecl)}


# ---------------------------------------------------------------------------
# the call table

# Call name -> (node class, fill).  The braces fill the node's parameters:
# all of them as one tuple when fill is None, else parameter j takes brace
# position fill[j].  The arguments fill the node's operands.  The printer
# inverts this table, taking the first row that fits.
_CALLS = {
    "sum": (ad.Sum, None), "min": (ad.Min, None), "max": (ad.Max, None),
    "mean": (ad.Mean, None), "var": (ad.Variance, None), "norm": (ad.Norm, None),
    "softmax": (ad.Softmax, None),
    "argmax": (ad.ArgMax, None),
    "argmin": (ad.ArgMin, None),
    "standardize": (ad.Standardize, None),
    "relu": (ad.Relu, ()),
    "sigma": (ad.Sigmoid, ()),
    "exp": (ad.Exp, ()),
    "log": (ad.Log, ()),
    "neg": (ad.Neg, ()),
    "dot": (ad.Contract, None),  # parse only; printed as infix .{axes}
    "index": (ad.IndexSelect, (0,)),
    "unroll": (ad.Unroll, (0, 1)),
    "pool": (ad.Split, (0, 0, 1)),  # split{src, src, inner}
    "split": (ad.Split, (0, 1, 2)),
    "maxk": (ad.MaxK, (0, 1)),
    "argmaxk": (ad.ArgMaxK, (0, 1)),
    "det": (ad.Det, (0, 1)),
    "inv": (ad.Inv, (0, 1)),
}

_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_POSTFIX, _LEVEL_ATOM = range(5)

# Infix operator -> (Binary node class, precedence level).
_INFIX = {
    "+": (ad.Add, _LEVEL_EXPR), "-": (ad.Sub, _LEVEL_EXPR),
    "*": (ad.Mul, _LEVEL_TERM), "/": (ad.Div, _LEVEL_TERM),
}
_SYMBOL = {cls: (sym, level) for sym, (cls, level) in _INFIX.items()}

# The characters a JSON literal of numbers, with "inf" for Infinity, may hold.
_JSON_RUN = re.compile(r"[\s\d.eE+,\[\]inf-]+")


def _balancing(source: str, start: int, end: int) -> Optional[int]:
    """The offset just past the "]" in ``source[start:end]`` that balances
    the "[" at ``start``, or None."""
    depth, pos = 0, start
    while True:
        close = source.find("]", pos, end)
        if close < 0:
            return None
        depth += source.count("[", pos, close) - 1
        if not depth:
            return close + 1
        pos = close + 1


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    # Parentheses, call arguments and literal brackets nest at most this
    # deep; each level costs a few stack frames of recursive descent.
    MAX_DEPTH = 100

    def __init__(self, source: str):
        self.source = source
        self.positions = Positions(source)
        self.tok = next_token(source, 0)
        self.depth = 0

    def at(self, tok: Token) -> Tuple[int, int]:
        """The 1-based (line, col) of ``tok``."""
        return self.positions(tok.offset)

    def peek(self, ahead: int = 0) -> Token:
        """The current token, or the one after it if ``ahead``; callers look
        ahead only past a token that is not EOF."""
        tok = self.tok
        if ahead:
            tok = next_token(self.source, tok.offset + len(tok.text))
        return tok

    def advance(self) -> Token:
        tok = self.tok
        if tok.kind != "EOF":
            self.tok = next_token(self.source, tok.offset + len(tok.text))
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"{kind!r}"
            found = f"{tok.text!r}" if tok.kind != "EOF" else "end of input"
            raise ParseError(*self.at(tok), f"expected {want}, found {found}")
        return self.advance()

    def ident(self, what: str = "identifier") -> Token:
        tok = self.expect("IDENT", what)
        if tok.text in RESERVED:
            raise ParseError(*self.at(tok), f"{tok.text!r} is a reserved word")
        return tok

    def open(self, tok: Token) -> None:
        """Enter one nesting level at the opening token ``tok``."""
        if self.depth == self.MAX_DEPTH:
            raise ParseError(
                *self.at(tok),
                f"expression nests deeper than {self.MAX_DEPTH} levels",
            )
        self.depth += 1

    # -- statements --------------------------------------------------------

    def program(self) -> Program:
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.statement())
        return Program(tuple(statements))

    def statement(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError(*self.at(tok), f"expected a statement, found {tok.text!r}")
        if tok.text == "axis":
            return self.axis_decl()
        if tok.text in ("print", "check", "grad"):
            self.advance()
            target = self.ident("identifier after directive")
            return Directive(tok.text, target.text, self.at(tok))
        name = self.ident("identifier")
        nxt = self.peek()
        if nxt.kind == ":":
            return self.shape_decl(name)
        if nxt.kind == "=":
            self.advance()
            expr = self.expr()
            return Binding(name.text, expr, self.at(name))
        raise ParseError(
            *self.at(nxt),
            f"expected ':' or '=' after {name.text!r}, found {nxt.text!r}",
        )

    def axis_decl(self) -> AxisDecl:
        kw = self.advance()
        name = self.ident("axis name")
        self.expect("=")
        size = self.expect("NUMBER", "axis size")
        if not size.text.isdigit():
            raise ParseError(*self.at(size), "axis size must be an integer")
        return AxisDecl(name.text, int(size.text), self.at(kw))

    def shape_decl(self, name: Token) -> ShapeDecl:
        self.expect(":")
        marker = self.expect("IDENT", "'R'")
        if marker.text != "R":
            raise ParseError(*self.at(marker), "shape declarations use 'R[...]'")
        self.expect("[")
        axes = [self.ident("axis name").text]
        while self.peek().kind == ",":
            self.advance()
            axes.append(self.ident("axis name").text)
        self.expect("]")
        return ShapeDecl(name.text, tuple(axes), self.at(name))

    # -- expressions -------------------------------------------------------

    def axis_list(self, allow_empty: bool = True) -> List[str]:
        axes = []
        if self.peek().kind == "IDENT":
            axes.append(self.ident("axis name").text)
            while self.peek().kind == ",":
                self.advance()
                axes.append(self.ident("axis name").text)
        if not axes and not allow_empty:
            tok = self.peek()
            raise ParseError(*self.at(tok), "expected at least one axis name")
        return axes

    def expr(self) -> ad.Expr:
        return self.chain(_LEVEL_EXPR, self.term)

    def term(self) -> ad.Expr:
        return self.chain(_LEVEL_TERM, self.factor)

    def chain(self, level: int, operand) -> ad.Expr:
        """A left-associated run of ``operand``s joined by infix operators
        of precedence ``level``."""
        node = operand()
        while _INFIX.get(self.peek().kind, (None, None))[1] == level:
            op = self.advance()
            node = self._spanned(_INFIX[op.kind][0](node, operand()), op)
        return node

    def factor(self) -> ad.Expr:
        node = self.postfix()
        while self.peek().kind == ".{":
            op = self.advance()
            axes = self.axis_list()
            self.expect("}")
            rhs = self.postfix()
            node = self._spanned(ad.Contract(node, rhs, tuple(axes)), op)
        return node

    def postfix(self) -> ad.Expr:
        node = self.atom()
        while self.peek().kind == "[":
            bracket = self.advance()
            node = self._spanned(self.suffix(node), bracket)
            self.expect("]")
        return node

    def suffix(self, node: ad.Expr) -> ad.Expr:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            parts = self.axis_list(allow_empty=False)
            self.expect(")")
            self.expect("->")
            merged = self.ident("merged axis name")
            return ad.Merge(node, tuple(parts), merged.text)
        name = self.ident("axis name")
        nxt = self.peek()
        if nxt.kind == "->":
            self.advance()
            new = self.ident("new axis name")
            return ad.Rename(node, name.text, new.text)
        if nxt.kind == "=":
            self.advance()
            idx = self.expect("NUMBER", "index")
            if not idx.text.isdigit():
                raise ParseError(*self.at(idx), "index must be an integer")
            try:
                return ad.PartialIndex(node, {name.text: int(idx.text)})
            except NamedTensorError as e:  # an index of 0
                raise ParseError(*self.at(idx), str(e)) from None
        raise ParseError(*self.at(nxt), "expected '->' or '=' in suffix")

    def atom(self) -> ad.Expr:
        tok = self.peek()
        if tok.kind == "[":
            return self.literal()
        if tok.kind == "NUMBER":
            self.advance()
            value = float(tok.text)
            if value == math.inf:  # inf is no value; -1e400 is the atom -inf
                raise ParseError(*self.at(tok), f"number {tok.text} overflows to inf")
            return self._spanned(ad.Const(value), tok)
        if tok.kind == "-":
            # "-inf" and negative number literals are atoms
            nxt = self.peek(1)
            if nxt.kind == "NUMBER" or (nxt.kind, nxt.text) == ("IDENT", "inf"):
                self.advance()
                self.advance()
                return self._spanned(ad.Const(-float(nxt.text)), tok)
            raise ParseError(*self.at(tok), "'-' here must prefix 'inf' or a number")
        if tok.kind == "(":
            return self.parenthesized()
        if tok.kind == "IDENT":
            if tok.text == "random":
                return self.random_literal()
            if tok.text == "inf":
                raise ParseError(*self.at(tok), "bare 'inf' is not a value; use -inf for masks")
            if tok.text in RESERVED:
                raise ParseError(*self.at(tok), f"{tok.text!r} is a reserved word")
            nxt = self.peek(1)
            if nxt.kind == "{":
                return self.call()
            if nxt.kind == "(":
                if tok.text == "sqrt":
                    self.advance()
                    return self._spanned(ad.Sqrt(self.parenthesized()), tok)
                if tok.text == "size":
                    self.advance()
                    self.advance()
                    name = self.ident("axis name")
                    self.expect(")")
                    return self._spanned(ad.SizeOf(name.text), tok)
                raise ParseError(
                    *self.at(tok),
                    f"only sqrt(...) and size(...) are called without braces; "
                    f"write {tok.text}{{axes}}(...)",
                )
            self.advance()
            return self._spanned(ad.Var(tok.text), tok)
        raise ParseError(*self.at(tok), f"expected an expression, found {tok.text!r}")

    def parenthesized(self) -> ad.Expr:
        self.open(self.expect("("))
        node = self.expr()
        self.expect(")")
        self.depth -= 1
        return node

    def call(self) -> ad.Expr:
        name = self.advance()
        self.expect("{")
        axes = self.axis_list()
        self.expect("}")
        self.open(self.expect("("))
        args = [self.expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        self.depth -= 1
        if name.text not in _CALLS:
            raise ParseError(*self.at(name), f"unknown function {name.text!r}")
        cls, fill = _CALLS[name.text]
        n_axes = None if fill is None else len(set(fill))
        for what, want, got in (("argument", len(cls._operands), len(args)),
                                ("axis name", n_axes, len(axes))):
            if want is not None and want != got:
                raise ParseError(
                    *self.at(name),
                    f"{name.text} takes {want} {what}(s), got {got}",
                )
        params = [tuple(axes)] if fill is None else [axes[b] for b in fill]
        node = cls(**dict(zip(cls._params, params)), **dict(zip(cls._operands, args)))
        return self._spanned(node, name)

    # -- literals ----------------------------------------------------------

    def literal(self) -> ad.Expr:
        start = self.tok
        values = self.bulk(start.offset)
        if values is None:
            values = self.nested()
        axes = self.over("tensor literals")
        try:
            value = NamedTensor.from_nested(values, axes)
        except NamedTensorError as e:
            raise ParseError(*self.at(start), str(e)) from None
        return self._spanned(ad.Const(value), start)

    def bulk(self, start: int) -> Optional[np.ndarray]:
        """The entries of the literal whose ``[`` is at offset ``start``, up
        to the balancing ``]`` in a ``_JSON_RUN``, read by the standard JSON
        parser and numpy's shape discovery; the parser moves past that ``]``.
        None if there is no such ``]``, if either refuses the text (a spaced
        sign, a leading zero, non-ASCII whitespace or digits, a stray comma,
        a ragged literal, more dimensions than numpy holds), or the entries
        are empty or nest past MAX_DEPTH: ``nested`` then reads the literal
        token by token and reports the fault.  JSON converts each number
        with ``float``, so every value has the token path's bits."""
        stop = _balancing(self.source, start, _JSON_RUN.match(self.source, start).end())
        if stop is None:
            return None
        try:
            text = self.source[start:stop].replace("inf", "Infinity")
            values = np.array(json.loads(text, parse_int=float))
        except (ValueError, RecursionError):
            return None
        if not values.size or self.depth + values.ndim > self.MAX_DEPTH:
            return None
        self.tok = next_token(self.source, stop)
        return values

    def random_literal(self) -> ad.Expr:
        start = self.advance()
        return self._spanned(ad.RandomLiteral(self.over("random literals")), start)

    def over(self, what: str) -> Tuple[str, ...]:
        """The ``over (axes)`` clause that ends a literal."""
        over = self.expect("IDENT", "'over'")
        if over.text != "over":
            raise ParseError(*self.at(over), f"{what} need an 'over (axes)' clause")
        self.expect("(")
        axes = self.axis_list(allow_empty=False)
        self.expect(")")
        return tuple(axes)

    def nested(self):
        self.open(self.expect("["))
        items = [self.nested_item()]
        while self.peek().kind == ",":
            self.advance()
            items.append(self.nested_item())
        self.expect("]")
        self.depth -= 1
        return items

    def nested_item(self):
        tok = self.peek()
        if tok.kind == "[":
            return self.nested()
        sign = 1.0
        if tok.kind == "-":
            self.advance()
            sign = -1.0
            tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "inf":
            self.advance()
            return sign * float("inf")
        num = self.expect("NUMBER", "a number")
        return sign * float(num.text)

    def _spanned(self, node: ad.Expr, tok: Token) -> ad.Expr:
        node.span = self.at(tok)
        return node


def parse(source: str) -> Program:
    """Parse a program; raises :class:`ParseError` with a position on failure."""
    try:
        return _Parser(source).program()
    except ParseError:
        tokenize(source)  # an unexpected character anywhere is reported first
        raise


# ---------------------------------------------------------------------------
# printing

def _name(name: str) -> str:
    """``name``, if the lexer reads it back as one identifier."""
    if not is_name(name):
        raise ValueError(f"name {name!r} has no surface syntax")
    return name


def _names(names) -> str:
    return ", ".join(map(_name, names))


def _fmt_values(values) -> str:
    """A number, or nested lists of numbers as a bracketed literal body."""
    if isinstance(values, list):
        return "[" + ", ".join(_fmt_values(v) for v in values) + "]"
    if math.isnan(values):
        raise ValueError("nan has no surface syntax")
    return repr(values)


def _call_form(node: ad.Expr):
    """The first call-table row that prints ``node``: (name, brace axes).

    A parameter the braces do not fill has no surface syntax, so it must
    hold its field default: the parser could not build anything else.
    """
    params = node._key()
    for name, (cls, fill) in _CALLS.items():
        if type(node) is not cls:
            continue
        if fill is None:
            width, axes = 1, params[0]
        else:
            braces: dict = {}  # a position filled twice (pool) needs one name
            if not all(braces.setdefault(b, p) == p for b, p in zip(fill, params)):
                continue
            width, axes = len(fill), [braces[b] for b in range(len(braces))]
        defaults = {f.name: f.default for f in fields(node)}
        for param in node._params[width:]:
            if getattr(node, param) != defaults[param]:
                raise ValueError(
                    f"{name} with {param}={getattr(node, param)!r} has no surface syntax"
                )
        return name, axes
    raise ValueError(f"cannot print node of kind {type(node).__name__}")


def _format_node(node: ad.Expr, sub) -> Tuple[str, int]:
    """``node``'s text and precedence level; ``sub(child, level)`` is the
    child's text, parenthesised if it binds looser than ``level``."""
    if isinstance(node, ad.Binary):
        if type(node) not in _SYMBOL:  # pow has no operator; the language never builds it
            raise ValueError(f"{type(node).__name__.lower()} has no surface syntax")
        sym, level = _SYMBOL[type(node)]
        return f"{sub(node.a, level)} {sym} {sub(node.b, level + 1)}", level
    if isinstance(node, ad.Contract):
        return (f"{sub(node.a, _LEVEL_FACTOR)} .{{{_names(node.axes)}}} "
                f"{sub(node.b, _LEVEL_POSTFIX)}", _LEVEL_FACTOR)
    if isinstance(node, ad.Rename):
        suffix = f"[{_name(node.old)}->{_name(node.new)}]"
    elif isinstance(node, ad.Merge):
        suffix = f"[({_names(node.parts)})->{_name(node.merged_name)}]"
    elif isinstance(node, ad.PartialIndex):
        if len(node.bindings) != 1:  # the parser builds one node per [name=i]
            raise ValueError(
                f"partial index with {len(node.bindings)} bindings has no surface syntax"
            )
        (name, i), = node.bindings
        suffix = f"[{_name(name)}={i}]"
    else:
        return _format_atom(node, sub), _LEVEL_ATOM
    return sub(node.child, _LEVEL_POSTFIX) + suffix, _LEVEL_POSTFIX


def _format_atom(node: ad.Expr, sub) -> str:
    if isinstance(node, ad.Var):
        return _name(node.name)
    if isinstance(node, ad.Const):
        shape = node.value.shape
        if len(shape):  # a tensor literal, over its canonical axes
            return f"{_fmt_values(node.value.array.tolist())} over ({_names(shape.names)})"
        if node.value.item() == math.inf:  # only -inf is an atom
            raise ValueError("a constant inf has no surface syntax")
        return _fmt_values(node.value.item())
    if isinstance(node, ad.RandomLiteral):
        return f"random over ({_names(node.axis_names)})"
    if isinstance(node, ad.SizeOf):
        return f"size({_name(node.axis_name)})"
    if isinstance(node, ad.Sqrt):
        return f"sqrt({sub(node.child, _LEVEL_EXPR)})"
    name, axes = _call_form(node)
    args = ", ".join(sub(c, _LEVEL_EXPR) for c in node.children())
    return f"{name}{{{_names(axes)}}}({args})"


def format_expr(root: ad.Expr) -> str:
    """Render an expression; the result reparses to an equal expression.

    Nodes are rendered children first, each once, so the printer never
    recurses however deep the expression is.
    """
    done: dict = {}  # id(node) -> (text, level)

    def sub(child: ad.Expr, level: int) -> str:
        text, own = done[id(child)]
        return f"({text})" if own < level else text

    for node in ad._topo(root):
        done[id(node)] = _format_node(node, sub)
    return done[id(root)][0]


def format_program(program: Program) -> str:
    """Render a program; the result reparses to an equal program."""
    lines = []
    for st in program.statements:
        if isinstance(st, AxisDecl):
            lines.append(f"axis {_name(st.name)} = {st.size}")
        elif isinstance(st, ShapeDecl):
            lines.append(f"{_name(st.name)} : R[{_names(st.axes)}]")
        elif isinstance(st, Binding):
            lines.append(f"{_name(st.name)} = {format_expr(st.expr)}")
        elif isinstance(st, Directive):
            lines.append(f"{st.kind} {_name(st.target)}")
        else:
            raise ValueError(f"unknown statement {st!r}")
    return "\n".join(lines) + "\n"
