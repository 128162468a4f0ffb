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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import autodiff as ad
from .diagnostics import ParseError
from .lex import RESERVED, Token, tokenize

__all__ = [
    "AxisDecl", "ShapeDecl", "Binding", "Directive", "Program",
    "parse", "format_program", "format_expr",
]


# ---------------------------------------------------------------------------
# statements

@dataclass(eq=False)
class AxisDecl:
    name: str
    size: int
    span: Tuple[int, int] = (0, 0)

    def __eq__(self, other):
        return isinstance(other, AxisDecl) and (self.name, self.size) == (
            other.name, other.size)


@dataclass(eq=False)
class ShapeDecl:
    name: str
    axes: Tuple[str, ...] = ()
    span: Tuple[int, int] = (0, 0)

    def __eq__(self, other):
        return isinstance(other, ShapeDecl) and (self.name, tuple(self.axes)) == (
            other.name, tuple(other.axes))


@dataclass(eq=False)
class Binding:
    name: str
    expr: ad.Expr
    span: Tuple[int, int] = (0, 0)

    def __eq__(self, other):
        return isinstance(other, Binding) and self.name == other.name and \
            self.expr == other.expr


@dataclass(eq=False)
class Directive:
    kind: str  # "print" | "check" | "grad"
    target: str
    span: Tuple[int, int] = (0, 0)

    def __eq__(self, other):
        return isinstance(other, Directive) and (self.kind, self.target) == (
            other.kind, other.target)


@dataclass(eq=False)
class Program:
    statements: Tuple = ()

    def __eq__(self, other):
        return isinstance(other, Program) and tuple(self.statements) == tuple(
            other.statements)

    @property
    def bindings(self):
        return {st.name: st for st in self.statements if isinstance(st, Binding)}

    @property
    def axis_sizes(self):
        return {st.name: st.size for st in self.statements if isinstance(st, AxisDecl)}


# ---------------------------------------------------------------------------
# parsing

_REDUCTIONS = frozenset({"sum", "min", "max", "mean", "var", "norm"})
_VEC = frozenset({"softmax", "argmax", "argmin", "standardize"})
_ELEMENTWISE = frozenset({"relu", "sigma", "exp", "log", "neg"})


class _Parser:
    # Parentheses, call arguments and literal brackets nest at most this
    # deep; each level costs a few stack frames of recursive descent.
    MAX_DEPTH = 100

    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.i = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"{kind!r}"
            found = f"{tok.text!r}" if tok.kind != "EOF" else "end of input"
            raise ParseError(tok.line, tok.col, f"expected {want}, found {found}")
        return self.advance()

    def ident(self, what: str = "identifier", allow_reserved: bool = False) -> Token:
        tok = self.expect("IDENT", what)
        if not allow_reserved and tok.text in RESERVED:
            raise ParseError(
                tok.line, tok.col, f"{tok.text!r} is a reserved word"
            )
        return tok

    def open(self, tok: Token) -> None:
        """Enter one nesting level at the opening token ``tok``."""
        if self.depth == self.MAX_DEPTH:
            raise ParseError(
                tok.line, tok.col,
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
            raise ParseError(tok.line, tok.col, f"expected a statement, found {tok.text!r}")
        if tok.text == "axis":
            return self.axis_decl()
        if tok.text in ("print", "check", "grad"):
            self.advance()
            target = self.ident("identifier after directive")
            return Directive(tok.text, target.text, (tok.line, tok.col))
        name = self.ident("identifier")
        nxt = self.peek()
        if nxt.kind == ":":
            return self.shape_decl(name)
        if nxt.kind == "=":
            self.advance()
            expr = self.expr()
            return Binding(name.text, expr, (name.line, name.col))
        raise ParseError(
            nxt.line, nxt.col,
            f"expected ':' or '=' after {name.text!r}, found {nxt.text!r}",
        )

    def axis_decl(self) -> AxisDecl:
        kw = self.advance()
        name = self.ident("axis name")
        self.expect("=")
        size = self.expect("NUMBER", "axis size")
        if not size.text.isdigit():
            raise ParseError(size.line, size.col, "axis size must be an integer")
        return AxisDecl(name.text, int(size.text), (kw.line, kw.col))

    def shape_decl(self, name: Token) -> ShapeDecl:
        self.expect(":")
        marker = self.expect("IDENT", "'R'")
        if marker.text != "R":
            raise ParseError(marker.line, marker.col, "shape declarations use 'R[...]'")
        self.expect("[")
        axes = [self.ident("axis name").text]
        while self.peek().kind == ",":
            self.advance()
            axes.append(self.ident("axis name").text)
        self.expect("]")
        return ShapeDecl(name.text, tuple(axes), (name.line, name.col))

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
            raise ParseError(tok.line, tok.col, "expected at least one axis name")
        return axes

    def expr(self) -> ad.Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = self._spanned(
                ad.Binary("add" if op.kind == "+" else "sub", node, rhs), op
            )
        return node

    def term(self) -> ad.Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            node = self._spanned(
                ad.Binary("mul" if op.kind == "*" else "div", node, rhs), op
            )
        return node

    def factor(self) -> ad.Expr:
        node = self.postfix()
        while self.peek().kind == ".{":
            op = self.advance()
            axes = self.axis_list()
            self.expect("}")
            rhs = self.postfix()
            node = self._spanned(ad.Contract(tuple(axes), node, rhs), op)
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
            return ad.Merge(tuple(parts), merged.text, node)
        name = self.ident("axis name")
        nxt = self.peek()
        if nxt.kind == "->":
            self.advance()
            new = self.ident("new axis name")
            return ad.Rename(name.text, new.text, node)
        if nxt.kind == "=":
            self.advance()
            idx = self.expect("NUMBER", "index")
            if not idx.text.isdigit():
                raise ParseError(idx.line, idx.col, "index must be an integer")
            return ad.PartialIndex({name.text: int(idx.text)}, node)
        raise ParseError(nxt.line, nxt.col, "expected '->' or '=' in suffix")

    def atom(self) -> ad.Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return self._spanned(ad.Const(float(tok.text)), tok)
        if tok.kind == "-":
            # "-inf" and negative number literals are atoms
            nxt = self.peek(1)
            if nxt.kind == "IDENT" and nxt.text == "inf":
                self.advance()
                self.advance()
                return self._spanned(ad.Const(float("-inf")), tok)
            if nxt.kind == "NUMBER":
                self.advance()
                self.advance()
                return self._spanned(ad.Const(-float(nxt.text)), tok)
            raise ParseError(tok.line, tok.col, "'-' here must prefix 'inf' or a number")
        if tok.kind == "(":
            self.open(self.advance())
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "[":
            return self.literal()
        if tok.kind == "IDENT":
            if tok.text == "random":
                return self.random_literal()
            if tok.text == "inf":
                raise ParseError(tok.line, tok.col, "bare 'inf' is not a value; use -inf for masks")
            if tok.text in RESERVED:
                raise ParseError(tok.line, tok.col, f"{tok.text!r} is a reserved word")
            nxt = self.peek(1)
            if nxt.kind == "{":
                return self.call()
            if nxt.kind == "(":
                if tok.text == "sqrt":
                    self.advance()
                    self.open(self.advance())
                    node = self.expr()
                    self.expect(")")
                    self.depth -= 1
                    return self._spanned(ad.Unary("sqrt", node), tok)
                if tok.text == "size":
                    self.advance()
                    self.advance()
                    name = self.ident("axis name")
                    self.expect(")")
                    return self._spanned(ad.SizeOf(name.text), tok)
                raise ParseError(
                    tok.line, tok.col,
                    f"only sqrt(...) and size(...) are called without braces; "
                    f"write {tok.text}{{axes}}(...)",
                )
            self.advance()
            return self._spanned(ad.Var(tok.text), tok)
        raise ParseError(tok.line, tok.col, f"expected an expression, found {tok.text!r}")

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
        node = self._build_call(name, axes, args)
        return self._spanned(node, name)

    def _build_call(self, name: Token, axes: List[str], args: List[ad.Expr]) -> ad.Expr:
        def arity(n):
            if len(args) != n:
                raise ParseError(
                    name.line, name.col,
                    f"{name.text} takes {n} argument(s), got {len(args)}",
                )

        def axis_count(n):
            if len(axes) != n:
                raise ParseError(
                    name.line, name.col,
                    f"{name.text} takes {n} axis name(s), got {len(axes)}",
                )

        fn = name.text
        if fn in _REDUCTIONS:
            arity(1)
            return ad.Reduce(fn, tuple(axes), args[0])
        if fn == "softmax":
            arity(1)
            return ad.Softmax(tuple(axes), args[0])
        if fn in ("argmax", "argmin"):
            arity(1)
            return ad.ArgExtremum(fn, tuple(axes), args[0])
        if fn == "standardize":
            arity(1)
            return ad.Standardize(tuple(axes), args[0])
        if fn in _ELEMENTWISE:
            arity(1)
            axis_count(0)
            return ad.Unary(fn, args[0])
        if fn == "dot":
            arity(2)
            return ad.Contract(tuple(axes), args[0], args[1])
        if fn == "index":
            arity(2)
            axis_count(1)
            return ad.IndexSelect(axes[0], args[0], args[1])
        if fn == "unroll":
            arity(1)
            axis_count(2)
            return ad.Unroll(axes[0], axes[1], args[0])
        if fn == "pool":
            arity(1)
            axis_count(2)
            return ad.Split(axes[0], axes[0], axes[1], args[0])
        if fn == "split":
            arity(1)
            axis_count(3)
            return ad.Split(axes[0], axes[1], axes[2], args[0])
        if fn in ("maxk", "argmaxk"):
            arity(1)
            axis_count(2)
            return ad.TopK(fn, axes[0], axes[1], args[0])
        if fn in ("det", "inv"):
            arity(1)
            axis_count(2)
            return ad.LinAlg(fn, axes[0], axes[1], args[0])
        raise ParseError(name.line, name.col, f"unknown function {name.text!r}")

    # -- literals ----------------------------------------------------------

    def literal(self) -> ad.Expr:
        start = self.peek()
        values = self.nested()
        over = self.expect("IDENT", "'over'")
        if over.text != "over":
            raise ParseError(over.line, over.col, "tensor literals need an 'over (axes)' clause")
        self.expect("(")
        axes = self.axis_list(allow_empty=False)
        self.expect(")")
        return self._spanned(ad.Literal(values, tuple(axes)), start)

    def random_literal(self) -> ad.Expr:
        start = self.advance()
        over = self.expect("IDENT", "'over'")
        if over.text != "over":
            raise ParseError(over.line, over.col, "random literals need an 'over (axes)' clause")
        self.expect("(")
        axes = self.axis_list(allow_empty=False)
        self.expect(")")
        return self._spanned(ad.RandomLiteral(tuple(axes)), start)

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

    @staticmethod
    def _spanned(node: ad.Expr, tok: Token) -> ad.Expr:
        node.span = (tok.line, tok.col)
        return node


def parse(source: str) -> Program:
    """Parse a program; raises :class:`ParseError` with a position on failure."""
    return _Parser(tokenize(source)).program()


# ---------------------------------------------------------------------------
# printing

_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_POSTFIX, _LEVEL_ATOM = range(5)


def _level(node: ad.Expr) -> int:
    if isinstance(node, ad.Binary):
        return _LEVEL_EXPR if node.op in ("add", "sub") else _LEVEL_TERM
    if isinstance(node, ad.Contract):
        return _LEVEL_FACTOR
    if isinstance(node, (ad.Rename, ad.Merge, ad.PartialIndex)):
        return _LEVEL_POSTFIX
    return _LEVEL_ATOM


def _fmt_number(value: float) -> str:
    if value == float("-inf"):
        return "-inf"
    text = repr(value)
    return text


def _fmt_nested(values) -> str:
    if isinstance(values, tuple):
        return "[" + ", ".join(_fmt_nested(v) for v in values) + "]"
    return _fmt_number(values)


def format_expr(node: ad.Expr, min_level: int = _LEVEL_EXPR) -> str:
    text = _format_bare(node)
    if _level(node) < min_level:
        return f"({text})"
    return text


def _format_bare(node: ad.Expr) -> str:
    if isinstance(node, ad.Var):
        return node.name
    if isinstance(node, ad.Const):
        if len(node.value.shape):
            raise ValueError("non-scalar constants have no surface syntax")
        return _fmt_number(node.value.item())
    if isinstance(node, ad.Literal):
        return f"{_fmt_nested(node.values)} over ({', '.join(node.axis_names)})"
    if isinstance(node, ad.RandomLiteral):
        return f"random over ({', '.join(node.axis_names)})"
    if isinstance(node, ad.SizeOf):
        return f"size({node.axis_name})"
    if isinstance(node, ad.Unary):
        if node.op == "sqrt":
            return f"sqrt({format_expr(node.child)})"
        return f"{node.op}{{}}({format_expr(node.child)})"
    if isinstance(node, ad.Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}.get(node.op)
        if sym is None:  # pow has no operator; nothing in the language builds it
            raise ValueError("pow has no surface syntax")
        lvl = _level(node)
        return (
            f"{format_expr(node.a, lvl)} {sym} {format_expr(node.b, lvl + 1)}"
        )
    if isinstance(node, ad.Contract):
        axes = ", ".join(node.axes)
        return (
            f"{format_expr(node.a, _LEVEL_FACTOR)} .{{{axes}}} "
            f"{format_expr(node.b, _LEVEL_POSTFIX)}"
        )
    if isinstance(node, ad.Reduce):
        return f"{node.red}{{{', '.join(node.axes)}}}({format_expr(node.child)})"
    if isinstance(node, ad.Softmax):
        return f"softmax{{{', '.join(node.axes)}}}({format_expr(node.child)})"
    if isinstance(node, ad.ArgExtremum):
        return f"{node.which}{{{', '.join(node.axes)}}}({format_expr(node.child)})"
    if isinstance(node, ad.Standardize):
        return f"standardize{{{', '.join(node.axes)}}}({format_expr(node.child)})"
    if isinstance(node, ad.Rename):
        return f"{format_expr(node.child, _LEVEL_POSTFIX)}[{node.old}->{node.new}]"
    if isinstance(node, ad.Merge):
        parts = ", ".join(node.parts)
        return f"{format_expr(node.child, _LEVEL_POSTFIX)}[({parts})->{node.merged_name}]"
    if isinstance(node, ad.PartialIndex):
        child = format_expr(node.child, _LEVEL_POSTFIX)
        return child + "".join(f"[{n}={i}]" for n, i in node.bindings)
    if isinstance(node, ad.Unroll):
        return f"unroll{{{node.seq}, {node.kernel_name}}}({format_expr(node.child)})"
    if isinstance(node, ad.Split):
        if node.outer_name == node.src:
            return f"pool{{{node.src}, {node.inner_name}}}({format_expr(node.child)})"
        return (
            f"split{{{node.src}, {node.outer_name}, {node.inner_name}}}"
            f"({format_expr(node.child)})"
        )
    if isinstance(node, ad.IndexSelect):
        return (
            f"index{{{node.ax}}}({format_expr(node.a)}, {format_expr(node.indices)})"
        )
    if isinstance(node, ad.TopK):
        return f"{node.which}{{{node.ax}, {node.k_name}}}({format_expr(node.child)})"
    if isinstance(node, ad.LinAlg):
        return f"{node.which}{{{node.rows}, {node.cols}}}({format_expr(node.child)})"
    raise ValueError(f"cannot print node of kind {node.kind!r}")


def format_program(program: Program) -> str:
    """Render a program; the result reparses to an equal program."""
    lines = []
    for st in program.statements:
        if isinstance(st, AxisDecl):
            lines.append(f"axis {st.name} = {st.size}")
        elif isinstance(st, ShapeDecl):
            lines.append(f"{st.name} : R[{', '.join(st.axes)}]")
        elif isinstance(st, Binding):
            lines.append(f"{st.name} = {format_expr(st.expr)}")
        elif isinstance(st, Directive):
            lines.append(f"{st.kind} {st.target}")
        else:
            raise ValueError(f"unknown statement {st!r}")
    return "\n".join(lines) + "\n"
