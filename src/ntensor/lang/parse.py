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

Calls ``name{axes}(args)`` are defined in one place, the table ``_CALLS``:
the parser builds every call from it and the printer inverts it, so a new
call form is one table row.  The printer renders children before parents
and never recurses, so an expression of any depth prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .. import autodiff as ad
from .. import ops
from .diagnostics import ParseError
from .lex import RESERVED, Token, tokenize

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
    def bindings(self):
        return {st.name: st for st in self.statements if isinstance(st, Binding)}

    @property
    def axis_sizes(self):
        return {st.name: st.size for st in self.statements if isinstance(st, AxisDecl)}


# ---------------------------------------------------------------------------
# the call table

# Call name -> (node class, the op it passes as the node's first parameter
# or None, fill).  The braces fill the next parameters: all of them as one
# tuple when fill is None, else parameter j takes brace position fill[j].
# The arguments fill the node's operands.  The printer inverts this table,
# taking the first row that fits.
_CALLS = {
    **{red: (ad.Reduce, red, None) for red in ops.REDUCE_KINDS},
    "softmax": (ad.Softmax, None, None),
    "argmax": (ad.ArgExtremum, "argmax", None),
    "argmin": (ad.ArgExtremum, "argmin", None),
    "standardize": (ad.Standardize, None, None),
    **{fn: (ad.Unary, fn, ()) for fn in ("relu", "sigma", "exp", "log", "neg")},
    "dot": (ad.Contract, None, None),  # parse only; printed as infix .{axes}
    "index": (ad.IndexSelect, None, (0,)),
    "unroll": (ad.Unroll, None, (0, 1)),
    "pool": (ad.Split, None, (0, 0, 1)),  # split{src, src, inner}
    "split": (ad.Split, None, (0, 1, 2)),
    "maxk": (ad.TopK, "maxk", (0, 1)),
    "argmaxk": (ad.TopK, "argmaxk", (0, 1)),
    "det": (ad.LinAlg, "det", (0, 1)),
    "inv": (ad.LinAlg, "inv", (0, 1)),
}

_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_POSTFIX, _LEVEL_ATOM = range(5)

# Infix operator -> (Binary op, precedence level).
_INFIX = {
    "+": ("add", _LEVEL_EXPR), "-": ("sub", _LEVEL_EXPR),
    "*": ("mul", _LEVEL_TERM), "/": ("div", _LEVEL_TERM),
}
_SYMBOL = {op: (sym, level) for sym, (op, level) in _INFIX.items()}


# ---------------------------------------------------------------------------
# parsing

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

    def ident(self, what: str = "identifier") -> Token:
        tok = self.expect("IDENT", what)
        if tok.text in RESERVED:
            raise ParseError(tok.line, tok.col, f"{tok.text!r} is a reserved word")
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
        return self.chain(_LEVEL_EXPR, self.term)

    def term(self) -> ad.Expr:
        return self.chain(_LEVEL_TERM, self.factor)

    def chain(self, level: int, operand) -> ad.Expr:
        """A left-associated run of ``operand``s joined by infix operators
        of precedence ``level``."""
        node = operand()
        while _INFIX.get(self.peek().kind, (None, None))[1] == level:
            op = self.advance()
            node = self._spanned(ad.Binary(_INFIX[op.kind][0], node, operand()), op)
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
            if nxt.kind == "NUMBER" or (nxt.kind, nxt.text) == ("IDENT", "inf"):
                self.advance()
                self.advance()
                return self._spanned(ad.Const(-float(nxt.text)), tok)
            raise ParseError(tok.line, tok.col, "'-' here must prefix 'inf' or a number")
        if tok.kind == "(":
            return self.parenthesized()
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
                    return self._spanned(ad.Unary("sqrt", self.parenthesized()), tok)
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
            raise ParseError(name.line, name.col, f"unknown function {name.text!r}")
        cls, op, fill = _CALLS[name.text]
        n_axes = None if fill is None else len(set(fill))
        for what, want, got in (("argument", len(cls._operands), len(args)),
                                ("axis name", n_axes, len(axes))):
            if want is not None and want != got:
                raise ParseError(
                    name.line, name.col,
                    f"{name.text} takes {want} {what}(s), got {got}",
                )
        params = [] if op is None else [op]
        params += [tuple(axes)] if fill is None else [axes[b] for b in fill]
        node = cls(**dict(zip(cls._params, params)), **dict(zip(cls._operands, args)))
        return self._spanned(node, name)

    # -- literals ----------------------------------------------------------

    def literal(self) -> ad.Expr:
        start = self.peek()
        values = self.nested()
        return self._spanned(ad.Literal(values, self.over("tensor literals")), start)

    def random_literal(self) -> ad.Expr:
        start = self.advance()
        return self._spanned(ad.RandomLiteral(self.over("random literals")), start)

    def over(self, what: str) -> Tuple[str, ...]:
        """The ``over (axes)`` clause that ends a literal."""
        over = self.expect("IDENT", "'over'")
        if over.text != "over":
            raise ParseError(over.line, over.col, f"{what} need an 'over (axes)' clause")
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

    @staticmethod
    def _spanned(node: ad.Expr, tok: Token) -> ad.Expr:
        node.span = (tok.line, tok.col)
        return node


def parse(source: str) -> Program:
    """Parse a program; raises :class:`ParseError` with a position on failure."""
    return _Parser(tokenize(source)).program()


# ---------------------------------------------------------------------------
# printing

def _fmt_values(values) -> str:
    """A number, or a nested tuple of numbers as a bracketed literal body."""
    if isinstance(values, tuple):
        return "[" + ", ".join(_fmt_values(v) for v in values) + "]"
    return "-inf" if values == float("-inf") else repr(values)


def _call_form(node: ad.Expr):
    """The first call-table row that prints ``node``: (name, brace axes)."""
    params = node._key()
    for name, (cls, op, fill) in _CALLS.items():
        if type(node) is not cls or (op is not None and params[0] != op):
            continue
        rest = params if op is None else params[1:]
        if fill is None:
            return name, rest[0]
        braces: dict = {}  # a position filled twice (pool) needs one name
        if all(braces.setdefault(b, p) == p for b, p in zip(fill, rest)):
            return name, [braces[b] for b in range(len(braces))]
    raise ValueError(f"cannot print node of kind {node.kind!r}")


def _format_node(node: ad.Expr, sub) -> Tuple[str, int]:
    """``node``'s text and precedence level; ``sub(child, level)`` is the
    child's text, parenthesised if it binds looser than ``level``."""
    if isinstance(node, ad.Binary):
        if node.op not in _SYMBOL:  # pow has no operator; the language never builds it
            raise ValueError(f"{node.op} has no surface syntax")
        sym, level = _SYMBOL[node.op]
        return f"{sub(node.a, level)} {sym} {sub(node.b, level + 1)}", level
    if isinstance(node, ad.Contract):
        return (f"{sub(node.a, _LEVEL_FACTOR)} .{{{', '.join(node.axes)}}} "
                f"{sub(node.b, _LEVEL_POSTFIX)}", _LEVEL_FACTOR)
    if isinstance(node, ad.Rename):
        suffix = f"[{node.old}->{node.new}]"
    elif isinstance(node, ad.Merge):
        suffix = f"[({', '.join(node.parts)})->{node.merged_name}]"
    elif isinstance(node, ad.PartialIndex):
        suffix = "".join(f"[{n}={i}]" for n, i in node.bindings)
    else:
        return _format_atom(node, sub), _LEVEL_ATOM
    return sub(node.child, _LEVEL_POSTFIX) + suffix, _LEVEL_POSTFIX


def _format_atom(node: ad.Expr, sub) -> str:
    if isinstance(node, ad.Var):
        return node.name
    if isinstance(node, ad.Const):
        if len(node.value.shape):
            raise ValueError("non-scalar constants have no surface syntax")
        return _fmt_values(node.value.item())
    if isinstance(node, ad.Literal):
        return f"{_fmt_values(node.values)} over ({', '.join(node.axis_names)})"
    if isinstance(node, ad.RandomLiteral):
        return f"random over ({', '.join(node.axis_names)})"
    if isinstance(node, ad.SizeOf):
        return f"size({node.axis_name})"
    if isinstance(node, ad.Unary) and node.op == "sqrt":
        return f"sqrt({sub(node.child, _LEVEL_EXPR)})"
    name, axes = _call_form(node)
    args = ", ".join(sub(c, _LEVEL_EXPR) for c in node.children())
    return f"{name}{{{', '.join(axes)}}}({args})"


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
