"""Expression graphs over named tensors and axis-aware differentiation.

An :class:`Expr` is an immutable node in an acyclic graph: variables and
constants at the leaves, tensor operations above them.  The same graph is
used three ways: :func:`infer_shape` runs the shape rules only,
:func:`evaluate` computes values, each held until its last reader, and
:func:`vjp` / :func:`jacobian` differentiate.  :func:`splice` joins named
bindings, as a program or model writes them, into one graph, drawing
random literals as it goes, and :func:`evaluate` runs its roots in one walk.

Each node class is one operation, and a dataclass of its fields: those
annotated ``Expr`` are its operands, in order, and the others are its
static parameters.  Fields follow the builder's arguments, operands first,
so the classes are their own builders (``relu = Relu``, ``sum_ = Sum``);
only ``literal`` is a function.  An operand given as a tensor or a number
is wrapped as a constant.  :class:`Expr` derives children, equality and
:meth:`Expr.with_children` from that declaration.  A node with operands
names its :mod:`ntensor.ops` operation (``operation``) when this module is
imported, and the operation's ``rule`` is the node's shape inference.  Its
value is the operation's ``kernel`` on its operand values and parameters,
given the shape the rule returns: a walk calls the two directly, not the
public function, and runs whole under one ``np.errstate(all="ignore")``.
An error that a node's rule, kernel or VJP rule raises leaves the walk
as it is, with that node as its ``node``.
Beyond its fields, a node class holds only real parameter glue and its VJP
rule.  Ops of one form share a base class for their fields (``Unary``,
``Binary``, ``Reduce``, ``ArgExtremum``, ``TopK``, ``LinAlg``); a base
names no operation, and building one raises ``TypeError``.

Random literals (``random over (axes)``) have a shape but no values here:
:mod:`ntensor.lang` replaces them with seeded constants as it splices,
and evaluating one that was not replaced raises.

Derivatives follow the named-axis convention: the derivative of ``Y`` (shape
``T``) with respect to variable ``X`` (shape ``S``) is a tensor over ``S``
together with a *primed* copy of ``T`` -- every output name that collides
with an input name gains prime marks until fresh, so input and output axes
never mix.  ``jacobian`` returns the dense derivative plus the applied
renaming; ``vjp`` contracts a cotangent against the derivative without ever
materializing it.  ``jacobian`` is one backward pass: its cotangent is the
identity between ``T`` and *probe* copies of ``T``, named fresh against
every axis in the graph.  So every VJP rule must broadcast over axes it
does not name, as the operations themselves do; a rule returns its
cotangents unfitted, and the backward pass sums out the axes broadcasting
introduced and replicates over the axes a reduction consumed.

Subgradient conventions: ``relu`` has slope 0 at the origin; max/min
reductions send all mass to the first extremum in record-enumeration order;
``argmax``/``argmin``/``argmaxk`` and index arguments are treated as
constants; ``maxk`` differentiates through the selected positions.
Differentiating through ``det``/``inv`` is unsupported: it raises when
one lies on a path from the output to the variable, and a ``det`` or
``inv`` of values that do not depend on the variable is a constant.

The backward pass builds cotangents only for nodes that depend on the
variable (activity analysis), so the cotangents of weights, masks and
other constant operands are never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import lift, ops
from .axes import Axis, Record, Shape, prime
from .errors import (
    MissingAxis,
    NamedTensorError,
    ShapeError,
    ShapeMismatch,
    SizeMismatch,
    UnboundVariable,
    UnsupportedDerivative,
)
from .ops import _aligned
from .rng import SplitMix64
from .tensor import NamedTensor, as_tensor

__all__ = [
    "Expr", "Derivative", "LiftReport",
    "var", "const", "literal", "random_literal", "size_of",
    "add", "sub", "mul", "div", "pow_", "neg",
    "relu", "sigmoid", "exp", "log", "sqrt",
    "sum_", "mean_", "max_", "min_", "var_", "norm_",
    "contract", "softmax", "argmax", "argmin", "standardize",
    "rename", "merge", "split", "unroll", "index_select",
    "maxk", "argmaxk", "det", "inv", "partial_index",
    "splice", "infer_shape", "evaluate", "vjp", "jacobian", "lifted_derivative_check",
]


def _declared(sizes: Optional[Mapping[str, int]], name: str, given: Optional[int] = None) -> int:
    """``given`` when it is not None, else the size declared for ``name`` in
    the caller's table, read as given; a table, even an empty one, declares
    every size, and shape inference holds constants to it."""
    if given is not None:
        return given
    if name not in (sizes or {}):
        raise MissingAxis(f"axis {name!r} has no declared size", name)
    return sizes[name]


class Expr:
    """Base class for expression nodes.  Nodes are immutable after creation.

    Every subclass is made a dataclass when it is defined; see the module
    docstring for what its field declarations mean.  Fields annotated
    ``tuple`` are stored as tuples.
    """

    operation = None  # the ops function whose rule and kernel the node runs
    span = None  # (line, col), set by the language parser

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(eq=False, repr=False)(cls)
        declared = fields(cls)  # annotations are strings under __future__
        cls._operands = tuple(f.name for f in declared if f.type == "Expr")
        cls._params = tuple(f.name for f in declared if f.type != "Expr")
        cls._tuples = tuple(f.name for f in declared if f.type == "tuple")

    def __post_init__(self):
        for name in self._tuples:
            setattr(self, name, tuple(getattr(self, name)))
        if self.operation is None and self._operands:
            raise TypeError(f"{type(self).__name__} is abstract: build one of its subclasses")
        kids = tuple([getattr(self, name) for name in self._operands])
        for kid in kids:
            if not isinstance(kid, Expr):  # the common all-Expr case skips this
                kids = tuple([k if isinstance(k, Expr) else Const(k) for k in kids])
                for name, k in zip(self._operands, kids):
                    setattr(self, name, k)
                break
        self._children = kids

    def children(self) -> tuple:
        return self._children

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._params])

    def with_children(self, kids: Sequence["Expr"]) -> "Expr":
        """This node with its operands replaced by the expressions ``kids``;
        the parameters, already checked and normalised, and the span are
        kept as they are."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.__dict__.update(zip(self._operands, kids))
        new._children = tuple(kids)
        return new

    def _args(self, shape: Shape, sizes) -> tuple:
        """The static arguments the operation takes besides its operands;
        ``shape`` is the first operand's."""
        return self._key()

    def _call(self, kids, args) -> tuple:
        """The operation's arguments in its order, given the operands'
        shapes or values ``kids`` and the static arguments ``args``."""
        return (*kids, *args)

    def _infer(self, child_shapes, sizes, env) -> Shape:
        return self.operation.rule(*self._call(child_shapes, self._args(child_shapes[0], sizes)))

    def _eval(self, child_values, sizes, env) -> NamedTensor:
        op, args = self.operation, self._args(child_values[0].shape, sizes)
        out = op.rule(*self._call([v.shape for v in child_values], args))
        return op.kernel(out, *self._call(child_values, args))

    def _grads(self, g: NamedTensor, child_values, value: NamedTensor,
               need: Sequence[bool]):
        """The cotangent of each operand, or None; ``need`` flags the
        operands that depend on the variable, and only those are used."""
        raise NotImplementedError(f"{type(self).__name__} has no VJP rule")

    def __eq__(self, other):
        """Structural equality; spans never take part."""
        if not isinstance(other, Expr):
            return NotImplemented
        pairs, seen = [(self, other)], set()
        while pairs:
            x, y = pairs.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
            if type(x) is not type(y) or x._key() != y._key():
                return False
            pairs.extend(zip(x._children, y._children))
        return True

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return Add(self, other)

    def __radd__(self, other):
        return Add(other, self)

    def __sub__(self, other):
        return Sub(self, other)

    def __rsub__(self, other):
        return Sub(other, self)

    def __mul__(self, other):
        return Mul(self, other)

    def __rmul__(self, other):
        return Mul(other, self)

    def __truediv__(self, other):
        return Div(self, other)

    def __rtruediv__(self, other):
        return Div(other, self)

    def __pow__(self, other):
        return Pow(self, other)

    def __neg__(self):
        return Neg(self)


# ---------------------------------------------------------------------------
# leaves

class Var(Expr):
    name: str

    def _infer(self, child_shapes, sizes, env):
        if self.name not in env:
            raise UnboundVariable(f"variable {self.name!r} is not bound")
        bound = env[self.name]
        return bound.shape if isinstance(bound, NamedTensor) else bound

    def _eval(self, child_values, sizes, env):
        if self.name not in env:
            raise UnboundVariable(f"variable {self.name!r} is not bound")
        return as_tensor(env[self.name])

    def __repr__(self):
        return f"Var({self.name!r})"


class Const(Expr):
    """A constant tensor: a number, a tensor literal or a drawn random literal."""

    value: NamedTensor

    def __post_init__(self):
        self.value = as_tensor(self.value)
        super().__post_init__()

    def _infer(self, child_shapes, sizes, env):
        shape = self.value.shape
        if sizes is not None:
            for ax in shape:
                declared = _declared(sizes, ax.name)
                if declared != ax.size:
                    raise SizeMismatch(
                        f"literal gives {ax.name!r} size {ax.size}, "
                        f"declared size is {declared}"
                    )
        return shape

    def _eval(self, child_values, sizes, env):
        return self.value


class RandomLiteral(Expr):
    """Uniform [-1, 1) values over declared axes, drawn by ``lang.run_program``."""

    axis_names: tuple

    def _infer(self, child_shapes, sizes, env):
        try:
            return Shape(Axis(n, _declared(sizes, n)) for n in self.axis_names)
        except ValueError as e:
            raise ShapeError(str(e)) from None

    def _eval(self, child_values, sizes, env):
        raise NamedTensorError(
            "random literal has no values; lang.run_program draws them"
        )


class SizeOf(Expr):
    """The size of a declared axis, as a scalar."""

    axis_name: str

    def _infer(self, child_shapes, sizes, env):
        _declared(sizes, self.axis_name)
        return Shape()

    def _eval(self, child_values, sizes, env):
        return NamedTensor.scalar(_declared(sizes, self.axis_name))


# ---------------------------------------------------------------------------
# gradient plumbing

def _fit(g: NamedTensor, target: Shape, probes: Shape) -> NamedTensor:
    """Fit a child's cotangent to ``target ∪ probes``: sum the axes that
    broadcasting introduced, then replicate over the axes a reduction
    consumed.  Probe axes are carried through untouched."""
    extra = [n for n in g.shape.names if n not in target and n not in probes]
    if extra:
        g = ops.sum_(g, extra)
    full = target.union(probes)
    return g if g.shape == full else NamedTensor._own(full, _aligned(g, full))


def _fresh(name: str, taken: set) -> str:
    """``name`` primed until it is not in ``taken``, which then records it."""
    name = prime(name)
    while name in taken:
        name = prime(name)
    taken.add(name)
    return name


# ---------------------------------------------------------------------------
# elementwise nodes

class Unary(Expr):
    """An elementwise function of one operand; each subclass is one."""

    child: Expr


class Neg(Unary):
    operation = staticmethod(ops.neg)

    def _grads(self, g, child_values, value, need):
        return (ops.neg(g),)


class Relu(Unary):
    operation = staticmethod(ops.relu)

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        return (ops.mul(g, NamedTensor._own(x.shape, (x.array > 0.0).astype(float))),)


class Sigmoid(Unary):
    operation = staticmethod(ops.sigmoid)

    def _grads(self, g, child_values, value, need):
        return (ops.mul(ops.mul(g, value), ops.sub(1.0, value)),)


class Exp(Unary):
    operation = staticmethod(ops.exp)

    def _grads(self, g, child_values, value, need):
        return (ops.mul(g, value),)


class Log(Unary):
    operation = staticmethod(ops.log)

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        return (ops.div(g, x),)


class Sqrt(Unary):
    operation = staticmethod(ops.sqrt)

    def _grads(self, g, child_values, value, need):
        return (ops.div(g, ops.mul(2.0, value)),)


class Binary(Expr):
    """An elementwise function of two operands; each subclass is one."""

    a: Expr
    b: Expr


class Add(Binary):
    operation = staticmethod(ops.add)

    def _grads(self, g, child_values, value, need):
        return (g, g)


class Sub(Binary):
    operation = staticmethod(ops.sub)

    def _grads(self, g, child_values, value, need):
        return (g, ops.neg(g) if need[1] else None)


class Mul(Binary):
    operation = staticmethod(ops.mul)

    def _grads(self, g, child_values, value, need):
        a, b = child_values
        da, db = need
        return (ops.mul(g, b) if da else None, ops.mul(g, a) if db else None)


class Div(Binary):
    operation = staticmethod(ops.div)

    def _grads(self, g, child_values, value, need):
        a, b = child_values
        da, db = need
        return (ops.div(g, b) if da else None,
                ops.neg(ops.div(ops.mul(g, value), b)) if db else None)


class Pow(Binary):
    operation = staticmethod(ops.pow_)

    def _grads(self, g, child_values, value, need):
        a, b = child_values
        da, db = need
        # d/da = b * a**(b-1), d/db = value * log(a)
        return (
            ops.mul(g, ops.mul(b, ops.pow_(a, ops.sub(b, 1.0)))) if da else None,
            ops.mul(g, ops.mul(value, ops.log(a))) if db else None,
        )


# ---------------------------------------------------------------------------
# reductions and contraction

class Reduce(Expr):
    """A reduction over ``axes``; each subclass is one."""

    child: Expr
    axes: tuple


class Sum(Reduce):
    operation = staticmethod(ops.sum_)

    def _grads(self, g, child_values, value, need):
        return (g,)


class Mean(Reduce):
    operation = staticmethod(ops.mean_)

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        return (ops.div(g, math.prod(x.shape.size(a) for a in self.axes)),)


class Max(Reduce):
    operation = staticmethod(ops.max_)

    def _grads(self, g, child_values, value, need):
        return (ops.mul(g, _first_extremum_mask(child_values[0], self.axes, minimize=False)),)


class Min(Reduce):
    operation = staticmethod(ops.min_)

    def _grads(self, g, child_values, value, need):
        return (ops.mul(g, _first_extremum_mask(child_values[0], self.axes, minimize=True)),)


class Variance(Reduce):
    """The population variance; ``Var`` is the variable leaf."""

    operation = staticmethod(ops.var_)

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        if not self.axes:  # each entry is its own fiber, of variance 0
            return (NamedTensor.zeros(x.shape),)
        xc = ops.sub(x, ops.mean_(x, self.axes))
        n = math.prod(x.shape.size(a) for a in self.axes)
        return (ops.div(ops.mul(ops.mul(g, 2.0), xc), n),)


class Norm(Reduce):
    operation = staticmethod(ops.norm_)

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        y = _aligned(value, x.shape)
        local = np.divide(x.array, y, out=np.zeros(x.shape.sizes), where=y != 0.0)
        return (ops.mul(g, NamedTensor._own(x.shape, local)),)


def _first_extremum_mask(x: NamedTensor, axes: tuple, minimize: bool) -> NamedTensor:
    """One-hot mask over ``x.shape`` selecting the first extremum of each
    fiber over ``axes``.

    "First" means lowest in record-enumeration order over the reduced axes.
    """
    arr = x.array
    pos = tuple(x.shape.names.index(a) for a in axes)
    keep = [i for i in range(arr.ndim) if i not in pos]
    perm = keep + list(pos)
    moved = arr.transpose(perm)
    lead = moved.shape[: len(keep)]
    flat = moved.reshape(lead + (-1,))
    idx = flat.argmin(axis=-1) if minimize else flat.argmax(axis=-1)
    onehot = np.zeros_like(flat)
    np.put_along_axis(onehot, idx[..., None], 1.0, axis=-1)
    return NamedTensor._own(x.shape, onehot.reshape(moved.shape).transpose(np.argsort(perm)))


class Contract(Expr):
    operation = staticmethod(ops.contract)
    a: Expr
    b: Expr
    axes: tuple

    def _grads(self, g, child_values, value, need):
        a, b = child_values
        sa, sb = a.shape, b.shape
        da, db = need
        # each side sums the other operand's own axes, so _fit has none left
        return (
            ops.contract(g, b, [n for n in sb.names if n not in sa]) if da else None,
            ops.contract(g, a, [n for n in sa.names if n not in sb]) if db else None,
        )


class Softmax(Expr):
    operation = staticmethod(ops.softmax)
    child: Expr
    axes: tuple

    def _grads(self, g, child_values, value, need):
        y = value
        inner = ops.contract(g, y, self.axes)
        return (ops.mul(y, ops.sub(g, inner)),)


class ArgExtremum(Expr):
    """One-hot mass on the extrema over ``axes``; an index is a constant."""

    child: Expr
    axes: tuple

    def _grads(self, g, child_values, value, need):
        return (None,)


class ArgMax(ArgExtremum):
    operation = staticmethod(ops.argmax)


class ArgMin(ArgExtremum):
    operation = staticmethod(ops.argmin)


class Standardize(Expr):
    operation = staticmethod(ops.standardize)
    child: Expr
    axes: tuple

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        n = float(math.prod(x.shape.size(a) for a in self.axes))
        q = ops.sqrt(ops.add(ops.var_(x, self.axes), ops.EPS))
        xc = ops.sub(x, ops.mean_(x, self.axes))
        t1 = ops.div(g, q)
        t2 = ops.div(ops.sum_(g, self.axes), ops.mul(n, q))
        t3 = ops.div(
            ops.mul(xc, ops.contract(g, xc, self.axes)),
            ops.mul(n, ops.pow_(q, 3.0)),
        )
        return (ops.sub(ops.sub(t1, t2), t3),)


# ---------------------------------------------------------------------------
# structural nodes

class Rename(Expr):
    operation = staticmethod(ops.rename)
    child: Expr
    old: str
    new: str

    def _grads(self, g, child_values, value, need):
        return (ops.rename(g, self.new, self.old),)


class Merge(Expr):
    operation = staticmethod(ops.merge_axes)
    child: Expr
    parts: tuple
    merged_name: str

    def _args(self, shape, sizes):
        ops._check_axis_list(shape, self.parts)
        size = math.prod(shape.size(p) for p in self.parts)
        return (self.parts, Axis(self.merged_name, size))

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        at = g.shape.names.index(self.merged_name)
        names = g.shape.names[:at] + self.parts + g.shape.names[at + 1 :]
        dims = g.shape.sizes[:at] + tuple(map(x.shape.size, self.parts)) + g.shape.sizes[at + 1 :]
        shape = g.shape.drop([self.merged_name]).union(x.shape.keep(self.parts))
        return (NamedTensor._own(shape, g.array.reshape(dims), names),)


class Split(Expr):
    operation = staticmethod(ops.split_axis)
    child: Expr
    src: str
    outer_name: str
    inner_name: str
    inner_size: Optional[int] = None

    def _args(self, shape, sizes):
        n = shape.size(self.src)
        inner = _declared(sizes, self.inner_name, self.inner_size)
        if inner < 1 or n % inner != 0:
            raise SizeMismatch(f"cannot split {self.src}[{n}] into blocks of {inner}")
        outer = Axis(self.outer_name, n // inner)
        return (self.src, outer, Axis(self.inner_name, inner))

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        merged = Axis(self.src, x.shape.size(self.src))
        return (ops.merge_axes(g, [self.outer_name, self.inner_name], merged),)


class Unroll(Expr):
    operation = staticmethod(ops.unroll)
    child: Expr
    seq: str
    kernel_name: str
    kernel_size: Optional[int] = None

    def _args(self, shape, sizes):
        size = _declared(sizes, self.kernel_name, self.kernel_size)
        return (self.seq, Axis(self.kernel_name, size))

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        # kernel offset j of every window reads input positions j+1 .. j+length
        rest = g.shape.drop([self.kernel_name, self.seq])
        shape = rest.union(Shape([x.shape.axis(self.seq)]))
        out = np.zeros(shape.sizes)
        seq_pos = shape.names.index(self.seq)
        length = g.shape.size(self.seq)
        # g without the kernel axis has out's names, in out's canonical order
        before_kernel = (slice(None),) * g.shape.names.index(self.kernel_name)
        for j in range(g.shape.size(self.kernel_name)):
            sl = [slice(None)] * out.ndim
            sl[seq_pos] = slice(j, j + length)
            out[tuple(sl)] += g.array[before_kernel + (j,)]  # a view, not a copy
        return (NamedTensor._own(shape, out),)


class IndexSelect(Expr):
    operation = staticmethod(ops.index_select)
    a: Expr
    ax: str
    indices: Expr

    def _call(self, kids, args):
        return (kids[0], *args, kids[1])

    def _grads(self, g, child_values, value, need):
        a, idx = child_values
        n = a.shape.size(self.ax)
        onehot = NamedTensor._own(
            idx.shape.union(a.shape.keep([self.ax])),
            (idx.array[..., None] == np.arange(1.0, n + 1.0)).astype(float),
            idx.shape.names + (self.ax,),
        )
        idx_only = [name for name in idx.shape.names if name not in a.shape]
        return (ops.contract(g, onehot, idx_only), None)


class TopK(Expr):
    """A selection of the k largest entries along ``ax``, over a new axis."""

    child: Expr
    ax: str
    k_name: str
    k_size: Optional[int] = None

    def _args(self, shape, sizes):
        return (self.ax, Axis(self.k_name, _declared(sizes, self.k_name, self.k_size)))


class MaxK(TopK):
    """The k largest values."""

    operation = staticmethod(ops.maxk)

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        selectors = ops.argmaxk(x, self.ax, g.shape.axis(self.k_name))
        return (ops.contract(g, selectors, [self.k_name]),)


class ArgMaxK(TopK):
    """One-hot selectors for the k largest values; they are constants."""

    operation = staticmethod(ops.argmaxk)

    def _grads(self, g, child_values, value, need):
        return (None,)


class LinAlg(Expr):
    """A function of the matrices over (rows, cols); it has no derivative."""

    child: Expr
    rows: str
    cols: str

    def _grads(self, g, child_values, value, need):
        raise UnsupportedDerivative(
            f"differentiation through {self.operation.__name__} is not supported"
        )


class Det(LinAlg):
    operation = staticmethod(ops.det)


class Inv(LinAlg):
    operation = staticmethod(ops.inv)


class PartialIndex(Expr):
    operation = staticmethod(ops.partial_index)
    child: Expr
    bindings: Record

    def __post_init__(self):
        self.bindings = Record(self.bindings)
        super().__post_init__()

    def _grads(self, g, child_values, value, need):
        (x,) = child_values
        for name, i in self.bindings:
            onehot = np.zeros(x.shape.size(name))
            onehot[i - 1] = 1.0
            g = ops.mul(g, NamedTensor._own(x.shape.keep([name]), onehot))
        return (g,)


# ---------------------------------------------------------------------------
# builders: a class whose fields are its builder's arguments is its own

var, const, random_literal, size_of = Var, Const, RandomLiteral, SizeOf
neg, relu, sigmoid, exp, log, sqrt = Neg, Relu, Sigmoid, Exp, Log, Sqrt
add, sub, mul, div, pow_ = Add, Sub, Mul, Div, Pow
sum_, mean_, max_, min_, var_, norm_ = Sum, Mean, Max, Min, Variance, Norm
contract, softmax, standardize = Contract, Softmax, Standardize
argmax, argmin, maxk, argmaxk, det, inv = ArgMax, ArgMin, MaxK, ArgMaxK, Det, Inv
rename, merge, split, unroll = Rename, Merge, Split, Unroll
index_select, partial_index = IndexSelect, PartialIndex


def literal(values, axis_names: Sequence[str]) -> Expr:
    """A constant from nested lists; level ``i`` of nesting binds ``axis_names[i]``."""
    return Const(NamedTensor.from_nested(values, axis_names))


# ---------------------------------------------------------------------------
# graph walkers

def _topo(*roots: Expr) -> list:
    """Post-order over the DAG: every node appears after all its children,
    and each root's new nodes after those of the roots before it."""
    order, seen, stack = [], set(), [(root, False) for root in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node.children():
            stack.append((child, False))
    return order


def _rebuild(order: list, memo: dict) -> Expr:
    """Rebuild the graph listed bottom-up in ``order`` (a ``_topo`` list).

    ``memo`` maps ``id(node)`` to the node's replacement.  Every node not
    in it is kept when its rebuilt children are its own children, and is
    rebuilt on them otherwise; it is entered into ``memo`` either way.
    """
    for node in order:
        if id(node) not in memo:
            old = node.children()
            kids = tuple([memo[id(c)] for c in old])
            same = all(k is c for k, c in zip(kids, old))
            memo[id(node)] = node if same else node.with_children(kids)
    return memo[id(order[-1])]


def splice(bindings: Iterable[Tuple[str, Optional[Expr]]],
           draw: Optional[Callable[[RandomLiteral], Expr]] = None) -> Dict[str, Expr]:
    """A graph for each computed binding of the ordered ``(name, expr)``
    pairs, in which every read of an earlier one is that binding's shared
    graph.  Reads of a binding to None, a :class:`Const` or a
    :class:`RandomLiteral` stay variables.  With ``draw``, each random
    literal is replaced once by ``draw(node)``, in program order (each
    binding depth-first, left to right); a binding to one is drawn too."""
    graphs: Dict[str, Expr] = {}
    memo: dict = {}
    for name, expr in bindings:
        order = [] if expr is None else _topo(expr)
        # Reversed _topo order visits a tree depth-first, left to right.
        for node in reversed(order):
            if isinstance(node, Var) and node.name in graphs:
                memo[id(node)] = graphs[node.name]
            elif draw is not None and isinstance(node, RandomLiteral) and id(node) not in memo:
                memo[id(node)] = draw(node)
        graph = _rebuild(order, memo) if order else None
        if graph is None or isinstance(graph, (Const, RandomLiteral)):
            graphs.pop(name, None)  # a name bound again drops its earlier graph
        else:
            graphs[name] = graph
    return graphs


def infer_shape(e: Expr, env=None, *, axis_sizes=None) -> Shape:
    """The shape ``e`` evaluates to, given variable shapes (or tensors)."""
    _, shapes = _forward([e], env or {}, axis_sizes, infer=True, root_only=True)
    return shapes[id(e)]


# numpy's limit on an array's bytes, in float64 entries
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


def _forward(roots: Sequence[Expr], env, sizes, infer: bool = False, root_only: bool = False):
    """Evaluate every node, children first, or with ``infer`` infer its shape.

    Returns the ``_topo`` order of ``roots`` and each node's result by
    ``id`` (with ``root_only``, each node but a root is dropped after its
    last reader).  An error a node raises is re-raised as it is, with
    ``node`` set to that node if it is not set yet.  An inferred shape with
    more entries than a numpy array can hold is a :class:`ShapeError`.  The
    walk runs under one ``np.errstate(all="ignore")``: kernels follow IEEE
    arithmetic.
    """
    order = _topo(*roots)
    last = {id(c): node for node in order for c in node.children()} if root_only else {}
    for root in roots:
        last.pop(id(root), None)
    out: dict = {}
    with np.errstate(all="ignore"):
        for node in order:
            try:
                kids = [out[id(c)] for c in node.children()]
                step = node._infer if infer else node._eval
                res = out[id(node)] = step(kids, sizes, env)
                if infer and math.prod(res.sizes) > _MAX_ENTRIES:
                    raise ShapeError(
                        f"{res} has {math.prod(res.sizes)} entries, more than "
                        f"the {_MAX_ENTRIES} a numpy array can hold"
                    )
            except NamedTensorError as err:
                if err.node is None:
                    err.node = node
                raise
            for c in node.children():
                if last.get(id(c)) is node:
                    out.pop(id(c), None)
    return order, out


def evaluate(e: Union[Expr, Mapping[str, Expr]], env=None, *, axis_sizes=None):
    """Evaluate the expression under the given variable bindings.

    Given a mapping of names to expressions, evaluate them all in one walk,
    each shared node once, and return their values by name.
    """
    roots = [e] if isinstance(e, Expr) else list(e.values())
    _, vals = _forward(roots, env or {}, axis_sizes, root_only=True)
    return vals[id(e)] if isinstance(e, Expr) else {n: vals[id(r)] for n, r in e.items()}


def _backward(order, vals, root: Expr, cotangent: NamedTensor, wrt: str,
              var_shape: Shape, probes: Shape = Shape()) -> NamedTensor:
    """Propagate ``cotangent`` from ``root`` down to the variable ``wrt``.

    ``probes`` are axes of the cotangent that no node of the graph names.
    Every VJP rule must broadcast over axes it does not name, so they ride
    through each rule untouched and the result has shape ``var_shape ∪
    probes``: one pass pulls back a whole batch of cotangents at once.

    Only nodes that depend on ``wrt`` (the active ones) get a cotangent:
    each rule is told which of its operands are active and builds no
    cotangent for the others.
    """
    active = set()
    for node in order:
        if isinstance(node, Var):
            live = node.name == wrt
        else:
            live = any(id(c) in active for c in node.children())
        if live:
            active.add(id(node))
    cots: Dict[int, NamedTensor] = {id(root): cotangent}
    total: Optional[NamedTensor] = None
    with np.errstate(all="ignore"):  # VJP rules follow IEEE, as the kernels do
        for node in reversed(order):
            if id(node) not in active:
                continue
            g = cots.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Var):
                total = g if total is None else ops.add(total, g)
                continue
            kids = [vals[id(c)] for c in node.children()]
            need = [id(c) in active for c in node.children()]
            try:
                grads = node._grads(g, kids, vals[id(node)], need)
            except NamedTensorError as err:
                if err.node is None:
                    err.node = node
                raise
            for child, kid, cg, needed in zip(node.children(), kids, grads, need):
                if cg is None or not needed:
                    continue
                cg = _fit(cg, kid.shape, probes)
                prev = cots.get(id(child))
                cots[id(child)] = cg if prev is None else ops.add(prev, cg)
    return total if total is not None else NamedTensor.zeros(var_shape.union(probes))


def vjp(e: Expr, wrt: str, env, cotangent, *, axis_sizes=None) -> NamedTensor:
    """Contract a cotangent against the derivative of ``e`` w.r.t. ``wrt``.

    The cotangent must have exactly ``e``'s shape; the result has the
    variable's shape.  For a scalar ``e`` and cotangent 1 this is the
    gradient.
    """
    if wrt not in (env or {}):
        raise UnboundVariable(f"variable {wrt!r} is not bound")
    order, vals = _forward([e], env, axis_sizes)
    cotangent = as_tensor(cotangent)
    if cotangent.shape != vals[id(e)].shape:
        raise ShapeMismatch(
            f"cotangent shape {cotangent.shape} does not match "
            f"expression shape {vals[id(e)].shape}"
        )
    return _backward(order, vals, e, cotangent, wrt, as_tensor(env[wrt]).shape)


@dataclass
class Derivative:
    """A dense derivative tensor plus the output-axis renaming it used.

    ``value`` has shape ``S ∪ T'`` where ``S`` is the variable's shape and
    ``T'`` is the output shape with colliding names primed; ``rename_map``
    records exactly the renamings applied (empty when shapes are already
    orthogonal).  Entry ``(s, t')`` is the partial derivative of output
    record ``t`` with respect to input record ``s``.
    """

    value: NamedTensor
    rename_map: dict


def jacobian(e: Expr, wrt: str, env, *, axis_sizes=None) -> Derivative:
    """The dense derivative of ``e`` with respect to variable ``wrt``.

    One backward pass computes it: the cotangent is the identity between
    the output axes ``T`` and probe copies of them, fresh against every
    axis name in the graph, and the probes are renamed to ``T'`` at the end.
    """
    if wrt not in (env or {}):
        raise UnboundVariable(f"variable {wrt!r} is not bound")
    var_shape = as_tensor(env[wrt]).shape
    order, vals = _forward([e], env, axis_sizes)
    out_shape = vals[id(e)].shape

    taken = set(out_shape.names) | set(var_shape.names)
    rename_map = {n: _fresh(n, taken) for n in out_shape.names if n in var_shape}
    taken.update(n for v in vals.values() for n in v.shape.names)
    probe = {n: _fresh(n, taken) for n in out_shape.names}
    probes = Shape(Axis(p, out_shape.size(n)) for n, p in probe.items())
    eye = np.eye(out_shape.num_records).reshape(out_shape.sizes * 2)
    seed = NamedTensor._own(out_shape.union(probes), eye, out_shape.names + tuple(probe.values()))
    total = _backward(order, vals, e, seed, wrt, var_shape, probes)
    public = {p: rename_map.get(n, n) for n, p in probe.items()}
    return Derivative(ops.rename_many(total, public), rename_map)


@dataclass
class LiftReport:
    """Outcome of checking the broadcast-derivative identity."""

    passed: bool
    max_diagonal_error: float
    max_off_block_abs: float
    extension: Shape

    def __str__(self):
        status = "ok" if self.passed else "FAILED"
        return (
            f"lifted derivative over {self.extension}: {status} "
            f"(diag err {self.max_diagonal_error:.2e}, "
            f"off-block max {self.max_off_block_abs:.2e})"
        )


def lifted_derivative_check(
    build: Callable[[Expr], Expr],
    base_shape: Shape,
    extension: Shape,
    *,
    seed: int = 0,
    tolerance: float = 1e-8,
) -> LiftReport:
    """Verify that lifting a function multiplies its derivative by identities.

    ``build`` maps a variable expression to the function's body.  The
    function is evaluated on a random input carrying the extension axes.
    Its full Jacobian must equal the base Jacobian, lifted over the
    extension by :func:`~ntensor.lift.extend`, times the identity between
    every extension axis and its output copy: each diagonal block within
    ``tolerance``, every other block exactly zero, and no NaN anywhere.
    """
    if not base_shape.orthogonal(extension):
        raise ShapeError(f"extension {extension} overlaps base shape {base_shape}")
    rng = SplitMix64(seed)
    full_shape = base_shape.union(extension)
    data = rng.floats(full_shape.num_records).reshape(full_shape.sizes)
    x_full = NamedTensor._own(full_shape, data)
    body = build(Var("x"))
    base_out = infer_shape(body, {"x": base_shape})  # raises if it names an extension axis
    full = jacobian(body, "x", {"x": x_full})

    def base_jacobian(x: NamedTensor) -> NamedTensor:
        base = jacobian(body, "x", {"x": x})
        # output axis t is named base.rename_map[t] in base.value and
        # full.rename_map[t] in full.value
        unprime = {p: t for t, p in base.rename_map.items()}
        outputs = [unprime.get(n, n) for n in base.value.shape.names if n not in base_shape]
        return ops.rename_many(base.value, {
            base.rename_map.get(t, t): full.rename_map.get(t, t) for t in outputs
        })

    blocks = Shape(Axis(full.rename_map.get(t.name, t.name), t.size) for t in base_out)
    lifted = lift.TensorFunction((base_shape,), blocks.union(base_shape), base_jacobian)
    want = lift.extend(lifted, x_full)
    on_diagonal = NamedTensor.scalar(1.0)
    for ax in extension:
        copy = Axis(full.rename_map[ax.name], ax.size)
        on_diagonal = ops.mul(on_diagonal, ops.identity(ax, copy))
    diagonal = _aligned(on_diagonal, full.value.shape) == 1.0
    err = np.abs(ops.sub(full.value, want).array)
    max_diag = float(err[diagonal].max(initial=0.0))
    max_off = float(np.abs(full.value.array[~diagonal]).max(initial=0.0))
    passed = max_diag <= tolerance and max_off == 0.0
    return LiftReport(passed, max_diag, max_off, extension)
