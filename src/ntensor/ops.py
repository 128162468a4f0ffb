"""The common operation set on named tensors.

Every operation here is defined at a base shape and behaves as its lifted
extension: axes not consumed by the operation are carried through unchanged,
slice by slice.  Binary operations broadcast along absent names only; a
shared name must have the same size on both operands or the call fails.

Each operation, partial indexing by a record included, is declared here
once, by :func:`_op`, as its shape rule and its kernel.  The rule validates
operand shapes and returns the result shape without touching any values;
the kernel computes the values of that shape.  The public function derived
from the pair runs the kernel under one ``np.errstate(all="ignore")``, so
kernels follow IEEE arithmetic without a warning, and reads ``kernel`` off
itself as an :mod:`ntensor.autodiff` walk does.  Binary ops share
``binary_shape``, elementwise unary ops ``unary_shape``, the six
reductions (``sum_`` … ``norm_``) ``reduce_shape``, and ``softmax``,
``argmax``, ``argmin`` and ``standardize`` ``softmax_shape``.  The rules
are the single source of truth for the static shape checker, so a program
that passes checking cannot fail at runtime for shape reasons.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from ._blas import one_thread
from .axes import Axis, Record, Shape
from .errors import (
    AllMasked,
    ExtensionCollision,
    IndexOutOfRange,
    InvalidRecord,
    NameCollision,
    ShapeError,
    SingularMatrix,
    SizeMismatch,
)
from .tensor import NamedTensor, as_tensor

__all__ = [
    "add", "sub", "mul", "div", "pow_", "neg",
    "map_elementwise", "relu", "sigmoid", "exp", "log", "sqrt",
    "sum_", "min_", "max_", "mean_", "var_", "norm_",
    "contract", "softmax", "argmax", "argmin",
    "rename", "rename_many", "merge_axes", "split_axis", "unroll",
    "index_select", "maxk", "argmaxk", "det", "inv", "standardize",
    "identity", "identity_shape", "partial_index", "partial_index_shape",
    "binary_shape", "unary_shape", "reduce_shape", "contract_shape", "softmax_shape",
    "rename_shape", "rename_many_shape", "merge_shape", "split_shape", "unroll_shape",
    "index_select_shape", "maxk_shape", "argmaxk_shape",
    "det_shape", "inv_shape",
]

PIVOT_RTOL = 1e-12


def _op(rule: Callable[..., Shape]) -> Callable[[Callable], Callable]:
    """Declare an operation by its shape rule and its kernel.

    The public function is generated from the kernel's parameters after
    ``out``, as :mod:`dataclasses` generates ``__init__``, so its signature
    and argument errors are those of a written function.  Each parameter
    annotated ``NamedTensor`` is an operand: it is coerced by
    :func:`as_tensor`, and the rule takes its shape in its place.
    """

    def declare(kernel: Callable) -> Callable:
        params = list(inspect.signature(kernel).parameters.values())[1:]
        args = ", ".join(p.name for p in params)
        operands = [p.name for p in params if p.annotation == "NamedTensor"]
        shapes = ", ".join(p.name + ".shape" * (p.name in operands) for p in params)
        source = (f"def {kernel.__name__}({args}):\n"
                  + "".join(f"    {name} = as_tensor({name})\n" for name in operands)
                  + f"    out = rule({shapes})\n    with np.errstate(all='ignore'):\n"
                  + f"        return public.kernel(out, {args})\n")
        scope = {"__name__": __name__, "as_tensor": as_tensor, "np": np, "rule": rule}
        exec(compile(source, f"<ntensor.ops.{kernel.__name__}>", "exec"), scope)
        public = scope["public"] = scope[kernel.__name__]
        public.__doc__, public.rule, public.kernel = kernel.__doc__, rule, kernel
        return public

    return declare


# ---------------------------------------------------------------------------
# alignment helpers

def _expanded(t: NamedTensor, target: Shape) -> np.ndarray:
    """A read-only view of ``t`` laid out in ``target``'s canonical order,
    with size 1 on the axes ``t`` lacks, so numpy broadcasts it to ``target``.

    Requires ``t.shape ⊆ target`` (same sizes on shared names); because both
    name tuples are sorted, ``t``'s names form a subsequence of the target's.
    """
    arr = t.array
    tnames = t.shape.names
    if len(tnames) == len(target.names):
        return arr
    dims = []
    i = 0
    for name in target.names:
        if i < len(tnames) and tnames[i] == name:
            dims.append(arr.shape[i])
            i += 1
        else:
            dims.append(1)
    return arr.reshape(dims)


def _aligned(t: NamedTensor, target: Shape) -> np.ndarray:
    """A read-only view of ``t`` broadcast to ``target``'s canonical layout."""
    return np.broadcast_to(_expanded(t, target), target.sizes)


def _axis_positions(shape: Shape, axes: Sequence[str]) -> tuple:
    names = shape.names
    return tuple(names.index(a) for a in axes)


def _check_axis_list(shape: Shape, axes: Sequence[str]) -> tuple:
    axes = tuple(axes)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"axis list {list(axes)} contains duplicates")
    for a in axes:
        shape.size(a)  # raises MissingAxis
    return axes


# ---------------------------------------------------------------------------
# elementwise operations

def binary_shape(sa: Shape, sb: Shape) -> Shape:
    return sa.union(sb)


@_op(binary_shape)
def add(out, a: NamedTensor, b: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.add(_expanded(a, out), _expanded(b, out)))


@_op(binary_shape)
def sub(out, a: NamedTensor, b: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.subtract(_expanded(a, out), _expanded(b, out)))


@_op(binary_shape)
def mul(out, a: NamedTensor, b: NamedTensor) -> NamedTensor:
    """Elementwise product with broadcast: contraction over zero axes."""
    return NamedTensor._own(out, np.multiply(_expanded(a, out), _expanded(b, out)))


@_op(binary_shape)
def div(out, a: NamedTensor, b: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.true_divide(_expanded(a, out), _expanded(b, out)))


@_op(binary_shape)
def pow_(out, a: NamedTensor, b: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.power(_expanded(a, out), _expanded(b, out)))


def unary_shape(s: Shape) -> Shape:
    return s


@_op(unary_shape)
def neg(out, a: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.negative(a.array))


@_op(lambda f, s: s)
def map_elementwise(out, f: Callable[[float], float], a: NamedTensor) -> NamedTensor:
    """Apply an arbitrary scalar function to every entry."""
    return NamedTensor._own(out, np.vectorize(f, otypes=[np.float64])(a.array))


@_op(unary_shape)
def relu(out, a: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.maximum(a.array, 0.0))


@_op(unary_shape)
def sigmoid(out, a: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, 1.0 / (1.0 + np.exp(-a.array)))


@_op(unary_shape)
def exp(out, a: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.exp(a.array))


@_op(unary_shape)
def log(out, a: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.log(a.array))


@_op(unary_shape)
def sqrt(out, a: NamedTensor) -> NamedTensor:
    return NamedTensor._own(out, np.sqrt(a.array))


# ---------------------------------------------------------------------------
# reductions

def reduce_shape(s: Shape, axes: Sequence[str]) -> Shape:
    return s.drop(_check_axis_list(s, axes))


def _reduced(out: Shape, a: NamedTensor, axes: Sequence[str], reduce: Callable) -> NamedTensor:
    """``reduce(a.array, axis=...)`` jointly over ``axes``; over no axes,
    each entry is its own fiber and the result is ``a`` itself."""
    if not axes:
        return a
    return NamedTensor._own(out, reduce(a.array, axis=_axis_positions(a.shape, axes)))


@_op(reduce_shape)
def sum_(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """The sum over the given axes, jointly."""
    return _reduced(out, a, axes, np.ndarray.sum)


@_op(reduce_shape)
def min_(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """The minimum over the given axes, jointly."""
    return _reduced(out, a, axes, np.ndarray.min)


@_op(reduce_shape)
def max_(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """The maximum over the given axes, jointly."""
    return _reduced(out, a, axes, np.ndarray.max)


@_op(reduce_shape)
def mean_(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """The mean over the given axes, jointly."""
    return _reduced(out, a, axes, np.ndarray.mean)


@_op(reduce_shape)
def var_(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """The population variance (1/n); over no axes, zeros."""
    if not axes:
        return NamedTensor._own(out, np.zeros(out.sizes))
    return _reduced(out, a, axes, np.ndarray.var)


@_op(reduce_shape)
def norm_(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """The 2-norm; over no axes, ``|a|``."""
    if not axes:
        return NamedTensor._own(out, np.abs(a.array))
    return _reduced(out, a, axes, lambda arr, axis: np.sqrt((arr * arr).sum(axis=axis)))


# ---------------------------------------------------------------------------
# contraction

def contract_shape(sa: Shape, sb: Shape, axes: Sequence[str]) -> Shape:
    union = sa.union(sb)
    axes = _check_axis_list(union, axes)
    return union.drop(axes)


@_op(contract_shape)
def contract(out, a: NamedTensor, b: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """Elementwise product, then summation over the named axes.

    With an empty axis list this is the plain (broadcasting) elementwise
    product.  Otherwise an axis present in only one operand is summed out
    of that operand first, and the rest is one batched ``np.matmul``:
    ``a`` laid out as (batch, free in ``a``, summed) times ``b`` as (batch,
    summed, free in ``b``), where batch axes are shared and kept.  The
    product over the axis union is never built, so temporary memory is
    bounded by the operands plus the output.  The summation order is
    matmul's, not that of summing the elementwise product, so the last
    bits of a result may differ from ``sum_(mul(a, b), axes)``.
    The matmul runs on one BLAS thread (``_blas.one_thread``).
    """
    if not axes:
        return NamedTensor._own(out, np.multiply(_expanded(a, out), _expanded(b, out)))
    summed = set(axes)
    in_a, in_b = set(a.shape.names), set(b.shape.names)
    x, xn = _sum_alone(a, in_b, summed)
    y, yn = _sum_alone(b, in_a, summed)
    batch = [n for n in xn if n in in_b and n not in summed]
    inner = [n for n in xn if n in summed]
    free_a = [n for n in xn if n not in in_b]
    free_b = [n for n in yn if n not in in_a]
    x = x.transpose([xn.index(n) for n in batch + free_a + inner])
    y = y.transpose([yn.index(n) for n in batch + inner + free_b])
    lead = x.shape[: len(batch) + len(free_a)]  # (batch, free in a) sizes
    nb, nk = math.prod(lead[: len(batch)]), math.prod(x.shape[len(lead):])
    with one_thread():
        prod = np.matmul(x.reshape(nb, -1, nk), y.reshape(nb, nk, -1))
    dims = lead + y.shape[len(batch) + len(inner):]
    return NamedTensor._own(out, prod.reshape(dims), batch + free_a + free_b)


def _sum_alone(t: NamedTensor, other: set, summed: set) -> tuple:
    """``t``'s array with the summed axes missing from the names ``other``
    summed out, and the names of its remaining dimensions."""
    names = t.shape.names
    alone = tuple(i for i, n in enumerate(names) if n in summed and n not in other)
    if not alone:
        return t.array, names
    return t.array.sum(axis=alone), tuple(n for n in names if n not in summed or n in other)


# ---------------------------------------------------------------------------
# vectors to vectors

def softmax_shape(s: Shape, axes: Sequence[str]) -> Shape:
    _check_axis_list(s, axes)
    return s


@_op(softmax_shape)
def softmax(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """Softmax over the joint record space of the given axes.

    Entries of ``-inf`` contribute zero mass (mask semantics); a fiber that
    is entirely ``-inf`` raises :class:`AllMasked`.  A fiber holding NaN or
    ``+inf`` is NaN throughout (``+inf - +inf`` is NaN).  Computation
    subtracts the fiber maximum for stability.
    """
    pos = _axis_positions(a.shape, axes)
    arr = a.array
    m = arr.max(axis=pos, keepdims=True)
    if np.any(np.isneginf(m)):
        raise AllMasked(f"softmax over {list(axes)}: a fiber is entirely -inf")
    e = np.exp(arr - m)
    return NamedTensor._own(out, e / e.sum(axis=pos, keepdims=True))


def _extremum_mass(out: Shape, a: NamedTensor, axes, minimize: bool) -> NamedTensor:
    pos = _axis_positions(a.shape, axes)
    arr = a.array
    m = arr.min(axis=pos, keepdims=True) if minimize else arr.max(axis=pos, keepdims=True)
    mask = (arr == m).astype(np.float64)
    # a NaN fiber has no extremum: 0/0
    return NamedTensor._own(out, mask / mask.sum(axis=pos, keepdims=True))


@_op(softmax_shape)
def argmax(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """Uniform mass over the tied maxima of each fiber, zero elsewhere."""
    return _extremum_mass(out, a, axes, minimize=False)


@_op(softmax_shape)
def argmin(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """Uniform mass over the tied minima of each fiber, zero elsewhere."""
    return _extremum_mass(out, a, axes, minimize=True)


# ---------------------------------------------------------------------------
# renaming and reshaping

def rename_shape(s: Shape, old: str, new: str) -> Shape:
    s.size(old)  # raises MissingAxis
    if new != old and new in s:
        raise NameCollision(f"axis {new!r} already in shape {s}")
    return Shape(Axis(new if ax.name == old else ax.name, ax.size) for ax in s)


@_op(rename_shape)
def rename(out, a: NamedTensor, old: str, new: str) -> NamedTensor:
    """Relabel one axis; values are untouched."""
    return NamedTensor._own(out, a.array, [new if n == old else n for n in a.shape.names])


def rename_many_shape(s: Shape, mapping: Mapping[str, str]) -> Shape:
    new_names = [mapping.get(n, n) for n in s.names]
    if len(set(new_names)) != len(new_names):
        raise NameCollision(f"renaming {dict(mapping)} collides on {s}")
    for old in mapping:
        s.size(old)  # raises MissingAxis
    return Shape(Axis(n, size) for n, size in zip(new_names, s.sizes))


@_op(rename_many_shape)
def rename_many(out, a: NamedTensor, mapping: Mapping[str, str]) -> NamedTensor:
    """Relabel several axes at once; new names must be fresh as a set."""
    return NamedTensor._own(out, a.array, [mapping.get(n, n) for n in a.shape.names])


def merge_shape(s: Shape, parts: Sequence[str], merged: Axis) -> Shape:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("merge needs at least one source axis")
    _check_axis_list(s, parts)
    expected = math.prod(s.size(p) for p in parts)
    if merged.size != expected:
        raise SizeMismatch(f"merged axis {merged!r} must have size {expected}")
    rest = s.drop(parts)
    if merged.name in rest:
        raise NameCollision(f"axis {merged.name!r} already in shape {s}")
    return rest.union(Shape([merged]))


@_op(merge_shape)
def merge_axes(out, a: NamedTensor, parts: Sequence[str], merged: Axis) -> NamedTensor:
    """Reshape several axes into one.

    The new axis enumerates the parts in the order listed, last part
    fastest, so ``merge_axes(split_axis(a, src, outer, inner), [outer,
    inner], src_axis)`` is the identity.
    """
    names = a.shape.names
    kept = [n for n in names if n not in parts]
    perm = [names.index(n) for n in kept] + [names.index(p) for p in parts]
    arr = a.array.transpose(perm)
    arr = arr.reshape([a.shape.size(n) for n in kept] + [merged.size])
    return NamedTensor._own(out, arr, kept + [merged.name])


def split_shape(s: Shape, src: str, outer: Axis, inner: Axis) -> Shape:
    n = s.size(src)
    if outer.size * inner.size != n:
        raise SizeMismatch(f"cannot split {src}[{n}] into {outer!r} x {inner!r}")
    rest = s.drop([src])
    if outer.name in rest:
        raise NameCollision(f"axis {outer.name!r} already in shape {s}")
    if inner.name == outer.name:
        raise NameCollision(f"split axes must be distinct, got {inner.name!r} twice")
    if inner.name in rest or inner.name == src:
        raise NameCollision(f"axis {inner.name!r} already in shape {s}")
    return rest.union(Shape([outer, inner]))


@_op(split_shape)
def split_axis(out, a: NamedTensor, src: str, outer: Axis, inner: Axis) -> NamedTensor:
    """Reshape one axis into (outer, inner): source index (i-1)*|inner| + j.

    ``outer`` may reuse the source name, which makes this exactly the
    pooling reshape.
    """
    at = a.shape.names.index(src)
    names = a.shape.names[:at] + (outer.name, inner.name) + a.shape.names[at + 1 :]
    dims = a.shape.sizes[:at] + (outer.size, inner.size) + a.shape.sizes[at + 1 :]
    return NamedTensor._own(out, a.array.reshape(dims), names)


def unroll_shape(s: Shape, seq: str, kernel: Axis) -> Shape:
    n = s.size(seq)
    if kernel.name in s:
        raise NameCollision(f"axis {kernel.name!r} already in shape {s}")
    if kernel.size > n:
        raise SizeMismatch(f"kernel {kernel!r} longer than {seq}[{n}]")
    out = s.drop([seq])
    return out.union(Shape([Axis(seq, n - kernel.size + 1), kernel]))


@_op(unroll_shape)
def unroll(out, a: NamedTensor, seq: str, kernel: Axis) -> NamedTensor:
    """Sliding windows: result[seq(i), kernel(j)] = a[seq(i + j - 1)]."""
    pos = a.shape.names.index(seq)
    windows = np.lib.stride_tricks.sliding_window_view(
        a.array, kernel.size, axis=pos
    )
    return NamedTensor._own(out, windows, a.shape.names + (kernel.name,))


# ---------------------------------------------------------------------------
# advanced indexing

def index_select_shape(sa: Shape, ax: str, si: Shape) -> Shape:
    sa.size(ax)  # raises MissingAxis
    if ax in si:
        raise ExtensionCollision(f"index tensor may not itself carry the selected axis {ax!r}")
    rest = sa.drop([ax])
    return rest.union(si)


@_op(index_select_shape)
def index_select(out, a: NamedTensor, ax: str, indices: NamedTensor) -> NamedTensor:
    """Gather along ``ax`` at 1-based positions given by an integer tensor.

    Axes shared between the operand and the index tensor align; extra axes
    of the index tensor broadcast.  A scalar index reproduces partial
    indexing; an index tensor sharing no axes with the operand reproduces
    integer-array indexing; sharing axes reproduces gather.
    """
    n = a.shape.size(ax)
    ivals = indices.array
    if np.any(ivals != np.floor(ivals)) or np.any(ivals < 1) or np.any(ivals > n):
        raise IndexOutOfRange(f"indices for {ax}[{n}] must be integers in 1..{n}")
    full = out.union(a.shape)
    at = full.names.index(ax)
    pos = np.expand_dims((_aligned(indices, out) - 1).astype(np.intp), at)
    res = np.take_along_axis(_aligned(a, full), pos, axis=at)
    return NamedTensor._own(out, res.squeeze(at))


# ---------------------------------------------------------------------------
# top-k

def maxk_shape(s: Shape, ax: str, k: Axis) -> Shape:
    n = s.size(ax)
    if k.name in s:
        raise NameCollision(f"axis {k.name!r} already in shape {s}")
    if k.size > n:
        raise SizeMismatch(f"cannot take top {k.size} of {ax}[{n}]")
    return s.drop([ax]).union(Shape([k]))


def argmaxk_shape(s: Shape, ax: str, k: Axis) -> Shape:
    maxk_shape(s, ax, k)
    return s.union(Shape([k]))


def _top_order(a: NamedTensor, ax: str, k: Axis) -> np.ndarray:
    """Positions of the k largest entries along ``ax``, ties by ascending index."""
    pos = a.shape.names.index(ax)
    order = np.argsort(-a.array, axis=pos, kind="stable")
    sl = [slice(None)] * a.array.ndim
    sl[pos] = slice(0, k.size)
    return order[tuple(sl)]


@_op(maxk_shape)
def maxk(out, a: NamedTensor, ax: str, k: Axis) -> NamedTensor:
    """The k largest values along ``ax`` in descending order (duplicates kept)."""
    pos = a.shape.names.index(ax)
    top = _top_order(a, ax, k)
    vals = np.take_along_axis(a.array, top, axis=pos)
    return NamedTensor._own(out, vals, [k.name if n == ax else n for n in a.shape.names])


@_op(argmaxk_shape)
def argmaxk(out, a: NamedTensor, ax: str, k: Axis) -> NamedTensor:
    """One-hot selectors over ``ax`` for each of the k largest entries.

    Each position is selected at most once, so ``contract(a, argmaxk(a),
    [ax])`` equals ``maxk(a)``.
    """
    pos = a.shape.names.index(ax)
    top = _top_order(a, ax, k)
    onehot = np.zeros(a.array.shape + (k.size,))
    moved = np.moveaxis(onehot, pos, -2)
    ti = np.moveaxis(top, pos, -1)
    np.put_along_axis(moved, ti[..., None, :], 1.0, axis=-2)
    return NamedTensor._own(out, onehot, a.shape.names + (k.name,))


# ---------------------------------------------------------------------------
# determinant and inverse

def _matrix_shape(s: Shape, rows: str, cols: str) -> None:
    if rows == cols:
        raise ShapeError(f"matrix axes must be distinct, got {rows!r} twice")
    n, m = s.size(rows), s.size(cols)
    if n != m:
        raise SizeMismatch(f"matrix axes {rows}[{n}] and {cols}[{m}] differ")


def det_shape(s: Shape, rows: str, cols: str) -> Shape:
    _matrix_shape(s, rows, cols)
    return s.drop([rows, cols])


def inv_shape(s: Shape, rows: str, cols: str) -> Shape:
    _matrix_shape(s, rows, cols)
    return s


def _gauss_jordan(a: NamedTensor, rows: str, cols: str, inverse: bool) -> np.ndarray:
    """Determinants, or inverses when ``inverse``, of every (rows, cols)
    matrix of ``a`` at once.

    Elimination with partial pivoting runs on the whole stack; only the n
    columns are a Python loop.  A column's pivot is its largest |entry| on
    or below the diagonal, first on ties.  The pivot row is swapped up and
    divided by the pivot, and each other row ``x`` becomes ``x - g*y`` only
    where its multiplier ``g`` is not 0, so a row with no multiplier keeps
    its signed zeros.  For a determinant this runs forward only, on ``m``:
    a step updates the rows below the pivot in the columns right of it,
    which is all that later steps read, and the determinant is the product
    of the pivots, each negated where its step swapped rows.  For an
    inverse it is Gauss–Jordan on ``[m | I]``: a step updates every row in
    the columns right of the pivot's, as columns at or left of it are never
    read again.  Both take the same pivots and swaps, so they agree on
    which matrices are singular.

    A pivot below ``PIVOT_RTOL`` times the largest |entry| of its own
    matrix raises :class:`SingularMatrix`, for the first column where one
    falls short and, among the matrices failing there, the first; a zero
    matrix raises before any pivot.  When ``a`` has other axes, the message
    ends with that matrix's record.  A matrix holding NaN or ±inf gets a
    NaN determinant and an all-NaN inverse instead.  Each matrix is
    eliminated scaled by the power of two ``2**-k`` that brings its largest
    |entry| into [1, 2), so no entry overflows; powers of two scale
    exactly, so pivots and the singularity test are those of the unscaled
    matrix.

    Returns an array over the other axes of ``a``, in order, or the
    inverses laid out like ``a``, transposed so that contracting with ``a``
    over either axis gives the identity.
    """
    names = a.shape.names
    rpos, cpos = names.index(rows), names.index(cols)
    stack = np.moveaxis(a.array, (rpos, cpos), (-2, -1))
    batch, n = stack.shape[:-2], stack.shape[-1]
    scale = np.abs(stack).max(axis=(-2, -1)).reshape(-1)
    bad = ~np.isfinite(scale)  # the matrices holding NaN or ±inf
    if bad.any():
        stack = np.where(bad.reshape(batch + (1, 1)), np.eye(n), stack)
        scale[bad] = 1.0
    if np.any(scale == 0.0):
        raise SingularMatrix("zero matrix" + _at(a, rows, cols, int(np.argmax(scale == 0.0))))
    k = np.frexp(scale)[1] - 1
    count, width = len(scale), 2 * n if inverse else n
    # aug[j, r, b] is entry (r, j) of matrix b, so the columns right of a
    # pivot are one contiguous block, as is each column across all matrices
    aug = np.empty((width, n, count))
    np.ldexp(stack, -k.reshape(batch + (1, 1)), out=aug[:n].T.reshape(stack.shape))
    if inverse:
        aug[n:] = np.eye(n)[:, :, None]
    row, products = np.empty((width, count)), np.empty(aug.size)
    pivots, perm = np.empty((n, count)), np.empty((n, count), dtype=np.intp)
    at, columns = np.arange(count), np.arange(width)[:, None]
    for c in range(n):
        live = slice(c + 1, width)
        below = slice(None) if inverse else slice(c + 1, n)
        p = perm[c] = c + np.argmax(np.abs(aug[c, c:]), axis=0)
        pivot = pivots[c] = aug[c, p, at]
        pivot_row = aug[live, p, at]
        aug[c:, p, at] = aug[c:, c]  # row c to row p; row c itself is dead or rewritten
        np.divide(pivot_row, pivot, out=row[live])
        g = aug[c, below]  # the multipliers
        update = products[: (width - c - 1) * g.size].reshape((width - c - 1,) + g.shape)
        # The pivot row is first repeated down the rows, so the product's
        # inner loop runs down a whole column, where a broadcast product
        # would loop over the batch alone.
        repeated = np.broadcast_to(columns[live], update.shape[:2])
        np.take(row, repeated, axis=0, out=update, mode="clip")  # in range: skip the check
        np.multiply(update, g, out=update)
        if not g.all():
            np.copyto(update, 0.0, where=g == 0.0)
        block = aug[live, below]
        np.subtract(block, update, out=block)
        if inverse:
            aug[live, c] = row[live]
    # Tested once the loop is done: a failing matrix runs on in NaN and ±inf,
    # but no other matrix reads it, and the columns before the first failing
    # one are as the elimination that stops there leaves them.
    low = np.abs(pivots) < PIVOT_RTOL * np.ldexp(scale, -k)  # a scaled matrix's scale is in [1, 2)
    if low.any():
        c = int(np.argmax(low.any(axis=1)))
        i = int(np.argmax(low[c]))
        raise SingularMatrix(
            f"pivot {np.ldexp(pivots[c, i], k[i]):.3g} below {PIVOT_RTOL:g} "
            f"of matrix scale {scale[i]:.3g}" + _at(a, rows, cols, i)
        )
    if not inverse:
        signed = np.where(perm != np.arange(n)[:, None], -pivots, pivots)
        dets = np.ldexp(np.multiply.reduce(signed, axis=0), k * n)  # in column order
        dets[bad] = np.nan
        return dets.reshape(batch)
    out = np.empty(a.array.shape)
    view = np.moveaxis(out, (rpos, cpos), (-1, -2))
    np.ldexp(aug[n:].T.reshape(view.shape), -k.reshape(batch + (1, 1)), out=view)
    view[bad.reshape(batch)] = np.nan
    return out


def _at(a: NamedTensor, rows: str, cols: str, i: int) -> str:
    """`` at {…}``: the record of the ``i``-th matrix of ``a``'s stack over
    its other axes, or nothing when it has none."""
    batch = a.shape.drop([rows, cols])
    if not len(batch):
        return ""
    index = np.unravel_index(i, batch.sizes)
    return f" at {Record({name: int(j) + 1 for name, j in zip(batch.names, index)})!r}"


@_op(det_shape)
def det(out, a: NamedTensor, rows: str, cols: str) -> NamedTensor:
    """Determinant of the matrix over (rows, cols), lifted over other axes:
    forward elimination on the pivots ``inv`` takes."""
    return NamedTensor._own(out, _gauss_jordan(a, rows, cols, inverse=False))


@_op(inv_shape)
def inv(out, a: NamedTensor, rows: str, cols: str) -> NamedTensor:
    """Matrix inverse over (rows, cols), lifted over other axes, by
    Gauss–Jordan elimination.

    The result is oriented so that contracting it with ``a`` over either
    shared axis (after renaming the other on one side) yields the identity
    matrix; for symmetric input it is the plain inverse.
    """
    return NamedTensor._own(out, _gauss_jordan(a, rows, cols, inverse=True))


# ---------------------------------------------------------------------------
# standardization

EPS = 1e-5  # keeps standardize finite on a constant fiber


@_op(softmax_shape)
def standardize(out, a: NamedTensor, axes: Sequence[str]) -> NamedTensor:
    """(a - mean) / sqrt(var + EPS) over the given axes, lifted over the rest."""
    pos = _axis_positions(a.shape, axes)
    arr = a.array
    m = arr.mean(axis=pos, keepdims=True)
    v = arr.var(axis=pos, keepdims=True)
    return NamedTensor._own(out, (arr - m) / np.sqrt(v + EPS))


# ---------------------------------------------------------------------------
# misc

def identity_shape(a: Axis, b: Axis) -> Shape:
    if a.size != b.size:
        raise SizeMismatch(f"identity axes {a!r} and {b!r} differ in size")
    if a.name == b.name:
        raise NameCollision(f"identity axes must have distinct names, got {a.name!r}")
    return Shape([a, b])


@_op(identity_shape)
def identity(out, a: Axis, b: Axis) -> NamedTensor:
    """The identity matrix I over two same-sized axes: 1 where indices agree."""
    return NamedTensor._own(out, np.eye(a.size), [a.name, b.name])


def partial_index_shape(s: Shape, record) -> Shape:
    record = Record(record)
    for name, idx in record:
        if name not in s:
            raise InvalidRecord(f"axis {name!r} not in shape {s}")
        if idx > s.size(name):
            raise InvalidRecord(f"index {name}({idx}) out of range for {s.axis(name)!r}")
    return s.drop(record.names)


@_op(partial_index_shape)
def partial_index(out, a: NamedTensor, record) -> NamedTensor:
    """Fix the axes named in ``record`` (a :class:`Record` or a mapping of
    names to indices); the result drops those axes.  Its values are
    copied, so a small result never keeps ``a``'s whole buffer alive."""
    if not len(record):
        return a
    fixed = dict(Record(record))
    indexer = tuple(fixed[n] - 1 if n in fixed else slice(None) for n in a.shape.names)
    return NamedTensor._own(out, a.array[indexer].copy())
