"""The common operation set on named tensors.

Every operation here is defined at a base shape and behaves as its lifted
extension: axes not consumed by the operation are carried through unchanged,
slice by slice.  Binary operations broadcast along absent names only; a
shared name must have the same size on both operands or the call fails.

Each operation, partial indexing by a record included, is defined here
once: its kernel and its companion shape rule, which validates operand
shapes and returns the result shape without touching any values.  A rule
is named after its operation (``merge_shape`` for ``merge_axes``); the
binary ops share ``binary_shape``, ``argmax``/``argmin`` use
``softmax_shape``, and the elementwise unary ops keep their operand's shape
and need none.  The rules are the single source of truth for the static
shape checker, so a program that passes checking cannot fail at runtime
for shape reasons.
"""

from __future__ import annotations

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
    "reduce", "contract", "softmax", "argmax", "argmin",
    "rename", "rename_many", "merge_axes", "split_axis", "unroll",
    "index_select", "maxk", "argmaxk", "det", "inv", "standardize",
    "identity", "identity_shape", "partial_index", "partial_index_shape",
    "binary_shape", "reduce_shape", "contract_shape", "softmax_shape",
    "rename_shape", "rename_many_shape", "merge_shape", "split_shape", "unroll_shape",
    "index_select_shape", "maxk_shape", "argmaxk_shape",
    "det_shape", "inv_shape", "standardize_shape",
]

REDUCE_KINDS = ("sum", "min", "max", "mean", "var", "norm")

PIVOT_RTOL = 1e-12


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


def _binary(op: Callable, a, b) -> NamedTensor:
    a, b = as_tensor(a), as_tensor(b)
    out = binary_shape(a.shape, b.shape)
    with np.errstate(all="ignore"):
        return NamedTensor._own(out, op(_expanded(a, out), _expanded(b, out)))


def add(a, b) -> NamedTensor:
    return _binary(np.add, a, b)


def sub(a, b) -> NamedTensor:
    return _binary(np.subtract, a, b)


def mul(a, b) -> NamedTensor:
    """Elementwise product with broadcast: contraction over zero axes."""
    return _binary(np.multiply, a, b)


def div(a, b) -> NamedTensor:
    return _binary(np.true_divide, a, b)


def pow_(a, b) -> NamedTensor:
    return _binary(np.power, a, b)


def _unary(f: Callable, a) -> NamedTensor:
    a = as_tensor(a)
    with np.errstate(all="ignore"):
        return NamedTensor._own(a.shape, f(a.array))


def neg(a) -> NamedTensor:
    return _unary(np.negative, a)


def map_elementwise(f: Callable[[float], float], a) -> NamedTensor:
    """Apply an arbitrary scalar function to every entry."""
    return _unary(np.vectorize(f, otypes=[np.float64]), a)


def relu(a) -> NamedTensor:
    return _unary(lambda x: np.maximum(x, 0.0), a)


def sigmoid(a) -> NamedTensor:
    return _unary(lambda x: 1.0 / (1.0 + np.exp(-x)), a)


def exp(a) -> NamedTensor:
    return _unary(np.exp, a)


def log(a) -> NamedTensor:
    return _unary(np.log, a)


def sqrt(a) -> NamedTensor:
    return _unary(np.sqrt, a)


# ---------------------------------------------------------------------------
# reductions

def reduce_shape(s: Shape, kind: str, axes: Sequence[str]) -> Shape:
    if kind not in REDUCE_KINDS:
        raise ValueError(f"unknown reduction {kind!r}")
    axes = _check_axis_list(s, axes)
    return s.drop(axes)


def reduce(a, kind: str, axes: Sequence[str]) -> NamedTensor:
    """Joint reduction over the given axes: sum, min, max, mean, var, or norm.

    ``var`` is the population variance (1/n); ``norm`` is the 2-norm.
    Reducing over an empty axis list treats each entry as its own fiber.
    """
    a = as_tensor(a)
    out_shape = reduce_shape(a.shape, kind, axes)
    if not axes:
        if kind == "var":
            return NamedTensor._own(a.shape, np.zeros(a.shape.sizes))
        if kind == "norm":
            return NamedTensor._own(a.shape, np.abs(a.array))
        return a
    pos = _axis_positions(a.shape, axes)
    arr = a.array
    with np.errstate(all="ignore"):
        if kind == "sum":
            out = arr.sum(axis=pos)
        elif kind == "min":
            out = arr.min(axis=pos)
        elif kind == "max":
            out = arr.max(axis=pos)
        elif kind == "mean":
            out = arr.mean(axis=pos)
        elif kind == "var":
            out = arr.var(axis=pos)
        else:  # norm
            out = np.sqrt((arr * arr).sum(axis=pos))
    return NamedTensor._own(out_shape, out)


# ---------------------------------------------------------------------------
# contraction

def contract_shape(sa: Shape, sb: Shape, axes: Sequence[str]) -> Shape:
    union = sa.union(sb)
    axes = _check_axis_list(union, axes)
    return union.drop(axes)


def contract(a, b, axes: Sequence[str]) -> NamedTensor:
    """Elementwise product, then summation over the named axes.

    With an empty axis list this is the plain (broadcasting) elementwise
    product.  Otherwise an axis present in only one operand is summed out
    of that operand first, and the rest is one batched ``np.matmul``:
    ``a`` laid out as (batch, free in ``a``, summed) times ``b`` as (batch,
    summed, free in ``b``), where batch axes are shared and kept.  The
    product over the axis union is never built, so temporary memory is
    bounded by the operands plus the output.  The summation order is
    matmul's, not that of summing the elementwise product, so the last
    bits of a result may differ from ``reduce(mul(a, b), "sum", axes)``.
    The matmul runs on one BLAS thread (``_blas.one_thread``).
    """
    a, b = as_tensor(a), as_tensor(b)
    out_shape = contract_shape(a.shape, b.shape, axes)
    if not axes:
        return _binary(np.multiply, a, b)
    summed = set(axes)
    in_a, in_b = set(a.shape.names), set(b.shape.names)
    with np.errstate(all="ignore"):
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
    return NamedTensor._own(out_shape, prod.reshape(dims), batch + free_a + free_b)


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


def softmax(a, axes: Sequence[str]) -> NamedTensor:
    """Softmax over the joint record space of the given axes.

    Entries of ``-inf`` contribute zero mass (mask semantics); a fiber that
    is entirely ``-inf`` raises :class:`AllMasked`.  A fiber holding NaN or
    ``+inf`` is NaN throughout (``+inf - +inf`` is NaN).  Computation
    subtracts the fiber maximum for stability.
    """
    a = as_tensor(a)
    out_shape = softmax_shape(a.shape, axes)
    pos = _axis_positions(a.shape, axes)
    arr = a.array
    m = arr.max(axis=pos, keepdims=True)
    if np.any(np.isneginf(m)):
        raise AllMasked(f"softmax over {list(axes)}: a fiber is entirely -inf")
    with np.errstate(all="ignore"):
        e = np.exp(arr - m)
        return NamedTensor._own(out_shape, e / e.sum(axis=pos, keepdims=True))


def _extremum_mass(a, axes, minimize: bool) -> NamedTensor:
    a = as_tensor(a)
    out_shape = softmax_shape(a.shape, axes)
    pos = _axis_positions(a.shape, axes)
    arr = a.array
    m = arr.min(axis=pos, keepdims=True) if minimize else arr.max(axis=pos, keepdims=True)
    mask = (arr == m).astype(np.float64)
    with np.errstate(invalid="ignore"):  # a NaN fiber has no extremum: 0/0
        return NamedTensor._own(out_shape, mask / mask.sum(axis=pos, keepdims=True))


def argmax(a, axes: Sequence[str]) -> NamedTensor:
    """Uniform mass over the tied maxima of each fiber, zero elsewhere."""
    return _extremum_mass(a, axes, minimize=False)


def argmin(a, axes: Sequence[str]) -> NamedTensor:
    """Uniform mass over the tied minima of each fiber, zero elsewhere."""
    return _extremum_mass(a, axes, minimize=True)


# ---------------------------------------------------------------------------
# renaming and reshaping

def rename_shape(s: Shape, old: str, new: str) -> Shape:
    s.size(old)  # raises MissingAxis
    if new != old and new in s:
        raise NameCollision(f"axis {new!r} already in shape {s}")
    return Shape(Axis(new if ax.name == old else ax.name, ax.size) for ax in s)


def rename(a, old: str, new: str) -> NamedTensor:
    """Relabel one axis; values are untouched."""
    a = as_tensor(a)
    out = rename_shape(a.shape, old, new)
    return NamedTensor._own(out, a.array, [new if n == old else n for n in a.shape.names])


def rename_many_shape(s: Shape, mapping: Mapping[str, str]) -> Shape:
    new_names = [mapping.get(n, n) for n in s.names]
    if len(set(new_names)) != len(new_names):
        raise NameCollision(f"renaming {dict(mapping)} collides on {s}")
    for old in mapping:
        s.size(old)  # raises MissingAxis
    return Shape(Axis(n, size) for n, size in zip(new_names, s.sizes))


def rename_many(a, mapping: Mapping[str, str]) -> NamedTensor:
    """Relabel several axes at once; new names must be fresh as a set."""
    a = as_tensor(a)
    out = rename_many_shape(a.shape, mapping)
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


def merge_axes(a, parts: Sequence[str], merged: Axis) -> NamedTensor:
    """Reshape several axes into one.

    The new axis enumerates the parts in the order listed, last part
    fastest, so ``merge_axes(split_axis(a, src, outer, inner), [outer,
    inner], src_axis)`` is the identity.
    """
    a = as_tensor(a)
    out = merge_shape(a.shape, parts, merged)
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
    if inner.name in rest or inner.name == outer.name or inner.name == src:
        raise NameCollision(f"axis {inner.name!r} already in shape {s}")
    return rest.union(Shape([outer, inner]))


def split_axis(a, src: str, outer: Axis, inner: Axis) -> NamedTensor:
    """Reshape one axis into (outer, inner): source index (i-1)*|inner| + j.

    ``outer`` may reuse the source name, which makes this exactly the
    pooling reshape.
    """
    a = as_tensor(a)
    out = split_shape(a.shape, src, outer, inner)
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


def unroll(a, seq: str, kernel: Axis) -> NamedTensor:
    """Sliding windows: result[seq(i), kernel(j)] = a[seq(i + j - 1)]."""
    a = as_tensor(a)
    out = unroll_shape(a.shape, seq, kernel)
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


def index_select(a, ax: str, indices) -> NamedTensor:
    """Gather along ``ax`` at 1-based positions given by an integer tensor.

    Axes shared between the operand and the index tensor align; extra axes
    of the index tensor broadcast.  A scalar index reproduces partial
    indexing; an index tensor sharing no axes with the operand reproduces
    integer-array indexing; sharing axes reproduces gather.
    """
    a, idx = as_tensor(a), as_tensor(indices)
    out_shape = index_select_shape(a.shape, ax, idx.shape)
    n = a.shape.size(ax)
    ivals = idx.array
    if np.any(ivals != np.floor(ivals)) or np.any(ivals < 1) or np.any(ivals > n):
        raise IndexOutOfRange(f"indices for {ax}[{n}] must be integers in 1..{n}")
    full = out_shape.union(a.shape)
    at = full.names.index(ax)
    pos = np.expand_dims((_aligned(idx, out_shape) - 1).astype(np.intp), at)
    out = np.take_along_axis(_aligned(a, full), pos, axis=at)
    return NamedTensor._own(out_shape, out.squeeze(at))


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


def maxk(a, ax: str, k: Axis) -> NamedTensor:
    """The k largest values along ``ax`` in descending order (duplicates kept)."""
    a = as_tensor(a)
    out = maxk_shape(a.shape, ax, k)
    pos = a.shape.names.index(ax)
    top = _top_order(a, ax, k)
    vals = np.take_along_axis(a.array, top, axis=pos)
    return NamedTensor._own(out, vals, [k.name if n == ax else n for n in a.shape.names])


def argmaxk(a, ax: str, k: Axis) -> NamedTensor:
    """One-hot selectors over ``ax`` for each of the k largest entries.

    Each position is selected at most once, so ``contract(a, argmaxk(a),
    [ax])`` equals ``maxk(a)``.
    """
    a = as_tensor(a)
    out = argmaxk_shape(a.shape, ax, k)
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


def _gauss_jordan(a: NamedTensor, rows: str, cols: str):
    """Determinants and inverses of every (rows, cols) matrix of ``a`` at once.

    Gauss–Jordan elimination with partial pivoting runs on the whole
    (batch, n, n) stack; only the n columns are a Python loop.  A column's
    pivot is its largest |entry| on or below the diagonal, first on ties,
    and a row whose multiplier is 0 is left untouched.  A pivot below
    ``PIVOT_RTOL`` times the largest |entry| of its own matrix raises
    :class:`SingularMatrix`; a matrix holding NaN or ±inf gets a NaN
    determinant and an all-NaN inverse instead.  Each matrix is eliminated
    scaled by the power of two ``2**-k`` that brings its largest |entry|
    into [1, 2), so no entry overflows; powers of two scale exactly, so
    pivots and the singularity test are those of the unscaled matrix.

    Returns the determinants (an array over the other axes of ``a``, in
    order) and the inverses laid out like ``a``, transposed so that
    contracting with ``a`` over either axis gives the identity.
    """
    names = list(a.shape.names)
    rpos, cpos = names.index(rows), names.index(cols)
    stack = np.moveaxis(a.array, (rpos, cpos), (-2, -1))
    n = stack.shape[-1]
    eye = np.eye(n)
    bad = ~np.isfinite(stack).all(axis=(-2, -1)).reshape(-1)
    m = np.where(bad[:, None, None], eye, stack.reshape(-1, n, n))
    scale = np.abs(m).max(axis=(1, 2))
    if np.any(scale == 0.0):
        raise SingularMatrix("zero matrix")
    k = np.frexp(scale)[1] - 1
    m = np.ldexp(m, -k[:, None, None])
    tol = PIVOT_RTOL * np.ldexp(scale, -k)  # each scaled matrix's scale is in [1, 2)
    aug = np.concatenate([m, np.broadcast_to(eye, m.shape)], axis=2)  # [m | I]
    dets = np.ones(len(m))
    at = np.arange(len(m))
    for c in range(n):
        p = c + np.argmax(np.abs(aug[:, c:, c]), axis=1)
        pivot = aug[at, p, c]
        low = np.abs(pivot) < tol
        if low.any():
            i = int(np.argmax(low))
            raise SingularMatrix(
                f"pivot {np.ldexp(pivot[i], k[i]):.3g} below {PIVOT_RTOL:g} "
                f"of matrix scale {scale[i]:.3g}"
            )
        dets = np.where(p != c, -dets, dets) * pivot
        aug[:, c], aug[at, p] = aug[at, p], aug[:, c].copy()
        g = aug[:, :, c, None].copy()  # multipliers; the pivot row's own is 0
        g[:, c] = 0.0
        aug[:, c] /= pivot[:, None]
        aug -= np.where(g != 0.0, g * aug[:, None, c], 0.0)
    with np.errstate(all="ignore"):
        dets = np.ldexp(dets, k * n)
        inverse = np.ldexp(aug[:, :, n:], -k[:, None, None])
    dets[bad] = np.nan
    inverse[bad] = np.nan
    inverse = np.moveaxis(inverse.reshape(stack.shape), (-1, -2), (rpos, cpos))
    return dets.reshape(stack.shape[:-2]), inverse


def det(a, rows: str, cols: str) -> NamedTensor:
    """Determinant of the matrix over (rows, cols), lifted over other axes."""
    a = as_tensor(a)
    return NamedTensor._own(det_shape(a.shape, rows, cols), _gauss_jordan(a, rows, cols)[0])


def inv(a, rows: str, cols: str) -> NamedTensor:
    """Matrix inverse over (rows, cols), lifted over other axes.

    The result is oriented so that contracting it with ``a`` over either
    shared axis (after renaming the other on one side) yields the identity
    matrix; for symmetric input it is the plain inverse.
    """
    a = as_tensor(a)
    return NamedTensor._own(inv_shape(a.shape, rows, cols), _gauss_jordan(a, rows, cols)[1])


# ---------------------------------------------------------------------------
# standardization

def standardize_shape(s: Shape, axes: Sequence[str]) -> Shape:
    _check_axis_list(s, axes)
    return s


EPS = 1e-5  # keeps standardize finite on a constant fiber


def standardize(a, axes: Sequence[str]) -> NamedTensor:
    """(a - mean) / sqrt(var + EPS) over the given axes, lifted over the rest."""
    a = as_tensor(a)
    standardize_shape(a.shape, axes)
    pos = _axis_positions(a.shape, axes)
    arr = a.array
    with np.errstate(all="ignore"):
        m = arr.mean(axis=pos, keepdims=True)
        v = arr.var(axis=pos, keepdims=True)
        return NamedTensor._own(a.shape, (arr - m) / np.sqrt(v + EPS))


# ---------------------------------------------------------------------------
# misc

def identity_shape(a: Axis, b: Axis) -> Shape:
    if a.size != b.size:
        raise SizeMismatch(f"identity axes {a!r} and {b!r} differ in size")
    if a.name == b.name:
        raise NameCollision(f"identity axes must have distinct names, got {a.name!r}")
    return Shape([a, b])


def identity(a: Axis, b: Axis) -> NamedTensor:
    """The identity matrix I over two same-sized axes: 1 where indices agree."""
    return NamedTensor._own(identity_shape(a, b), np.eye(a.size), [a.name, b.name])


def partial_index_shape(s: Shape, record: Record) -> Shape:
    for name, idx in record:
        if name not in s:
            raise InvalidRecord(f"axis {name!r} not in shape {s}")
        if idx > s.size(name):
            raise InvalidRecord(f"index {name}({idx}) out of range for {s.axis(name)!r}")
    return s.drop(record.names)


def partial_index(a, record) -> NamedTensor:
    """Fix the axes named in ``record`` (a :class:`Record` or a mapping of
    names to indices); the result drops those axes.  Its values are
    copied, so a small result never keeps ``a``'s whole buffer alive."""
    a, record = as_tensor(a), Record(record)
    out = partial_index_shape(a.shape, record)
    if not len(record):
        return a
    fixed = dict(record)
    indexer = tuple(fixed[n] - 1 if n in fixed else slice(None) for n in a.shape.names)
    return NamedTensor._own(out, a.array[indexer].copy())
