"""Lifting: extending tensor functions to operands with extra axes.

A :class:`TensorFunction` declares the exact input shapes it consumes and
the exact output shape it produces.  :func:`extend` applies such a function
to operands that carry *extra* axes beyond their declared base shapes: the
extra ("extension") axes are inferred per operand, and extensions of
different operands are aligned by name into the joint extension space.
Extension axes never stretch size-1 dimensions and never overlap the output
shape; violations raise rather than guess.

A Python-callable body runs once per record of the joint space.  An
expression body (an :class:`~ntensor.autodiff.Expr`) is lifted by
construction: every operation broadcasts over the axes it does not name,
so the graph is evaluated once on the whole extended operands.

The defining property: for every record ``s`` of the joint extension space,
``result[s] == f(*(arg[s restricted to that arg's extension] for arg))``.
It holds exactly for callable bodies.  For expression bodies it holds up to
floating-point reassociation in the kernels (one matrix-matrix contraction
rounds differently from many matrix-vector ones), tested to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from . import ops
from .axes import Shape
from .errors import (
    ExtensionCollision,
    MissingAxis,
    ShapeMismatch,
    SizeMismatch,
)
from .ops import _aligned
from .tensor import NamedTensor, as_tensor

__all__ = ["TensorFunction", "extend"]


@dataclass(frozen=True)
class TensorFunction:
    """A base function from tensors of fixed shapes to a tensor of a fixed shape.

    ``body`` is either a Python callable, pure and total on the declared
    input shapes, whose output shape is verified on every call, or an
    :class:`~ntensor.autodiff.Expr` over the variables named by ``params``,
    which are bound to the operands in order.  An expression body is
    shape-checked once, here: its inferred shape at ``input_shapes`` must
    be ``output_shape``.  Calls check the operand count and that each
    operand has exactly its declared shape.
    """

    input_shapes: Tuple[Shape, ...]
    output_shape: Shape
    body: "Callable[..., NamedTensor | float] | ad.Expr"
    name: str = "<base>"
    params: Tuple[str, ...] = ()
    # every axis name in an expression body's graph at the base shapes
    _graph_names: frozenset = field(default=frozenset(), init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shapes", tuple(self.input_shapes))
        object.__setattr__(self, "params", tuple(self.params))
        if not isinstance(self.body, ad.Expr):
            return
        if len(self.params) != len(self.input_shapes):
            raise TypeError(
                f"{self.name} names {len(self.params)} params for "
                f"{len(self.input_shapes)} inputs"
            )
        env = dict(zip(self.params, self.input_shapes))
        _, shapes = ad._forward([self.body], env, None, "_infer")
        if shapes[id(self.body)] != self.output_shape:
            raise ShapeMismatch(
                f"base function {self.name} has shape {shapes[id(self.body)]}, "
                f"declared {self.output_shape}"
            )
        names = frozenset(n for s in shapes.values() for n in s.names)
        object.__setattr__(self, "_graph_names", names)

    def __call__(self, *args: NamedTensor) -> NamedTensor:
        args = tuple(map(as_tensor, args))
        _check_count(self, args)
        for i, (arg, base) in enumerate(zip(args, self.input_shapes)):
            # extend's loop hands each slice its base shape object itself
            if arg.shape is not base and arg.shape != base:
                raise ShapeMismatch(
                    f"{self.name}: operand {i + 1} has shape {arg.shape}, "
                    f"declared {base}"
                )
        if isinstance(self.body, ad.Expr):
            return ad.evaluate(self.body, dict(zip(self.params, args)))
        out = as_tensor(self.body(*args))
        if out.shape != self.output_shape:
            raise ShapeMismatch(
                f"base function {self.name} produced shape {out.shape}, "
                f"declared {self.output_shape}"
            )
        return out


def _check_count(f: TensorFunction, args: Sequence[NamedTensor]) -> None:
    if len(args) != len(f.input_shapes):
        raise TypeError(
            f"{f.name} takes {len(f.input_shapes)} arguments, got {len(args)}"
        )


def _extensions(f: TensorFunction, args: Sequence[NamedTensor]) -> list:
    _check_count(f, args)
    exts = []
    for arg, base in zip(args, f.input_shapes):
        for ax in base:
            if ax.name not in arg.shape:
                raise MissingAxis(
                    f"{f.name}: operand of shape {arg.shape} lacks base axis {ax!r}"
                )
            if arg.shape.size(ax.name) != ax.size:
                raise SizeMismatch(
                    f"{f.name}: operand has {ax.name}[{arg.shape.size(ax.name)}], "
                    f"base expects {ax!r}"
                )
        exts.append(arg.shape.drop(base.names))
    # An extension name may not be a base name of another operand; the
    # slice-wise semantics would be ambiguous, so such calls are rejected.
    for i, ext in enumerate(exts):
        for j, base in enumerate(f.input_shapes):
            if i == j:
                continue
            clash = [n for n in ext.names if n in base]
            if clash:
                raise ExtensionCollision(
                    f"{f.name}: extension axis {clash[0]!r} of operand {i + 1} "
                    f"is a base axis of operand {j + 1}"
                )
    return exts


def extend(f: TensorFunction, *args) -> NamedTensor:
    """Apply ``f`` to operands that may carry extra axes beyond their bases.

    An expression body is evaluated once on the whole operands.  Extension
    axes whose names its graph also uses are first renamed to fresh names
    and renamed back afterwards, and the result must have exactly the joint
    axes plus the output axes.

    A callable body runs on one slice per record instead: each operand is
    laid out once as a numpy view with dimensions (joint, base), the joint
    axes it lacks broadcast from size 1, and the results fill one array laid
    out (joint, output).
    """
    args = tuple(as_tensor(a) for a in args)
    exts = _extensions(f, args)
    joint = Shape()
    for ext in exts:
        joint = joint.union(ext)  # raises IncompatibleShapes on size conflict
    if not joint.orthogonal(f.output_shape):
        clash = [n for n in joint.names if n in f.output_shape]
        raise ExtensionCollision(
            f"{f.name}: extension axis {clash[0]!r} collides with the output shape"
        )
    if isinstance(f.body, ad.Expr):
        return _extend_graph(f, args, joint)

    views = []
    for arg, base in zip(args, f.input_shapes):
        target = joint.union(base)
        order = [target.names.index(n) for n in joint.names + base.names]
        views.append(_aligned(arg, target).transpose(order))
    out = np.empty(joint.sizes + f.output_shape.sizes)
    for s in np.ndindex(*joint.sizes):
        out[s] = f(*(
            NamedTensor._own(base, view[s]) for base, view in zip(f.input_shapes, views)
        )).array
    return NamedTensor._own(joint.union(f.output_shape), out, joint.names + f.output_shape.names)


def _extend_graph(f: TensorFunction, args, joint: Shape) -> NamedTensor:
    """One evaluation of ``f``'s graph on the extended operands."""
    taken = set(f._graph_names) | set(joint.names)
    fresh = {n: ad._fresh(n, taken) for n in joint.names if n in f._graph_names}
    if fresh:
        args = [
            ops.rename_many(a, {n: fresh[n] for n in a.shape.names if n in fresh})
            for a in args
        ]
        joint = Shape((fresh.get(ax.name, ax.name), ax.size) for ax in joint)
    out = ad.evaluate(f.body, dict(zip(f.params, args)))
    want = joint.union(f.output_shape)
    if out.shape != want:
        raise ShapeMismatch(
            f"base function {f.name} lifted to shape {out.shape}, expected {want}"
        )
    return ops.rename_many(out, {v: k for k, v in fresh.items()}) if fresh else out


from . import autodiff as ad  # noqa: E402  imported last because autodiff imports this module
