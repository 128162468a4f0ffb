"""Lifting: extending tensor functions to operands with extra axes.

A :class:`TensorFunction` declares the exact input shapes it consumes and
the exact output shape it produces.  :func:`extend` applies such a function
to operands that carry *extra* axes beyond their declared base shapes: the
extra ("extension") axes are inferred per operand, extensions of different
operands are aligned by name, and the base function runs once per record of
the joint extension space.  Extension axes never stretch size-1 dimensions
and never overlap the output shape; violations raise rather than guess.

The defining property: for every record ``s`` of the joint extension space,
``result[s] == f(*(arg[s restricted to that arg's extension] for arg))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

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

    ``body`` must be pure and total on its declared input shapes; the output
    shape it produces is verified on every call.
    """

    input_shapes: Tuple[Shape, ...]
    output_shape: Shape
    body: Callable[..., "NamedTensor | float"]
    name: str = "<base>"

    def __post_init__(self):
        object.__setattr__(self, "input_shapes", tuple(self.input_shapes))

    def __call__(self, *args: NamedTensor) -> NamedTensor:
        out = as_tensor(self.body(*args))
        if out.shape != self.output_shape:
            raise ShapeMismatch(
                f"base function {self.name} produced shape {out.shape}, "
                f"declared {self.output_shape}"
            )
        return out


def _extensions(f: TensorFunction, args: Sequence[NamedTensor]) -> list:
    if len(args) != len(f.input_shapes):
        raise TypeError(
            f"{f.name} takes {len(f.input_shapes)} arguments, got {len(args)}"
        )
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

    Each operand is laid out once as a numpy view with dimensions (joint,
    base), the joint axes it lacks broadcast from size 1; ``f`` then runs on
    one slice of every view per record of the joint space, and its results
    fill one array laid out (joint, output).
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

    views = []
    for arg, base in zip(args, f.input_shapes):
        target = joint.union(base)
        order = [target.names.index(n) for n in joint.names + base.names]
        views.append(_aligned(arg, target).transpose(order))
    out = np.empty(joint.sizes + f.output_shape.sizes)
    for s in np.ndindex(*joint.sizes):
        out[s] = f(*(
            NamedTensor(base, view[s]) for base, view in zip(f.input_shapes, views)
        )).array
    return NamedTensor.from_array(out, joint.names + f.output_shape.names)
