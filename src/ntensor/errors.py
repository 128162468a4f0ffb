"""Exception types raised by the tensor algebra layers.

All library errors derive from :class:`NamedTensorError`; shape-algebra
violations additionally derive from :class:`ShapeError`.  An error is its
message: the message names the axes and shapes involved.  The one
exception is :class:`MissingAxis` for an axis with no declared size, which
also carries the axis name, so the checker can tell a use of an axis whose
declaration failed.
"""

from __future__ import annotations


class NamedTensorError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(NamedTensorError):
    """A shape-algebra violation."""


class MissingAxis(ShapeError):
    """A named axis was required but is absent from the operand, or has no
    declared size; ``axis`` is its name in the second case."""

    def __init__(self, message: str, axis: str | None = None):
        super().__init__(message)
        self.axis = axis


class IncompatibleShapes(ShapeError):
    """Two shapes disagree on the size of a shared axis name."""


class ExtensionCollision(ShapeError):
    """A broadcast axis collides with a base or output axis name."""


class SizeMismatch(ShapeError):
    """An axis size does not satisfy the operation's arithmetic constraint."""


class NameCollision(ShapeError):
    """An introduced axis name already exists on the operand."""


class ShapeMismatch(ShapeError):
    """A tensor does not have the exact shape the context requires."""


class InvalidRecord(NamedTensorError):
    """A record does not address the tensor it was applied to."""


class MissingEntry(NamedTensorError):
    """Tensor construction did not cover every record of the shape."""


class DuplicateEntry(NamedTensorError):
    """Tensor construction supplied a record more than once."""


class IndexOutOfRange(NamedTensorError):
    """An integer index is outside the axis it selects from."""


class AllMasked(NamedTensorError):
    """Every entry along the softmax axes is negative infinity."""


class SingularMatrix(NamedTensorError):
    """A matrix argument is singular to working precision."""


class DivisionByZero(NamedTensorError):
    """A probability renormalization divided by an exact zero."""


class UnboundVariable(NamedTensorError):
    """An expression references a variable with no binding."""


class UnsupportedDerivative(NamedTensorError):
    """Differentiation was requested through an unsupported operation."""
