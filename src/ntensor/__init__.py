"""Named-tensor algebra with axis-aware broadcasting and differentiation.

The core objects are :class:`Axis`, :class:`Shape`, :class:`Record`, and
:class:`NamedTensor`; operations live in :mod:`ntensor.ops`, the generic
broadcasting engine in :mod:`ntensor.lift`, expression graphs and
differentiation in :mod:`ntensor.autodiff`, the textual expression language
in :mod:`ntensor.lang`, and executable reference models in
:mod:`ntensor.zoo`.  The command-line entry point is ``nt``.
"""

from . import autodiff, lift, ops
from .axes import (
    EMPTY_RECORD,
    EMPTY_SHAPE,
    Axis,
    Record,
    Shape,
    compatible,
    orthogonal,
    prime,
    restrict,
    shape_union,
)
from .errors import (
    AllMasked,
    DivisionByZero,
    DuplicateEntry,
    ExtensionCollision,
    IncompatibleShapes,
    IndexOutOfRange,
    InvalidRecord,
    MissingAxis,
    MissingEntry,
    NameCollision,
    NamedTensorError,
    ShapeError,
    ShapeMismatch,
    SingularMatrix,
    SizeMismatch,
    UnboundVariable,
    UnsupportedDerivative,
)
from .lift import TensorFunction, extend
from .rng import SplitMix64
from .tensor import NamedTensor, as_tensor

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "Record",
    "Shape",
    "NamedTensor",
    "TensorFunction",
    "SplitMix64",
    "EMPTY_SHAPE",
    "EMPTY_RECORD",
    "as_tensor",
    "compatible",
    "orthogonal",
    "restrict",
    "shape_union",
    "prime",
    "extend",
    "ops",
    "lift",
    "autodiff",
    "NamedTensorError",
    "ShapeError",
    "MissingAxis",
    "IncompatibleShapes",
    "ExtensionCollision",
    "SizeMismatch",
    "NameCollision",
    "ShapeMismatch",
    "InvalidRecord",
    "MissingEntry",
    "DuplicateEntry",
    "IndexOutOfRange",
    "AllMasked",
    "SingularMatrix",
    "DivisionByZero",
    "UnboundVariable",
    "UnsupportedDerivative",
]
