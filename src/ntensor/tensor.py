"""Dense named tensors over 64-bit floats.

A :class:`NamedTensor` maps every record of its shape to a float.  Values
are stored in one contiguous buffer whose dimensions follow the canonical
(sorted) axis order, so two tensors built from the same record/value pairs
are identical regardless of the order their axes were written in.  A tensor
with the empty shape is interchangeable with a scalar.

Tensors are immutable: every operation returns a fresh tensor and the
underlying buffer is marked read-only, so values are safe to share across
threads.
"""

from __future__ import annotations

from numbers import Real
from typing import Iterator, Mapping, Sequence, Tuple, Union

import numpy as np

from .axes import EMPTY_SHAPE, Axis, Record, Shape
from .errors import (
    DuplicateEntry,
    InvalidRecord,
    MissingEntry,
    ShapeError,
    ShapeMismatch,
)

__all__ = ["NamedTensor", "as_tensor"]

_FLOAT_FMT = "{:.17g}"
_MAX_DIMS = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # numpy's limit


class NamedTensor:
    """An immutable mapping from the records of a shape to floats."""

    __slots__ = ("_shape", "_array")

    def __init__(self, shape: Shape, array: np.ndarray):
        array = np.array(array, dtype=np.float64, order="C")
        if array.shape != shape.sizes:
            raise ShapeMismatch(
                f"buffer of dimensions {array.shape} does not fill shape {shape}"
            )
        array.flags.writeable = False
        self._shape = shape
        self._array = array

    @classmethod
    def _own(cls, shape: Shape, array) -> "NamedTensor":
        """Wrap a float64 array that the caller has just made and keeps no
        reference to, without copying it; it is made C-contiguous only if
        it is not, and marked read-only."""
        array = np.asarray(array, order="C")
        if array.shape != shape.sizes:
            raise ShapeMismatch(
                f"buffer of dimensions {array.shape} does not fill shape {shape}"
            )
        array.flags.writeable = False
        t = object.__new__(cls)
        t._shape = shape
        t._array = array
        return t

    # -- constructors -----------------------------------------------------

    @classmethod
    def scalar(cls, value: float) -> "NamedTensor":
        return cls._own(EMPTY_SHAPE, np.array(float(value)))

    @classmethod
    def filled(cls, shape: Shape, value: float) -> "NamedTensor":
        return cls._own(shape, np.full(shape.sizes, float(value)))

    @classmethod
    def zeros(cls, shape: Shape) -> "NamedTensor":
        return cls.filled(shape, 0.0)

    @classmethod
    def from_entries(cls, shape: Shape, entries) -> "NamedTensor":
        """Build a tensor from one ``record -> value`` entry per record.

        ``entries`` may be a mapping or an iterable of pairs; iterables can
        surface :class:`DuplicateEntry`.  Every record of ``shape`` must be
        covered exactly once.
        """
        if isinstance(entries, Mapping):
            entries = entries.items()
        arr = np.full(shape.sizes, np.nan)
        filled = np.zeros(shape.sizes, dtype=bool)
        names = shape.names
        for record, value in entries:
            record = Record(record)
            if not record.in_shape(shape):
                raise InvalidRecord(f"record {record} is not in rec {shape}")
            pos = tuple(record[n] - 1 for n in names)
            if filled[pos]:
                raise DuplicateEntry(f"record {record} supplied twice")
            filled[pos] = True
            arr[pos] = float(value)
        if not filled.all():
            missing = np.argwhere(~filled)[0]
            rec = Record({n: int(i) + 1 for n, i in zip(names, missing)})
            raise MissingEntry(f"no value supplied for record {rec}")
        return cls(shape, arr)

    @classmethod
    def from_nested(cls, values, axis_names: Sequence[str]) -> "NamedTensor":
        """Build from nested lists; level ``i`` of nesting binds ``axis_names[i]``.

        The depth is read down the first entries, so it is checked before
        numpy sees the values; ragged nesting raises :class:`ShapeMismatch`
        and an entry that is not a number ``TypeError``.
        """
        depth, first = 0, values
        while isinstance(first, (list, tuple)):
            depth, first = depth + 1, (first[0] if first else None)
        depth += np.ndim(first)  # an array entry nests as deep as its dimensions
        if depth != len(axis_names):
            raise ShapeMismatch(f"literal nests {depth} deep but names {len(axis_names)} axes")
        if depth > _MAX_DIMS:
            raise ShapeError(f"literal names {depth} axes; at most {_MAX_DIMS} are supported")
        try:
            arr = np.asarray(values)
        except ValueError as e:
            raise ShapeMismatch(f"ragged tensor literal: {e}") from None
        if arr.dtype.kind not in "biuf":  # numpy found an entry that is no number
            for entry in np.asarray(values, dtype=object).flat:
                if not isinstance(entry, Real):
                    raise TypeError(f"tensor literal entry {entry!r} is not a number")
        try:
            return cls.from_array(arr, axis_names)
        except ValueError as e:  # a repeated axis name
            raise ShapeError(str(e)) from None

    @classmethod
    def from_array(cls, array, axis_names: Sequence[str]) -> "NamedTensor":
        """Wrap an array whose dimensions correspond to ``axis_names`` in order."""
        arr = np.asarray(array, dtype=np.float64)
        names = list(axis_names)
        if arr.ndim != len(names):
            raise ShapeMismatch(f"array has {arr.ndim} dims for {len(names)} names")
        shape = Shape(Axis(n, s) for n, s in zip(names, arr.shape))
        order = sorted(range(len(names)), key=lambda i: names[i])
        return cls(shape, arr.transpose(order))

    # -- views ------------------------------------------------------------

    @property
    def shape(self) -> Shape:
        return self._shape

    @property
    def array(self) -> np.ndarray:
        """The read-only backing array, dimensions in canonical axis order."""
        return self._array

    def to_array(self, axis_names: Sequence[str]) -> np.ndarray:
        """A copy of the values with dimensions arranged as ``axis_names``."""
        names = list(axis_names)
        if sorted(names) != list(self._shape.names):
            raise ShapeMismatch(f"axis names {names} do not cover shape {self._shape}")
        canonical = self._shape.names
        perm = [canonical.index(n) for n in names]
        return self._array.transpose(perm).copy()

    def item(self) -> float:
        """The value of a scalar (empty-shape) tensor."""
        if len(self._shape):
            raise ShapeMismatch(f"tensor of shape {self._shape} is not a scalar")
        return float(self._array)

    # -- element access ---------------------------------------------------

    def _position(self, record: Record) -> tuple:
        pos = []
        for ax in self._shape:
            try:
                idx = record[ax.name]
            except Exception:
                raise InvalidRecord(
                    f"record {record} does not bind axis {ax.name!r} of {self._shape}"
                ) from None
            if idx > ax.size:
                raise InvalidRecord(f"index {ax.name}({idx}) out of range for {ax!r}")
            pos.append(idx - 1)
        return tuple(pos)

    def get(self, record) -> float:
        """The value at a full record of this tensor's shape."""
        record = Record(record)
        if len(record) != len(self._shape):
            raise InvalidRecord(
                f"record {record} does not address every axis of {self._shape}"
            )
        return float(self._array[self._position(record)])

    def partial_index(self, record) -> "NamedTensor":
        """Fix the axes named in ``record``; the result drops those axes."""
        record = Record(record)
        if not len(record):
            return self
        for name, _ in record:
            if name not in self._shape:
                raise InvalidRecord(f"axis {name!r} not in shape {self._shape}")
        indexer = []
        for ax in self._shape:
            if ax.name in record:
                idx = record[ax.name]
                if idx > ax.size:
                    raise InvalidRecord(f"index {ax.name}({idx}) out of range for {ax!r}")
                indexer.append(idx - 1)
            else:
                indexer.append(slice(None))
        rest = self._shape.drop(record.names)
        return NamedTensor(rest, self._array[tuple(indexer)])

    def __getitem__(self, record):
        """Partial indexing by record; full records yield a scalar tensor."""
        return self.partial_index(record)

    def items(self) -> Iterator[Tuple[Record, float]]:
        """(record, value) pairs in enumeration order."""
        flat = self._array.reshape(-1)
        for i, record in enumerate(self._shape.records()):
            yield record, float(flat[i])

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NamedTensor):
            return NotImplemented
        return self._shape == other._shape and bool(
            np.array_equal(self._array, other._array)
        )

    __hash__ = None

    def allclose(self, other: "NamedTensor", atol: float = 1e-12, rtol: float = 0.0) -> bool:
        return self._shape == other._shape and bool(
            np.allclose(self._array, other._array, atol=atol, rtol=rtol, equal_nan=True)
        )

    def __repr__(self):
        if not len(self._shape):
            return f"NamedTensor({self.item()})"
        return f"NamedTensor({self._shape}, {self._array.tolist()})"

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        """Render in the tensor text format.

        The first line is ``shape: name=size, ...`` in canonical order; the
        values follow in record-enumeration order with 17 significant digits,
        one line per run of the last axis.  The format round-trips bit-exactly
        through :meth:`from_text`.
        """
        header = "shape:"
        if len(self._shape):
            header += " " + ", ".join(
                f"{ax.name}={ax.size}" for ax in self._shape
            )
        lines = [header]
        flat = self._array.reshape(-1).tolist()
        row = self._shape.sizes[-1] if len(self._shape) else 1
        for start in range(0, len(flat), row):
            lines.append(" ".join(map(_FLOAT_FMT.format, flat[start : start + row])))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "NamedTensor":
        """Parse the tensor text format produced by :meth:`to_text`."""
        lines = text.strip().split("\n")
        if not lines or not lines[0].startswith("shape:"):
            raise ValueError("tensor text must start with a 'shape:' line")
        spec = lines[0][len("shape:"):].strip()
        axes = []
        if spec:
            for part in spec.split(","):
                name, _, size = part.strip().partition("=")
                axes.append(Axis(name.strip(), int(size)))
        shape = Shape(axes)
        values = [float(tok) for line in lines[1:] for tok in line.split()]
        if len(values) != shape.num_records:
            raise ValueError(
                f"expected {shape.num_records} values for shape {shape}, got {len(values)}"
            )
        return cls(shape, np.asarray(values).reshape(shape.sizes))

    # -- operators (delegate to ops) ---------------------------------------

    def __add__(self, other):
        return ops.add(self, other)

    def __radd__(self, other):
        return ops.add(other, self)

    def __sub__(self, other):
        return ops.sub(self, other)

    def __rsub__(self, other):
        return ops.sub(other, self)

    def __mul__(self, other):
        return ops.mul(self, other)

    def __rmul__(self, other):
        return ops.mul(other, self)

    def __truediv__(self, other):
        return ops.div(self, other)

    def __rtruediv__(self, other):
        return ops.div(other, self)

    def __pow__(self, other):
        return ops.pow_(self, other)

    def __neg__(self):
        return ops.neg(self)


def as_tensor(value: Union["NamedTensor", float, int]) -> NamedTensor:
    """Coerce a float or int to a scalar tensor; tensors pass through."""
    if isinstance(value, NamedTensor):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return NamedTensor.scalar(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a named tensor")


from . import ops  # noqa: E402  imported last because ops imports this module
