"""Axis names, axes, records, and shapes.

Tensors in this library address their dimensions by *name* rather than by
position.  An :class:`Axis` pairs a name with a size ``n`` (its index set is
``{1, ..., n}``), a :class:`Shape` is a set of axes with pairwise-distinct
names, and a :class:`Record` assigns one index to each name of a shape: it
is a single coordinate into a tensor.  All three are immutable and hashable.

Axis names are nonempty strings of letters, digits, and underscores,
optionally followed by trailing prime marks (``'``).  Axis order carries no
meaning; wherever a deterministic order is required (storage layout,
printing, record enumeration) names are sorted lexicographically.  The prime
mark compares below every other name character, so ``ax'`` sorts directly
after ``ax`` and before any longer name extending ``ax``.

Records enumerate in odometer order over the canonical axis order, with the
last axis varying fastest.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator, Mapping, Union

from .errors import IncompatibleShapes, InvalidRecord, MissingAxis

__all__ = [
    "Axis",
    "Record",
    "Shape",
    "EMPTY_SHAPE",
    "EMPTY_RECORD",
    "check_axis_name",
    "prime",
    "compatible",
    "orthogonal",
    "restrict",
    "shape_union",
]

_NAME_RE = re.compile(r"[A-Za-z0-9_]+'*\Z")
_NAME = operator.attrgetter("name")  # sort key of axes


def check_axis_name(name: str) -> str:
    """Validate and return an axis name, raising ``ValueError`` if malformed."""
    if not isinstance(name, str) or _NAME_RE.match(name) is None:
        raise ValueError(f"invalid axis name: {name!r}")
    return name


def _as_int(value):
    """An integer other than a bool (a numpy integer, say) as a Python
    ``int``; any other value as it is."""
    if type(value) is int or isinstance(value, bool) or not isinstance(value, Integral):
        return value
    return int(value)


def prime(name: str) -> str:
    """Return ``name`` with one more trailing prime mark."""
    return name + "'"


@dataclass(frozen=True)
class Axis:
    """A named dimension with index set ``{1, ..., size}``."""

    name: str
    size: int

    def __post_init__(self):
        check_axis_name(self.name)
        if type(self.size) is not int:
            object.__setattr__(self, "size", _as_int(self.size))
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 1:
            raise ValueError(f"axis size must be a positive integer, got {self.size!r}")

    def __repr__(self):
        return f"{self.name}[{self.size}]"


AxisLike = Union[Axis, tuple]


class Shape:
    """An immutable set of axes with pairwise-distinct names.

    ``names`` and ``sizes`` are the axis names and sizes in canonical
    (sorted) order, as tuples.
    """

    __slots__ = ("_axes", "_sizes", "names", "sizes")

    def __init__(self, axes: Iterable[AxisLike] = ()):
        items = []
        for ax in axes:
            if not isinstance(ax, Axis):
                ax = Axis(*ax)
            items.append(ax)
        items.sort(key=_NAME)
        for prev, ax in zip(items, items[1:]):
            if prev.name == ax.name:
                raise ValueError(f"duplicate axis name in shape: {ax.name!r}")
        self._set(tuple(items))

    def _set(self, axes: tuple) -> None:
        self._axes = axes
        self._sizes = {ax.name: ax.size for ax in axes}
        self.names = tuple(self._sizes)
        self.sizes = tuple(self._sizes.values())

    @classmethod
    def _trusted(cls, axes: tuple) -> "Shape":
        """A shape of ``axes``, already sorted by name, with distinct names,
        each an :class:`Axis` (so already validated); nothing is checked."""
        shape = object.__new__(cls)
        shape._set(axes)
        return shape

    @classmethod
    def of(cls, **sizes: int) -> "Shape":
        """Build a shape from keyword arguments: ``Shape.of(height=3, width=3)``."""
        return cls(Axis(name, size) for name, size in sizes.items())

    # -- basic views ------------------------------------------------------

    @property
    def axes(self) -> tuple:
        return self._axes

    def size(self, name: str) -> int:
        """The size of the named axis; raises :class:`MissingAxis`."""
        try:
            return self._sizes[name]
        except KeyError:
            raise MissingAxis(f"axis {name!r} not in shape {self}") from None

    def axis(self, name: str) -> Axis:
        return Axis(name, self.size(name))

    def __contains__(self, name: str) -> bool:
        return name in self._sizes

    def __iter__(self) -> Iterator[Axis]:
        return iter(self._axes)

    def __len__(self) -> int:
        return len(self._axes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Shape) and self._axes == other._axes

    def __hash__(self) -> int:
        return hash(self._axes)

    def __repr__(self):
        return "{" + ", ".join(repr(ax) for ax in self._axes) + "}"

    # -- set algebra ------------------------------------------------------

    def compatible(self, other: "Shape") -> bool:
        """True iff every shared name has the same size in both shapes."""
        for name, size in self._sizes.items():
            if other._sizes.get(name, size) != size:
                return False
        return True

    def orthogonal(self, other: "Shape") -> bool:
        """True iff the two shapes share no axis name."""
        return not any(name in other._sizes for name in self._sizes)

    def union(self, other: "Shape") -> "Shape":
        """Set union of axes; raises :class:`IncompatibleShapes` on size conflicts.

        An operand that already covers the other is returned as it is.
        """
        mine = self._sizes
        extra = []
        for ax in other._axes:
            size = mine.get(ax.name)
            if size is None:
                extra.append(ax)
            elif size != ax.size:
                raise IncompatibleShapes(f"incompatible shapes {self} and {other}")
        if not extra:
            return self
        if len(other._axes) - len(extra) == len(self._axes):
            return other
        return Shape._trusted(tuple(sorted(self._axes + tuple(extra), key=_NAME)))

    def drop(self, names: Iterable[str]) -> "Shape":
        """The shape with the given names removed (absent names are ignored)."""
        dropped = set(names)
        kept = tuple([ax for ax in self._axes if ax.name not in dropped])
        return self if len(kept) == len(self._axes) else Shape._trusted(kept)

    def keep(self, names: Iterable[str]) -> "Shape":
        """The sub-shape on exactly the given names; all must be present."""
        return Shape(self.axis(n) for n in names)

    # -- record space -----------------------------------------------------

    @property
    def num_records(self) -> int:
        return math.prod(self.sizes)

    def records(self) -> Iterator["Record"]:
        """All records of this shape in enumeration order (last axis fastest)."""
        names = self.names
        for idx in itertools.product(*(range(1, n + 1) for n in self.sizes)):
            yield Record(zip(names, idx))


EMPTY_SHAPE = Shape()


class Record:
    """An immutable assignment of one 1-based index per axis name."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Union[Mapping, Iterable] = ()):
        if isinstance(bindings, Record):  # already validated
            self._bindings = bindings._bindings
            return
        if isinstance(bindings, Mapping):
            bindings = bindings.items()
        items = tuple(sorted(bindings))
        seen = {}
        for name, idx in items:
            check_axis_name(name)
            idx = _as_int(idx)
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
                raise InvalidRecord(f"index for {name!r} must be a positive integer, got {idx!r}")
            if name in seen:
                raise InvalidRecord(f"duplicate axis name in record: {name!r}")
            seen[name] = idx
        self._bindings = tuple(seen.items())

    @classmethod
    def of(cls, **indices: int) -> "Record":
        return cls(indices)

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self._bindings)

    def __getitem__(self, name: str) -> int:
        for n, i in self._bindings:
            if n == name:
                return i
        raise MissingAxis(f"axis {name!r} not in record {self}")

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self._bindings)

    def __iter__(self):
        return iter(self._bindings)

    def __len__(self):
        return len(self._bindings)

    def __eq__(self, other) -> bool:
        return isinstance(other, Record) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(self._bindings)

    def __repr__(self):
        return "{" + ", ".join(f"{n}({i})" for n, i in self._bindings) + "}"

    def restrict(self, shape: Shape) -> "Record":
        """The sub-record on exactly the names of ``shape``.

        Raises :class:`MissingAxis` if a name of ``shape`` is absent and
        :class:`InvalidRecord` if a retained index falls outside its axis.
        """
        out = []
        for ax in shape:
            idx = self[ax.name]
            if idx > ax.size:
                raise InvalidRecord(
                    f"index {ax.name}({idx}) out of range for {ax!r}"
                )
            out.append((ax.name, idx))
        return Record(out)

    def restrict_names(self, names: Iterable[str]) -> "Record":
        """The sub-record on the given names (sizes unchecked)."""
        return Record((n, self[n]) for n in names)

    def union(self, other: "Record") -> "Record":
        """Union of two records with disjoint names."""
        for name, _ in other._bindings:
            if name in self:
                raise InvalidRecord(f"records overlap on axis {name!r}")
        return Record(self._bindings + other._bindings)

    def in_shape(self, shape: Shape) -> bool:
        """True iff this record is a member of ``rec(shape)``."""
        if self.names != shape.names:
            return False
        return all(i <= shape.size(n) for n, i in self._bindings)


EMPTY_RECORD = Record()


# Module-level forms of the core shape predicates, matching the vocabulary
# used throughout the package.

def compatible(s: Shape, t: Shape) -> bool:
    return s.compatible(t)


def orthogonal(s: Shape, t: Shape) -> bool:
    return s.orthogonal(t)


def shape_union(s: Shape, t: Shape) -> Shape:
    return s.union(t)


def restrict(record: Record, shape: Shape) -> Record:
    return record.restrict(shape)
