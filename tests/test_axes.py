"""Names, axes, records, shapes: algebra and enumeration order."""

import pytest
from hypothesis import given, settings, strategies as st

from ntensor import (
    Axis,
    IncompatibleShapes,
    InvalidRecord,
    MissingAxis,
    Record,
    Shape,
    compatible,
    orthogonal,
    prime,
    restrict,
    shape_union,
)

names = st.sampled_from(["height", "width", "chans", "seq", "seq'", "batch", "k9", "under_score"])
axes = st.builds(Axis, names, st.integers(min_value=1, max_value=5))


def shapes_strategy():
    return st.lists(axes, max_size=4).map(
        lambda axs: Shape({a.name: a for a in axs}.values())
    )


shapes = shapes_strategy()


def test_axis_validation():
    Axis("ax'", 3)
    Axis("x_1", 1)
    with pytest.raises(ValueError):
        Axis("", 3)
    with pytest.raises(ValueError):
        Axis("bad name", 3)
    with pytest.raises(ValueError, match="invalid axis name"):
        Axis("x y", 2)
    # shapes validate the names they are given
    with pytest.raises(ValueError, match="invalid axis name"):
        Shape([("bad name", 2)])
    with pytest.raises(ValueError, match="invalid axis name"):
        Shape.of(**{"bad name": 2})
    with pytest.raises(ValueError):
        Axis("'leading", 3)
    with pytest.raises(ValueError):
        Axis("ax", 0)
    with pytest.raises(ValueError):
        Axis("ax", -2)


def test_prime_ordering():
    # primes sort directly after their base name and before extensions
    assert sorted(["ax2", "ax'", "ax", "axb", "ax''"]) == [
        "ax", "ax'", "ax''", "ax2", "axb",
    ]
    assert prime("ax") == "ax'"
    assert prime("ax'") == "ax''"


def test_shape_basics():
    s = Shape.of(width=3, height=3)
    assert s.names == ("height", "width")  # canonical order
    assert s.sizes == (3, 3)
    assert s.size("width") == 3
    assert "height" in s and "chans" not in s
    with pytest.raises(MissingAxis):
        s.size("chans")
    with pytest.raises(ValueError):
        Shape([Axis("a", 2), Axis("a", 3)])
    with pytest.raises(ValueError, match="duplicate axis name"):
        Shape([("a", 2), Axis("a", 2)])


def test_compatible_examples():
    assert compatible(Shape.of(height=3, width=3), Shape.of(width=3, chans=2))
    assert not compatible(Shape.of(height=3), Shape.of(height=4))
    assert compatible(Shape(), Shape.of(height=3))


def test_orthogonal_examples():
    assert orthogonal(Shape.of(height=3), Shape.of(width=3))
    assert not orthogonal(Shape.of(height=3), Shape.of(height=3))
    assert orthogonal(Shape(), Shape())


def test_union_examples():
    assert shape_union(Shape.of(height=3), Shape.of(width=3)) == Shape.of(height=3, width=3)
    assert shape_union(Shape.of(height=3), Shape.of(height=3)) == Shape.of(height=3)
    with pytest.raises(IncompatibleShapes):
        shape_union(Shape.of(height=3), Shape.of(height=4))


def test_restrict_examples():
    t = Record.of(height=1, width=3)
    assert restrict(t, Shape.of(width=3)) == Record.of(width=3)
    assert restrict(Record.of(height=1), Shape()) == Record()
    with pytest.raises(MissingAxis):
        restrict(Record.of(height=1), Shape.of(width=3))
    with pytest.raises(InvalidRecord):
        restrict(Record.of(width=9), Shape.of(width=3))


def test_record_validation():
    with pytest.raises(InvalidRecord):
        Record.of(height=0)
    with pytest.raises(InvalidRecord):
        Record([("height", 1), ("height", 2)])
    r = Record.of(width=3, height=1)
    assert r.names == ("height", "width")
    assert r["width"] == 3
    assert r == Record([("height", 1), ("width", 3)])


def test_record_union_disjoint():
    a, b = Record.of(height=1), Record.of(width=2)
    assert a.union(b) == Record.of(height=1, width=2)
    with pytest.raises(InvalidRecord):
        a.union(Record.of(height=2))


@given(shapes, shapes)
def test_symmetry_properties(s, t):
    assert compatible(s, t) == compatible(t, s)
    assert orthogonal(s, t) == orthogonal(t, s)
    if orthogonal(s, t):
        assert compatible(s, t)


def _assert_same_shape(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.names == want.names and got.sizes == want.sizes
    assert tuple(got) == tuple(want) and got.num_records == want.num_records
    assert all(got.size(n) == want.size(n) for n in want.names)
    assert got.compatible(want) and want.compatible(got)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(shapes, shapes, st.lists(names, max_size=4))
def test_union_and_drop_equal_the_validated_construction(s, t, dropped):
    if not compatible(s, t):
        with pytest.raises(IncompatibleShapes):
            s.union(t)
        t = Shape(Axis(ax.name, s.size(ax.name)) if ax.name in s else ax for ax in t)
    validated = Shape([(ax.name, ax.size) for ax in s] +
                      [(ax.name, ax.size) for ax in t if ax.name not in s])
    _assert_same_shape(s.union(t), validated)
    _assert_same_shape(t.union(s), validated)
    _assert_same_shape(s.drop(dropped),
                       Shape([(ax.name, ax.size) for ax in s if ax.name not in dropped]))
    _assert_same_shape(s.union(t).drop(dropped).union(s.drop(dropped)),
                       validated.drop(dropped))


@given(shapes)
def test_enumeration_counts_and_membership(s):
    records = list(s.records())
    expected = 1
    for size in s.sizes:
        expected *= size
    assert len(records) == expected == s.num_records
    assert len(set(records)) == len(records)
    for r in records:
        assert r.in_shape(s)


@given(shapes)
def test_restriction_is_monotone(s):
    # restrict(restrict(t, T), S) == restrict(t, S) for S ⊆ T ⊆ names(t)
    names = list(s.names)
    for r in list(s.records())[:8]:
        for cut in range(len(names) + 1):
            mid = s.keep(names[:cut])
            for cut2 in range(cut + 1):
                small = s.keep(names[:cut2])
                assert restrict(restrict(r, mid), small) == restrict(r, small)


def test_enumeration_is_odometer_last_fastest():
    s = Shape.of(b=2, a=2)
    assert [tuple(r) for r in s.records()] == [
        (("a", 1), ("b", 1)),
        (("a", 1), ("b", 2)),
        (("a", 2), ("b", 1)),
        (("a", 2), ("b", 2)),
    ]
