"""Dense tensor construction, record access, partial indexing, text format."""

import math

import numpy as np
import pytest

from ntensor import (
    Axis,
    DuplicateEntry,
    InvalidRecord,
    MissingEntry,
    NamedTensor,
    Record,
    Shape,
    ShapeMismatch,
    SplitMix64,
    ops,
)

from helpers import random_shape, random_tensor

# the running 3x3 example used throughout
A = NamedTensor.from_nested([[3, 1, 4], [1, 5, 9], [2, 6, 5]], ["height", "width"])


def test_constructor_neither_aliases_nor_freezes_the_callers_array():
    arr = np.arange(6.0).reshape(2, 3)
    t = NamedTensor(Shape.of(a=2, b=3), arr)
    assert not np.shares_memory(t.array, arr)
    assert arr.flags.writeable and not t.array.flags.writeable
    arr[0, 0] = 9.0
    assert t.array[0, 0] == 0.0


def test_from_entries_scalar():
    t = NamedTensor.from_entries(Shape(), {Record(): 5.0})
    assert t.item() == 5.0


def test_from_entries_matrix_matches_nested():
    entries = {}
    for i, row in enumerate([[3, 1, 4], [1, 5, 9], [2, 6, 5]], start=1):
        for j, v in enumerate(row, start=1):
            entries[Record.of(height=i, width=j)] = v
    assert NamedTensor.from_entries(Shape.of(height=3, width=3), entries) == A
    assert A.get(Record.of(height=1, width=3)) == 4.0


def test_from_entries_missing_and_duplicates():
    shape = Shape.of(height=2)
    with pytest.raises(MissingEntry):
        NamedTensor.from_entries(shape, {Record.of(height=1): 1.0})
    with pytest.raises(DuplicateEntry):
        NamedTensor.from_entries(
            shape, [(Record.of(height=1), 1.0), (Record.of(height=1), 2.0),
                    (Record.of(height=2), 3.0)]
        )
    with pytest.raises(InvalidRecord):
        NamedTensor.from_entries(shape, {Record.of(width=1): 1.0, Record.of(height=2): 2.0})


@pytest.mark.parametrize("values, names, error, message", [
    ([[1.0, 2.0], [3.0]], ["a", "b"], ShapeMismatch, "ragged tensor literal: "),
    ([[1.0, 2.0]], ["a"], ShapeMismatch, "literal nests 2 deep but names 1 axes"),
    ([1.0, 2.0], ["a", "b"], ShapeMismatch, "literal nests 1 deep but names 2 axes"),
    ([[1, 2], [3]], ["a", "b"], ShapeMismatch, "ragged tensor literal: "),
    (["a", "b"], ["x"], TypeError, "tensor literal entry 'a' is not a number"),
    ([[1, "x"], [2, 3]], ["a", "b"], TypeError, "tensor literal entry 'x' is not a number"),
    ([None, "1.5"], ["a"], TypeError, "tensor literal entry None is not a number"),
    ([1.0, "1.5"], ["a"], TypeError, "tensor literal entry '1.5' is not a number"),
    ([[1.0, 2.0], [3.0, None]], ["a", "b"], TypeError, "tensor literal entry None is not a number"),
], ids=["ragged", "over_deep", "under_deep", "ragged_ints", "strings", "one_string",
        "none", "numeric_string", "nested_none"])
def test_from_nested_rejects_malformed_nesting(values, names, error, message):
    """Malformed nesting is a shape error; in a regular literal, an entry
    that is not a number is a type error naming it, as in ``as_tensor``."""
    with pytest.raises(error) as err:
        NamedTensor.from_nested(values, names)
    assert str(err.value).startswith(message)


def test_from_nested_reads_array_entries_as_nesting():
    rows = np.arange(6.0).reshape(2, 3)
    want = NamedTensor.from_array(rows, ["a", "b"])
    assert NamedTensor.from_nested(rows, ["a", "b"]) == want
    assert NamedTensor.from_nested(list(rows), ["a", "b"]) == want


def test_get_is_order_independent():
    assert A.get({"height": 1, "width": 3}) == 4.0
    assert A.get({"width": 3, "height": 1}) == 4.0
    with pytest.raises(InvalidRecord):
        A.get({"height": 4, "width": 1})
    with pytest.raises(InvalidRecord):
        A.get({"height": 1})  # not a full record


def test_partial_index_rows_and_columns():
    assert A.partial_index({"height": 1}).to_array(["width"]).tolist() == [3, 1, 4]
    assert A.partial_index({"width": 3}).to_array(["height"]).tolist() == [4, 9, 5]
    assert A.partial_index({}) == A
    with pytest.raises(InvalidRecord):
        A.partial_index({"chans": 1})


def test_partial_index_composes():
    one_step = A.partial_index({"height": 2, "width": 1})
    two_step = A.partial_index({"height": 2}).partial_index({"width": 1})
    assert one_step == two_step
    assert one_step.item() == 1.0


def test_axis_order_never_matters():
    b = NamedTensor.from_nested([[3, 1, 2], [1, 5, 6], [4, 9, 5]], ["width", "height"])
    assert b == A


def test_round_trip_entries_bit_exact():
    rng = SplitMix64(7)
    for _ in range(20):
        shape = random_shape(rng, max_axes=3, max_size=3)
        t = random_tensor(rng, shape)
        rebuilt = NamedTensor.from_entries(shape, dict(t.items()))
        assert rebuilt == t


def test_scalar_and_empty_shape_identified():
    s = NamedTensor.scalar(2.5)
    assert s.shape == Shape()
    assert s.item() == 2.5
    assert s.get(Record()) == 2.5
    assert s.partial_index({}) == s


def test_text_format_round_trip():
    for t in (
        A,
        NamedTensor.scalar(-0.1),
        NamedTensor.from_nested([math.pi, -math.inf, 1e-300], ["ax"]),
        random_tensor(SplitMix64(3), Shape.of(a=2, b=3, c=2)),
    ):
        text = t.to_text()
        assert NamedTensor.from_text(text) == t
        assert text.startswith("shape:")


def test_text_format_layout():
    text = A.to_text()
    lines = text.splitlines()
    assert lines[0] == "shape: height=3, width=3"
    assert lines[1].split() == ["3", "1", "4"]
    assert len(lines) == 4


def test_text_format_17_digits():
    v = 0.1234567890123456789
    t = NamedTensor.scalar(v)
    assert NamedTensor.from_text(t.to_text()).item() == v


def test_immutability():
    with pytest.raises(ValueError):
        A.array[0, 0] = 99.0


def test_operators_broadcast():
    x = NamedTensor.from_nested([2, 7, 1], ["height"])
    summed = A + x
    assert summed.get({"height": 2, "width": 2}) == 12.0
    assert (A * 2.0).get({"height": 1, "width": 3}) == 8.0
    assert (1.0 / NamedTensor.scalar(4.0)).item() == 0.25
    assert (-A).get({"height": 1, "width": 1}) == -3.0


@pytest.mark.parametrize("got, want", [
    (lambda x: 2.0 + x, lambda x: ops.add(2.0, x)),
    (lambda x: x - A, lambda x: ops.sub(x, A)),
    (lambda x: 2.0 - x, lambda x: ops.sub(2.0, x)),
    (lambda x: x / A, lambda x: ops.div(x, A)),
    (lambda x: x ** A, lambda x: ops.pow_(x, A)),
], ids=["radd", "sub", "rsub", "truediv", "pow"])
def test_operators_equal_their_ops(got, want):
    x = NamedTensor.from_nested([2, 7, 1], ["height"])
    assert got(x) == want(x)
