"""Axis sizes and record indices accept any integer but a bool, numpy's too."""

import numpy as np
import pytest

from ntensor import Axis, InvalidRecord, NamedTensor, Record, Shape


@pytest.mark.parametrize("size", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_size_is_stored_as_an_int(size):
    ax = Axis("a", size)
    assert ax == Axis("a", 3) and hash(ax) == hash(Axis("a", 3))
    assert type(ax.size) is int
    assert Shape([("a", size)]) == Shape.of(a=3)


@pytest.mark.parametrize("size", [True, np.True_, 3.0, np.float64(3.0), 0, np.int64(-1), "3"])
def test_non_integer_or_non_positive_size_is_refused(size):
    with pytest.raises(ValueError, match="positive integer"):
        Axis("a", size)


def test_numpy_integer_index_is_stored_as_an_int():
    record = Record({"a": np.int64(2)})
    assert record == Record.of(a=2) and hash(record) == hash(Record.of(a=2))
    assert type(record["a"]) is int
    for index in (True, 2.0, np.float64(2.0)):
        with pytest.raises(InvalidRecord):
            Record({"a": index})


def test_partial_index_takes_a_numpy_integer():
    a = NamedTensor.from_nested([[3, 1, 4], [1, 5, 9]], ["a", "b"])
    assert a.partial_index({"a": np.int64(2)}) == a.partial_index({"a": 2})
    assert a.get({"a": np.int64(1), "b": np.int32(3)}) == 4.0
