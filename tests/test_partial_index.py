"""Partial indexing is one op, ``ops.partial_index`` beside its rule
``ops.partial_index_shape``, reached alike from the tensor method, ``t[r]``,
``get`` and the ``ad.partial_index`` node."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntensor import InvalidRecord, NamedTensor, Record, Shape, lang, ops
from ntensor import autodiff as ad

NAMES = ("a", "b", "c", "d")
X = NamedTensor.from_nested([[3, 1, 4], [1, 5, 9]], ["a", "b"])


def _entry_points(t: NamedTensor, record) -> dict:
    """Every way to index ``t`` by ``record``, each as a thunk."""
    node = lambda: ad.partial_index(ad.var("X"), record)  # noqa: E731
    return {
        "method": lambda: t.partial_index(record),
        "getitem": lambda: t[record],
        "ops": lambda: ops.partial_index(t, record),
        "evaluate": lambda: ad.evaluate(node(), {"X": t}),
        "infer_shape": lambda: ad.infer_shape(node(), {"X": t.shape}),
    }


@st.composite
def indexed(draw):
    """A tensor over a random shape and a record fixing some of its axes."""
    axes = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 4)),
                         max_size=4, unique_by=lambda ax: ax[0]))
    shape = Shape(axes)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    t = NamedTensor(shape, rng.standard_normal(shape.sizes))
    fixed = draw(st.lists(st.sampled_from(shape.names), unique=True)) if axes else []
    return t, {n: draw(st.integers(1, shape.size(n))) for n in fixed}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(indexed())
def test_every_entry_point_returns_the_same_slice(case):
    t, record = case
    calls = _entry_points(t, record)
    want = calls.pop("ops")()
    assert ad.infer_shape(ad.partial_index(ad.var("X"), record), {"X": t.shape}) \
        == ops.partial_index_shape(t.shape, Record(record)) == want.shape
    del calls["infer_shape"]
    for name, call in calls.items():
        assert call() == want, name
    if set(record) == set(t.shape.names):
        assert t.get(record) == want.item()


@pytest.mark.parametrize("index", [1.5, True, "2", 0])
def test_a_malformed_index_is_refused_everywhere(index):
    record = {"a": index}
    for call in _entry_points(X, record).values():
        with pytest.raises(InvalidRecord):
            call()
    with pytest.raises(InvalidRecord):  # when the node is built, not at evaluation
        ad.partial_index(ad.var("X"), record)
    with pytest.raises(InvalidRecord):
        X.get({"a": index, "b": 1})


@pytest.mark.parametrize("record, message", [
    ({"a": 3}, "index a(3) out of range for a[2]"),
    ({"b": 4, "a": 1}, "index b(4) out of range for b[3]"),
    ({"z": 1}, "axis 'z' not in shape {a[2], b[3]}"),
])
def test_a_record_outside_the_shape_is_refused_everywhere(record, message):
    for name, call in _entry_points(X, record).items():
        with pytest.raises(InvalidRecord) as err:
            call()
        assert str(err.value) == message, name
        # a graph walk names the node that raised
        assert isinstance(err.value.node, ad.PartialIndex) == (name in ("evaluate", "infer_shape"))
    with pytest.raises(InvalidRecord, match=re.escape(message)):
        ops.partial_index_shape(X.shape, Record(record))


@pytest.mark.parametrize("record", [{"a": 1}, {"a": 1, "b": 1, "c": 1}, {"a": 1, "c": 1}])
def test_get_wants_exactly_the_shape_names(record):
    with pytest.raises(InvalidRecord, match="does not name exactly the axes of"):
        X.get(record)


def test_a_zero_index_in_a_program_is_a_spanned_parse_error():
    with pytest.raises(lang.ParseError) as err:
        lang.parse("axis a = 2\nA = random over (a)\nB = A[a=0]\n")
    assert (err.value.line, err.value.col) == (3, 9)
    assert "positive integer" in err.value.bare_message


def test_unroll_derivative_reads_its_cotangent_without_indexing(monkeypatch):
    calls = []
    original = ops.partial_index
    monkeypatch.setattr(ops, "partial_index", lambda *a: calls.append(a) or original(*a))
    x = NamedTensor(Shape.of(b=2, s=6), np.arange(12.0).reshape(2, 6))
    body = ad.sum_(ad.unroll(ad.var("x"), "s", "k", kernel_size=3), ["s", "k"])
    d = ad.jacobian(body, "x", {"x": x})
    assert calls == []
    # each position of s is read by the windows that cover it
    covers = np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
    want = np.einsum("bc,s->bsc", np.eye(2), covers)
    assert np.array_equal(d.value.to_array(["b", "s", d.rename_map["b"]]), want)
