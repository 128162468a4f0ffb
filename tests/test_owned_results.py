"""How the package turns the arrays it makes into tensors.

Every array an operation, a VJP rule, ``lift.extend`` or the language
makes is wrapped by ``NamedTensor._own`` with the shape the op's rule
returned; the public constructor and ``from_array`` are only for arrays
from outside the package.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntensor import Axis, NamedTensor, Shape, lang, lift, ops
from ntensor import autodiff as ad

CORPUS = Path(__file__).parent / "corpus" / "valid"
NAMES = ("a", "b", "c", "d", "e", "f", "g")


def _tensor(shape: Shape, seed: int = 0) -> NamedTensor:
    rng = np.random.default_rng(seed)
    return NamedTensor(shape, rng.standard_normal(shape.sizes))


def _is_owned(t: NamedTensor) -> bool:
    arr = t.array
    return (arr.dtype == np.float64 and arr.flags.c_contiguous
            and not arr.flags.writeable and arr.shape == t.shape.sizes)


# ---------------------------------------------------------------------------
# no constructor for arrays from outside is reached at run time

@pytest.fixture
def no_public_constructor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an array the package made went through a public constructor")

    def guard():
        monkeypatch.setattr(NamedTensor, "__init__", refuse)
        monkeypatch.setattr(NamedTensor, "from_array", refuse)

    return guard


def test_structural_ops_never_reach_the_public_constructors(no_public_constructor):
    x = _tensor(Shape.of(a=2, b=6, c=3))
    idx = NamedTensor.from_array([[1.0, 3.0], [2.0, 2.0], [6.0, 4.0]], ["c", "d"])
    calls = [
        lambda: ops.rename(x, "a", "z"),
        lambda: ops.rename(x, "b", "a'"),
        lambda: ops.rename_many(x, {"a": "c", "c": "a"}),
        lambda: ops.merge_axes(x, ["c", "a"], Axis("m", 6)),
        lambda: ops.split_axis(x, "b", Axis("b", 3), Axis("k", 2)),
        lambda: ops.unroll(x, "b", Axis("w", 4)),
        lambda: ops.maxk(x, "b", Axis("t", 2)),
        lambda: ops.argmaxk(x, "b", Axis("t", 2)),
        lambda: ops.identity(Axis("i", 3), Axis("j", 3)),
        lambda: ops.contract(x, idx, ["c"]),
        lambda: ops.index_select(x, "b", idx),
        lambda: x.partial_index({"b": 2, "c": 1}),
    ]
    want = [call() for call in calls]
    no_public_constructor()
    for call, expected in zip(calls, want):
        got = call()
        assert got == expected and _is_owned(got)


def test_jacobian_never_reaches_the_public_constructors(no_public_constructor):
    # relu, pool split, max, unroll, merge, maxk, index and partial index
    x = ad.var("x")
    y = ad.split(ad.relu(x), "s", "s", "k", 2)
    y = ad.unroll(ad.max_(y, ["k"]), "s", "w", 2)
    y = ad.maxk(ad.merge(y, ["s", "w"], "m"), "m", "t", 2)
    y = ad.index_select(y, "b", NamedTensor.from_array([3.0, 1.0, 4.0], ["j"]))
    y = ad.partial_index(y, {"j": 2}) + ad.sum_(x, ["s"])
    env = {"x": _tensor(Shape.of(b=4, s=6), seed=1)}
    want = ad.jacobian(y, "x", env)
    no_public_constructor()
    got = ad.jacobian(y, "x", env)
    assert got.value == want.value and got.rename_map == want.rename_map
    assert _is_owned(got.value)


def test_lift_never_reaches_the_public_constructors(no_public_constructor):
    f = lift.TensorFunction((Shape.of(a=3),), Shape.of(t=2),
                            lambda v: ops.maxk(ops.relu(v), "a", Axis("t", 2)))
    x = _tensor(Shape.of(a=3, e=2, g=4), seed=2)
    want = lift.extend(f, x)
    no_public_constructor()
    got = lift.extend(f, x)
    assert got == want and _is_owned(got)
    report = ad.lifted_derivative_check(
        lambda v: ad.maxk(ad.relu(v), "a", "t", 2), Shape.of(a=3), Shape.of(e=2))
    assert report.passed


@pytest.mark.parametrize("name, of, wrt", [
    ("lenet.nt", "O", "X0"),
    ("indexing.nt", "Embs", "E"),
    ("beam.nt", "NewH", "T"),
    ("matrix_basics.nt", "Row1", "A"),
])
def test_language_never_reaches_the_public_constructors(no_public_constructor, name, of, wrt):
    program = lang.parse((CORPUS / name).read_text())
    env = lang.run_program(program, seed=1).env
    derivative = lang.grad_program(program, of, wrt, seed=1)
    no_public_constructor()
    assert lang.run_program(program, seed=1).env == env
    assert lang.grad_program(program, of, wrt, seed=1).value == derivative.value


# ---------------------------------------------------------------------------
# each structural op's result has its rule's shape and an owned buffer

shapes = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(1, 4)),
    min_size=1, max_size=4, unique_by=lambda ax: ax[0],
).map(Shape)


def _fresh(data, shape: Shape, also=()):
    return data.draw(st.sampled_from([n for n in NAMES + ("h", "k'") if n not in shape
                                      and n not in also]))


def _structural_case(data, shape: Shape):
    """(op name, call, rule shape, whether the result keeps the operand's layout)."""
    names = shape.names
    which = data.draw(st.sampled_from(
        ["rename", "rename_many", "merge", "split", "unroll", "maxk", "argmaxk", "identity"]))
    if which == "rename":
        old = data.draw(st.sampled_from(names))
        new = data.draw(st.sampled_from([n for n in NAMES if n == old or n not in shape]))
        labels = [new if n == old else n for n in names]
        return (which, lambda t: ops.rename(t, old, new), ops.rename_shape(shape, old, new),
                labels == sorted(labels))
    if which == "rename_many":
        olds = data.draw(st.lists(st.sampled_from(names), unique=True))
        free = [n for n in NAMES if n in olds or n not in shape]
        news = data.draw(st.permutations(free))[: len(olds)]
        mapping = dict(zip(olds, news))
        return (which, lambda t: ops.rename_many(t, mapping),
                ops.rename_many_shape(shape, mapping), None)
    if which == "merge":
        parts = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        merged = Axis(_fresh(data, shape.drop(parts)),
                      int(np.prod([shape.size(p) for p in parts])))
        kept = [n for n in names if n not in parts]
        labels = kept + [merged.name]
        in_place = kept + parts == list(names) and labels == sorted(labels)
        return (which, lambda t: ops.merge_axes(t, parts, merged),
                ops.merge_shape(shape, parts, merged), in_place)
    if which == "split":
        src = data.draw(st.sampled_from(names))
        n = shape.size(src)
        inner_size = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        outer = Axis(data.draw(st.sampled_from([src, _fresh(data, shape)])), n // inner_size)
        inner = Axis(_fresh(data, shape, also=(outer.name,)), inner_size)
        labels = list(names)
        labels[names.index(src) : names.index(src) + 1] = [outer.name, inner.name]
        return (which, lambda t: ops.split_axis(t, src, outer, inner),
                ops.split_shape(shape, src, outer, inner), labels == sorted(labels))
    if which == "identity":
        size = data.draw(st.integers(1, 4))
        a, b = Axis("i", size), Axis(data.draw(st.sampled_from(["j", "a'"])), size)
        return which, lambda t: ops.identity(a, b), ops.identity_shape(a, b), None
    ax = data.draw(st.sampled_from(names))
    k = Axis(_fresh(data, shape), data.draw(st.integers(1, shape.size(ax))))
    op, rule = {"unroll": (ops.unroll, ops.unroll_shape), "maxk": (ops.maxk, ops.maxk_shape),
                "argmaxk": (ops.argmaxk, ops.argmaxk_shape)}[which]
    return which, lambda t: op(t, ax, k), rule(shape, ax, k), None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(shapes, st.data())
def test_structural_result_has_its_rules_shape_and_an_owned_buffer(shape, data):
    x = _tensor(shape)
    which, call, rule_shape, in_place = _structural_case(data, shape)
    out = call(x)
    assert out.shape == rule_shape
    assert _is_owned(out)
    if in_place:
        assert np.shares_memory(out.array, x.array), which
    assert x.array.flags.c_contiguous and not x.array.flags.writeable


def test_canonical_rename_and_split_share_the_operands_buffer():
    x = _tensor(Shape.of(a=2, c=6))
    assert np.shares_memory(ops.rename(x, "a", "b").array, x.array)
    assert not np.shares_memory(ops.rename(x, "a", "d").array, x.array)
    assert np.shares_memory(ops.split_axis(x, "c", Axis("c", 3), Axis("d", 2)).array, x.array)
    assert np.shares_memory(ops.merge_axes(x, ["a", "c"], Axis("m", 12)).array, x.array)


def test_partial_index_copies_its_slice():
    x = _tensor(Shape.of(a=2, c=6))
    for record in ({"a": 1}, {"c": 3}, {"a": 2, "c": 6}):
        part = x.partial_index(record)
        assert not np.shares_memory(part.array, x.array)
        assert _is_owned(part)


def test_canonical_rename_allocates_no_copy():
    x = _tensor(Shape.of(i=256, k=256))  # 0.5 MB
    ops.rename(x, "i", "j")  # first-call allocations are not the op's
    tracemalloc.start()
    try:
        out = ops.rename(x, "i", "j")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == Shape.of(j=256, k=256)
    assert peak < 0.1 * x.array.nbytes


# ---------------------------------------------------------------------------
# _own itself

def test_own_rejects_a_buffer_that_is_not_float64():
    shape = Shape.of(a=2)
    for arr in (np.array([True, False]), np.array([1, 2]), np.array([1.0, 2.0], np.float32)):
        with pytest.raises(TypeError, match="float64"):
            NamedTensor._own(shape, arr)


def test_own_transposes_labelled_dimensions_into_canonical_order():
    arr = np.arange(6.0).reshape(3, 2)
    t = NamedTensor._own(Shape.of(a=2, b=3), arr, ["b", "a"])
    assert t == NamedTensor.from_array(arr, ["b", "a"])
    assert _is_owned(t)
