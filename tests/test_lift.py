"""The broadcasting engine: slice correctness and precondition errors."""

import math

import pytest

from ntensor import (
    Axis,
    ExtensionCollision,
    IncompatibleShapes,
    MissingAxis,
    NamedTensor,
    Shape,
    ShapeMismatch,
    SizeMismatch,
    SplitMix64,
    TensorFunction,
    extend,
    ops,
)
from ntensor import autodiff as ad

from helpers import random_shape, random_tensor

A = NamedTensor.from_nested([[3, 1, 4], [1, 5, 9], [2, 6, 5]], ["height", "width"])


def scalar_fn(f, name="scalar"):
    return TensorFunction((Shape(),), Shape(), lambda x: f(x.item()), name=name)


def scalar2_fn(f, name="scalar2"):
    return TensorFunction(
        (Shape(), Shape()), Shape(), lambda x, y: f(x.item(), y.item()), name=name
    )


def test_unary_scalar_lift_is_elementwise():
    sig = scalar_fn(lambda v: 1.0 / (1.0 + math.exp(-v)))
    out = extend(sig, A)
    assert out.shape == A.shape
    assert out.get({"height": 1, "width": 1}) == 1.0 / (1.0 + math.exp(-3.0))


def test_unary_reduction_lift():
    base = TensorFunction(
        (Shape.of(height=3),), Shape(),
        lambda x: sum(x.get({"height": i}) for i in (1, 2, 3)),
        name="sum_height",
    )
    out = extend(base, A)
    assert out.to_array(["width"]).tolist() == [6.0, 12.0, 18.0]


def test_identity_extension():
    base = TensorFunction(
        (A.shape,), A.shape, lambda x: ops.mul(x, 2.0), name="double"
    )
    assert extend(base, A) == ops.mul(A, 2.0)


def test_output_collision_is_an_error():
    # base output introduces axis 'ax'; an extension named 'ax' must be rejected
    base = TensorFunction(
        (Shape.of(b=2),), Shape.of(ax=2),
        lambda x: ops.rename(ops.softmax(x, ["b"]), "b", "ax"),
        name="softmax_renamed",
    )
    ok = NamedTensor.from_nested([0.0, 1.0], ["b"])
    assert extend(base, ok).shape == Shape.of(ax=2)
    bad = NamedTensor.from_nested([[0.0, 1.0], [2.0, 3.0]], ["ax", "b"])
    with pytest.raises(ExtensionCollision):
        extend(base, bad)


def test_size_mismatch_against_base():
    base = TensorFunction(
        (Shape.of(height=4),), Shape(), lambda x: 0.0, name="needs4"
    )
    with pytest.raises(SizeMismatch):
        extend(base, A)


def test_missing_base_axis():
    base = TensorFunction(
        (Shape.of(chans=2),), Shape(), lambda x: 0.0, name="needs_chans"
    )
    with pytest.raises(MissingAxis):
        extend(base, A)


def test_binary_addition_broadcasts_like_the_tables():
    add = scalar2_fn(lambda a, b: a + b)
    x = NamedTensor.from_nested([2, 7, 1], ["height"])
    y = NamedTensor.from_nested([1, 4, 1], ["width"])
    ax = extend(add, A, x)
    ay = extend(add, A, y)
    assert ax.get({"height": 2, "width": 2}) == 12.0
    assert ay.get({"height": 1, "width": 2}) == 5.0
    assert ax == ops.add(A, x)
    assert ay == ops.add(A, y)


def test_binary_outer_product():
    mulf = scalar2_fn(lambda a, b: a * b)
    a = NamedTensor.from_nested([1.0, 2.0], ["height"])
    b = NamedTensor.from_nested([3.0, 5.0], ["width"])
    out = extend(mulf, a, b)
    assert out.shape == Shape.of(height=2, width=2)
    for i in (1, 2):
        for j in (1, 2):
            assert out.get({"height": i, "width": j}) == (
                a.get({"height": i}) * b.get({"width": j})
            )


def test_incompatible_extensions():
    add = scalar2_fn(lambda a, b: a + b)
    with pytest.raises(IncompatibleShapes):
        extend(
            add,
            NamedTensor.from_nested([1.0, 2.0], ["ax"]),
            NamedTensor.from_nested([1.0, 2.0, 3.0], ["ax"]),
        )


def test_extension_crossing_base_is_rejected():
    # extension axis of one operand matching the other operand's base axis
    dot = TensorFunction(
        (Shape.of(ax=2), Shape()), Shape(),
        lambda a, b: ops.sum_(a, ["ax"]).item() * b.item(),
        name="sum_times",
    )
    a = NamedTensor.from_nested([1.0, 2.0], ["ax"])
    b = NamedTensor.from_nested([3.0, 4.0], ["ax"])  # 'ax' extends the scalar slot
    with pytest.raises(ExtensionCollision):
        extend(dot, a, b)


def test_body_shape_is_verified():
    lying = TensorFunction(
        (Shape(),), Shape.of(out=2), lambda x: x, name="liar"
    )
    with pytest.raises(ShapeMismatch):
        extend(lying, NamedTensor.scalar(1.0))


def test_wrong_operand_count_is_a_type_error():
    add = scalar2_fn(lambda a, b: a + b)
    with pytest.raises(TypeError, match="takes 2 arguments, got 1"):
        extend(add, A)
    with pytest.raises(TypeError, match="takes 1 arguments, got 3"):
        extend(scalar_fn(abs), A, A, A)


@pytest.mark.parametrize("kind", ["callable", "expression"])
def test_call_checks_operand_count_and_shapes(kind):
    if kind == "callable":
        total = TensorFunction((Shape.of(a=2),), Shape(),
                               lambda x: ops.sum_(x, ["a"]), name="total")
    else:
        total = TensorFunction((Shape.of(a=2),), Shape(), ad.sum_(ad.var("x"), ["a"]),
                               name="total", params=("x",))
    two = NamedTensor.from_nested([1.0, 2.0], ["a"])
    assert total(two).item() == 3.0
    with pytest.raises(ShapeMismatch, match="total: operand 1 has shape"):
        total(NamedTensor.from_nested([1.0, 2.0, 3.0], ["a"]))
    with pytest.raises(ShapeMismatch, match="total"):
        total(NamedTensor.from_nested([[1.0, 2.0]], ["p", "a"]))
    with pytest.raises(TypeError, match="total takes 1 arguments, got 2"):
        total(two, two)
    with pytest.raises(TypeError, match="total takes 1 arguments, got 0"):
        total()


def test_ternary_fused_multiply_add_shape():
    fma = TensorFunction(
        (Shape(), Shape(), Shape()), Shape(),
        lambda a, b, c: a.item() * b.item() + c.item(),
        name="fma",
    )
    a = NamedTensor.from_nested([1.0, 2.0], ["p"])
    b = NamedTensor.from_nested([3.0, 4.0, 5.0], ["q"])
    c = NamedTensor.from_nested([6.0], ["r"])
    out = extend(fma, a, b, c)
    assert out.shape == Shape.of(p=2, q=3, r=1)
    assert out.get({"p": 2, "q": 1, "r": 1}) == 2.0 * 3.0 + 6.0


def _attention_base(nseq, nkey, nval):
    from ntensor.zoo import attention

    shapes = (
        Shape.of(key=nkey),
        Shape.of(seq=nseq, key=nkey),
        Shape.of(seq=nseq, val=nval),
    )
    return TensorFunction(shapes, Shape.of(val=nval), attention, name="attention")


def test_attention_lift_query_sequence():
    rng = SplitMix64(11)
    base = _attention_base(3, 2, 2)
    q = random_tensor(rng, Shape.of(**{"seq'": 3, "key": 2}))
    k = random_tensor(rng, Shape.of(seq=3, key=2))
    v = random_tensor(rng, Shape.of(seq=3, val=2))
    out = extend(base, q, k, v)
    assert out.shape == Shape.of(**{"seq'": 3, "val": 2})
    for i in (1, 2, 3):
        slice_out = base(q.partial_index({"seq'": i}), k, v)
        assert out.partial_index({"seq'": i}) == slice_out


def test_attention_lift_batch_heads_equals_independent_calls():
    rng = SplitMix64(12)
    base = _attention_base(3, 2, 2)
    ext = Shape.of(batch=2, heads=2)
    q = random_tensor(rng, Shape.of(key=2, batch=2, heads=2))
    k = random_tensor(rng, Shape.of(seq=3, key=2, batch=2, heads=2))
    v = random_tensor(rng, Shape.of(seq=3, val=2, batch=2, heads=2))
    out = extend(base, q, k, v)
    assert out.shape == Shape.of(val=2, batch=2, heads=2)
    for rec in ext.records():
        expected = base(
            q.partial_index(rec), k.partial_index(rec), v.partial_index(rec)
        )
        assert out.partial_index(rec) == expected


@pytest.mark.parametrize("seed", range(6))
def test_slice_correctness_random_bases(seed):
    """Every slice of a lifted call equals the base applied to input slices."""
    rng = SplitMix64(900 + seed)
    base_shape = random_shape(rng, max_axes=2, max_size=3, min_axes=1,
                              pool=("u", "v"))
    axes = list(base_shape.names)

    kinds = {
        "sum": TensorFunction((base_shape,), Shape(),
                              lambda x: ops.sum_(x, axes), name="sum"),
        "max": TensorFunction((base_shape,), Shape(),
                              lambda x: ops.max_(x, axes), name="max"),
        "softmax": TensorFunction((base_shape,), base_shape,
                                  lambda x: ops.softmax(x, axes), name="softmax"),
        "dot": TensorFunction((base_shape, base_shape), Shape(),
                              lambda a, b: ops.contract(a, b, axes), name="dot"),
    }
    ext = random_shape(rng, max_axes=3, max_size=4, pool=("p", "q", "r"))
    for name, fn in kinds.items():
        args = [
            random_tensor(rng, s.union(ext)) for s in fn.input_shapes
        ]
        out = extend(fn, *args)
        assert out.shape == fn.output_shape.union(ext)
        for rec in ext.records():
            slices = [a.partial_index(rec.restrict_names(ext.names)) for a in args]
            assert out.partial_index(rec) == fn(*slices), f"{name} slice differs"


def test_nesting_equals_joint_extension():
    """Lifting over two extension groups equals lifting over their union."""
    rng = SplitMix64(77)
    base_shape = Shape.of(u=3)
    softmax_end = TensorFunction(
        (base_shape,), base_shape, lambda x: ops.softmax(x, ["u"]), name="sm"
    )
    full = random_tensor(rng, Shape.of(u=3, p=2, q=2))
    joint = extend(softmax_end, full)
    # lift slice-by-slice over p only, then assemble: must agree with joint
    for i in (1, 2):
        inner = extend(softmax_end, full.partial_index({"p": i}))
        assert joint.partial_index({"p": i}) == inner
