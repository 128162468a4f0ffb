"""Each zoo block is written once, as an ``autodiff`` graph, and LeNet is
one graph of them: a block called on variables returns its graph, called
on tensors returns that graph's value, and LeNet computes what its eager
``ops`` form computes, bit for bit."""

import math

import numpy as np
import pytest

from ntensor import Axis, NamedTensor, SizeMismatch, SplitMix64, ops, zoo
from ntensor import autodiff as ad
from ntensor.zoo import blocks, fixtures, models, oracles


def _tensors(seed: int, **shapes) -> dict:
    """Seeded tensors by name; each shape is a list of (axis, size) pairs."""
    rng = SplitMix64(seed)
    return {
        name: NamedTensor.from_nested(rng.nested([s for _, s in axes]), [a for a, _ in axes])
        for name, axes in shapes.items()
    }


def _mask(nseq: int, nout: int) -> NamedTensor:
    rows = [[0.0 if s <= sp else -math.inf for sp in range(nout)] for s in range(nseq)]
    return NamedTensor.from_nested(rows, ["seq", "seq'"])


_NORM = dict(x=[("batch", 2), ("chans", 4), ("layer", 3)],
             gamma=[("chans", 4)], beta=[("chans", 4)])
_LAYER_NORM = dict(x=[("batch", 2), ("chans", 4), ("layer", 3)],
                   gamma=[("chans", 4), ("layer", 3)], beta=[("chans", 4), ("layer", 3)])

# block name: (call on a mapping of operands, operand shapes)
BLOCK_CASES = {
    "fullconn": (
        lambda t: blocks.fullconn(t["x"], t["w"], t["b"]),
        dict(x=[("batch", 2), ("layer", 3)], w=[("layer", 3), ("layer'", 4)], b=[("layer'", 4)]),
    ),
    "feedforward": (
        lambda t: blocks.feedforward(t["x"], [(t["w1"], t["b1"]), (t["w2"], t["b2"])]),
        dict(x=[("layer", 3)], w1=[("layer'", 3), ("layer", 3)], b1=[("layer'", 3)],
             w2=[("layer'", 3), ("layer", 3)], b2=[("layer'", 3)]),
    ),
    "rnn_elman": (
        lambda t: blocks.rnn_elman([t["x1"], t["x2"]], t["wh"], t["wi"], t["b"], t["h0"]),
        dict(x1=[("batch", 2), ("inp", 3)], x2=[("inp", 3)], wh=[("hidden", 2), ("hidden'", 2)],
             wi=[("inp", 3), ("hidden'", 2)], b=[("hidden'", 2)], h0=[("hidden", 2)]),
    ),
    "attention": (
        lambda t: blocks.attention(t["q"], t["k"], t["v"], t["m"]),
        dict(q=[("heads", 2), ("seq'", 3), ("key", 2)], k=[("heads", 2), ("seq", 4), ("key", 2)],
             v=[("seq", 4), ("val", 3)], m=None),
    ),
    "conv1d": (
        lambda t: blocks.conv1d(t["x"], t["w"], t["b"]),
        dict(x=[("batch", 2), ("chans", 2), ("seq", 6)],
             w=[("chans'", 3), ("chans", 2), ("kernel", 3)], b=[("chans'", 3)]),
    ),
    "conv2d": (
        lambda t: blocks.conv2d(t["x"], t["w"], t["b"]),
        dict(x=[("chans", 2), ("height", 6), ("width", 5)],
             w=[("chans'", 2), ("chans", 2), ("kh", 3), ("kw", 2)], b=[("chans'", 2)]),
    ),
    "maxpool1d": (
        lambda t: blocks.maxpool1d(t["x"], 3),
        dict(x=[("chans", 2), ("seq", 6)]),
    ),
    "maxpool2d": (
        lambda t: blocks.maxpool2d(t["x"], 2, 3),
        dict(x=[("chans", 2), ("height", 4), ("width", 6)]),
    ),
    "batchnorm": (lambda t: blocks.batchnorm(t["x"], t["gamma"], t["beta"]), _NORM),
    "instancenorm": (lambda t: blocks.instancenorm(t["x"], t["gamma"], t["beta"]), _NORM),
    "layernorm": (lambda t: blocks.layernorm(t["x"], t["gamma"], t["beta"]), _LAYER_NORM),
    "groupnorm": (lambda t: blocks.groupnorm(t["x"], t["gamma"], t["beta"], 2), _NORM),
}


def test_every_block_has_a_case():
    assert set(BLOCK_CASES) == set(blocks.__all__)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_on_variables_is_the_graph_of_its_tensor_call(name):
    call, shapes = BLOCK_CASES[name]
    tensors = _tensors(7, **{n: s for n, s in shapes.items() if s is not None})
    if "m" in shapes:
        tensors["m"] = _mask(4, 3)
    direct = call(tensors)
    graph = call({n: ad.var(n) for n in tensors})
    sizes = {axis.name: axis.size for t in tensors.values() for axis in t.shape}
    if name == "rnn_elman":  # the state trajectory, one graph per state
        assert all(isinstance(g, ad.Expr) for g in graph)
        got = [ad.evaluate(g, tensors, axis_sizes=sizes) for g in graph]
    else:
        assert isinstance(graph, ad.Expr)
        graph, direct = [graph], [direct]
        got = [ad.evaluate(graph[0], tensors, axis_sizes=sizes)]
    assert len(got) == len(direct)
    for value, want in zip(got, direct):
        assert isinstance(want, NamedTensor)
        assert value.shape == want.shape
        assert np.array_equal(value.array, want.array)


def test_transformer_attention_is_the_attention_block():
    bindings = dict(models.transformer_bindings(2))
    v = ad.var
    assert bindings["A1"] == zoo.attention(v("Q1"), v("K1"), v("V1"), v("M"))
    assert bindings["A2"] == zoo.attention(v("Q2"), v("K2"), v("V2"), v("M"))


def test_a_block_on_tensors_raises_the_error_of_its_op():
    x = NamedTensor.from_nested([[1.0, 2.0, 3.0, 4.0, 5.0]], ["chans", "seq"])
    with pytest.raises(SizeMismatch):
        zoo.maxpool1d(x, 2)


# ---------------------------------------------------------------------------
# LeNet

def _eager_lenet(x0, params):
    """LeNet as the eager ``ops`` calls it was written as before it became
    a graph: unroll-then-contract convolutions, split-then-max pooling."""
    def conv(x, w, b):
        kh = Axis("kh", w.shape.size("kh"))
        kw = Axis("kw", w.shape.size("kw"))
        windows = ops.unroll(ops.unroll(x, "width", kw), "height", kh)
        out = ops.add(ops.contract(w, windows, ["chans", "kh", "kw"]), b)
        return ops.rename(out, "chans'", "chans")

    def pool(x, k):
        h, w = x.shape.size("height"), x.shape.size("width")
        pooled = ops.split_axis(x, "height", Axis("height", h // k), Axis("kh", k))
        pooled = ops.split_axis(pooled, "width", Axis("width", w // k), Axis("kw", k))
        return ops.reduce(pooled, "max", ["kh", "kw"])

    k = models.LENET_POOL
    t1 = ops.relu(conv(x0, params["conv1_w"], params["conv1_b"]))
    x1 = pool(t1, k)
    t2 = ops.relu(conv(x1, params["conv2_w"], params["conv2_b"]))
    pooled = pool(t2, k)
    layer_size = params["dense_w"].shape.size("layer")
    flat = ops.merge_axes(pooled, ["height", "width", "chans"], Axis("layer", layer_size))
    dense = ops.contract(params["dense_w"], flat, ["layer"])
    hidden = ops.relu(ops.add(dense, params["dense_b"]))
    logits = ops.add(ops.contract(params["out_w"], hidden, ["hidden"]), params["out_b"])
    return ops.softmax(logits, ["classes"])


_IMAGE_AXES = ["batch", "chans", "height", "width"]


@pytest.mark.parametrize("sizes", [
    {},  # the fixture's
    dict(batch=16, image=28, c1=6, c2=16, kernel=5, hidden=120, classes=10),  # the benchmark's
], ids=["fixture", "benchmark"])
@pytest.mark.parametrize("seed", [0, 1])
def test_lenet_is_its_eager_form_bit_for_bit(sizes, seed):
    x0, _, params = fixtures.build_lenet(seed, **sizes)
    x = NamedTensor.from_nested(x0, _IMAGE_AXES)
    got, want = zoo.lenet(x, params), _eager_lenet(x, params)
    assert got.shape == want.shape
    assert np.array_equal(got.array, want.array)


def test_lenet_sizes_each_convolution_from_its_own_weights():
    """A 5x5 then a 3x3 convolution on a 16x16 image: 12x12, pooled 6x6,
    then 4x4, pooled 2x2."""
    rng = SplitMix64(31)
    batch, c1, c2, hidden, classes = 2, 3, 4, 6, 5
    plain = dict(
        conv1_w=rng.nested([c1, 1, 5, 5]), conv1_b=rng.nested([c1]),
        conv2_w=rng.nested([c2, c1, 3, 3]), conv2_b=rng.nested([c2]),
        dense_w=rng.nested([hidden, 2 * 2 * c2]), dense_b=rng.nested([hidden]),
        out_w=rng.nested([classes, hidden]), out_b=rng.nested([classes]),
    )
    x0 = rng.nested([batch, 1, 16, 16])
    params = {name: NamedTensor.from_nested(plain[name], axes)
              for name, axes in models._LENET_PARAMS.items()}
    out = zoo.lenet(NamedTensor.from_nested(x0, _IMAGE_AXES), params)
    want = oracles.lenet(x0, dict(plain, pool=models.LENET_POOL))
    assert np.max(np.abs(out.to_array(["batch", "classes"]) - np.asarray(want))) <= 1e-10


@pytest.mark.parametrize("change", ["missing", "unknown", "renamed"])
def test_lenet_refuses_params_not_named_as_the_model(change):
    x0, _, params = fixtures.build_lenet(2)
    params = dict(params)
    if change == "missing":
        del params["out_b"]
    elif change == "unknown":
        params["extra"] = params["out_b"]
    else:
        params["dense_w2"] = params.pop("dense_w")
    with pytest.raises(ValueError, match="lenet parameters must be named"):
        zoo.lenet(NamedTensor.from_nested(x0, _IMAGE_AXES), params)
