"""Expression-bodied functions lift by construction.

``extend`` evaluates an expression body once on the whole extended
operands.  The per-record loop (the same function behind a Python-callable
body) stays the definition, so every test here compares the one-call result
with the loop, record by record: bit for bit where the kernels are the same
on a slice and on the whole, else within the acceptance bound of 1e-12.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from ntensor import (
    ExtensionCollision,
    IncompatibleShapes,
    MissingAxis,
    NamedTensor,
    NamedTensorError,
    Shape,
    ShapeMismatch,
    SizeMismatch,
    SplitMix64,
    TensorFunction,
    extend,
    ops,
)
from ntensor import autodiff as ad
from ntensor.zoo import fixtures

from helpers import random_shape, random_tensor

TOLERANCE = 1e-12


def loop_twin(f: TensorFunction) -> TensorFunction:
    """``f`` behind a Python-callable body, so ``extend`` loops over records."""
    return TensorFunction(f.input_shapes, f.output_shape, f, name=f"{f.name} (loop)")


def assert_matches_loop(f: TensorFunction, *args, exact: bool = True):
    """``extend(f, ...)`` equals the per-record loop on every joint record."""
    one = extend(f, *args)
    loop = extend(loop_twin(f), *args)
    assert one.shape == loop.shape
    joint = one.shape.drop(f.output_shape.names)
    for rec in joint.records():
        got = one.partial_index(rec).array
        want = loop.partial_index(rec).array
        if exact:
            assert np.array_equal(got, want), f"{f.name} differs at {rec}"
        else:
            dev = float(np.max(np.abs(got - want), initial=0.0))
            assert dev <= TOLERANCE, f"{f.name} deviates by {dev:.3e} at {rec}"
    return one


def _workload_transition(seed: int):
    """``make_transition`` and the one-hot states of the models benchmark's
    ``beam_step`` (batch 128 x beam 4 x state 16), drawn as it draws them."""
    nbatch, nbeam, nstate = 128, 4, 16
    rnd, rng = random.Random(seed), SplitMix64(seed)
    [[rng.next_float() + 0.5 for _ in range(nbeam)] for _ in range(nbatch)]
    states = [
        [[1.0 if v == tok else 0.0 for v in range(nstate)]
         for tok in [rnd.randrange(nstate) for _ in range(nbeam)]]
        for _ in range(nbatch)
    ]
    trans = rng.nested([nstate, nstate])
    offset = rng.nested([nstate])
    return (fixtures.make_transition(trans, offset),
            NamedTensor.from_nested(states, ["batch", "beam", "state"]))


@pytest.mark.parametrize("seed", [7, 1001])
def test_transition_at_benchmark_sizes_is_bit_identical(seed):
    f, states = _workload_transition(seed)
    out = assert_matches_loop(f, states)
    assert out.shape == Shape.of(batch=128, beam=4, state=16)


def test_transition_on_dense_states_within_bound():
    # One-hot states make every product exact.  With dense ones the whole
    # contraction is one matrix-matrix product but each record's is a
    # matrix-vector product, and BLAS sums those in different orders: the
    # last bit of some entries differs.
    rng = SplitMix64(5)
    f = fixtures.make_transition(rng.nested([5, 5]), rng.nested([5]))
    states = random_tensor(rng, Shape.of(batch=3, beam=4, state=5))
    assert_matches_loop(f, states, exact=False)


def test_expression_body_runs_no_base_call(monkeypatch):
    calls = []
    original = TensorFunction.__call__

    def counting(self, *args):
        calls.append(self.name)
        return original(self, *args)

    monkeypatch.setattr(TensorFunction, "__call__", counting)
    f, states = _workload_transition(7)
    extend(f, states)
    assert calls == []
    extend(loop_twin(f), states)
    assert calls == ["transition (loop)", "transition"] * 512


def _twins(base_shape: Shape) -> dict:
    """Expression twins of test_lift's random ``sum``/``max``/``softmax``/``dot`` bases."""
    axes = list(base_shape.names)
    x, y = ad.var("x"), ad.var("y")
    one = (base_shape,)
    return {
        "sum": TensorFunction(one, Shape(), ad.sum_(x, axes), "sum", ("x",)),
        "max": TensorFunction(one, Shape(), ad.max_(x, axes), "max", ("x",)),
        "softmax": TensorFunction(one, base_shape, ad.softmax(x, axes), "softmax", ("x",)),
        "dot": TensorFunction((base_shape, base_shape), Shape(),
                              ad.contract(x, y, axes), "dot", ("x", "y")),
    }


@pytest.mark.parametrize("seed", range(6))
def test_expression_twins_match_the_loop(seed):
    rng = SplitMix64(900 + seed)
    base_shape = random_shape(rng, max_axes=2, max_size=3, min_axes=1, pool=("u", "v"))
    ext = random_shape(rng, max_axes=3, max_size=4, pool=("p", "q", "r"))
    for fn in _twins(base_shape).values():
        args = [random_tensor(rng, s.union(ext)) for s in fn.input_shapes]
        out = assert_matches_loop(fn, *args)
        assert out.shape == fn.output_shape.union(ext)


def _attention(nseq, nkey, nval) -> TensorFunction:
    q, k, v = ad.var("q"), ad.var("k"), ad.var("v")
    scores = ad.div(ad.contract(q, k, ["key"]), nkey ** 0.5)
    body = ad.contract(ad.softmax(scores, ["seq"]), v, ["seq"])
    shapes = (
        Shape.of(key=nkey),
        Shape.of(seq=nseq, key=nkey),
        Shape.of(seq=nseq, val=nval),
    )
    return TensorFunction(shapes, Shape.of(val=nval), body, "attention", ("q", "k", "v"))


def test_attention_twin_over_query_sequence_and_heads():
    rng = SplitMix64(12)
    f = _attention(3, 2, 2)
    q = random_tensor(rng, Shape.of(**{"seq'": 3, "key": 2, "heads": 2}))
    k = random_tensor(rng, Shape.of(seq=3, key=2, batch=2, heads=2))
    v = random_tensor(rng, Shape.of(seq=3, val=2, batch=2))
    out = assert_matches_loop(f, q, k, v)
    assert out.shape == Shape.of(**{"seq'": 3, "val": 2, "batch": 2, "heads": 2})


def test_call_evaluates_the_same_graph():
    rng = SplitMix64(3)
    f = _attention(3, 2, 2)
    args = [random_tensor(rng, s) for s in f.input_shapes]
    assert f(*args) == extend(f, *args)
    assert f(*args) == ad.evaluate(f.body, dict(zip(f.params, args)))


# -- extension axes whose names the graph also uses -------------------------

@pytest.mark.parametrize("nbatch", [2, 3])
def test_extension_named_like_an_internal_constant_axis(nbatch):
    # the constant's 'batch' is summed away inside; the operand's 'batch'
    # extension must stay a separate axis, whether or not the sizes agree
    c = NamedTensor.from_nested([1.0, 2.0, 4.0], ["batch"])
    body = ad.sum_(ad.mul(ad.var("x"), c), ["batch"])
    f = TensorFunction((Shape.of(u=2),), Shape.of(u=2), body, "weighted", ("x",))
    rows = [[1.0, 2.0], [3.0, 5.0], [0.5, 0.25]][:nbatch]
    out = assert_matches_loop(f, NamedTensor.from_nested(rows, ["batch", "u"]))
    assert out.to_array(["batch", "u"]).tolist() == [[7.0 * v for v in r] for r in rows]


def test_extension_named_like_an_internal_renamed_axis():
    # make_transition's graph contracts 'state' and renames 'state2' back;
    # dense states, so within the bound as above
    rng = SplitMix64(6)
    f = fixtures.make_transition(rng.nested([4, 4]), rng.nested([4]))
    states = random_tensor(rng, Shape.of(state=4, state2=3, beam=2))
    out = assert_matches_loop(f, states, exact=False)
    assert out.shape == Shape.of(state=4, state2=3, beam=2)


def test_renaming_avoids_other_extension_names():
    # 'batch' clashes and its first fresh name "batch'" is itself an extension
    c = NamedTensor.from_nested([1.0, 3.0], ["batch"])
    body = ad.sum_(ad.mul(ad.var("x"), c), ["batch"])
    f = TensorFunction((Shape(),), Shape(), body, "scaled", ("x",))
    rng = SplitMix64(8)
    x = random_tensor(rng, Shape.of(**{"batch": 2, "batch'": 3}))
    assert_matches_loop(f, x)


# -- errors -----------------------------------------------------------------

def test_a_kernel_that_does_not_broadcast_is_caught(monkeypatch):
    f = TensorFunction((Shape.of(u=3),), Shape(), ad.sum_(ad.var("x"), ["u"]),
                       "total", ("x",))
    x = NamedTensor.from_nested([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], ["p", "u"])
    assert extend(f, x).to_array(["p"]).tolist() == [6.0, 15.0]
    # a reduction that also sums the axes it was not asked to
    monkeypatch.setattr(ops.sum_, "kernel",
                        lambda out, a, axes: NamedTensor.scalar(a.array.sum()))
    with pytest.raises(ShapeMismatch, match="total lifted to shape"):
        extend(f, x)


@pytest.mark.parametrize("node", [ad.random_literal(["u"]), ad.size_of("w")],
                         ids=["random", "size"])
def test_undrawn_random_and_undeclared_size_fail_alike(node):
    # an expression body is shape-checked when it is built, so the error
    # surfaces there; the loop meets it on the first record
    body = ad.add(ad.var("x"), node)
    x = NamedTensor.from_nested([[1.0, 2.0], [3.0, 4.0]], ["p", "u"])
    shapes = (Shape.of(u=2),)
    with pytest.raises(NamedTensorError) as built:
        extend(TensorFunction(shapes, Shape.of(u=2), body, "f", ("x",)), x)
    loop = TensorFunction(shapes, Shape.of(u=2), lambda t: ad.evaluate(body, {"x": t}))
    with pytest.raises(NamedTensorError) as looped:
        extend(loop, x)
    assert built.value.node is looped.value.node is node


def test_body_shape_is_checked_at_construction():
    with pytest.raises(ShapeMismatch, match="liar"):
        TensorFunction((Shape.of(u=2),), Shape(), ad.var("x"), "liar", ("x",))
    with pytest.raises(TypeError, match="names 1 params for 2 inputs"):
        TensorFunction((Shape(), Shape()), Shape(), ad.var("x"), "f", ("x",))


def _ternary():
    body = ad.add(ad.contract(ad.var("a"), ad.var("b"), ["u"]), ad.var("c"))
    return TensorFunction((Shape.of(u=2), Shape.of(u=2), Shape()), Shape(),
                          body, "fma", ("a", "b", "c"))


def _t(names, *sizes):
    return NamedTensor.from_array(np.ones(sizes), list(names))


ERROR_CASES = {
    "missing base axis": (MissingAxis, [_t("p", 2), _t("u", 2), _t("")]),
    "base size": (SizeMismatch, [_t("u", 3), _t("u", 2), _t("")]),
    "incompatible": (IncompatibleShapes, [_t("up", 2, 2), _t("up", 2, 3), _t("")]),
    "crossing base": (ExtensionCollision, [_t("u", 2), _t("u", 2), _t("u", 2)]),
    "count": (TypeError, [_t("u", 2), _t("u", 2)]),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_extend_checks_are_the_loops(case):
    error, args = ERROR_CASES[case]
    f = _ternary()
    with pytest.raises(error):
        extend(f, *args)
    with pytest.raises(error):
        extend(loop_twin(f), *args)


def test_output_collision_is_the_loops():
    body = ad.rename(ad.softmax(ad.var("x"), ["b"]), "b", "ax")
    f = TensorFunction((Shape.of(b=2),), Shape.of(ax=2), body, "renamed", ("x",))
    bad = NamedTensor.from_nested([[0.0, 1.0], [2.0, 3.0]], ["ax", "b"])
    for fn in (f, loop_twin(f)):
        with pytest.raises(ExtensionCollision):
            extend(fn, bad)
