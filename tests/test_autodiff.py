"""Differentiation: finite-difference agreement, closed forms, priming."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ntensor import (
    Axis,
    NamedTensor,
    Shape,
    IncompatibleShapes,
    NamedTensorError,
    ShapeError,
    ShapeMismatch,
    SplitMix64,
    UnboundVariable,
    UnsupportedDerivative,
    ops,
)
from ntensor import autodiff as ad
from ntensor import lang

import helpers as H


def _rand(seed, **sizes):
    return H.random_tensor(SplitMix64(seed), Shape.of(**sizes))


# ---------------------------------------------------------------------------
# shape inference

def test_infer_shape_attention_contraction():
    env = {"Q": Shape.of(key=2), "K": Shape.of(seq=3, key=2)}
    got = ad.infer_shape(ad.contract(ad.var("Q"), ad.var("K"), ["key"]), env)
    assert got == Shape.of(seq=3)
    env["Q"] = Shape.of(**{"seq'": 4, "key": 2, "batch": 2})
    got = ad.infer_shape(ad.contract(ad.var("Q"), ad.var("K"), ["key"]), env)
    assert got == Shape.of(**{"seq'": 4, "batch": 2, "seq": 3})


def test_infer_shape_errors():
    """A walk raises the op's own error, with the node that raised it."""
    env = {"A": Shape.of(height=3), "B": Shape.of(height=4)}
    values = {name: NamedTensor.zeros(shape) for name, shape in env.items()}
    total = ad.var("A") + ad.var("B")
    for walk, bound in ((ad.infer_shape, env), (ad.evaluate, values)):
        with pytest.raises(IncompatibleShapes, match="incompatible shapes") as err:
            walk(total, bound)
        assert err.value.node is total, walk.__name__
    unbound = ad.var("Z")
    with pytest.raises(UnboundVariable) as err:
        ad.infer_shape(unbound, {})
    assert err.value.node is unbound


def test_an_error_keeps_the_innermost_node():
    # the rule of the inner node raises, and the outer walk step does not rename it
    inner = ad.sum_(ad.var("X"), ["missing"])
    with pytest.raises(ShapeError) as err:
        ad.evaluate(ad.exp(inner), {"X": _rand(2, ax=2)})
    assert err.value.node is inner


# ---------------------------------------------------------------------------
# jacobians of single operations

def test_sum_jacobian_is_ones():
    x = _rand(1, ax=4)
    deriv = ad.jacobian(ad.sum_(ad.var("X"), ["ax"]), "X", {"X": x})
    assert deriv.rename_map == {}
    assert deriv.value == NamedTensor.filled(Shape.of(ax=4), 1.0)


def test_identity_jacobian_is_identity_tensor():
    x = _rand(2, ax=3)
    deriv = ad.jacobian(ad.var("X"), "X", {"X": x})
    assert deriv.rename_map == {"ax": "ax'"}
    assert deriv.value == ops.identity(Axis("ax", 3), Axis("ax'", 3))


def test_softmax_jacobian_closed_form():
    x = _rand(3, ax=5)
    deriv = ad.jacobian(ad.softmax(ad.var("X"), ["ax"]), "X", {"X": x})
    y = ops.softmax(x, ["ax"])
    y_primed = ops.rename(y, "ax", "ax'")
    eye = ops.identity(Axis("ax'", 5), Axis("ax", 5))
    closed = ops.mul(y_primed, ops.sub(eye, y))
    assert deriv.value.allclose(closed, atol=1e-10)


def test_softmax_backprop_closed_form():
    # scalar head f(Y) = w . Y gives gradient Y * (f'(Y) - f'(Y) . Y)
    x = _rand(4, ax=4)
    w = _rand(5, ax=4)
    y_expr = ad.softmax(ad.var("X"), ["ax"])
    loss = ad.contract(y_expr, ad.const(w), ["ax"])
    grad = ad.vjp(loss, "X", {"X": x}, 1.0)
    y = ops.softmax(x, ["ax"])
    closed = ops.mul(y, ops.sub(w, ops.contract(w, y, ["ax"])))
    assert grad.allclose(closed, atol=1e-12)


def test_priming_discipline():
    x = _rand(6, ax=3, extra=2)
    deriv = ad.jacobian(ad.softmax(ad.var("X"), ["ax"]), "X", {"X": x})
    # every output name collides here, so both get primed
    assert deriv.rename_map == {"ax": "ax'", "extra": "extra'"}
    assert deriv.value.shape == Shape.of(
        **{"ax": 3, "extra": 2, "ax'": 3, "extra'": 2}
    )
    # no collision: scalar output
    scalar = ad.jacobian(ad.sum_(ad.var("X"), ["ax", "extra"]), "X", {"X": x})
    assert scalar.rename_map == {}
    # primed name already taken: goes to double prime
    x2 = H.random_tensor(SplitMix64(7), Shape(
        [Axis("ax", 2), Axis("ax'", 2)]))
    deriv2 = ad.jacobian(
        ad.softmax(ad.var("X"), ["ax"]), "X", {"X": x2}
    )
    assert deriv2.rename_map == {"ax": "ax''", "ax'": "ax'''"}


def test_vjp_identity_returns_cotangent():
    x = _rand(8, ax=3)
    cot = _rand(9, ax=3)
    assert ad.vjp(ad.var("X"), "X", {"X": x}, cot) == cot


def test_vjp_shape_checked():
    x = _rand(10, ax=3)
    with pytest.raises(ShapeMismatch):
        ad.vjp(ad.var("X"), "X", {"X": x}, NamedTensor.scalar(1.0))


def test_linearity_of_jacobian():
    x = _rand(11, ax=3)
    w1, w2 = _rand(12, ax=3, out=2), _rand(13, ax=3, out=2)
    a = ad.contract(ad.var("X"), ad.const(w1), ["ax"])
    b = ad.contract(ad.var("X"), ad.const(w2), ["ax"])
    combined = ad.jacobian(a + b, "X", {"X": x}).value
    ja = ad.jacobian(a, "X", {"X": x}).value
    jb = ad.jacobian(b, "X", {"X": x}).value
    assert combined.allclose(ops.add(ja, jb), atol=1e-12)


# ---------------------------------------------------------------------------
# finite differences, op by op

def _fd_case(seed, build, **sizes):
    x = H.random_tensor(SplitMix64(seed), Shape.of(**sizes), lo=0.4, hi=1.8)
    H.check_jacobian(build(ad.var("X")), "X", {"X": x})


@pytest.mark.parametrize("name,build", [
    ("sigmoid", lambda v: ad.sigmoid(v)),
    ("exp", lambda v: ad.exp(v)),
    ("log", lambda v: ad.log(v)),
    ("sqrt", lambda v: ad.sqrt(v)),
    ("neg", lambda v: ad.neg(v)),
    ("relu", lambda v: ad.relu(v)),
    ("sum", lambda v: ad.sum_(v, ["ax"])),
    ("mean", lambda v: ad.mean_(v, ["ax"])),
    ("max", lambda v: ad.max_(v, ["ax"])),
    ("min", lambda v: ad.min_(v, ["ax"])),
    ("var", lambda v: ad.var_(v, ["ax"])),
    ("norm", lambda v: ad.norm_(v, ["ax"])),
    ("softmax", lambda v: ad.softmax(v, ["ax"])),
    ("standardize", lambda v: ad.standardize(v, ["ax"])),
    ("rename", lambda v: ad.rename(v, "ax", "renamed")),
    ("merge", lambda v: ad.merge(v, ["ax", "extra"], "flat")),
    ("split", lambda v: ad.split(v, "ax", "outer", "inner", 2)),
    ("unroll", lambda v: ad.unroll(v, "ax", "win", 2)),
    ("partial", lambda v: ad.partial_index(v, {"ax": 2})),
    ("sum_empty", lambda v: ad.sum_(v, [])),
    ("var_empty", lambda v: ad.var_(v, [])),
    ("norm_empty", lambda v: ad.norm_(v, [])),
    ("max_empty", lambda v: ad.max_(v, [])),
    ("standardize_empty", lambda v: ad.standardize(v, [])),
])
def test_fd_per_op(name, build):
    _fd_case(100 + len(name), build, ax=4, extra=2)


def test_fd_binary_ops():
    rng = SplitMix64(200)
    a = H.random_tensor(rng, Shape.of(ax=3, u=2), lo=0.5, hi=1.5)
    b = H.random_tensor(rng, Shape.of(ax=3, v=2), lo=0.5, hi=1.5)
    for build in (
        lambda p, q: p + q,
        lambda p, q: p - q,
        lambda p, q: p * q,
        lambda p, q: p / q,
        lambda p, q: ad.pow_(p, q),
    ):
        expr = build(ad.var("A"), ad.var("B"))
        H.check_jacobian(expr, "A", {"A": a, "B": b})
        H.check_jacobian(expr, "B", {"A": a, "B": b})


def test_fd_contract_both_sides():
    rng = SplitMix64(201)
    a = H.random_tensor(rng, Shape.of(r=3, c=3))
    b = H.random_tensor(rng, Shape.of(c=3, k=3))
    expr = ad.contract(ad.var("A"), ad.var("B"), ["c"])
    H.check_jacobian(expr, "A", {"A": a, "B": b})
    H.check_jacobian(expr, "B", {"A": a, "B": b})
    # degenerate: contracted axis on one side only
    expr2 = ad.contract(ad.var("A"), ad.var("B"), ["r"])
    H.check_jacobian(expr2, "A", {"A": a, "B": b})
    H.check_jacobian(expr2, "B", {"A": a, "B": b})


def test_fd_maxk_and_index_select():
    rng = SplitMix64(202)
    x = H.random_tensor(rng, Shape.of(ax=5, b=2))
    H.check_jacobian(ad.maxk(ad.var("X"), "ax", "k", 3), "X", {"X": x})
    table = H.random_tensor(rng, Shape.of(vocab=4, emb=2))
    idx = NamedTensor.from_nested([2.0, 4.0, 2.0], ["seq"])
    expr = ad.index_select(ad.var("X"), "vocab", ad.const(idx))
    H.check_jacobian(expr, "X", {"X": table})
    # gather with a shared axis
    probs = H.random_tensor(rng, Shape.of(seq=3, vocab=4))
    expr2 = ad.index_select(ad.var("X"), "vocab", ad.const(idx))
    H.check_jacobian(expr2, "X", {"X": probs})


def test_fd_attention_wrt_query():
    rng = SplitMix64(203)
    q = H.random_tensor(rng, Shape.of(**{"seq'": 2, "key": 2}))
    k = H.random_tensor(rng, Shape.of(seq=3, key=2))
    v = H.random_tensor(rng, Shape.of(seq=3, val=2))
    scores = ad.div(
        ad.contract(ad.var("Q"), ad.const(k), ["key"]), math.sqrt(2.0)
    )
    expr = ad.contract(ad.softmax(scores, ["seq"]), ad.const(v), ["seq"])
    H.check_jacobian(expr, "Q", {"Q": q})


def test_jacobian_is_one_backward_pass(monkeypatch):
    calls = []
    backward = ad._backward

    def counted(*args, **kwargs):
        calls.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(ad, "_backward", counted)
    x = _rand(32, ax=4, extra=3)
    deriv = ad.jacobian(ad.softmax(ad.var("X"), ["ax"]), "X", {"X": x})
    assert deriv.value.shape.num_records == 12 * 12
    assert len(calls) == 1


def test_probe_axes_are_fresh_against_intermediate_axes():
    # the output is over (ax) while an intermediate carries ax'
    rng = SplitMix64(33)
    c = H.random_tensor(rng, Shape.of(**{"ax": 3, "ax'": 3}))
    d = H.random_tensor(rng, Shape.of(**{"b": 4, "ax'": 3}))
    inner = ad.contract(ad.var("X"), ad.const(d), ["b"])
    expr = ad.contract(ad.const(c), inner, ["ax'"])
    H.check_jacobian(expr, "X", {"X": _rand(34, b=4)})


def test_argmax_and_argmaxk_have_zero_derivative():
    x = _rand(30, ax=4)
    for expr in (
        ad.argmax(ad.var("X"), ["ax"]),
        ad.argmaxk(ad.var("X"), "ax", "k", 2),
    ):
        out_shape = ad.infer_shape(expr, {"X": x})
        deriv = ad.jacobian(expr, "X", {"X": x})
        assert np.all(deriv.value.array == 0.0)


def test_det_inv_derivative_unsupported():
    x = _rand(31, d1=2, d2=2)
    for expr in (
        ad.det(ad.var("X"), "d1", "d2"),
        ad.sum_(ad.inv(ad.var("X"), "d1", "d2"), ["d1", "d2"]),
    ):
        with pytest.raises(UnsupportedDerivative) as err:
            ad.jacobian(expr, "X", {"X": x})
        assert isinstance(err.value.node, ad.LinAlg)


# ---------------------------------------------------------------------------
# chain rule and compositions

def test_chain_rule_consistency():
    # vjp through a composition equals contracting stage-wise jacobians
    rng = SplitMix64(40)
    x = H.random_tensor(rng, Shape.of(ax=3))
    inner = ad.softmax(ad.var("X"), ["ax"])
    y_val = ad.evaluate(inner, {"X": x})
    outer_of_y = ad.standardize(ad.var("Y"), ["ax"])
    composed = ad.standardize(inner, ["ax"])

    j_inner = ad.jacobian(inner, "X", {"X": x})
    j_outer = ad.jacobian(outer_of_y, "Y", {"Y": y_val})
    # chain: dZ/dX[s, t'] = sum_m dY/dX[s, m'] dZ/dY[m, t']
    lifted = ops.rename(j_outer.value, "ax", "mid")       # {mid, ax'}
    inner_j = ops.rename(j_inner.value, "ax'", "mid")     # {ax, mid}
    chained = ops.contract(inner_j, lifted, ["mid"])
    j_full = ad.jacobian(composed, "X", {"X": x})
    assert j_full.value.allclose(chained, atol=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_fd_random_compositions(seed):
    rng = SplitMix64(5000 + 97 * seed)
    expr, env = H.random_composition(rng)
    H.check_jacobian(expr, "X", env)


@pytest.mark.parametrize("seed", range(4))
def test_vjp_equals_jacobian_contraction(seed):
    """vjp is the cotangent contracted over the primed output axes."""
    rng = SplitMix64(6000 + 13 * seed)
    expr, env = H.random_composition(rng)
    out_shape = ad.infer_shape(expr, env)
    cot = H.random_tensor(rng, out_shape)
    direct = ad.vjp(expr, "X", env, cot)
    deriv = ad.jacobian(expr, "X", env)
    primed_cot = ops.rename_many(cot, deriv.rename_map)
    contracted = ops.contract(deriv.value, primed_cot, primed_cot.shape.names)
    assert direct.allclose(contracted, atol=1e-8)


# ---------------------------------------------------------------------------
# broadcast-derivative identity

def test_lifted_derivative_softmax_over_batch():
    report = ad.lifted_derivative_check(
        lambda v: ad.softmax(v, ["ax"]),
        Shape.of(ax=3),
        Shape.of(batch=2),
        seed=1,
    )
    assert report.passed, str(report)
    assert report.max_off_block_abs == 0.0
    assert str(report) == (
        "lifted derivative over {batch[2]}: ok (diag err 0.00e+00, off-block max 0.00e+00)")


def test_lifted_derivative_check_refuses_an_overlapping_extension():
    with pytest.raises(ShapeError, match=r"extension \{ax\[2\]\} overlaps base shape"):
        ad.lifted_derivative_check(lambda v: ad.exp(v), Shape.of(ax=2), Shape.of(ax=2))


def test_lifted_derivative_sum_over_batch():
    report = ad.lifted_derivative_check(
        lambda v: ad.sum_(v, ["ax"]),
        Shape.of(ax=3),
        Shape.of(batch=3),
        seed=2,
    )
    assert report.passed, str(report)


def test_lifted_derivative_standardize_over_chans():
    report = ad.lifted_derivative_check(
        lambda v: ad.standardize(v, ["ax"]),
        Shape.of(ax=3),
        Shape.of(chans=2),
        seed=3,
        tolerance=1e-8,
    )
    assert report.passed, str(report)
    x = H.random_tensor(SplitMix64(4), Shape.of(ax=3, chans=2))
    H.check_jacobian(ad.standardize(ad.var("X"), ["ax"]), "X", {"X": x})


@pytest.mark.parametrize("base,extension", [
    (Shape.of(ax=3), Shape.of(batch=2)),
    (Shape.of(ax=2), Shape.of(batch=2, heads=3)),
], ids=["batch", "batch_heads"])
def test_lifted_derivative_nan_jacobian_fails(base, extension):
    # the random input has negative entries, where sqrt's derivative is NaN
    report = ad.lifted_derivative_check(lambda v: ad.sqrt(v), base, extension, seed=5)
    assert not report.passed
    assert math.isnan(report.max_diagonal_error), str(report)
    assert math.isnan(report.max_off_block_abs), str(report)
    assert str(report) == (
        f"lifted derivative over {extension}: FAILED (diag err nan, off-block max nan)")


# ---------------------------------------------------------------------------
# graph structure

_X, _Y, _I = ad.var("X"), ad.var("Y"), ad.var("I")
BUILDERS = {
    "var": lambda: ad.var("X"),
    "const": lambda: ad.const(2.5),
    "literal": lambda: ad.literal([[1, 2], [3, 4]], ["a", "b"]),
    "random_literal": lambda: ad.random_literal(["a", "b"]),
    "size_of": lambda: ad.size_of("a"),
    "add": lambda: ad.add(_X, 1.0),
    "sub": lambda: ad.sub(_X, _Y),
    "mul": lambda: ad.mul(2.0, _Y),
    "div": lambda: ad.div(_X, _Y),
    "pow_": lambda: ad.pow_(_X, 2.0),
    "neg": lambda: ad.neg(_X),
    "relu": lambda: ad.relu(_X),
    "sigmoid": lambda: ad.sigmoid(_X),
    "exp": lambda: ad.exp(_X),
    "log": lambda: ad.log(_X),
    "sqrt": lambda: ad.sqrt(_X),
    "sum_": lambda: ad.sum_(_X, ["a", "b"]),
    "mean_": lambda: ad.mean_(_X, ["a"]),
    "max_": lambda: ad.max_(_X, ["a"]),
    "min_": lambda: ad.min_(_X, ["b"]),
    "var_": lambda: ad.var_(_X, ["a"]),
    "norm_": lambda: ad.norm_(_X, ["b"]),
    "contract": lambda: ad.contract(_X, _Y, ["a"]),
    "softmax": lambda: ad.softmax(_X, ["a"]),
    "argmax": lambda: ad.argmax(_X, ["a"]),
    "argmin": lambda: ad.argmin(_X, ["a"]),
    "standardize": lambda: ad.standardize(_X, ["a"]),
    "rename": lambda: ad.rename(_X, "a", "c"),
    "merge": lambda: ad.merge(_X, ["a", "b"], "c"),
    "split": lambda: ad.split(_X, "a", "o", "i", 2),
    "unroll": lambda: ad.unroll(_X, "a", "k", 2),
    "index_select": lambda: ad.index_select(_X, "a", _I),
    "maxk": lambda: ad.maxk(_X, "a", "k", 2),
    "argmaxk": lambda: ad.argmaxk(_X, "a", "k"),
    "det": lambda: ad.det(_X, "a", "b"),
    "inv": lambda: ad.inv(_X, "a", "b"),
    "partial_index": lambda: ad.partial_index(_X, {"b": 2, "a": 1}),
}
NOT_BUILDERS = {
    "Expr", "Derivative", "LiftReport",
    "splice", "infer_shape", "evaluate", "vjp", "jacobian", "lifted_derivative_check",
}


def test_evaluate_holds_only_live_values():
    """``evaluate`` drops each value after its last reader: a chain of 40
    ``exp``-and-scale steps over a 1 MB tensor peaks under 4 MB of traced
    allocations, where keeping every value peaks near 41 MB."""
    x = NamedTensor.from_array(np.zeros((512, 256)), ["a", "b"])
    e = ad.var("X")
    for _ in range(40):
        e = ad.exp(e) * 0.5
    ad.evaluate(e, {"X": x})  # first-call allocations are not the chain's
    tracemalloc.start()
    try:
        ad.evaluate(e, {"X": x})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


class _Unlisted(dict):
    """A mapping that refuses to list its keys, so it cannot be copied."""

    def keys(self):
        raise AssertionError("the mapping was listed")

    def __iter__(self):
        raise AssertionError("the mapping was listed")


def test_walks_read_env_and_axis_sizes_as_given():
    """A program's checker calls these once per binding with the
    whole table so far, so copying it would make a wide program quadratic."""
    e = ad.maxk(ad.var("X") * ad.size_of("a"), "a", "k") + ad.literal([1.0, 2.0], ["k"])
    x = _rand(0, a=3, b=2)
    sizes = {"a": 3, "b": 2, "k": 2}
    env, g = {"X": x}, _rand(1, b=2, k=2)
    got_env, got_sizes = _Unlisted(env), _Unlisted(sizes)
    assert ad.infer_shape(e, got_env, axis_sizes=got_sizes) == ad.infer_shape(
        e, env, axis_sizes=sizes)
    assert ad.evaluate(e, got_env, axis_sizes=got_sizes) == ad.evaluate(
        e, env, axis_sizes=sizes)
    assert ad.vjp(e, "X", got_env, g, axis_sizes=got_sizes) == ad.vjp(
        e, "X", env, g, axis_sizes=sizes)
    assert ad.jacobian(e, "X", got_env, axis_sizes=got_sizes).value == ad.jacobian(
        e, "X", env, axis_sizes=sizes).value


def test_splice_shares_each_binding_and_keeps_inputs_as_variables():
    bindings = [
        ("I", None),
        ("C", ad.Const(NamedTensor.from_nested([1.0, 2.0], ["a"]))),
        ("R", ad.random_literal(["a"])),
        ("S", ad.var("I") * ad.var("C") + ad.var("R")),
        ("T", ad.exp(ad.var("S")) + ad.var("S")),
    ]
    graphs = ad.splice(bindings)
    assert set(graphs) == {"S", "T"}
    exp_s, s = graphs["T"].children()
    assert s is graphs["S"] and exp_s.children()[0] is graphs["S"]
    assert graphs["S"] == ad.var("I") * ad.var("C") + ad.var("R")
    leaves = [node for node in ad._topo(graphs["T"]) if not node.children()]
    assert all(isinstance(leaf, ad.Var) for leaf in leaves)
    assert sorted(leaf.name for leaf in leaves) == ["C", "I", "R"]


def test_every_public_builder_is_covered():
    assert set(BUILDERS) == set(ad.__all__) - NOT_BUILDERS


def test_public_names_are_kept():
    """Folding builders into their node classes removes no public name."""
    snapshot = [
        "Expr", "Derivative", "LiftReport",
        "var", "const", "literal", "random_literal", "size_of",
        "add", "sub", "mul", "div", "pow_", "neg",
        "relu", "sigmoid", "exp", "log", "sqrt",
        "sum_", "mean_", "max_", "min_", "var_", "norm_",
        "contract", "softmax", "argmax", "argmin", "standardize",
        "rename", "merge", "split", "unroll", "index_select",
        "maxk", "argmaxk", "det", "inv", "partial_index",
        "infer_shape", "evaluate", "vjp", "jacobian", "lifted_derivative_check",
    ]
    assert set(ad.__all__) >= set(snapshot)
    assert all(hasattr(ad, name) for name in ad.__all__)


# The builders that are their own node classes and take operands, each with
# every operand slot filled by its one argument.
FOLDED = {
    **{name: (lambda x, name=name: getattr(ad, name)(x, ["a"]))
       for name in ("sum_", "mean_", "max_", "min_", "var_", "norm_")},
    "contract": lambda x: ad.contract(x, x, ["a"]),
    "softmax": lambda x: ad.softmax(x, ["a"]),
    "standardize": lambda x: ad.standardize(x, ["a"]),
    "rename": lambda x: ad.rename(x, "a", "c"),
    "merge": lambda x: ad.merge(x, ["a", "b"], "c"),
    "split": lambda x: ad.split(x, "a", "o", "i", 2),
    "unroll": lambda x: ad.unroll(x, "a", "k", 2),
    "index_select": lambda x: ad.index_select(x, "a", x),
    "partial_index": lambda x: ad.partial_index(x, {"a": 1}),
}


@pytest.mark.parametrize("operand", [lambda: _rand(3, a=2, b=2), lambda: 2.5],
                         ids=["tensor", "float"])
@pytest.mark.parametrize("name", sorted(FOLDED))
def test_folded_builders_wrap_tensor_and_float_operands(name, operand):
    build, value = FOLDED[name], operand()
    assert isinstance(getattr(ad, name), type)
    node = build(value)
    assert node == build(ad.const(value))
    assert all(isinstance(kid, ad.Const) for kid in node.children())


def test_with_children_rebuilds_an_equal_node_keeping_its_span():
    nodes = []
    for build in BUILDERS.values():
        root = build()
        root.span = (4, 2)
        nodes.extend(ad._topo(root))
    corpus = Path(__file__).parent / "corpus" / "valid"
    for path in sorted(corpus.glob("*.nt")):
        for st in lang.parse(path.read_text()).statements:
            if isinstance(st, lang.Binding):
                nodes.extend(ad._topo(st.expr))
    # Only the library's own node kinds, abstract bases aside: a test module
    # may define more.
    kinds = {c for c in vars(ad).values() if isinstance(c, type)
             and issubclass(c, ad.Expr) and c is not ad.Expr
             and (c.operation is not None or not c._operands)}
    assert {type(n) for n in nodes} == kinds
    for node in nodes:
        rebuilt = node.with_children(node.children())
        assert rebuilt is not node and type(rebuilt) is type(node)
        assert rebuilt == node
        assert rebuilt.span == node.span
        assert all(a is b for a, b in zip(rebuilt.children(), node.children()))


@pytest.mark.parametrize("got, want", [
    (lambda: 2.0 + _X, lambda: ad.add(2.0, _X)),
    (lambda: 2.0 - _X, lambda: ad.sub(2.0, _X)),
    (lambda: 2.0 * _X, lambda: ad.mul(2.0, _X)),
    (lambda: 2.0 / _X, lambda: ad.div(2.0, _X)),
    (lambda: _X ** _Y, lambda: ad.pow_(_X, _Y)),
    (lambda: -_X, lambda: ad.neg(_X)),
], ids=["radd", "rsub", "rmul", "rtruediv", "pow", "neg"])
def test_operator_sugar_equals_its_builder(got, want):
    assert got() == want()


def test_equality_ignores_spans_and_compares_parameters():
    a, b = ad.softmax(_X, ["a"]), ad.softmax(ad.var("X"), ["a"])
    a.span, b.span = (1, 1), (9, 9)
    assert a == b
    assert a != ad.softmax(_X, ["b"])
    assert ad.maxk(_X, "a", "k") != ad.argmaxk(_X, "a", "k")
    assert ad.det(_X, "a", "b") != ad.inv(_X, "a", "b")


def test_kernels_are_looked_up_on_ops_at_call_time(monkeypatch):
    calls = {"contract": 0, "softmax": 0}
    for name in calls:
        def counting(*args, _name=name, _kernel=getattr(ops, name).kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(getattr(ops, name), "kernel", counting)
    expr = ad.contract(ad.softmax(ad.var("X"), ["ax"]), ad.var("W"), ["ax"])
    env = {"X": _rand(5, ax=3, batch=2), "W": _rand(6, ax=3)}
    ad.evaluate(expr, env)
    assert calls == {"contract": 1, "softmax": 1}
    ad.vjp(expr, "X", env, NamedTensor.zeros(Shape.of(batch=2)))
    # the forward contract, one for the operand X reaches (W's cotangent is
    # never built) and one in Softmax's VJP
    assert calls == {"contract": 4, "softmax": 2}


@pytest.mark.parametrize("build", [
    lambda x, w: ad.contract(x, w, ["ax"]),
    lambda x, w: x * w,
], ids=["contract", "mul"])
def test_vjp_builds_no_cotangent_for_a_constant_operand(build, monkeypatch):
    calls = []
    for name in ops.__all__:
        if not name.endswith("_shape"):
            def counting(*args, _name=name, _kernel=getattr(ops, name).kernel):
                calls.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(getattr(ops, name), "kernel", counting)
    expr = build(ad.var("X"), ad.const(_rand(6, ax=3)))
    env = {"X": _rand(5, ax=3, batch=2)}
    out = ad.evaluate(expr, env)
    forward = list(calls)
    grad = ad.vjp(expr, "X", env, NamedTensor.filled(out.shape, 1.0))
    # the forward op again, then X's cotangent: nothing for the constant
    assert calls[len(forward):] == forward * 2
    assert grad.shape == env["X"].shape


@pytest.mark.parametrize("operand", ["a", True], ids=["str", "bool"])
def test_operands_that_are_not_tensors_or_numbers_raise(operand):
    with pytest.raises(TypeError):
        ad.add(_X, operand)


def test_random_literal_needs_materialising():
    node = ad.random_literal(["a"])
    with pytest.raises(NamedTensorError, match="run_program") as err:
        ad.evaluate(node, axis_sizes={"a": 2})
    assert err.value.node is node


@pytest.mark.parametrize("call", [
    lambda: ad.evaluate(ad.var("x")),
    lambda: ad.vjp(ad.var("x"), "y", {"x": 1.0}, 1.0),
    lambda: ad.jacobian(ad.var("x"), "y", {"x": 1.0}),
], ids=["evaluate", "vjp", "jacobian"])
def test_an_unbound_variable_raises(call):
    with pytest.raises(UnboundVariable, match="is not bound"):
        call()
