"""The float rule: every kernel and every derivative follows IEEE arithmetic
on NaN, ±inf, 0 and ±1e308 without a warning (pytest turns warnings into
errors), and the few specified exceptions hold."""

import math

import numpy as np
import pytest

from ntensor import AllMasked, Axis, NamedTensor, ops
from ntensor import autodiff as ad
from ntensor.lang.parse import _CALLS

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, 1e308, -1e308, 1.0]
X = NamedTensor.from_nested(SPECIAL, ["a"])
Y = NamedTensor.from_nested(SPECIAL, ["b"])  # X op Y meets every pair
BIG = [[1e308, 1e308], [1e308, -1e308]]
# a batch of 2x2 matrices: two finite ones near overflow, three non-finite
M = NamedTensor.from_nested([
    BIG,
    [[-1e308, 0.0], [0.0, 1e308]],
    [[math.nan, 1.0], [0.0, 1.0]],
    [[math.inf, 0.0], [1.0, 1.0]],
    [[-math.inf, 1.0], [1.0, 0.0]],
], ["m", "r", "c"])
# the specials in pairs over (r, c), one fiber per row
PAIRS = NamedTensor.from_nested([
    [0.0, math.nan], [math.inf, 1.0], [-math.inf, 0.0], [1e308, -1e308],
], ["r", "c"])
IDX = NamedTensor.from_nested([2, 1, 2], ["i"])

# every kernel of ops.__all__ with the argument lists it is called with
CALLS = {
    "add": [(X, Y)], "sub": [(X, Y)], "mul": [(X, Y)], "div": [(X, Y)],
    "pow_": [(X, Y)],
    "neg": [(X,)], "relu": [(X,)], "sigmoid": [(X,)], "exp": [(X,)],
    "log": [(X,)], "sqrt": [(X,)],
    "map_elementwise": [(lambda v: 2.0 * v, X)],
    "reduce": [(t, kind, axes) for kind in ops.REDUCE_KINDS
               for t, axes in ((X, ["a"]), (M, ["c"]), (M, ["r", "c"]), (M, []))],
    "contract": [(X, Y, []), (X, X, ["a"]), (M, ops.rename(M, "r", "s"), ["c"])],
    "softmax": [(M, ["c"]), (M, ["r", "c"])],
    "argmax": [(X, ["a"]), (M, ["c"])],
    "argmin": [(X, ["a"]), (M, ["c"])],
    "rename": [(M, "r", "s")],
    "rename_many": [(M, {"r": "c", "c": "r"})],
    "merge_axes": [(M, ["r", "c"], Axis("rc", 4))],
    "split_axis": [(M, "m", Axis("m", 5), Axis("n", 1))],
    "unroll": [(X, "a", Axis("k", 3))],
    "index_select": [(M, "c", IDX)],
    "maxk": [(X, "a", Axis("k", 7)), (M, "c", Axis("k", 2))],
    "argmaxk": [(X, "a", Axis("k", 7)), (M, "c", Axis("k", 2))],
    "det": [(M, "r", "c")],
    "inv": [(M, "r", "c")],
    "standardize": [(X, ["a"]), (M, ["c"])],
    "identity": [(Axis("r", 2), Axis("c", 2))],
    "partial_index": [(X, {"a": 1}), (X, {"a": 3}), (M, {"m": 3}),
                      (M, {"m": 4, "c": 1}), (M, {"m": 5, "r": 1, "c": 1})],
}


def test_every_kernel_is_called():
    kernels = {name for name in ops.__all__ if not name.endswith("_shape")}
    assert set(CALLS) == kernels


@pytest.mark.parametrize("name", sorted(CALLS))
def test_kernels_follow_ieee_without_warning(name):
    for args in CALLS[name]:
        getattr(ops, name)(*args)


@pytest.mark.parametrize("name, f", [
    ("neg", np.negative), ("relu", lambda v: np.maximum(v, 0.0)),
    ("sigmoid", lambda v: 1.0 / (1.0 + np.exp(-v))), ("exp", np.exp),
    ("log", np.log), ("sqrt", np.sqrt),
])
def test_unary_kernels_equal_numpy(name, f):
    with np.errstate(all="ignore"):
        want = f(X.array)
    assert np.array_equal(getattr(ops, name)(X).array, want, equal_nan=True)


# every elementwise node class, by its name in the language
UNARY = {cls for cls in ad.Unary.__subclasses__() if cls.__module__ == ad.__name__}
SURFACE = {cls: name for name, (cls, *_) in _CALLS.items()}
NODES = {
    **{SURFACE.get(cls, cls.__name__.lower()): cls for cls in UNARY},
    **{f"{kind}{axes}": (lambda x, kind=kind, axes=axes: ad.reduce(x, kind, axes))
       for kind in ops.REDUCE_KINDS for axes in (["c"], ["r", "c"], [])},
    "softmax": lambda x: ad.softmax(x, ["c"]),
    "standardize": lambda x: ad.standardize(x, ["c"]),
}


@pytest.mark.parametrize("name", sorted(NODES))
def test_derivatives_follow_ieee_without_warning(name):
    body = NODES[name](ad.var("x"))
    for t in (M, PAIRS):
        ad.jacobian(body, "x", {"x": t})


def test_norm_derivative_of_an_infinite_fiber_is_nan():
    d = ad.jacobian(ad.norm_(ad.var("x"), ["a"]), "x",
                    {"x": NamedTensor.from_nested([math.inf, 1.0], ["a"])})
    assert math.isnan(d.value.get({"a": 1}))
    assert d.value.get({"a": 2}) == 0.0


def test_positive_infinity_makes_its_softmax_fiber_nan():
    t = NamedTensor.from_nested([[math.inf, 1.0, -math.inf], [0.0, -math.inf, 0.0]],
                                ["row", "a"])
    out = ops.softmax(t, ["a"]).to_array(["row", "a"])
    assert np.isnan(out[0]).all()
    assert out[1].tolist() == [0.5, 0.0, 0.5]


def test_near_overflow_matrix_inverts_and_has_infinite_det():
    a = NamedTensor.from_nested(BIG, ["r", "c"])
    inverse = ops.inv(a, "r", "c")
    assert inverse.to_array(["r", "c"]).tolist() == [[5e-309, 5e-309], [5e-309, -5e-309]]
    eye = ops.identity(Axis("c", 2), Axis("x", 2))
    assert ops.contract(a, ops.rename(inverse, "c", "x"), ["r"]).allclose(eye, atol=1e-12)
    eye = ops.identity(Axis("r", 2), Axis("x", 2))
    assert ops.contract(a, ops.rename(inverse, "r", "x"), ["c"]).allclose(eye, atol=1e-12)
    assert ops.det(a, "r", "c").item() == -math.inf


def test_empty_axis_list_applies_the_fiber_rule_to_each_entry():
    t = NamedTensor.from_nested([math.nan, math.inf, 0.0, 1e308], ["a"])
    want = {
        ops.softmax: [math.nan, math.nan, 1.0, 1.0],
        ops.argmax: [math.nan, 1.0, 1.0, 1.0],
        ops.argmin: [math.nan, 1.0, 1.0, 1.0],
    }
    for op, values in want.items():
        assert np.array_equal(op(t, []).to_array(["a"]), values, equal_nan=True)
    masked = NamedTensor.from_nested([0.0, -math.inf], ["a"])
    assert ops.argmax(masked, []).to_array(["a"]).tolist() == [1.0, 1.0]
    with pytest.raises(AllMasked):
        ops.softmax(masked, [])


def test_softmax_over_no_axes_has_zero_derivative_on_finite_entries():
    t = NamedTensor.from_nested([math.nan, math.inf, 0.0, 1e308, -1e308, 1.0], ["a"])
    d = ad.jacobian(ad.softmax(ad.var("x"), []), "x", {"x": t})
    # rows are outputs, columns inputs; a NaN or +inf input makes its column NaN
    block = d.value.to_array([d.rename_map["a"], "a"])
    assert np.isnan(block[:, :2]).all()
    assert (block[:, 2:] == 0.0).all()
