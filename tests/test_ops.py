"""The operation set against element-level loop references and worked values."""

import math
import tracemalloc

import numpy as np
import pytest

from ntensor import (
    AllMasked,
    Axis,
    ExtensionCollision,
    IncompatibleShapes,
    IndexOutOfRange,
    MissingAxis,
    NameCollision,
    NamedTensor,
    Shape,
    SingularMatrix,
    SizeMismatch,
    SplitMix64,
    ops,
)
from ntensor import _blas

import helpers as H

A = NamedTensor.from_nested([[3, 1, 4], [1, 5, 9], [2, 6, 5]], ["height", "width"])
x = NamedTensor.from_nested([2, 7, 1], ["height"])
y = NamedTensor.from_nested([1, 4, 1], ["width"])


# ---------------------------------------------------------------------------
# elementwise

def test_relu_and_sigmoid_values():
    v = NamedTensor.from_nested([-1.0, 0.0, 2.0], ["ax"])
    assert ops.relu(v).to_array(["ax"]).tolist() == [0.0, 0.0, 2.0]
    assert ops.sigmoid(NamedTensor.scalar(0.0)).item() == 0.5
    elementwise = ops.map_elementwise(lambda t: 1.0 / (1.0 + math.exp(-t)), A)
    assert elementwise.get({"height": 1, "width": 1}) == 1.0 / (1.0 + math.exp(-3.0))


def test_broadcast_addition_tables():
    ax = ops.add(A, x)
    ay = ops.add(A, y)
    assert ax.to_array(["height", "width"]).tolist() == [
        [5, 3, 6], [8, 12, 16], [3, 7, 6]]
    assert ay.to_array(["height", "width"]).tolist() == [
        [4, 5, 5], [2, 9, 10], [3, 10, 6]]
    assert ay.get({"height": 3, "width": 2}) == 10.0


def test_binary_incompatible():
    with pytest.raises(IncompatibleShapes):
        ops.add(
            NamedTensor.from_nested([1, 2, 3], ["height"]),
            NamedTensor.from_nested([1, 2, 3, 4], ["height"]),
        )


# ---------------------------------------------------------------------------
# reductions

def test_reduce_worked_values():
    assert ops.reduce(A, "sum", ["height"]).to_array(["width"]).tolist() == [6, 12, 18]
    assert ops.reduce(A, "sum", ["width"]).to_array(["height"]).tolist() == [8, 15, 13]
    assert ops.reduce(A, "sum", ["height", "width"]).item() == 36.0
    assert ops.reduce(A, "max", ["width"]).to_array(["height"]).tolist() == [4, 9, 6]
    with pytest.raises(MissingAxis):
        ops.reduce(A, "sum", ["chans"])


def test_multi_axis_reduce_equals_iterated():
    rng = SplitMix64(21)
    for _ in range(20):
        shape = H.random_shape(rng, max_axes=4, max_size=5, min_axes=2)
        t = H.random_tensor(rng, shape)
        axes = H.pick_subset(rng, shape.names, min_count=2)
        joint = ops.reduce(t, "sum", axes)
        stepwise = t
        for a in axes:
            stepwise = ops.reduce(stepwise, "sum", [a])
        assert joint.allclose(stepwise, atol=1e-12)


# ---------------------------------------------------------------------------
# contraction

def test_contract_worked_values():
    assert ops.contract(A, y, ["width"]).to_array(["height"]).tolist() == [11, 30, 31]
    assert ops.contract(
        NamedTensor.scalar(3.0), NamedTensor.scalar(4.0), []
    ).item() == 12.0


def test_contract_equals_reduce_of_product():
    # contract sums in matmul's order, so float results may differ from
    # reduce-of-product in the last bits; on integer values every order is
    # exact.
    rng = SplitMix64(22)
    for _ in range(20):
        sa = H.random_shape(rng, max_axes=3, max_size=4)
        sb = H.random_shape(rng, max_axes=3, max_size=4)
        if not sa.compatible(sb):
            continue
        a, b = H.random_tensor(rng, sa), H.random_tensor(rng, sb)
        union = sa.union(sb)
        if not len(union):
            continue
        axes = H.pick_subset(rng, union.names)
        H.assert_matches(ops.contract(a, b, axes), H.loop_contract(a, b, axes), atol=1e-12)
        ia = NamedTensor(sa, np.round(8.0 * a.array))
        ib = NamedTensor(sb, np.round(8.0 * b.array))
        assert ops.contract(ia, ib, axes) == ops.reduce(ops.mul(ia, ib), "sum", axes)


def test_contract_matches_loop_oracle_on_random_groupings():
    # Each name lands in a only, b only or both, and is contracted or kept,
    # so every group of the matmul layout (batch, free, summed, and axes
    # summed out of one operand) turns up, interleaved in canonical order.
    pool = ("p", "q", "r", "s", "t", "u", "v")
    rng = SplitMix64(71)
    seen = set()
    for case in range(60):
        names = H.pick_subset(rng, pool, min_count=4)
        in_a, in_b, axes = [], [], []
        for n in names:
            side = rng.next_int(0, 3)  # 0 a only, 1 b only, else both
            size = rng.next_int(1, 3)
            if side != 1:
                in_a.append(Axis(n, size))
            if side != 0:
                in_b.append(Axis(n, size))
            if case % 10 == 0 or rng.next_int(0, 1):
                axes.append(n)
        sa, sb = Shape(in_a), Shape(in_b)
        a, b = H.random_tensor(rng, sa), H.random_tensor(rng, sb)
        if not axes:
            continue
        H.assert_matches(ops.contract(a, b, axes), H.loop_contract(a, b, axes), atol=1e-12)
        # a's layout rank of each name it keeps: batch 0, free 1, summed 2
        ranks = [1 if n not in sb else 2 if n in axes else 0
                 for n in sa.names if n in sb or n not in axes]
        covers = {
            "a-alone summed": any(n in axes and n not in sb for n in sa.names),
            "b-alone summed": any(n in axes and n not in sa for n in sb.names),
            "batch": 0 in ranks,
            "scalar": len(axes) == len(sa.union(sb)),
            "four axes": len(sa) >= 4 and len(sb) >= 4,
            "interleaved": ranks != sorted(ranks),
        }
        seen |= {name for name, hit in covers.items() if hit}
    assert seen == set(covers)


def test_contract_memory_is_bounded_by_operands_and_output():
    rng = np.random.default_rng(5)
    a = NamedTensor.from_array(rng.standard_normal((4, 120, 150)), ["b", "i", "k"])
    b = NamedTensor.from_array(rng.standard_normal((4, 150, 130)), ["b", "k", "j"])
    tracemalloc.start()
    try:
        out = ops.contract(a, b, ["k"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == Shape.of(b=4, i=120, j=130)
    assert peak <= 4 * (a.array.nbytes + b.array.nbytes + out.array.nbytes)


def test_contract_runs_blas_on_one_thread(monkeypatch):
    # More BLAS threads make a call's time depend on other CPUs being idle
    # (see ntensor._blas).
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if _blas._THREADS is None:
        assert blas != "scipy-openblas"
        pytest.skip(f"no thread control for numpy's BLAS ({blas})")
    get, set_ = _blas._THREADS
    seen, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda x, y: seen.append(get()) or matmul(x, y))
    saved = get()
    set_(2)
    try:
        a = NamedTensor.from_array(np.ones((64, 64)), ["i", "k"])
        out = ops.contract(a, ops.rename(a, "i", "j"), ["k"])
        assert seen == [1] and get() == 2
    finally:
        set_(saved)
    assert out.to_array(["i", "j"]).tolist() == np.full((64, 64), 64.0).tolist()


def test_matrix_product_against_triple_loop():
    rng = SplitMix64(23)
    a = H.random_tensor(rng, Shape.of(height=3, width=4))
    b = H.random_tensor(rng, Shape.of(width=4, depth=2))
    got = ops.contract(a, b, ["width"])
    H.assert_matches(got, H.loop_contract(a, b, ["width"]), atol=1e-12)


def test_contract_single_operand_axis():
    # an axis present in only one operand is reduced out of the product
    a = NamedTensor.from_nested([[1.0, 2.0], [3.0, 4.0]], ["r", "c"])
    b = NamedTensor.from_nested([10.0, 100.0], ["r"])
    out = ops.contract(a, b, ["c"])
    assert out.to_array(["r"]).tolist() == [30.0, 700.0]
    with pytest.raises(MissingAxis):
        ops.contract(a, b, ["zz"])


# ---------------------------------------------------------------------------
# softmax family

def test_softmax_examples():
    two = NamedTensor.from_nested([0.0, 0.0], ["ax"])
    assert ops.softmax(two, ["ax"]).to_array(["ax"]).tolist() == [0.5, 0.5]
    masked = NamedTensor.from_nested([0.0, -math.inf], ["ax"])
    assert ops.softmax(masked, ["ax"]).to_array(["ax"]).tolist() == [1.0, 0.0]
    with pytest.raises(AllMasked):
        ops.softmax(NamedTensor.from_nested([-math.inf, -math.inf], ["ax"]), ["ax"])


def test_argmax_limit_semantics():
    tied = NamedTensor.from_nested([1.0, 3.0, 3.0], ["ax"])
    assert ops.argmax(tied, ["ax"]).to_array(["ax"]).tolist() == [0.0, 0.5, 0.5]
    assert ops.argmin(tied, ["ax"]).to_array(["ax"]).tolist() == [1.0, 0.0, 0.0]


def test_nan_fiber_rule():
    """A NaN makes its fiber NaN, silently; maxk orders NaN below every number."""
    clean = H.random_tensor(SplitMix64(32), Shape.of(row=3, ax=4))
    arr = clean.to_array(["row", "ax"])
    arr[1, 2] = math.nan
    dirty = NamedTensor.from_array(arr, ["row", "ax"])
    others = [{"row": 1}, {"row": 3}]
    for op in (
        lambda t: ops.softmax(t, ["ax"]),
        lambda t: ops.reduce(t, "max", ["ax"]),
        lambda t: ops.argmax(t, ["ax"]),
        lambda t: ops.argmin(t, ["ax"]),
    ):
        got, want = op(dirty), op(clean)
        assert np.all(np.isnan(got.partial_index({"row": 2}).array))
        assert all(got.partial_index(r) == want.partial_index(r) for r in others)
    got, want = ops.maxk(dirty, "ax", Axis("k", 4)), ops.maxk(clean, "ax", Axis("k", 4))
    top = got.partial_index({"row": 2}).to_array(["k"])
    assert top[:3].tolist() == sorted(np.delete(arr[1], 2), reverse=True)
    assert math.isnan(top[3])
    assert all(got.partial_index(r) == want.partial_index(r) for r in others)


@pytest.mark.parametrize("op", [ops.softmax, ops.argmax, ops.argmin])
def test_empty_axis_list_makes_each_entry_its_own_fiber(op):
    assert op(A, []) == NamedTensor.filled(A.shape, 1.0)


def test_softmax_properties():
    rng = SplitMix64(31)
    for _ in range(20):
        shape = H.random_shape(rng, max_axes=3, max_size=4, min_axes=1)
        t = H.random_tensor(rng, shape, lo=-3, hi=3)
        axes = H.pick_subset(rng, shape.names)
        sm = ops.softmax(t, axes)
        sums = ops.reduce(sm, "sum", axes)
        assert np.allclose(sums.array, 1.0, atol=1e-12)
        shifted = ops.softmax(ops.add(t, 0.7), axes)
        assert sm.allclose(shifted, atol=1e-12)


# ---------------------------------------------------------------------------
# structural operations

def test_rename_worked_example():
    renamed = ops.rename(A, "height", "height'")
    assert renamed.shape == Shape.of(**{"height'": 3, "width": 3})
    assert renamed.get({"height'": 2, "width": 3}) == 9.0
    assert ops.rename(renamed, "height'", "height") == A
    with pytest.raises(NameCollision):
        ops.rename(A, "height", "width")
    with pytest.raises(MissingAxis):
        ops.rename(A, "chans", "chans'")


def test_merge_worked_example():
    merged = ops.merge_axes(A, ["height", "width"], Axis("layer", 9))
    assert merged.to_array(["layer"]).tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5]
    single = ops.merge_axes(A, ["width"], Axis("cols", 3))
    assert single == ops.rename(A, "width", "cols")
    with pytest.raises(SizeMismatch):
        ops.merge_axes(A, ["height", "width"], Axis("layer", 8))
    # the merged axis may reuse the name of a consumed part
    reused = ops.merge_axes(A, ["height", "width"], Axis("height", 9))
    assert reused.to_array(["height"]).tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5]
    with pytest.raises(NameCollision):
        ops.merge_axes(A, ["width"], Axis("height", 3))


def test_split_pool_semantics():
    t = NamedTensor.from_nested([1.0, 2.0, 3.0, 4.0], ["seq"])
    pooled = ops.split_axis(t, "seq", Axis("seq", 2), Axis("kernel", 2))
    assert pooled.to_array(["seq", "kernel"]).tolist() == [[1, 2], [3, 4]]
    with pytest.raises(SizeMismatch):
        ops.split_axis(
            NamedTensor.from_nested([1, 2, 3, 4, 5], ["seq"]),
            "seq", Axis("seq", 2), Axis("kernel", 2),
        )


def test_split_then_merge_round_trip():
    rng = SplitMix64(41)
    t = H.random_tensor(rng, Shape.of(seq=6, chans=2))
    split = ops.split_axis(t, "seq", Axis("outer", 3), Axis("inner", 2))
    back = ops.merge_axes(split, ["outer", "inner"], Axis("seq", 6))
    assert back == t


def test_unroll_windows():
    t = NamedTensor.from_nested([1.0, 2.0, 3.0, 4.0], ["seq"])
    u = ops.unroll(t, "seq", Axis("kernel", 2))
    assert u.to_array(["seq", "kernel"]).tolist() == [[1, 2], [2, 3], [3, 4]]
    wide = ops.unroll(t, "seq", Axis("kernel", 1))
    assert wide.shape == Shape.of(seq=4, kernel=1)
    with pytest.raises(NameCollision):
        ops.unroll(A, "width", Axis("height", 2))
    with pytest.raises(SizeMismatch):
        ops.unroll(t, "seq", Axis("kernel", 5))


def test_index_select_cases():
    rng = SplitMix64(42)
    embeddings = H.random_tensor(rng, Shape.of(vocab=4, emb=3))
    # scalar index = partial indexing
    picked = ops.index_select(embeddings, "vocab", 3.0)
    assert picked == embeddings.partial_index({"vocab": 3})
    # fresh axis on the index tensor = integer array indexing
    seq_idx = NamedTensor.from_nested([2.0, 2.0, 4.0], ["seq"])
    gathered = ops.index_select(embeddings, "vocab", seq_idx)
    assert gathered.shape == Shape.of(seq=3, emb=3)
    for s in (1, 2, 3):
        want = embeddings.partial_index({"vocab": int(seq_idx.get({"seq": s}))})
        assert gathered.partial_index({"seq": s}) == want
    # shared axis = gather
    probs = H.random_tensor(rng, Shape.of(seq=3, vocab=4))
    chosen = ops.index_select(probs, "vocab", seq_idx)
    assert chosen.shape == Shape.of(seq=3)
    for s in (1, 2, 3):
        assert chosen.get({"seq": s}) == probs.get(
            {"seq": s, "vocab": int(seq_idx.get({"seq": s}))}
        )
    with pytest.raises(IndexOutOfRange):
        ops.index_select(embeddings, "vocab", 5.0)
    with pytest.raises(IndexOutOfRange):
        ops.index_select(embeddings, "vocab", 1.5)


def test_double_index_select_subsequence():
    # probabilities of words at a subset of positions, via two applications
    rng = SplitMix64(43)
    probs = H.random_tensor(rng, Shape.of(seq=3, vocab=4))
    pos = NamedTensor.from_nested([3.0, 1.0], ["subseq"])
    words = NamedTensor.from_nested([2.0, 4.0], ["subseq"])
    picked = ops.index_select(ops.index_select(probs, "seq", pos), "vocab", words)
    assert picked.shape == Shape.of(subseq=2)
    for i in (1, 2):
        assert picked.get({"subseq": i}) == probs.get(
            {"seq": int(pos.get({"subseq": i})),
             "vocab": int(words.get({"subseq": i}))}
        )


def test_index_select_rejects_selected_axis_on_index():
    t = H.random_tensor(SplitMix64(5), Shape.of(vocab=3))
    bad = NamedTensor.from_nested([1.0, 2.0, 3.0], ["vocab"])
    with pytest.raises(ExtensionCollision):
        ops.index_select(t, "vocab", bad)


def test_maxk_and_argmaxk():
    t = NamedTensor.from_nested([5.0, 1.0, 3.0], ["ax"])
    top = ops.maxk(t, "ax", Axis("k", 2))
    assert top.to_array(["k"]).tolist() == [5.0, 3.0]
    dup = NamedTensor.from_nested([2.0, 2.0], ["ax"])
    assert ops.maxk(dup, "ax", Axis("k", 2)).to_array(["k"]).tolist() == [2.0, 2.0]
    sel = ops.argmaxk(dup, "ax", Axis("k", 2))
    assert sel.to_array(["ax", "k"]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(SizeMismatch):
        ops.maxk(dup, "ax", Axis("k", 3))
    with pytest.raises(NameCollision):
        ops.maxk(A, "height", Axis("width", 2))


def test_maxk_defining_identity_random():
    rng = SplitMix64(44)
    for _ in range(30):
        n = rng.next_int(2, 6)
        k = rng.next_int(1, n)
        t = H.random_tensor(rng, Shape([Axis("ax", n)]))
        top = ops.maxk(t, "ax", Axis("k", k))
        sel = ops.argmaxk(t, "ax", Axis("k", k))
        assert ops.contract(t, sel, ["ax"]) == top
        assert top.get({"k": 1}) == ops.reduce(t, "max", ["ax"]).item()


# ---------------------------------------------------------------------------
# det / inv / standardize

def test_det_inv_small_cases():
    eye = ops.identity(Axis("d1", 2), Axis("d2", 2))
    assert ops.det(eye, "d1", "d2").item() == 1.0
    assert ops.inv(eye, "d1", "d2") == eye
    diag = NamedTensor.from_nested([[2.0, 0.0], [0.0, 4.0]], ["d1", "d2"])
    assert ops.det(diag, "d1", "d2").item() == 8.0
    assert ops.inv(diag, "d1", "d2").to_array(["d1", "d2"]).tolist() == [
        [0.5, 0.0], [0.0, 0.25]]


def test_inv_contracts_to_identity():
    rng = SplitMix64(51)
    for _ in range(10):
        m = H.random_tensor(rng, Shape.of(d1=4, d2=4), lo=-2, hi=2)
        inv = ops.inv(m, "d1", "d2")
        # contract over d2 after renaming d1 on one side: identity matrix
        product = ops.contract(m, ops.rename(inv, "d1", "d1'"), ["d2"])
        eye = ops.identity(Axis("d1", 4), Axis("d1'", 4))
        assert product.allclose(eye, atol=1e-10)
        product2 = ops.contract(m, ops.rename(inv, "d2", "d2'"), ["d1"])
        eye2 = ops.identity(Axis("d2", 4), Axis("d2'", 4))
        assert product2.allclose(eye2, atol=1e-10)
        det = ops.det(m, "d1", "d2").item()
        det_inv = ops.det(inv, "d1", "d2").item()
        assert abs(det * det_inv - 1.0) < 1e-8


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        ops.det(NamedTensor.zeros(Shape.of(d1=2, d2=2)), "d1", "d2")
    rank1 = NamedTensor.from_nested([[1.0, 2.0], [2.0, 4.0]], ["d1", "d2"])
    with pytest.raises(SingularMatrix):
        ops.inv(rank1, "d1", "d2")
    with pytest.raises(SizeMismatch):
        ops.det(H.random_tensor(SplitMix64(1), Shape.of(d1=2, d2=3)), "d1", "d2")


def test_det_inv_lift_over_extra_axes():
    rng = SplitMix64(52)
    t = H.random_tensor(rng, Shape.of(batch=3, d1=2, d2=2), lo=1, hi=2)
    dets = ops.det(t, "d1", "d2")
    invs = ops.inv(t, "d1", "d2")
    for b in (1, 2, 3):
        s = t.partial_index({"batch": b})
        assert dets.get({"batch": b}) == ops.det(s, "d1", "d2").item()
        assert invs.partial_index({"batch": b}) == ops.inv(s, "d1", "d2")


def test_batched_det_inv_pivot_each_matrix_on_its_own():
    # 16 matrices over batch axes on both sides of the matrix axes in
    # canonical order (c < d1 < d2 < e); their first-column pivots differ
    rng = np.random.default_rng(54)
    arr = rng.standard_normal((4, 4, 4, 4))
    t = NamedTensor.from_array(arr, ["c", "d1", "d2", "e"])
    first_pivots = np.argmax(np.abs(arr[:, :, 0, :]), axis=1)
    assert len(np.unique(first_pivots)) >= 3
    dets = ops.det(t, "d1", "d2")
    invs = ops.inv(t, "d1", "d2")
    for c in range(1, 5):
        for e in range(1, 5):
            s = t.partial_index({"c": c, "e": e})
            assert dets.get({"c": c, "e": e}) == ops.det(s, "d1", "d2").item()
            assert invs.partial_index({"c": c, "e": e}) == ops.inv(s, "d1", "d2")


@pytest.mark.parametrize("odd", [
    [[1.0, 2.0], [2.0, 4.0]],
    [[0.0, 0.0], [0.0, 0.0]],
], ids=["rank1", "zero"])
def test_one_singular_matrix_makes_the_batch_raise(odd):
    rng = np.random.default_rng(55)
    arr = rng.standard_normal((3, 2, 2))
    arr[1] = odd
    t = NamedTensor.from_array(arr, ["b", "d1", "d2"])
    for op in (ops.det, ops.inv):
        with pytest.raises(SingularMatrix):
            op(t, "d1", "d2")


def test_non_finite_matrix_rule():
    # NaN, +inf and -inf at a pivot position (1, 1) and off it (2, 3), one
    # NaN next to zeros that would otherwise be singular, amid finite ones
    rng = np.random.default_rng(56)
    arr = rng.standard_normal((8, 3, 3))
    odd = [1, 2, 3, 5, 6, 7, 4]
    for i, v in zip(odd, [np.nan, np.inf, -np.inf] * 2):
        arr[i][(0, 0) if i < 4 else (1, 2)] = v
    arr[4] = [[np.nan, 0, 0], [0, 0, 0], [0, 0, 0]]
    t = NamedTensor.from_array(arr, ["b", "d1", "d2"])
    dets = ops.det(t, "d1", "d2")
    invs = ops.inv(t, "d1", "d2")
    for b in range(1, 9):
        if b - 1 in odd:
            assert math.isnan(dets.get({"b": b}))
            assert np.isnan(invs.partial_index({"b": b}).array).all()
        else:
            s = t.partial_index({"b": b})
            assert dets.get({"b": b}) == ops.det(s, "d1", "d2").item()
            assert invs.partial_index({"b": b}) == ops.inv(s, "d1", "d2")


def test_standardize_examples():
    const = NamedTensor.filled(Shape.of(ax=4), 3.25)
    assert np.all(ops.standardize(const, ["ax"]).array == 0.0)
    two = NamedTensor.from_nested([-1.0, 1.0], ["ax"])
    out = ops.standardize(two, ["ax"])
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    assert abs(out.get({"ax": 2}) - expected) < 1e-15
    rng = SplitMix64(53)
    t = H.random_tensor(rng, Shape.of(batch=2, chans=3, layer=2))
    got = ops.standardize(t, ["batch", "layer"])
    H.assert_matches(got, H.loop_standardize(t, ["batch", "layer"]), atol=1e-12)


# ---------------------------------------------------------------------------
# randomized oracle sweeps (the ops-level invariant; the acceptance suite
# runs the larger 500-case version)

@pytest.mark.parametrize("cls", ["reduce", "elementwise", "contract", "softmax", "structural"])
def test_loop_oracle_equivalence(cls):
    rng = SplitMix64(sum(map(ord, cls)))
    for _ in range(60):
        shape = H.random_shape(rng, max_axes=4, max_size=5, min_axes=1)
        t = H.random_tensor(rng, shape)
        if cls == "reduce":
            axes = H.pick_subset(rng, shape.names)
            kind = H.pick(rng, ops.REDUCE_KINDS)
            H.assert_matches(ops.reduce(t, kind, axes), H.loop_reduce(t, kind, axes),
                             atol=1e-12)
        elif cls == "elementwise":
            other = H.random_shape(rng, max_axes=3, max_size=5)
            if not shape.compatible(other):
                continue
            u = H.random_tensor(rng, other, lo=0.5, hi=1.5)
            H.assert_matches(ops.add(t, u), H.loop_elementwise(lambda a, b: a + b, t, u),
                             atol=1e-12)
            H.assert_matches(ops.div(t, u), H.loop_elementwise(lambda a, b: a / b, t, u),
                             atol=1e-12)
        elif cls == "contract":
            other = H.random_shape(rng, max_axes=3, max_size=5)
            if not shape.compatible(other):
                continue
            u = H.random_tensor(rng, other)
            union = shape.union(other)
            axes = H.pick_subset(rng, union.names) if len(union) else []
            H.assert_matches(ops.contract(t, u, axes), H.loop_contract(t, u, axes),
                             atol=1e-12)
        elif cls == "softmax":
            axes = H.pick_subset(rng, shape.names)
            H.assert_matches(ops.softmax(t, axes), H.loop_softmax(t, axes), atol=1e-12)
            H.assert_matches(ops.argmax(t, axes),
                             H.loop_arg_extremum(t, axes, minimize=False))
        else:  # structural: bit-exact
            name = H.pick(rng, shape.names)
            H.assert_matches(ops.rename(t, name, "fresh"), H.loop_rename(t, name, "fresh"))
            n = shape.size(name)
            k = rng.next_int(1, n)
            H.assert_matches(ops.unroll(t, name, Axis("win", k)),
                             H.loop_unroll(t, name, Axis("win", k)))
            parts = H.pick_subset(rng, shape.names)
            total = 1
            for p in parts:
                total *= shape.size(p)
            H.assert_matches(ops.merge_axes(t, parts, Axis("flat", total)),
                             H.loop_merge(t, parts, Axis("flat", total)))
