"""Reference models: oracle sweeps, special values, vectorization."""

import math
import tracemalloc

import numpy as np
import pytest

from ntensor import (
    Axis, DivisionByZero, NamedTensor, Shape, SizeMismatch, SplitMix64, lang, ops, zoo,
)
from ntensor import autodiff as ad
from ntensor.zoo import fixtures, models, oracles

import helpers as H


@pytest.mark.parametrize("name", zoo.fixture_names())
def test_fixture_against_oracle(name):
    for seed in range(6):
        result = zoo.run_fixture(name, seed=seed)
        assert result.passed, result.summary()


# ---------------------------------------------------------------------------
# feedforward / rnn

def test_feedforward_zero_parameters_gives_half():
    x = NamedTensor.zeros(Shape.of(layer=4))
    layers = [
        (NamedTensor.zeros(Shape.of(**{"layer'": 3, "layer": 4})),
         NamedTensor.zeros(Shape.of(**{"layer'": 3}))),
        (NamedTensor.zeros(Shape.of(**{"layer'": 2, "layer": 3})),
         NamedTensor.zeros(Shape.of(**{"layer'": 2}))),
    ]
    out = zoo.feedforward(x, layers)
    assert np.all(out.array == 0.5)


def test_fullconn_equals_inline_form():
    rng = SplitMix64(61)
    x = H.random_tensor(rng, Shape.of(layer=3))
    w = H.random_tensor(rng, Shape.of(**{"layer'": 3, "layer": 3}))
    b = H.random_tensor(rng, Shape.of(**{"layer'": 3}))
    module = zoo.fullconn(x, w, b)
    inline = ops.rename(
        ops.sigmoid(ops.add(ops.contract(w, x, ["layer"]), b)), "layer'", "layer"
    )
    assert module == inline


def test_rnn_zero_steps_returns_initial_state():
    rng = SplitMix64(62)
    h0 = H.random_tensor(rng, Shape.of(hidden=2))
    w_h = H.random_tensor(rng, Shape.of(**{"hidden": 2, "hidden'": 2}))
    w_i = H.random_tensor(rng, Shape.of(**{"inp": 2, "hidden'": 2}))
    b = H.random_tensor(rng, Shape.of(**{"hidden'": 2}))
    assert zoo.rnn_elman([], w_h, w_i, b, h0) == [h0]


def test_rnn_ignores_inputs_with_zero_input_weights():
    rng = SplitMix64(63)
    h0 = H.random_tensor(rng, Shape.of(hidden=2))
    w_h = H.random_tensor(rng, Shape.of(**{"hidden": 2, "hidden'": 2}))
    zero_w_i = NamedTensor.zeros(Shape.of(**{"inp": 2, "hidden'": 2}))
    b = H.random_tensor(rng, Shape.of(**{"hidden'": 2}))
    xs = [H.random_tensor(rng, Shape.of(inp=2)) for _ in range(3)]
    zeros = [NamedTensor.zeros(Shape.of(inp=2)) for _ in range(3)]
    with_inputs = zoo.rnn_elman(xs, w_h, zero_w_i, b, h0)
    without = zoo.rnn_elman(zeros, w_h, zero_w_i, b, h0)
    for a, b_ in zip(with_inputs, without):
        assert a == b_


# ---------------------------------------------------------------------------
# attention

def test_attention_single_position_returns_value():
    rng = SplitMix64(64)
    q = H.random_tensor(rng, Shape.of(key=2))
    k = H.random_tensor(rng, Shape.of(seq=1, key=2))
    v = H.random_tensor(rng, Shape.of(seq=1, val=3))
    out = zoo.attention(q, k, v)
    assert out == v.partial_index({"seq": 1})


def test_attention_causal_mask_first_position():
    rng = SplitMix64(65)
    nseq = 3
    q = H.random_tensor(rng, Shape.of(**{"seq'": nseq, "key": 2}))
    k = H.random_tensor(rng, Shape.of(seq=nseq, key=2))
    v = H.random_tensor(rng, Shape.of(seq=nseq, val=2))
    out = zoo.attention(q, k, v, zoo.causal_mask(nseq))
    # output position 1 may only attend to input position 1
    first = out.partial_index({"seq'": 1})
    assert first == v.partial_index({"seq": 1})


def test_attention_batch_heads_equals_stacked_runs():
    rng = SplitMix64(66)
    ext = Shape.of(batch=2, heads=2)
    q = H.random_tensor(rng, Shape.of(**{"seq'": 3, "key": 2, "batch": 2, "heads": 2}))
    k = H.random_tensor(rng, Shape.of(seq=3, key=2, batch=2, heads=2))
    v = H.random_tensor(rng, Shape.of(seq=3, val=2, batch=2, heads=2))
    full = zoo.attention(q, k, v)
    for rec in ext.records():
        single = zoo.attention(
            q.partial_index(rec), k.partial_index(rec), v.partial_index(rec)
        )
        assert full.partial_index(rec).allclose(single, atol=1e-12)


# ---------------------------------------------------------------------------
# convolution and pooling

def test_conv1d_identity_kernel():
    x = H.random_tensor(SplitMix64(67), Shape.of(chans=1, seq=5))
    w = NamedTensor.filled(Shape.of(chans=1, kernel=1), 1.0)
    out = zoo.conv1d(x, w, 0.0)
    assert out == ops.sum_(x, ["chans"])


def test_conv1d_equals_sliding_window_loop():
    rng = SplitMix64(68)
    x = rng.nested([2, 6])
    w = rng.nested([3, 2, 2])
    b = rng.nested([3])
    out = zoo.conv1d(
        NamedTensor.from_nested(x, ["chans", "seq"]),
        NamedTensor.from_nested(w, ["chans'", "chans", "kernel"]),
        NamedTensor.from_nested(b, ["chans'"]),
    )
    assert np.allclose(
        out.to_array(["chans'", "seq"]), oracles.conv1d(x, w, b), atol=1e-12
    )


def test_maxpool2d_block_maxima():
    vals = [[[1, 2, 5, 0],
             [3, 4, 1, 1],
             [9, 0, 2, 2],
             [0, 0, 3, 8]]]
    x = NamedTensor.from_nested(vals, ["chans", "height", "width"])
    out = zoo.maxpool2d(x, 2, 2)
    assert out.to_array(["chans", "height", "width"]).tolist() == [[[4, 5], [9, 8]]]


# ---------------------------------------------------------------------------
# normalization layers

def _norm_case(seed):
    rng = SplitMix64(seed)
    x = H.random_tensor(rng, Shape.of(batch=2, chans=4, layer=3))
    ones = NamedTensor.filled(Shape.of(chans=4), 1.0)
    zeros = NamedTensor.zeros(Shape.of(chans=4))
    return x, ones, zeros


def test_norm_layers_on_constant_input_are_zero():
    const = NamedTensor.filled(Shape.of(batch=2, chans=4, layer=3), 2.5)
    ones = NamedTensor.filled(Shape.of(chans=4), 1.0)
    zeros = NamedTensor.zeros(Shape.of(chans=4))
    ones_cl = NamedTensor.filled(Shape.of(chans=4, layer=3), 1.0)
    zeros_cl = NamedTensor.zeros(Shape.of(chans=4, layer=3))
    for out in (
        zoo.batchnorm(const, ones, zeros),
        zoo.instancenorm(const, ones, zeros),
        zoo.layernorm(const, ones_cl, zeros_cl),
        zoo.groupnorm(const, ones, zeros, 2),
    ):
        assert np.all(out.array == 0.0)


def test_batchnorm_differs_from_instancenorm():
    x, ones, zeros = _norm_case(69)
    bn = zoo.batchnorm(x, ones, zeros)
    inorm = zoo.instancenorm(x, ones, zeros)
    assert not bn.allclose(inorm, atol=1e-3)


def test_groupnorm_single_group_is_chans_layer_standardization():
    rng = SplitMix64(70)
    x = H.random_tensor(rng, Shape.of(batch=2, chans=4, layer=3))
    gamma = H.random_tensor(rng, Shape.of(chans=4))
    beta = H.random_tensor(rng, Shape.of(chans=4))
    grouped = zoo.groupnorm(x, gamma, beta, 4)
    flat = ops.add(ops.mul(ops.standardize(x, ["chans", "layer"]), gamma), beta)
    assert grouped.allclose(flat, atol=1e-12)


def test_norm_layers_lift_over_an_extra_axis():
    rng = SplitMix64(71)
    x = H.random_tensor(rng, Shape.of(batch=2, chans=4, layer=3, extra=3))
    gamma = H.random_tensor(rng, Shape.of(chans=4))
    beta = H.random_tensor(rng, Shape.of(chans=4))
    for fn in (zoo.batchnorm, zoo.instancenorm):
        full = fn(x, gamma, beta)
        for e in (1, 2, 3):
            part = fn(x.partial_index({"extra": e}), gamma, beta)
            assert full.partial_index({"extra": e}).allclose(part, atol=1e-12)


# ---------------------------------------------------------------------------
# transformer

def test_transformer_rows_sum_to_one():
    onehots, _, _, params, _ = fixtures.build_transformer(3)
    out = zoo.transformer_lm(NamedTensor.from_nested(onehots, ["seq", "vocab"]), params)
    sums = ops.sum_(out, ["vocab"])
    assert np.allclose(sums.array, 1.0, atol=1e-12)


def test_transformer_rejects_misnamed_parameters():
    onehots, _, _, params, _ = fixtures.build_transformer(3)
    params = dict(params)
    params["WQ9"] = params.pop("WQ1")
    with pytest.raises(ValueError, match="transformer parameters must be named"):
        zoo.transformer_lm(NamedTensor.from_nested(onehots, ["seq", "vocab"]), params)


def test_transformer_batch_axis_equals_stacked_runs():
    rng = SplitMix64(72)
    onehots, _, _, params, sizes = fixtures.build_transformer(4)
    batched_rows = [fixtures._onehot_rows(rng, sizes["seq"], sizes["vocab"])
                    for _ in range(3)]
    batched = NamedTensor.from_nested(batched_rows, ["batch", "seq", "vocab"])
    full = zoo.transformer_lm(batched, params)
    for b in (1, 2, 3):
        single = zoo.transformer_lm(
            NamedTensor.from_nested(batched_rows[b - 1], ["seq", "vocab"]), params
        )
        assert full.partial_index({"batch": b}).allclose(single, atol=1e-12)


def test_transformer_causality():
    """Perturbing a later token leaves earlier positions' outputs unchanged."""
    onehots, _, _, params, sizes = fixtures.build_transformer(5)
    seq, vocab = sizes["seq"], sizes["vocab"]
    base = zoo.transformer_lm(NamedTensor.from_nested(onehots, ["seq", "vocab"]), params)
    perturbed_rows = [row[:] for row in onehots]
    last = perturbed_rows[-1]
    current = last.index(1.0)
    last[current] = 0.0
    last[(current + 1) % vocab] = 1.0
    perturbed = zoo.transformer_lm(
        NamedTensor.from_nested(perturbed_rows, ["seq", "vocab"]), params
    )
    for pos in range(1, seq):  # all positions before the perturbed one
        assert base.partial_index({"seq": pos}).allclose(
            perturbed.partial_index({"seq": pos}), atol=1e-12
        )
    assert not base.partial_index({"seq": seq}).allclose(
        perturbed.partial_index({"seq": seq}), atol=1e-6
    )


def test_transformer_forward_holds_only_live_values():
    """``ad.evaluate`` drops each value of the spliced graph after its last
    reader, so one forward at the benchmark's model sizes (batch 4) peaks
    under 1.5 MB of traced allocations (0.94 MB measured); keeping every
    value until the end peaks near 2.4 MB."""
    onehots, _, _, params, _ = fixtures.build_transformer(
        0, seq=32, vocab=64, layer=64, heads=4, hidden=256, depth=2
    )
    batched = NamedTensor.from_nested([onehots] * 4, ["batch", "seq", "vocab"])
    zoo.transformer_lm(batched, params)  # first-call allocations are not the forward's
    tracemalloc.start()
    try:
        zoo.transformer_lm(batched, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_spliced_transformer_equals_binding_by_binding_evaluation():
    """The spliced ``O`` equals evaluating the bindings one at a time."""
    onehots, _, _, params, _ = fixtures.build_transformer(2, depth=1)
    sizes = {axis.name: axis.size for t in params.values() for axis in t.shape}
    seq = len(onehots)
    env = dict(
        params, I=NamedTensor.from_nested(onehots, ["seq", "vocab"]),
        P=zoo.positional_encoding(seq, sizes["layer"]), M=zoo.causal_mask(seq),
    )
    bindings = zoo.transformer_bindings(1)
    spliced = ad.evaluate(ad.splice(bindings)["O"], env, axis_sizes=sizes)
    for name, expr in bindings:
        if name not in env:
            env[name] = ad.evaluate(expr, env, axis_sizes=sizes)
    assert spliced == env["O"]


def _scalar_positional_encoding(seq_len, layer_size):
    """The encoding's definition, one entry at a time."""
    enc = np.empty((seq_len, layer_size))
    for p in range(1, seq_len + 1):
        for i in range(1, layer_size + 1):
            if i % 2 == 1:
                enc[p - 1, i - 1] = math.sin((p - 1) / 10000 ** ((i - 1) / layer_size))
            else:
                enc[p - 1, i - 1] = math.cos((p - 1) / 10000 ** ((i - 2) / layer_size))
    return enc


@pytest.mark.parametrize("seq_len, layer_size", [
    (1, 1), (3, 7), (4, 8), (5, 9), (16, 64), (32, 64), (33, 65), (64, 128),
    (128, 512), (200, 1024),
])
def test_positional_encoding_is_bit_identical_to_its_scalar_definition(seq_len, layer_size):
    got = zoo.positional_encoding(seq_len, layer_size).to_array(["seq", "layer"])
    want = _scalar_positional_encoding(seq_len, layer_size)
    assert got.tobytes() == want.tobytes()


# perfbench's language-workload sizes, and the program's defaults.
_PROGRAM_SIZES = [
    dict(seq=16, vocab=64, layer=64, heads=4, hidden=256),
    dict(),
]


def _drawn_parameters(run, depth):
    return {name: run.env[name] for name, _ in models.transformer_parameters(depth)}


@pytest.mark.parametrize("sizes", _PROGRAM_SIZES, ids=["language", "default"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_transformer_program_and_model_agree_exactly(depth, sizes):
    """The printed program, run by the language, equals ``transformer_lm``
    on the parameters the run drew, also with a batch axis on the input."""
    run = lang.run_program(lang.parse(zoo.transformer_program(depth=depth, **sizes)), 11)
    params = _drawn_parameters(run, depth)
    onehots = run.env["I"]
    assert zoo.transformer_lm(onehots, params) == run.env["O"]

    rows = onehots.to_array(["seq", "vocab"])
    batched = NamedTensor.from_array(np.stack([rows, rows[::-1]]), ["batch", "seq", "vocab"])
    full = zoo.transformer_lm(batched, params)
    assert full.partial_index({"batch": 1}) == run.env["O"]
    reversed_run = zoo.transformer_lm(
        NamedTensor.from_array(rows[::-1], ["seq", "vocab"]), params
    )
    assert full.partial_index({"batch": 2}) == reversed_run


@pytest.mark.parametrize("wrt", ["WQ1", "Gffn2"])
def test_transformer_program_parameter_gradient_matches_finite_differences(wrt):
    """``grad_program`` with respect to a drawn ``random over`` binding,
    against central differences of ``transformer_lm`` in that parameter."""
    program = lang.parse(zoo.transformer_program())
    deriv = lang.grad_program(program, "O", wrt)
    run = lang.run_program(program)
    params = _drawn_parameters(run, 2)
    out_names = run.env["O"].shape.names
    primed = [deriv.rename_map.get(n, n) for n in out_names]

    def f(x):
        return zoo.transformer_lm(run.env["I"], dict(params, **{wrt: x}))

    worst = 0.0
    for record, fd in H.fd_jacobian_entries(f, params[wrt]):
        numeric = fd.to_array(out_names)
        analytic = deriv.value.partial_index(record).to_array(primed)
        rel = np.abs(numeric - analytic) / np.maximum(
            1.0, np.maximum(np.abs(numeric), np.abs(analytic))
        )
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# lenet

def test_lenet_rows_sum_to_one():
    x0, _, params = fixtures.build_lenet(6)
    out = zoo.lenet(NamedTensor.from_nested(x0, ["batch", "chans", "height", "width"]), params)
    sums = ops.sum_(out, ["classes"])
    assert np.allclose(sums.array, 1.0, atol=1e-12)


def test_lenet_merge_form_equals_multi_axis_contraction():
    """Flatten-then-dense equals contracting over (height, width, chans)."""
    x0, _, params = fixtures.build_lenet(7)
    x = NamedTensor.from_nested(x0, ["batch", "chans", "height", "width"])
    k = models.LENET_POOL
    t1 = ops.relu(ops.rename(zoo.conv2d(x, params["conv1_w"], params["conv1_b"]),
                             "chans'", "chans"))
    x1 = zoo.maxpool2d(t1, k, k)
    t2 = ops.relu(ops.rename(zoo.conv2d(x1, params["conv2_w"], params["conv2_b"]),
                             "chans'", "chans"))
    pooled = zoo.maxpool2d(t2, k, k)

    side = pooled.shape.size("height")
    chans = pooled.shape.size("chans")
    merged = ops.merge_axes(pooled, ["height", "width", "chans"],
                            Axis("layer", side * side * chans))
    dense_merge = ops.contract(params["dense_w"], merged, ["layer"])

    w3 = ops.split_axis(params["dense_w"], "layer", Axis("hw", side * side), Axis("chans", chans))
    w3 = ops.split_axis(w3, "hw", Axis("height", side), Axis("width", side))
    dense_multi = ops.contract(w3, pooled, ["height", "width", "chans"])
    assert dense_merge.allclose(dense_multi, atol=1e-12)


# ---------------------------------------------------------------------------
# probability, cbow, sudoku

def test_prob_ops_independent_case():
    uniform_rows = NamedTensor.from_nested(
        [[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]], ["cause", "effect"]
    )
    prior = NamedTensor.from_nested([0.2, 0.5, 0.3], ["cause"])
    joint, marginal, posterior = zoo.prob_ops(uniform_rows, prior)
    for e in (1, 2):
        assert posterior.partial_index({"effect": e}).allclose(prior, atol=1e-15)
    # chain-rule consistency: sum_B joint = p(A) exactly
    assert ops.sum_(joint, ["effect"]).allclose(prior, atol=1e-16)
    assert np.isclose(ops.sum_(marginal, ["effect"]).item(), 1.0)


def test_prob_ops_zero_marginal_raises():
    cond = NamedTensor.from_nested([[1.0, 0.0], [1.0, 0.0]], ["cause", "effect"])
    prior = NamedTensor.from_nested([0.5, 0.5], ["cause"])
    with pytest.raises(DivisionByZero):
        zoo.prob_ops(cond, prior)


def test_cbow_single_word_and_permutation_invariance():
    rng = SplitMix64(73)
    embed = H.random_tensor(rng, Shape.of(vocab=3, emb=2))
    proj = H.random_tensor(rng, Shape.of(classes=2, emb=2))
    single = NamedTensor.from_nested([[0.0, 1.0, 0.0]], ["seq", "vocab"])
    out = zoo.cbow(single, embed, proj)
    direct = ops.softmax(
        ops.contract(proj, embed.partial_index({"vocab": 2}), ["emb"]), ["classes"]
    )
    assert out.allclose(direct, atol=1e-15)

    pair = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    flipped = [pair[1], pair[0]]
    a = zoo.cbow(NamedTensor.from_nested(pair, ["seq", "vocab"]), embed, proj)
    b = zoo.cbow(NamedTensor.from_nested(flipped, ["seq", "vocab"]), embed, proj)
    assert a.allclose(b, atol=1e-12)


def test_sudoku_accept_reject():
    grid = fixtures.valid_sudoku(0)
    cells = fixtures._to_onehot_grid(grid)
    tensor = NamedTensor.from_nested(cells, ["height", "width", "assign"])
    assert oracles.sudoku_check(cells) == 1.0  # loop checker agrees first
    assert zoo.sudoku_check(tensor) == 1.0

    broken = [row[:] for row in grid]
    broken[4][2], broken[4][6] = broken[4][6], broken[4][2]
    broken_cells = fixtures._to_onehot_grid(broken)
    assert oracles.sudoku_check(broken_cells) == 0.0
    assert zoo.sudoku_check(
        NamedTensor.from_nested(broken_cells, ["height", "width", "assign"])
    ) == 0.0

    zeros = NamedTensor.zeros(Shape.of(height=9, width=9, assign=9))
    assert zoo.sudoku_check(zeros) == 0.0


# ---------------------------------------------------------------------------
# k-means, beam search, mvn

def test_kmeans_fixed_point():
    centers = NamedTensor.from_nested([[0.0, 0.0], [4.0, 4.0]], ["clusters", "d"])
    points = NamedTensor.from_nested(
        [[0.0, 0.0], [4.0, 4.0], [0.0, 0.0], [4.0, 4.0], [0.0, 0.0], [4.0, 4.0]],
        ["batch", "d"],
    )
    assert zoo.kmeans_step(points, centers) == centers


def test_kmeans_equidistant_point_splits_mass():
    centers = NamedTensor.from_nested([[0.0, 0.0], [2.0, 0.0]], ["clusters", "d"])
    point = NamedTensor.from_nested([[1.0, 0.0]], ["batch", "d"])
    distances = ops.norm_(ops.sub(centers, point), ["d"])
    assign = ops.argmin(distances, ["clusters"])
    assert assign.to_array(["clusters", "batch"]).tolist() == [[0.5], [0.5]]


def test_kmeans_empty_cluster_keeps_center():
    centers = NamedTensor.from_nested([[0.0, 0.0], [100.0, 100.0]], ["clusters", "d"])
    points = NamedTensor.from_nested([[1.0, 0.0], [0.0, 1.0]], ["batch", "d"])
    updated = zoo.kmeans_step(points, centers)
    assert updated.partial_index({"clusters": 2}) == centers.partial_index({"clusters": 2})


def test_beam_size_one_is_greedy():
    scores, states, trans, offset = fixtures.build_beam(8, nstate=5, nbeam=1)
    new_scores, new_states = zoo.beam_step(
        NamedTensor.from_nested(scores, ["beam"]),
        NamedTensor.from_nested(states, ["beam", "state"]),
        fixtures.make_transition(trans, offset),
        5,
        1,
    )
    best = ops.max_(
        ops.mul(
            NamedTensor.from_nested(scores, ["beam"]),
            NamedTensor.from_nested(
                [[sum(trans[s][sp] * states[0][s] for s in range(5)) + offset[sp]
                  for sp in range(5)]], ["beam", "state"]),
        ),
        ["beam"],
    )
    assert new_scores.get({"beam": 1}) == ops.max_(best, ["state"]).item()
    assert ops.sum_(new_states, ["state"]).to_array(["beam"]).tolist() == [1.0]


def test_beam_larger_than_the_state_count_raises():
    scores, states, trans, offset = fixtures.build_beam(8, nstate=5, nbeam=1)
    with pytest.raises(SizeMismatch, match="beam size 6 exceeds 5 states"):
        zoo.beam_step(
            NamedTensor.from_nested(scores, ["beam"]),
            NamedTensor.from_nested(states, ["beam", "state"]),
            fixtures.make_transition(trans, offset),
            5,
            6,
        )


def test_beam_batch_axis_equals_independent_steps():
    batches = [fixtures.build_beam(9), fixtures.build_beam(10)]
    trans, offset = batches[0][2], batches[0][3]
    transition = fixtures.make_transition(trans, offset)
    scores = NamedTensor.from_nested([b[0] for b in batches], ["batch", "beam"])
    states = NamedTensor.from_nested([b[1] for b in batches], ["batch", "beam", "state"])
    full_scores, full_states = zoo.beam_step(scores, states, transition, 5, 2)
    for b in (1, 2):
        one_scores, one_states = zoo.beam_step(
            scores.partial_index({"batch": b}),
            states.partial_index({"batch": b}),
            transition, 5, 2,
        )
        assert full_scores.partial_index({"batch": b}) == one_scores
        assert full_states.partial_index({"batch": b}) == one_states


def test_mvn_standard_at_mean():
    eye = ops.identity(Axis("d1", 2), Axis("d2", 2))
    mean = NamedTensor.zeros(Shape.of(d=2))
    out = zoo.mvn_density(mean, mean, eye)
    assert abs(out.item() - 1.0 / (2.0 * math.pi)) < 1e-15


def test_mvn_diagonal_factorizes():
    rng = SplitMix64(74)
    variances = [0.8, 1.7]
    cov = NamedTensor.from_nested(
        [[variances[0], 0.0], [0.0, variances[1]]], ["d1", "d2"]
    )
    mean_vals = [0.3, -0.5]
    x_vals = [1.1, 0.2]
    out = zoo.mvn_density(
        NamedTensor.from_nested(x_vals, ["d"]),
        NamedTensor.from_nested(mean_vals, ["d"]),
        cov,
    )
    univariate = 1.0
    for v, m, xv in zip(variances, mean_vals, x_vals):
        univariate *= math.exp(-((xv - m) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)
    assert abs(out.item() - univariate) < 1e-12


def test_mvn_integrates_to_one_on_grid():
    rng = SplitMix64(75)
    cov_vals = fixtures.build_spd(rng, 2)
    cov = NamedTensor.from_nested(cov_vals, ["d1", "d2"])
    mean = NamedTensor.from_nested([0.2, -0.1], ["d"])
    n, half = 60, 6.0
    step = 2 * half / n
    centers = [-half + (i + 0.5) * step for i in range(n)]
    grid = [[[cx + mean.get({"d": 1}), cy + mean.get({"d": 2})]
             for cy in centers] for cx in centers]
    x = NamedTensor.from_nested(grid, ["gx", "gy", "d"])
    densities = zoo.mvn_density(x, mean, cov)
    total = ops.sum_(densities, ["gx", "gy"]).item() * step * step
    assert abs(total - 1.0) < 0.02
