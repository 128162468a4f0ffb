"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance and runtime budget is asserted here, not just
reported.
"""

import math
import time
from pathlib import Path

import numpy as np

from ntensor import Axis, NamedTensor, Shape, SplitMix64, ops, zoo
from ntensor import autodiff as ad
from ntensor import lang
from ntensor.cli import main
from ntensor.zoo import fixtures, transformer_program

import helpers as H
from test_lang import EXPECTED_SPANS

CORPUS = Path(__file__).parent / "corpus"


def _report(number: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------

def test_criterion_1_worked_examples():
    started = time.perf_counter()
    A = NamedTensor.from_nested([[3, 1, 4], [1, 5, 9], [2, 6, 5]], ["height", "width"])
    x = NamedTensor.from_nested([2, 7, 1], ["height"])
    y = NamedTensor.from_nested([1, 4, 1], ["width"])

    assert A.get({"height": 1, "width": 3}) == 4.0
    assert A.get({"width": 3, "height": 1}) == 4.0
    assert A.partial_index({"height": 1}).to_array(["width"]).tolist() == [3, 1, 4]
    assert A.partial_index({"width": 3}).to_array(["height"]).tolist() == [4, 9, 5]

    assert ops.add(A, x).to_array(["height", "width"]).tolist() == [
        [5, 3, 6], [8, 12, 16], [3, 7, 6]]
    assert ops.add(A, y).to_array(["height", "width"]).tolist() == [
        [4, 5, 5], [2, 9, 10], [3, 10, 6]]

    assert ops.sum_(A, ["height"]).to_array(["width"]).tolist() == [6, 12, 18]
    assert ops.sum_(A, ["width"]).to_array(["height"]).tolist() == [8, 15, 13]
    assert ops.sum_(A, ["height", "width"]).item() == 36.0

    assert ops.contract(A, y, ["width"]).to_array(["height"]).tolist() == [11, 30, 31]

    renamed = ops.rename(A, "height", "height'")
    assert renamed.to_array(["height'", "width"]).tolist() == A.to_array(
        ["height", "width"]).tolist()

    merged = ops.merge_axes(A, ["height", "width"], Axis("layer", 9))
    assert merged.to_array(["layer"]).tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5]

    sig = ops.sigmoid(A)
    assert sig.get({"height": 1, "width": 1}) == 1.0 / (1.0 + math.exp(-3.0))
    _report(1, "worked-example suite", started, 1.0)


# ---------------------------------------------------------------------------

def test_criterion_2_lifting_oracles():
    started = time.perf_counter()
    cases_per_class = 500

    rng = SplitMix64(777)
    for _ in range(cases_per_class):
        shape = H.random_shape(rng, max_axes=3, max_size=4, min_axes=1)
        t = H.random_tensor(rng, shape)
        axes = H.pick_subset(rng, shape.names)
        kind = H.pick(rng, tuple(H.REDUCE_OPS))
        H.assert_matches(H.REDUCE_OPS[kind](t, axes), H.loop_reduce(t, kind, axes),
                         atol=1e-12)

    rng = SplitMix64(778)
    done = 0
    while done < cases_per_class:
        sa = H.random_shape(rng, max_axes=3, max_size=4)
        sb = H.random_shape(rng, max_axes=3, max_size=4)
        if not sa.compatible(sb):
            continue
        a = H.random_tensor(rng, sa)
        b = H.random_tensor(rng, sb, lo=0.5, hi=1.5)
        op_name = H.pick(rng, ("add", "sub", "mul", "div"))
        fn = {"add": ops.add, "sub": ops.sub, "mul": ops.mul, "div": ops.div}[op_name]
        scalar = {"add": lambda p, q: p + q, "sub": lambda p, q: p - q,
                  "mul": lambda p, q: p * q, "div": lambda p, q: p / q}[op_name]
        H.assert_matches(fn(a, b), H.loop_elementwise(scalar, a, b), atol=1e-12)
        done += 1

    rng = SplitMix64(779)
    done = 0
    while done < cases_per_class:
        sa = H.random_shape(rng, max_axes=3, max_size=4)
        sb = H.random_shape(rng, max_axes=3, max_size=4)
        if not sa.compatible(sb):
            continue
        union = sa.union(sb)
        a, b = H.random_tensor(rng, sa), H.random_tensor(rng, sb)
        axes = H.pick_subset(rng, union.names) if len(union) else []
        H.assert_matches(ops.contract(a, b, axes), H.loop_contract(a, b, axes),
                         atol=1e-12)
        done += 1

    rng = SplitMix64(780)
    for _ in range(cases_per_class):
        shape = H.random_shape(rng, max_axes=3, max_size=4, min_axes=1)
        t = H.random_tensor(rng, shape, lo=-3, hi=3)
        axes = H.pick_subset(rng, shape.names)
        H.assert_matches(ops.softmax(t, axes), H.loop_softmax(t, axes), atol=1e-12)
        H.assert_matches(ops.argmax(t, axes), H.loop_arg_extremum(t, axes, False))
        H.assert_matches(ops.argmin(t, axes), H.loop_arg_extremum(t, axes, True))

    rng = SplitMix64(781)
    for _ in range(cases_per_class):
        shape = H.random_shape(rng, max_axes=3, max_size=4, min_axes=1)
        t = H.random_tensor(rng, shape)
        which = H.pick(rng, ("rename", "merge", "split", "unroll", "index"))
        if which == "rename":
            name = H.pick(rng, shape.names)
            H.assert_matches(ops.rename(t, name, "fresh"),
                             H.loop_rename(t, name, "fresh"))
        elif which == "merge":
            parts = H.pick_subset(rng, shape.names)
            total = math.prod(shape.size(p) for p in parts)
            H.assert_matches(ops.merge_axes(t, parts, Axis("flat", total)),
                             H.loop_merge(t, parts, Axis("flat", total)))
        elif which == "split":
            name = H.pick(rng, shape.names)
            n = shape.size(name)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            inner = H.pick(rng, divisors)
            outer = Axis("outer", n // inner)
            H.assert_matches(
                ops.split_axis(t, name, outer, Axis("inner", inner)),
                H.loop_split(t, name, outer, Axis("inner", inner)))
        elif which == "unroll":
            name = H.pick(rng, shape.names)
            k = Axis("win", rng.next_int(1, shape.size(name)))
            H.assert_matches(ops.unroll(t, name, k), H.loop_unroll(t, name, k))
        else:
            name = H.pick(rng, shape.names)
            n = shape.size(name)
            idx_shape = H.random_shape(rng, max_axes=2, max_size=3,
                                       pool=("fresh1", "fresh2"))
            idx = NamedTensor(idx_shape, np.asarray(
                [float(rng.next_int(1, n)) for _ in range(idx_shape.num_records)]
            ).reshape(idx_shape.sizes))
            H.assert_matches(ops.index_select(t, name, idx),
                             H.loop_index_select(t, name, idx))
    _report(2, "lifting oracle equivalence", started, 30.0)


# ---------------------------------------------------------------------------

_DIFFERENTIABLE_OPS = [
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
    ("softmax_joint", lambda v: ad.softmax(v, ["ax", "extra"])),
    ("standardize", lambda v: ad.standardize(v, ["ax"])),
    ("rename", lambda v: ad.rename(v, "ax", "renamed")),
    ("merge", lambda v: ad.merge(v, ["ax", "extra"], "flat")),
    ("split", lambda v: ad.split(v, "ax", "outer", "inner", 2)),
    ("unroll", lambda v: ad.unroll(v, "ax", "win", 2)),
    ("partial_index", lambda v: ad.partial_index(v, {"ax": 2})),
    ("maxk", lambda v: ad.maxk(v, "ax", "k", 2)),
]


def test_criterion_3_gradient_checks():
    started = time.perf_counter()

    # every differentiable operation against central differences
    for i, (name, build) in enumerate(_DIFFERENTIABLE_OPS):
        x = H.random_tensor(SplitMix64(9000 + i), Shape.of(ax=4, extra=2),
                            lo=0.4, hi=1.8)
        H.check_jacobian(build(ad.var("X")), "X", {"X": x}, rtol=1e-6)
    rng = SplitMix64(9100)
    a = H.random_tensor(rng, Shape.of(ax=3, u=2), lo=0.5, hi=1.5)
    b = H.random_tensor(rng, Shape.of(ax=3, v=2), lo=0.5, hi=1.5)
    for build in (
        lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
        lambda p, q: p / q, lambda p, q: ad.pow_(p, q),
        lambda p, q: ad.contract(p, q, ["ax"]),
    ):
        expr = build(ad.var("A"), ad.var("B"))
        H.check_jacobian(expr, "A", {"A": a, "B": b}, rtol=1e-6)
        H.check_jacobian(expr, "B", {"A": a, "B": b}, rtol=1e-6)
    table = H.random_tensor(rng, Shape.of(vocab=4, emb=2))
    idx = NamedTensor.from_nested([2.0, 4.0, 2.0], ["seq"])
    H.check_jacobian(
        ad.index_select(ad.var("X"), "vocab", ad.const(idx)), "X", {"X": table},
        rtol=1e-6,
    )

    # 20 random 3-6 op compositions
    for seed in range(20):
        rng = SplitMix64(10_000 + 31 * seed)
        expr, env = H.random_composition(rng)
        H.check_jacobian(expr, "X", env, rtol=1e-6)

    # softmax jacobian closed form at 1e-10
    x = H.random_tensor(SplitMix64(9200), Shape.of(ax=5))
    deriv = ad.jacobian(ad.softmax(ad.var("X"), ["ax"]), "X", {"X": x})
    y = ops.softmax(x, ["ax"])
    closed = ops.mul(
        ops.rename(y, "ax", "ax'"),
        ops.sub(ops.identity(Axis("ax'", 5), Axis("ax", 5)), y),
    )
    assert deriv.value.allclose(closed, atol=1e-10)

    # backprop closed form for a scalar head over softmax
    w = H.random_tensor(SplitMix64(9201), Shape.of(ax=5))
    loss = ad.contract(ad.softmax(ad.var("X"), ["ax"]), ad.const(w), ["ax"])
    grad = ad.vjp(loss, "X", {"X": x}, 1.0)
    assert grad.allclose(
        ops.mul(y, ops.sub(w, ops.contract(w, y, ["ax"]))), atol=1e-12
    )

    # broadcast-derivative identity: diagonal blocks match, off-blocks exactly 0
    for build, base, ext in (
        (lambda v: ad.softmax(v, ["ax"]), Shape.of(ax=3), Shape.of(batch=2)),
        (lambda v: ad.sum_(v, ["ax"]), Shape.of(ax=3), Shape.of(batch=2)),
        (lambda v: ad.standardize(v, ["ax"]), Shape.of(ax=3), Shape.of(chans=2)),
    ):
        report = ad.lifted_derivative_check(build, base, ext, seed=5, tolerance=1e-8)
        assert report.passed and report.max_off_block_abs == 0.0, str(report)
    _report(3, "gradient checks", started, 60.0)


# ---------------------------------------------------------------------------

def test_criterion_4_vectorization():
    started = time.perf_counter()

    # attention with batch and heads
    rng = SplitMix64(20_000)
    ext = Shape.of(batch=2, heads=2)
    q = H.random_tensor(rng, Shape.of(**{"seq'": 3, "key": 2}).union(ext))
    k = H.random_tensor(rng, Shape.of(seq=3, key=2).union(ext))
    v = H.random_tensor(rng, Shape.of(seq=3, val=2).union(ext))
    full = zoo.attention(q, k, v)
    for rec in ext.records():
        single = zoo.attention(
            q.partial_index(rec), k.partial_index(rec), v.partial_index(rec))
        assert full.partial_index(rec).allclose(single, atol=1e-12)

    # transformer at the pinned sizes, batch of 3
    onehots, _, _, params, sizes = fixtures.build_transformer(
        21, seq=4, vocab=7, layer=8, heads=2, depth=2)
    rng = SplitMix64(20_100)
    rows = [fixtures._onehot_rows(rng, sizes["seq"], sizes["vocab"]) for _ in range(3)]
    batched = NamedTensor.from_nested(rows, ["batch", "seq", "vocab"])
    full = zoo.transformer_lm(batched, params)
    for bidx in (1, 2, 3):
        single = zoo.transformer_lm(
            NamedTensor.from_nested(rows[bidx - 1], ["seq", "vocab"]), params)
        assert full.partial_index({"batch": bidx}).allclose(single, atol=1e-12)

    # beam search with a batch axis
    cases = [fixtures.build_beam(22), fixtures.build_beam(23)]
    transition = fixtures.make_transition(cases[0][2], cases[0][3])
    scores = NamedTensor.from_nested([c[0] for c in cases], ["batch", "beam"])
    states = NamedTensor.from_nested([c[1] for c in cases], ["batch", "beam", "state"])
    fs, fstates = zoo.beam_step(scores, states, transition, 5, 2)
    for bidx in (1, 2):
        os_, ostates = zoo.beam_step(
            scores.partial_index({"batch": bidx}),
            states.partial_index({"batch": bidx}), transition, 5, 2)
        assert fs.partial_index({"batch": bidx}).allclose(os_, atol=1e-12)
        assert fstates.partial_index({"batch": bidx}).allclose(ostates, atol=1e-12)

    # all four norm layers with an extra axis
    rng = SplitMix64(20_200)
    x = H.random_tensor(rng, Shape.of(batch=2, chans=4, layer=3, extra=3))
    gamma = H.random_tensor(rng, Shape.of(chans=4))
    beta = H.random_tensor(rng, Shape.of(chans=4))
    gamma_cl = H.random_tensor(rng, Shape.of(chans=4, layer=3))
    beta_cl = H.random_tensor(rng, Shape.of(chans=4, layer=3))
    variants = (
        lambda t: zoo.batchnorm(t, gamma, beta),
        lambda t: zoo.instancenorm(t, gamma, beta),
        lambda t: zoo.layernorm(t, gamma_cl, beta_cl),
        lambda t: zoo.groupnorm(t, gamma, beta, 2),
    )
    for fn in variants:
        full = fn(x)
        for e in (1, 2, 3):
            part = fn(x.partial_index({"extra": e}))
            assert full.partial_index({"extra": e}).allclose(part, atol=1e-12)
    _report(4, "vectorization meta-property", started, 30.0)


# ---------------------------------------------------------------------------

def test_criterion_5_zoo_oracles():
    started = time.perf_counter()
    for name in zoo.fixture_names():
        for seed in range(20):
            result = zoo.run_fixture(name, seed=seed)
            assert result.passed, result.summary()

    # k-means fixed point
    centers = NamedTensor.from_nested([[0.0, 0.0], [4.0, 4.0]], ["clusters", "d"])
    points = NamedTensor.from_nested(
        [[0.0, 0.0], [4.0, 4.0]] * 3, ["batch", "d"])
    assert zoo.kmeans_step(points, centers) == centers

    # mvn grid integration within 2%
    rng = SplitMix64(30_000)
    cov = NamedTensor.from_nested(fixtures.build_spd(rng, 2), ["d1", "d2"])
    mean = NamedTensor.from_nested([0.1, -0.3], ["d"])
    n, half = 60, 6.0
    step = 2 * half / n
    centers_1d = [-half + (i + 0.5) * step for i in range(n)]
    grid = [[[cx + 0.1, cy - 0.3] for cy in centers_1d] for cx in centers_1d]
    densities = zoo.mvn_density(
        NamedTensor.from_nested(grid, ["gx", "gy", "d"]), mean, cov)
    total = ops.sum_(densities, ["gx", "gy"]).item() * step * step
    assert abs(total - 1.0) < 0.02
    _report(5, "zoo oracle suite", started, 120.0)


# ---------------------------------------------------------------------------

def test_criterion_6_language_layer(capsys):
    started = time.perf_counter()

    # parse-print-parse idempotence over the whole corpus plus a generated model
    sources = [p.read_text() for p in sorted((CORPUS / "valid").glob("*.nt"))]
    sources += [p.read_text() for p in sorted((CORPUS / "invalid").glob("*.nt"))]
    sources.append(transformer_program(depth=2))
    assert len(sources) > 25
    for source in sources:
        program = lang.parse(source)
        assert lang.parse(lang.format_program(program)) == program

    # the invalid corpus is rejected with correctly placed spans
    invalid = sorted((CORPUS / "invalid").glob("*.nt"))
    assert len(invalid) >= 15
    for path in invalid:
        text = path.read_text()
        diags = lang.check(lang.parse(text))
        assert diags, f"{path.name} not rejected"
        line, col = EXPECTED_SPANS[path.name]
        assert (diags[0].line, diags[0].col) == (line, col)
        lines = text.splitlines()
        assert 1 <= diags[0].line <= len(lines)
        assert 1 <= diags[0].col <= len(lines[diags[0].line - 1]) + 1
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[0].startswith(f"{line}:{col}: error:")

    # every valid transcription is accepted
    for path in sorted((CORPUS / "valid").glob("*.nt")):
        assert main(["check", str(path)]) == 0, path.name
        capsys.readouterr()

    # nt eval reproduces the worked-example outputs byte-identically twice
    matrix = str(CORPUS / "valid" / "matrix_basics.nt")
    assert main(["eval", matrix]) == 0
    first = capsys.readouterr().out
    assert main(["eval", matrix]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "# SumH\nshape: width=3\n6 12 18\n" in first
    assert "# SumW\nshape: height=3\n8 15 13\n" in first
    assert "# Total\nshape:\n36\n" in first
    assert "# Dot\nshape: height=3\n11 30 31\n" in first
    assert "# APlusX\nshape: height=3, width=3\n5 3 6\n8 12 16\n3 7 6\n" in first
    assert "# Flat\nshape: layer=9\n3 1 4 1 5 9 2 6 5\n" in first
    assert "# Row1\nshape: width=3\n3 1 4\n" in first
    assert "# Col3\nshape: height=3\n4 9 5\n" in first
    _report(6, "language layer", started, 30.0)
