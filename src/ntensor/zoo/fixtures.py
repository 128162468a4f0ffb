"""Seeded fixtures pairing each model with its loop oracle.

Every fixture builds identical inputs for both routes from one splitmix64
stream (nested lists in odometer order), runs the named-tensor
implementation and the plain-loop oracle, and reports the largest absolute
deviation.  Tolerances are fixed per fixture; toy sizes are configuration,
not constants, so tests can sweep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .. import autodiff as ad
from ..axes import Axis, Shape
from ..lift import TensorFunction
from ..rng import SplitMix64
from ..tensor import NamedTensor
from . import blocks, extras, models, oracles


def _dev(tensor: NamedTensor, expected, order) -> float:
    return float(np.max(np.abs(tensor.to_array(order) - np.asarray(expected, dtype=float))))


def _scalar_dev(value, expected) -> float:
    return abs(float(value) - float(expected))


def _onehot_rows(rng: SplitMix64, rows: int, width: int):
    out = []
    for _ in range(rows):
        token = rng.next_int(1, width)
        out.append([1.0 if v == token else 0.0 for v in range(1, width + 1)])
    return out


# ---------------------------------------------------------------------------
# building blocks

def _feedforward(seed: int) -> float:
    rng = SplitMix64(seed)
    sizes = [4, 3, 3, 2]
    x = rng.nested([sizes[0]])
    layers = [
        (rng.nested([sizes[i + 1], sizes[i]]), rng.nested([sizes[i + 1]]))
        for i in range(3)
    ]
    impl = blocks.feedforward(
        NamedTensor.from_nested(x, ["layer"]),
        [
            (
                NamedTensor.from_nested(w, ["layer'", "layer"]),
                NamedTensor.from_nested(b, ["layer'"]),
            )
            for w, b in layers
        ],
    )
    return _dev(impl, oracles.feedforward(x, layers), ["layer"])


def _rnn(seed: int) -> float:
    rng = SplitMix64(seed)
    n, ninp, nhid = 3, 2, 2
    xs = [rng.nested([ninp]) for _ in range(n)]
    w_h = rng.nested([nhid, nhid])
    w_i = rng.nested([ninp, nhid])
    b = rng.nested([nhid])
    h0 = rng.nested([nhid])
    states = blocks.rnn_elman(
        [NamedTensor.from_nested(x, ["inp"]) for x in xs],
        NamedTensor.from_nested(w_h, ["hidden", "hidden'"]),
        NamedTensor.from_nested(w_i, ["inp", "hidden'"]),
        NamedTensor.from_nested(b, ["hidden'"]),
        NamedTensor.from_nested(h0, ["hidden"]),
    )
    want = oracles.rnn_elman(xs, w_h, w_i, b, h0)
    return max(_dev(s, w, ["hidden"]) for s, w in zip(states, want))


def _attention(seed: int) -> float:
    rng = SplitMix64(seed)
    nseq, nkey, nval, nout, nheads = 3, 2, 2, 3, 2
    q = rng.nested([nheads, nout, nkey])
    k = rng.nested([nheads, nseq, nkey])
    v = rng.nested([nheads, nseq, nval])
    mask = [[0.0 if s <= sp else -math.inf for sp in range(nout)] for s in range(nseq)]
    impl = blocks.attention(
        NamedTensor.from_nested(q, ["heads", "seq'", "key"]),
        NamedTensor.from_nested(k, ["heads", "seq", "key"]),
        NamedTensor.from_nested(v, ["heads", "seq", "val"]),
        NamedTensor.from_nested(mask, ["seq", "seq'"]),
    )
    want = [
        [
            oracles.attention(q[h][sp], k[h], v[h], [mask[s][sp] for s in range(nseq)])
            for sp in range(nout)
        ]
        for h in range(nheads)
    ]
    return _dev(impl, want, ["heads", "seq'", "val"])


def _conv1d(seed: int) -> float:
    rng = SplitMix64(seed)
    cin, n, cout, k = 2, 5, 2, 2
    x = rng.nested([cin, n])
    w = rng.nested([cout, cin, k])
    b = rng.nested([cout])
    impl = blocks.conv1d(
        NamedTensor.from_nested(x, ["chans", "seq"]),
        NamedTensor.from_nested(w, ["chans'", "chans", "kernel"]),
        NamedTensor.from_nested(b, ["chans'"]),
    )
    return _dev(impl, oracles.conv1d(x, w, b), ["chans'", "seq"])


def _conv2d(seed: int) -> float:
    rng = SplitMix64(seed)
    x = rng.nested([1, 5, 5])
    w = rng.nested([2, 1, 3, 3])
    b = rng.nested([2])
    impl = blocks.conv2d(
        NamedTensor.from_nested(x, ["chans", "height", "width"]),
        NamedTensor.from_nested(w, ["chans'", "chans", "kh", "kw"]),
        NamedTensor.from_nested(b, ["chans'"]),
    )
    return _dev(impl, oracles.conv2d(x, w, b), ["chans'", "height", "width"])


def _maxpool1d(seed: int) -> float:
    rng = SplitMix64(seed)
    x = rng.nested([2, 6])
    impl = blocks.maxpool1d(NamedTensor.from_nested(x, ["chans", "seq"]), 2)
    return _dev(impl, oracles.maxpool1d(x, 2), ["chans", "seq"])


def _maxpool2d(seed: int) -> float:
    rng = SplitMix64(seed)
    x = rng.nested([1, 4, 4])
    impl = blocks.maxpool2d(
        NamedTensor.from_nested(x, ["chans", "height", "width"]), 2, 2
    )
    return _dev(impl, oracles.maxpool2d(x, 2, 2), ["chans", "height", "width"])


def _norm_inputs(rng: SplitMix64, per_layer: bool = False):
    nb, nc, nl = 2, 4, 3
    x = rng.nested([nb, nc, nl])
    gamma = rng.nested([nc, nl] if per_layer else [nc])
    beta = rng.nested([nc, nl] if per_layer else [nc])
    names = ["chans", "layer"] if per_layer else ["chans"]
    return (
        x, gamma, beta,
        NamedTensor.from_nested(x, ["batch", "chans", "layer"]),
        NamedTensor.from_nested(gamma, names),
        NamedTensor.from_nested(beta, names),
    )


def _batchnorm(seed: int) -> float:
    x, g, b, xt, gt, bt = _norm_inputs(SplitMix64(seed))
    return _dev(blocks.batchnorm(xt, gt, bt), oracles.batchnorm(x, g, b),
                ["batch", "chans", "layer"])


def _instancenorm(seed: int) -> float:
    x, g, b, xt, gt, bt = _norm_inputs(SplitMix64(seed))
    return _dev(blocks.instancenorm(xt, gt, bt), oracles.instancenorm(x, g, b),
                ["batch", "chans", "layer"])


def _layernorm(seed: int) -> float:
    x, g, b, xt, gt, bt = _norm_inputs(SplitMix64(seed), per_layer=True)
    return _dev(blocks.layernorm(xt, gt, bt), oracles.layernorm(x, g, b),
                ["batch", "chans", "layer"])


def _groupnorm(seed: int) -> float:
    x, g, b, xt, gt, bt = _norm_inputs(SplitMix64(seed))
    return _dev(blocks.groupnorm(xt, gt, bt, 2), oracles.groupnorm(x, g, b, 2),
                ["batch", "chans", "layer"])


# ---------------------------------------------------------------------------
# full models

TRANSFORMER_SIZES = dict(seq=4, vocab=7, layer=8, heads=2, hidden=16, depth=2)


# The loop oracle's key for each per-layer parameter name.
_ORACLE_KEYS = dict(
    WQ="wq", WK="wk", WV="wv", WO="wo", Gatt="ln1_gamma", Batt="ln1_beta",
    Gffn="ln2_gamma", Bffn="ln2_beta", W1_="w1", B1_="b1", W2_="w2", B2_="b2",
)


def build_transformer(seed: int, **overrides):
    """Plain-list transformer inputs/parameters plus their tensor forms.

    Returns (onehots, embed, plain_layers, params, sizes): ``params`` maps
    each ``models.transformer_parameters`` name to its tensor, and
    ``embed``/``plain_layers`` are the same values as the loop oracle
    takes them.
    """
    sizes = dict(TRANSFORMER_SIZES, **overrides)
    key = sizes["layer"] // sizes["heads"]
    dims = dict(sizes, key=key, val=key)
    rng = SplitMix64(seed)
    onehots = _onehot_rows(rng, sizes["seq"], sizes["vocab"])
    plain, params = {}, {}
    for name, axes in models.transformer_parameters(sizes["depth"]):
        plain[name] = rng.nested([dims[a] for a in axes])
        params[name] = NamedTensor.from_nested(plain[name], axes)
    plain_layers = [
        {oracle: plain[f"{stem}{n}"] for stem, oracle in _ORACLE_KEYS.items()}
        for n in range(1, sizes["depth"] + 1)
    ]
    return onehots, plain["E"], plain_layers, params, sizes


def _transformer(seed: int) -> float:
    onehots, embed, plain_layers, params, sizes = build_transformer(seed)
    impl = models.transformer_lm(
        NamedTensor.from_nested(onehots, ["seq", "vocab"]), params
    )
    want = oracles.transformer_lm(onehots, embed, plain_layers, sizes["hidden"])
    return _dev(impl, want, ["seq", "vocab"])


LENET_SIZES = dict(batch=2, chans=1, image=14, c1=2, c2=3, kernel=3, hidden=8, classes=4)


def build_lenet(seed: int, **overrides):
    sizes = dict(LENET_SIZES, **overrides)
    rng = SplitMix64(seed)
    img, k, pool = sizes["image"], sizes["kernel"], models.LENET_POOL
    side = ((img - k + 1) // pool - k + 1) // pool
    layer = side * side * sizes["c2"]
    x0 = rng.nested([sizes["batch"], sizes["chans"], img, img])
    plain = dict(
        conv1_w=rng.nested([sizes["c1"], sizes["chans"], k, k]),
        conv1_b=rng.nested([sizes["c1"]]),
        conv2_w=rng.nested([sizes["c2"], sizes["c1"], k, k]),
        conv2_b=rng.nested([sizes["c2"]]),
        dense_w=rng.nested([sizes["hidden"], layer]),
        dense_b=rng.nested([sizes["hidden"]]),
        out_w=rng.nested([sizes["classes"], sizes["hidden"]]),
        out_b=rng.nested([sizes["classes"]]),
    )
    params = {name: NamedTensor.from_nested(plain[name], axes)
              for name, axes in models._LENET_PARAMS.items()}
    plain["pool"] = pool
    return x0, plain, params


def _lenet(seed: int) -> float:
    x0, plain, params = build_lenet(seed)
    impl = models.lenet(
        NamedTensor.from_nested(x0, ["batch", "chans", "height", "width"]), params
    )
    return _dev(impl, oracles.lenet(x0, plain), ["batch", "classes"])


# ---------------------------------------------------------------------------
# other examples

def _bayes(seed: int) -> float:
    rng = SplitMix64(seed)
    na, nb = 3, 2
    cond = []
    for _ in range(na):
        row = [rng.next_float() + 0.05 for _ in range(nb)]
        z = sum(row)
        cond.append([v / z for v in row])
    prior = [rng.next_float() + 0.05 for _ in range(na)]
    z = sum(prior)
    prior = [v / z for v in prior]
    joint, marginal, posterior = extras.prob_ops(
        NamedTensor.from_nested(cond, ["cause", "effect"]),
        NamedTensor.from_nested(prior, ["cause"]),
    )
    want_j, want_m, want_p = oracles.prob_ops(cond, prior)
    return max(
        _dev(joint, want_j, ["cause", "effect"]),
        _dev(marginal, want_m, ["effect"]),
        _dev(posterior, want_p, ["cause", "effect"]),
    )


def _cbow(seed: int) -> float:
    rng = SplitMix64(seed)
    nseq, nvocab, nemb, nclasses = 2, 3, 2, 2
    onehots = _onehot_rows(rng, nseq, nvocab)
    embed = rng.nested([nvocab, nemb])
    proj = rng.nested([nclasses, nemb])
    impl = extras.cbow(
        NamedTensor.from_nested(onehots, ["seq", "vocab"]),
        NamedTensor.from_nested(embed, ["vocab", "emb"]),
        NamedTensor.from_nested(proj, ["classes", "emb"]),
    )
    return _dev(impl, oracles.cbow(onehots, embed, proj), ["classes"])


def valid_sudoku(seed: int):
    """A solved grid (shifted-rows construction) under a seeded digit relabel."""
    rng = SplitMix64(seed)
    digits = list(range(1, 10))
    for i in range(8, 0, -1):
        j = rng.next_int(0, i)
        digits[i], digits[j] = digits[j], digits[i]
    grid = []
    for r in range(9):
        shift = (r % 3) * 3 + r // 3
        grid.append([digits[(c + shift) % 9] for c in range(9)])
    return grid


def _to_onehot_grid(grid):
    return [
        [[1.0 if grid[h][w] == a else 0.0 for a in range(1, 10)] for w in range(9)]
        for h in range(9)
    ]


def _sudoku(seed: int) -> float:
    grid = valid_sudoku(seed)
    broken = [row[:] for row in grid]
    broken[0][0], broken[0][1] = broken[0][1], broken[0][0]
    zeros = [[[0.0] * 9 for _ in range(9)] for _ in range(9)]
    worst = 0.0
    for cells in (_to_onehot_grid(grid), _to_onehot_grid(broken), zeros):
        impl = extras.sudoku_check(
            NamedTensor.from_nested(cells, ["height", "width", "assign"])
        )
        worst = max(worst, _scalar_dev(impl, oracles.sudoku_check(cells)))
    return worst


def _kmeans(seed: int) -> float:
    rng = SplitMix64(seed)
    nb, nk, nd = 6, 2, 2
    points = rng.nested([nb, nd])
    centers = rng.nested([nk, nd])
    impl = extras.kmeans_step(
        NamedTensor.from_nested(points, ["batch", "d"]),
        NamedTensor.from_nested(centers, ["clusters", "d"]),
    )
    return _dev(impl, oracles.kmeans_step(points, centers), ["clusters", "d"])


def make_transition(trans, offset) -> TensorFunction:
    """Affine state-transition scorer as a base {state} -> {state} function.

    Its body is an expression, so :func:`~ntensor.lift.extend` evaluates it
    once over all extension axes.
    """
    trans_t = NamedTensor.from_nested(trans, ["state", "state2"])
    offset_t = NamedTensor.from_nested(offset, ["state"])
    shape = Shape([Axis("state", len(trans))])
    scored = ad.rename(ad.contract(trans_t, ad.var("s"), ["state"]), "state2", "state")
    return TensorFunction((shape,), shape, ad.add(scored, offset_t),
                          name="transition", params=("s",))


def build_beam(seed: int, nstate: int = 5, nbeam: int = 2):
    rng = SplitMix64(seed)
    scores = [rng.next_float() + 0.5 for _ in range(nbeam)]
    states = _onehot_rows(rng, nbeam, nstate)
    trans = rng.nested([nstate, nstate])
    offset = rng.nested([nstate])
    return scores, states, trans, offset


def _beam(seed: int) -> float:
    nstate, nbeam = 5, 2
    scores, states, trans, offset = build_beam(seed, nstate, nbeam)
    new_scores, new_states = extras.beam_step(
        NamedTensor.from_nested(scores, ["beam"]),
        NamedTensor.from_nested(states, ["beam", "state"]),
        make_transition(trans, offset),
        nstate,
        nbeam,
    )
    want_scores, want_states = oracles.beam_step(scores, states, trans, offset, nbeam)
    return max(
        _dev(new_scores, want_scores, ["beam"]),
        _dev(new_states, want_states, ["state", "beam"]),
    )


def build_spd(rng: SplitMix64, n: int):
    a = rng.nested([n, n])
    cov = [
        [
            sum(a[i][k] * a[j][k] for k in range(n)) + (0.5 if i == j else 0.0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return cov


def _mvn(seed: int) -> float:
    rng = SplitMix64(seed)
    n = 2
    cov = build_spd(rng, n)
    mean = rng.nested([n])
    x = rng.nested([n])
    impl = extras.mvn_density(
        NamedTensor.from_nested(x, ["d"]),
        NamedTensor.from_nested(mean, ["d"]),
        NamedTensor.from_nested(cov, ["d1", "d2"]),
    )
    return _scalar_dev(impl.item(), oracles.mvn_density(x, mean, cov))


# ---------------------------------------------------------------------------
# registry

@dataclass
class FixtureResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: max deviation {self.max_deviation:.3e} "
            f"(tolerance {self.tolerance:g}) {status}"
        )


FIXTURES: Dict[str, Tuple[Callable[[int], float], float]] = {
    "feedforward": (_feedforward, 1e-12),
    "rnn": (_rnn, 1e-12),
    "attention": (_attention, 1e-12),
    "conv1d": (_conv1d, 1e-12),
    "conv2d": (_conv2d, 1e-12),
    "maxpool1d": (_maxpool1d, 1e-12),
    "maxpool2d": (_maxpool2d, 1e-12),
    "batchnorm": (_batchnorm, 1e-12),
    "instancenorm": (_instancenorm, 1e-12),
    "layernorm": (_layernorm, 1e-12),
    "groupnorm": (_groupnorm, 1e-12),
    "transformer": (_transformer, 1e-12),
    "lenet": (_lenet, 1e-10),
    "bayes": (_bayes, 1e-12),
    "cbow": (_cbow, 1e-12),
    "sudoku": (_sudoku, 1e-12),
    "kmeans": (_kmeans, 1e-12),
    "beam": (_beam, 1e-12),
    "mvn": (_mvn, 1e-12),
}


def fixture_names() -> list:
    return sorted(FIXTURES)


def run_fixture(name: str, seed: int = 0) -> FixtureResult:
    if name not in FIXTURES:
        from ..errors import NamedTensorError

        raise NamedTensorError(
            f"no fixture named {name!r}; see 'nt zoo list'"
        )
    fn, tolerance = FIXTURES[name]
    return FixtureResult(name, fn(seed), tolerance)
