"""Further worked examples: probability, bag-of-words, sudoku, k-means,
beam search, and the multivariate normal density."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .. import lift, ops
from ..axes import Axis
from ..errors import DivisionByZero, SizeMismatch
from ..lift import TensorFunction
from ..tensor import NamedTensor

__all__ = [
    "prob_ops", "cbow", "sudoku_check", "kmeans_step", "beam_step",
    "mvn_density",
]


def prob_ops(cond, prior) -> Tuple[NamedTensor, NamedTensor, NamedTensor]:
    """Joint, marginal, and posterior from p(B|A) and p(A).

    ``prior`` is a distribution over one axis A; ``cond`` is row-stochastic
    over the other axis B for each A value.  Returns the chain-rule joint,
    the A-marginalized p(B), and Bayes-rule p(A|B); an exactly-zero
    marginal raises :class:`DivisionByZero`.
    """
    (a_axis,) = prior.shape.names
    joint = ops.mul(cond, prior)
    marginal = ops.contract(cond, prior, [a_axis])
    if np.any(marginal.array == 0.0):
        raise DivisionByZero("some outcome has probability zero; posterior undefined")
    posterior = ops.div(joint, marginal)
    return joint, marginal, posterior


def cbow(onehots, embeddings, proj) -> NamedTensor:
    """Continuous bag of words: sum sequence embeddings, project, softmax.

    ``onehots`` over {seq, vocab}, ``embeddings`` over {vocab, emb},
    ``proj`` over {classes, emb}.
    """
    embedded = ops.contract(embeddings, onehots, ["vocab"])
    logits = ops.reduce(ops.contract(proj, embedded, ["emb"]), "sum", ["seq"])
    return ops.softmax(logits, ["classes"])


def sudoku_check(grid) -> float:
    """1.0 iff a {height[9], width[9], assign[9]} 0/1 tensor is a valid solution.

    Checks one digit per cell, per row, per column, and per 3x3 box; the box
    constraint reshapes the board into a grid of grids first.
    """
    cell = ops.reduce(grid, "sum", ["assign"])
    per_col = ops.reduce(grid, "sum", ["height"])
    per_row = ops.reduce(grid, "sum", ["width"])
    boxes = ops.split_axis(grid, "height", Axis("height'", 3), Axis("hh", 3))
    boxes = ops.rename(boxes, "hh", "height")
    boxes = ops.split_axis(boxes, "width", Axis("width'", 3), Axis("ww", 3))
    boxes = ops.rename(boxes, "ww", "width")
    per_box = ops.reduce(boxes, "sum", ["height", "width"])
    ok = all(
        bool(np.all(t.array == 1.0))
        for t in (cell, per_col, per_row, per_box)
    )
    return 1.0 if ok else 0.0


def kmeans_step(points, centers) -> NamedTensor:
    """One k-means update of the cluster centers.

    ``points`` over {batch, d}, ``centers`` over {clusters, d}.  Assignment
    mass splits evenly over tied nearest clusters; a cluster that receives
    no mass keeps its previous center.
    """
    distances = ops.reduce(ops.sub(centers, points), "norm", ["d"])
    assign = ops.argmin(distances, ["clusters"])
    weighted = ops.contract(assign, points, ["batch"])
    mass = ops.reduce(assign, "sum", ["batch"])
    new = weighted.array / np.where(mass.array == 0.0, 1.0, mass.array)[:, None]
    keep = (mass.array == 0.0)[:, None]
    merged = np.where(keep, centers.to_array(["clusters", "d"]), new)
    return NamedTensor.from_array(merged, ["clusters", "d"])


def beam_step(scores, states, transition: TensorFunction,
              state_size: int, beam_size: int) -> Tuple[NamedTensor, NamedTensor]:
    """One beam-search update.

    ``scores`` is over {beam}; ``states`` is one-hot over {beam, state};
    ``transition`` maps a {state} one-hot to {state} scores and is lifted
    over the beam (and any batch axis) by :func:`~ntensor.lift.extend`: in
    one graph evaluation when its body is an expression, as
    :func:`~ntensor.zoo.fixtures.make_transition`'s is, else one call per
    (batch, beam) record.  Returns the new (scores, states).
    """
    if beam_size > state_size:
        raise SizeMismatch(f"beam size {beam_size} exceeds {state_size} states")
    stepped = ops.mul(scores, lift.extend(transition, states))
    best = ops.reduce(stepped, "max", ["beam"])
    k = Axis("beam", beam_size)
    return ops.maxk(best, "state", k), ops.argmaxk(best, "state", k)


def mvn_density(x, mean, cov) -> NamedTensor:
    """Multivariate normal density via the named bilinear form.

    ``x`` and ``mean`` are over {d} (x may carry extra axes), ``cov`` over
    {d1, d2} symmetric positive definite with all three sizes equal.
    """
    centered = ops.sub(x, mean)
    half = ops.contract(ops.inv(cov, "d1", "d2"), ops.rename(centered, "d", "d1"), ["d1"])
    quad = ops.contract(half, ops.rename(centered, "d", "d2"), ["d2"])
    dim = mean.shape.size("d")
    numerator = ops.exp(ops.div(ops.neg(quad), 2.0))
    denominator = math.sqrt((2.0 * math.pi) ** dim) * ops.sqrt(ops.det(cov, "d1", "d2"))
    return ops.div(numerator, denominator)
