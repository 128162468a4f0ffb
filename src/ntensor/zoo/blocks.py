"""Neural-network building blocks written against the named-tensor API.

Axis names are fixed per block (``layer``, ``seq``, ``key``, ...); inputs
may always carry extra axes (batch, heads, ...) and every block broadcasts
over them without code changes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import ops
from ..axes import Axis
from ..tensor import NamedTensor

__all__ = [
    "fullconn", "feedforward", "rnn_elman", "attention",
    "conv1d", "conv2d", "maxpool1d", "maxpool2d",
    "batchnorm", "instancenorm", "layernorm", "groupnorm",
]


def fullconn(x, weights, bias, axis: str = "layer") -> NamedTensor:
    """One dense layer in the shared-axis convention.

    ``weights`` maps ``axis`` to its primed copy; the output is renamed
    back so successive layers can reuse the same axis name.
    """
    primed = axis + "'"
    out = ops.sigmoid(ops.add(ops.contract(weights, x, [axis]), bias))
    return ops.rename(out, primed, axis)


def feedforward(x, layers: Sequence) -> NamedTensor:
    """A stack of sigmoid dense layers; ``layers`` is (weights, bias) pairs."""
    h = x
    for weights, bias in layers:
        h = fullconn(h, weights, bias)
    return h


def rnn_elman(inputs: Sequence, w_hidden, w_input, bias, h0) -> list:
    """Simple recurrent network; returns the state trajectory [h0, h1, ...].

    ``w_hidden`` is over {hidden, hidden'}, ``w_input`` over {inp, hidden'},
    ``bias`` over {hidden'}; each step renames hidden' back to hidden.
    """
    states = [h0]
    h = h0
    for x in inputs:
        pre = ops.add(
            ops.add(
                ops.contract(w_hidden, h, ["hidden"]),
                ops.contract(w_input, x, ["inp"]),
            ),
            bias,
        )
        h = ops.rename(ops.sigmoid(pre), "hidden'", "hidden")
        states.append(h)
    return states


def attention(query, keys, values, mask: Optional[NamedTensor] = None) -> NamedTensor:
    """Scaled dot-product attention over fixed axes key/seq/val.

    Extra axes on any argument (seq' on the query, heads, batch) broadcast;
    an additive mask of -inf entries blocks positions.
    """
    scale = keys.shape.size("key") ** 0.5
    scores = ops.div(ops.contract(query, keys, ["key"]), scale)
    if mask is not None:
        scores = ops.add(scores, mask)
    weights = ops.softmax(scores, ["seq"])
    return ops.contract(weights, values, ["seq"])


def conv1d(x, weights, bias) -> NamedTensor:
    """1-d convolution: contract sliding windows of ``x`` against ``weights``.

    ``x`` is over {chans, seq}; ``weights`` over {chans, kernel} plus an
    optional output-channel axis; ``bias`` matches the output channels.
    """
    kernel = Axis("kernel", weights.shape.size("kernel"))
    windows = ops.unroll(x, "seq", kernel)
    return ops.add(ops.contract(weights, windows, ["chans", "kernel"]), bias)


def conv2d(x, weights, bias) -> NamedTensor:
    """2-d convolution via unrolling height and width."""
    kh = Axis("kh", weights.shape.size("kh"))
    kw = Axis("kw", weights.shape.size("kw"))
    windows = ops.unroll(ops.unroll(x, "width", kw), "height", kh)
    return ops.add(ops.contract(weights, windows, ["chans", "kh", "kw"]), bias)


def maxpool1d(x, k: int) -> NamedTensor:
    """Non-overlapping max pooling along seq; |seq| must divide by k."""
    n = x.shape.size("seq")
    pooled = ops.split_axis(x, "seq", Axis("seq", n // k), Axis("kernel", k))
    return ops.reduce(pooled, "max", ["kernel"])


def maxpool2d(x, kh: int, kw: int) -> NamedTensor:
    """Non-overlapping max pooling over height and width blocks."""
    h, w = x.shape.size("height"), x.shape.size("width")
    pooled = ops.split_axis(x, "height", Axis("height", h // kh), Axis("kh", kh))
    pooled = ops.split_axis(pooled, "width", Axis("width", w // kw), Axis("kw", kw))
    return ops.reduce(pooled, "max", ["kh", "kw"])


def _scale_shift(standardized, gamma, beta) -> NamedTensor:
    return ops.add(ops.mul(standardized, gamma), beta)


def batchnorm(x, gamma, beta) -> NamedTensor:
    """Standardize over {batch, layer} per channel; gamma/beta over {chans}."""
    return _scale_shift(ops.standardize(x, ["batch", "layer"]), gamma, beta)


def instancenorm(x, gamma, beta) -> NamedTensor:
    """Standardize over {layer} per (batch, channel); gamma/beta over {chans}."""
    return _scale_shift(ops.standardize(x, ["layer"]), gamma, beta)


def layernorm(x, gamma, beta) -> NamedTensor:
    """Standardize over {chans, layer} per batch; gamma/beta over {chans, layer}."""
    return _scale_shift(ops.standardize(x, ["chans", "layer"]), gamma, beta)


def groupnorm(x, gamma, beta, k: int) -> NamedTensor:
    """Pool channels into k-sized groups, standardize each group with layer.

    gamma/beta stay over the original {chans}.
    """
    c = x.shape.size("chans")
    grouped = ops.split_axis(x, "chans", Axis("chans", c // k), Axis("kernel", k))
    standardized = ops.standardize(grouped, ["kernel", "layer"])
    merged = ops.merge_axes(standardized, ["chans", "kernel"], Axis("chans", c))
    return _scale_shift(merged, gamma, beta)
