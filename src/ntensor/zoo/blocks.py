"""Neural-network building blocks, each written once as an ``autodiff`` graph.

Axis names are fixed per block (``layer``, ``seq``, ``key``, ...); inputs
may always carry extra axes (batch, heads, ...) and every block broadcasts
over them without code changes.

A block builds its graph from its operands: an ``ad.Expr`` operand is used
as it is, and a tensor or number becomes a constant.  One rule,
``_value_or_graph``, decides what it returns.  A graph that reads a
variable is returned as it is, to be spliced or evaluated by the caller
(``transformer_bindings`` and ``lenet`` build their models this way).  Any
other graph is evaluated at once, with the axis sizes its constants carry,
so a call on tensors returns a tensor, and raises the same errors as the
``ops`` it runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import autodiff as ad

__all__ = [
    "fullconn", "feedforward", "rnn_elman", "attention",
    "conv1d", "conv2d", "maxpool1d", "maxpool2d",
    "batchnorm", "instancenorm", "layernorm", "groupnorm",
]


def _value_or_graph(graph):
    """``graph`` (one ``Expr`` or a list of them) if it reads a variable,
    else its value: a tensor, or a list of tensors."""
    roots = graph if isinstance(graph, list) else [graph]
    order = ad._topo(*roots)
    if any(isinstance(node, ad.Var) for node in order):
        return graph
    sizes = {
        axis.name: axis.size
        for node in order if isinstance(node, ad.Const) for axis in node.value.shape
    }
    values = list(ad.evaluate(dict(enumerate(roots)), axis_sizes=sizes).values())
    return values if isinstance(graph, list) else values[0]


def fullconn(x, weights, bias, axis: str = "layer"):
    """One dense layer in the shared-axis convention.

    ``weights`` maps ``axis`` to its primed copy; the output is renamed
    back so successive layers can reuse the same axis name.
    """
    out = ad.sigmoid(ad.add(ad.contract(weights, x, [axis]), bias))
    return _value_or_graph(ad.rename(out, axis + "'", axis))


def feedforward(x, layers: Sequence):
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
    h = h0 if isinstance(h0, ad.Expr) else ad.const(h0)
    states = [h]
    for x in inputs:
        pre = ad.add(
            ad.add(
                ad.contract(w_hidden, h, ["hidden"]),
                ad.contract(w_input, x, ["inp"]),
            ),
            bias,
        )
        h = ad.rename(ad.sigmoid(pre), "hidden'", "hidden")
        states.append(h)
    return _value_or_graph(states)


def attention(query, keys, values, mask=None):
    """Scaled dot-product attention over fixed axes key/seq/val.

    Extra axes on any argument (seq' on the query, heads, batch) broadcast;
    an additive mask of -inf entries blocks positions.
    """
    scores = ad.contract(query, keys, ["key"]) / ad.sqrt(ad.size_of("key"))
    if mask is not None:
        scores = scores + mask
    return _value_or_graph(ad.contract(ad.softmax(scores, ["seq"]), values, ["seq"]))


def conv1d(x, weights, bias):
    """1-d convolution: contract sliding windows of ``x`` against ``weights``.

    ``x`` is over {chans, seq}; ``weights`` over {chans, kernel} plus an
    optional output-channel axis; ``bias`` matches the output channels.
    """
    windows = ad.unroll(x, "seq", "kernel")
    return _value_or_graph(ad.add(ad.contract(weights, windows, ["chans", "kernel"]), bias))


def conv2d(x, weights, bias, kh: Optional[int] = None, kw: Optional[int] = None):
    """2-d convolution via unrolling height and width.

    The window is ``kh`` x ``kw``; a size left None is the one declared for
    the axis, which tensor weights carry.
    """
    windows = ad.unroll(ad.unroll(x, "width", "kw", kw), "height", "kh", kh)
    return _value_or_graph(ad.add(ad.contract(weights, windows, ["chans", "kh", "kw"]), bias))


def maxpool1d(x, k: int):
    """Non-overlapping max pooling along seq; |seq| must divide by k."""
    return _value_or_graph(ad.max_(ad.split(x, "seq", "seq", "kernel", k), ["kernel"]))


def maxpool2d(x, kh: int, kw: int):
    """Non-overlapping max pooling over height and width blocks."""
    pooled = ad.split(ad.split(x, "height", "height", "kh", kh), "width", "width", "kw", kw)
    return _value_or_graph(ad.max_(pooled, ["kh", "kw"]))


def _scale_shift(standardized, gamma, beta):
    return _value_or_graph(ad.add(ad.mul(standardized, gamma), beta))


def batchnorm(x, gamma, beta):
    """Standardize over {batch, layer} per channel; gamma/beta over {chans}."""
    return _scale_shift(ad.standardize(x, ["batch", "layer"]), gamma, beta)


def instancenorm(x, gamma, beta):
    """Standardize over {layer} per (batch, channel); gamma/beta over {chans}."""
    return _scale_shift(ad.standardize(x, ["layer"]), gamma, beta)


def layernorm(x, gamma, beta):
    """Standardize over {chans, layer} per batch; gamma/beta over {chans, layer}."""
    return _scale_shift(ad.standardize(x, ["chans", "layer"]), gamma, beta)


def groupnorm(x, gamma, beta, k: int):
    """Pool channels into k-sized groups, standardize each group with layer.

    gamma/beta stay over the original {chans}.
    """
    grouped = ad.split(x, "chans", "chans", "kernel", k)
    standardized = ad.standardize(grouped, ["kernel", "layer"])
    return _scale_shift(ad.merge(standardized, ["chans", "kernel"], "chans"), gamma, beta)
