"""Composed reference models: an autoregressive transformer LM and LeNet.

The transformer is written once, as the ordered ``.nt`` bindings of
``transformer_bindings``: ``transformer_lm`` splices them into one graph and
evaluates it, and ``transformer_program`` prints them as a program.
"""

from __future__ import annotations

import functools
from typing import List, Mapping, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from .. import ops
from ..axes import Axis
from ..lang import AxisDecl, Binding, Directive, Program, format_program
from ..tensor import NamedTensor
from .blocks import conv2d, maxpool2d

__all__ = [
    "LENET_POOL", "positional_encoding", "causal_mask", "transformer_bindings",
    "transformer_parameters", "transformer_lm", "transformer_program", "lenet",
]


def positional_encoding(seq_len: int, layer_size: int) -> NamedTensor:
    """Sinusoidal positions over {seq, layer}, 1-based as everywhere else.

    Entry (p, i) is sin((p - 1) / 10000 ** ((i - 1) / layer)) for odd i and
    cos((p - 1) / 10000 ** ((i - 2) / layer)) for even i: odd embedding
    positions carry sines, even ones cosines, with the usual 10000-exponent
    frequency schedule.  Each column's frequency is one Python power, and
    the table is one numpy expression over it.
    """
    even = np.arange(layer_size) % 2 == 1  # 0-based column c is position c + 1
    freq = np.array([10000 ** ((c - c % 2) / layer_size) for c in range(layer_size)])
    angle = np.arange(seq_len)[:, None] / freq
    enc = np.where(even, np.cos(angle), np.sin(angle))
    return NamedTensor.from_array(enc, ["seq", "layer"])


def causal_mask(seq_len: int) -> NamedTensor:
    """Additive mask over {seq, seq'}: 0 where seq index <= seq' index, else -inf."""
    m = np.where(
        np.arange(1, seq_len + 1)[:, None] <= np.arange(1, seq_len + 1)[None, :],
        0.0,
        -np.inf,
    )
    return NamedTensor.from_array(m, ["seq", "seq'"])


# Each layer's parameters in draw order: binding name before the layer
# number, and axes.
_LAYER_PARAMS = (
    ("WQ", ("heads", "layer", "key")),
    ("WK", ("heads", "layer", "key")),
    ("WV", ("heads", "layer", "val")),
    ("WO", ("heads", "val", "layer")),
    ("Gatt", ("layer",)),
    ("Batt", ("layer",)),
    ("Gffn", ("layer",)),
    ("Bffn", ("layer",)),
    ("W1_", ("hidden", "layer")),
    ("B1_", ("hidden",)),
    ("W2_", ("layer", "hidden")),
    ("B2_", ("layer",)),
)


def transformer_bindings(depth: int) -> List[Tuple[str, Optional[ad.Expr]]]:
    """The transformer LM of the given depth as ``.nt`` bindings, in order.

    The inputs are bound to None: ``I``, one-hot tokens over {seq, vocab};
    ``P``, the ``positional_encoding``; ``M``, the ``causal_mask``.  Each
    parameter is bound to ``random over (axes)``.  ``O`` holds next-token
    distributions over {seq, vocab}.
    """
    v = ad.var
    embedded = ad.contract(v("E"), v("I"), ["vocab"]) * ad.sqrt(ad.size_of("layer"))
    out = [
        ("I", None),
        ("E", ad.random_literal(("vocab", "layer"))),
        ("P", None),
        ("M", None),
        ("X0", embedded + v("P")),
    ]
    for n in range(1, depth + 1):
        def at(stem: str) -> ad.Expr:
            return v(f"{stem}{n}")

        prev = v(f"X{n - 1}")
        scores = ad.contract(at("Q"), at("K"), ["key"]) / ad.sqrt(ad.size_of("key"))
        out += [(f"{stem}{n}", ad.random_literal(axes)) for stem, axes in _LAYER_PARAMS]
        out += [
            (f"Q{n}", ad.contract(at("WQ"), ad.rename(prev, "seq", "seq'"), ["layer"])),
            (f"K{n}", ad.contract(at("WK"), prev, ["layer"])),
            (f"V{n}", ad.contract(at("WV"), prev, ["layer"])),
            (f"A{n}", ad.contract(ad.softmax(scores + v("M"), ["seq"]), at("V"), ["seq"])),
            (f"Y{n}", ad.contract(at("WO"), ad.rename(at("A"), "seq'", "seq"), ["heads", "val"])),
            (f"T{n}", ad.standardize(at("Y"), ["layer"]) * at("Gatt") + at("Batt") + prev),
            (f"H{n}", ad.relu(ad.contract(at("W1_"), at("T"), ["layer"]) + at("B1_"))),
            (f"F{n}", ad.relu(ad.contract(at("W2_"), at("H"), ["hidden"]) + at("B2_"))),
            (f"X{n}", ad.standardize(at("F"), ["layer"]) * at("Gffn") + at("Bffn") + at("T")),
        ]
    out.append(("O", ad.softmax(ad.contract(v("E"), v(f"X{depth}"), ["layer"]), ["vocab"])))
    return out


def transformer_parameters(depth: int) -> List[Tuple[str, Tuple[str, ...]]]:
    """(name, axes) of each parameter of ``transformer_bindings(depth)``,
    in draw order."""
    return [
        (name, expr.axis_names) for name, expr in transformer_bindings(depth)
        if isinstance(expr, ad.RandomLiteral)
    ]


def transformer_lm(onehots, params: Mapping[str, NamedTensor]) -> NamedTensor:
    """Autoregressive transformer language model: ``transformer_bindings``
    spliced into one graph and evaluated, each value held only until its
    last reader.

    ``onehots`` is a one-hot tensor over {seq, vocab} (extra axes such as
    batch broadcast through every stage).  ``params`` maps each name of
    ``transformer_parameters(depth)`` to its tensor; the depth is read off
    their number and the axis sizes off their shapes.  Returns next-token
    distributions over {seq, vocab} that sum to one over vocab at each
    position.
    """
    depth = (len(params) - 1) // len(_LAYER_PARAMS)
    names, graph = _transformer_graph(depth)
    if set(params) != names:
        raise ValueError(
            f"transformer parameters must be named {sorted(names)}, got {sorted(params)}"
        )
    sizes = {axis.name: axis.size for t in params.values() for axis in t.shape}
    seq_len = onehots.shape.size("seq")
    env = dict(
        params, I=onehots,
        P=positional_encoding(seq_len, sizes["layer"]), M=causal_mask(seq_len),
    )
    return ad.evaluate(graph, env, axis_sizes=sizes)


@functools.lru_cache(maxsize=8)
def _transformer_graph(depth: int) -> Tuple[frozenset, ad.Expr]:
    """The parameter names of ``transformer_bindings(depth)`` and its
    spliced graph of ``O``, built once per depth; graphs are immutable, so
    every call may share them."""
    bindings = transformer_bindings(depth)
    names = frozenset(name for name, expr in bindings if isinstance(expr, ad.RandomLiteral))
    return names, ad.splice(bindings)["O"]


def transformer_program(depth: int = 2, seq: int = 4, vocab: int = 7,
                        layer: int = 8, heads: int = 2, hidden: int = 16) -> str:
    """``transformer_bindings(depth)`` printed as a ``.nt`` program.

    The language has no loops, so the layer stack is unrolled into one
    binding per intermediate.  Parameters are ``random over (...)`` literals
    drawn from the evaluator's seeded stream; the inputs are printed as
    literals, and position p + 1 holds token (p mod vocab) + 1.
    """
    key = layer // heads
    axes = {"seq": seq, "seq'": seq, "vocab": vocab, "layer": layer,
            "heads": heads, "key": key, "val": key, "hidden": hidden}
    onehots = [
        [1.0 if v == (p % vocab) + 1 else 0.0 for v in range(1, vocab + 1)]
        for p in range(seq)
    ]
    inputs = {
        "I": ad.literal(onehots, ("seq", "vocab")),
        "P": ad.const(positional_encoding(seq, layer)),
        "M": ad.const(causal_mask(seq)),
    }
    statements = [AxisDecl(name, size) for name, size in axes.items()]
    statements += [
        Binding(name, inputs[name] if expr is None else expr)
        for name, expr in transformer_bindings(depth)
    ]
    statements.append(Directive("print", "O"))
    return format_program(Program(tuple(statements)))


LENET_POOL = 2  # each LeNet max-pool takes LENET_POOL x LENET_POOL blocks


def _conv_layer(x, weights, bias) -> NamedTensor:
    return ops.rename(conv2d(x, weights, bias), "chans'", "chans")


def lenet(x0, params: Mapping[str, NamedTensor]) -> NamedTensor:
    """Convolutional classifier over {batch, chans, height, width} inputs.

    ``params`` maps ``conv1_w`` {chans', chans, kh, kw}, ``conv1_b``
    {chans'}, ``conv2_w``, ``conv2_b`` (the same axes), ``dense_w``
    {hidden, layer}, ``dense_b`` {hidden}, ``out_w`` {classes, hidden} and
    ``out_b`` {classes} to tensors.  The pooled feature map is flattened by
    merging (height, width, chans) into a single layer axis before the
    dense layers.
    """
    k = LENET_POOL
    t1 = ops.relu(_conv_layer(x0, params["conv1_w"], params["conv1_b"]))
    x1 = maxpool2d(t1, k, k)
    t2 = ops.relu(_conv_layer(x1, params["conv2_w"], params["conv2_b"]))
    pooled = maxpool2d(t2, k, k)
    layer_size = params["dense_w"].shape.size("layer")
    flat = ops.merge_axes(
        pooled, ["height", "width", "chans"], Axis("layer", layer_size)
    )
    dense = ops.contract(params["dense_w"], flat, ["layer"])
    hidden = ops.relu(ops.add(dense, params["dense_b"]))
    logits = ops.add(ops.contract(params["out_w"], hidden, ["hidden"]), params["out_b"])
    return ops.softmax(logits, ["classes"])
