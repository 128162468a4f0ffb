"""Generate transformer programs in the expression language.

The language has no loops, so the layer stack is unrolled into one binding
per intermediate.  Parameters are ``random over (...)`` literals drawn from
the evaluator's seeded stream; the input token sequence and the positional
and mask tables are emitted as explicit literals.
"""

from __future__ import annotations

from ..autodiff import Literal
from ..lang import format_expr
from .models import causal_mask, positional_encoding

__all__ = ["transformer_program"]


def _literal(name: str, values, *axes: str) -> str:
    """The binding ``name = <values> over (axes)``, as the printer writes it."""
    return f"{name} = {format_expr(Literal(values, axes))}"


def transformer_program(depth: int = 2, seq: int = 4, vocab: int = 7,
                        layer: int = 8, heads: int = 2, hidden: int = 16) -> str:
    key = layer // heads
    lines = [
        f"axis seq = {seq}",
        f"axis seq' = {seq}",
        f"axis vocab = {vocab}",
        f"axis layer = {layer}",
        f"axis heads = {heads}",
        f"axis key = {key}",
        f"axis val = {key}",
        f"axis hidden = {hidden}",
    ]
    onehots = [
        [1.0 if v == (p % vocab) + 1 else 0.0 for v in range(1, vocab + 1)]
        for p in range(seq)
    ]
    lines.append(_literal("I", onehots, "seq", "vocab"))
    lines.append("E = random over (vocab, layer)")
    pos = positional_encoding(seq, layer).to_array(["seq", "layer"]).tolist()
    lines.append(_literal("P", pos, "seq", "layer"))
    mask = causal_mask(seq).to_array(["seq", "seq'"]).tolist()
    lines.append(_literal("M", mask, "seq", "seq'"))
    lines.append("X0 = (E .{vocab} I) * sqrt(size(layer)) + P")

    for n in range(1, depth + 1):
        prev = f"X{n - 1}"
        lines += [
            f"WQ{n} = random over (heads, layer, key)",
            f"WK{n} = random over (heads, layer, key)",
            f"WV{n} = random over (heads, layer, val)",
            f"WO{n} = random over (heads, val, layer)",
            f"Gatt{n} = random over (layer)",
            f"Batt{n} = random over (layer)",
            f"Gffn{n} = random over (layer)",
            f"Bffn{n} = random over (layer)",
            f"W1_{n} = random over (hidden, layer)",
            f"B1_{n} = random over (hidden)",
            f"W2_{n} = random over (layer, hidden)",
            f"B2_{n} = random over (layer)",
            f"Q{n} = WQ{n} .{{layer}} {prev}[seq->seq']",
            f"K{n} = WK{n} .{{layer}} {prev}",
            f"V{n} = WV{n} .{{layer}} {prev}",
            f"A{n} = softmax{{seq}}(Q{n} .{{key}} K{n} / sqrt(size(key)) + M) .{{seq}} V{n}",
            f"Y{n} = WO{n} .{{heads, val}} A{n}[seq'->seq]",
            f"T{n} = standardize{{layer}}(Y{n}) * Gatt{n} + Batt{n} + {prev}",
            f"H{n} = relu{{}}(W1_{n} .{{layer}} T{n} + B1_{n})",
            f"F{n} = relu{{}}(W2_{n} .{{hidden}} H{n} + B2_{n})",
            f"X{n} = standardize{{layer}}(F{n}) * Gffn{n} + Bffn{n} + T{n}",
        ]

    lines.append(f"O = softmax{{vocab}}(E .{{layer}} X{depth})")
    lines.append("print O")
    return "\n".join(lines) + "\n"
