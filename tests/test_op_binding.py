"""Graph walks call each node's operation through the rule and kernel it
named when ``autodiff`` was imported: replacing the public ``ops``
functions, as a tracer does, leaves every result's bits as they are, and
one walk enters ``np.errstate`` once."""

import numpy as np
import pytest

from ntensor import NamedTensor, lang, ops, zoo
from ntensor import autodiff as ad
from ntensor.zoo import fixtures


def _bits(value):
    if isinstance(value, str):
        return value
    if isinstance(value, NamedTensor):
        return value.shape, value.array.tobytes()
    if isinstance(value, ad.Derivative):
        return _bits(value.value), value.rename_map
    if isinstance(value, dict):
        return {name: _bits(v) for name, v in value.items()}
    return [_bits(v) for v in value]


def _transformer():
    """The spliced depth-2 transformer graph and an environment of the
    benchmark's ``language`` sizes."""
    onehots, _, _, params, _ = fixtures.build_transformer(
        0, depth=2, seq=16, vocab=64, layer=64, heads=4, hidden=256
    )
    env = dict(params, I=NamedTensor.from_nested(onehots, ["seq", "vocab"]),
               P=zoo.positional_encoding(16, 64), M=zoo.causal_mask(16))
    axis_sizes = {ax.name: ax.size for t in params.values() for ax in t.shape}
    return ad.splice(zoo.transformer_bindings(2))["O"], env, axis_sizes


def _runs():
    program = lang.parse(zoo.transformer_program())
    graph, env, sizes = _transformer()
    x = NamedTensor.from_nested([[0.5, -1.0, 2.0], [0.0, 3.0, -0.25]], ["a", "b"])
    body = ad.softmax(ad.var("x") * ad.var("x"), ["a"]) / (ad.exp(ad.var("x")) + 1.0)
    x0, _, lenet_params = fixtures.build_lenet(0)
    images = NamedTensor.from_nested(x0, ["batch", "chans", "height", "width"])
    onehots, _, _, lm_params, _ = fixtures.build_transformer(0)
    return {
        "evaluate": lambda: ad.evaluate(graph, env, axis_sizes=sizes),
        "jacobian": lambda: ad.jacobian(body, "x", {"x": x}),
        "run_program": lambda: lang.run_program(program, seed=3).prints,
        "grad_program": lambda: lang.grad_program(program, "O", "WQ1", 3),
        "lenet": lambda: zoo.lenet(images, lenet_params),
        "transformer_lm": lambda: zoo.transformer_lm(
            NamedTensor.from_nested(onehots, ["seq", "vocab"]), lm_params),
    }


@pytest.mark.parametrize("name", sorted(_runs()))
def test_walks_keep_their_bits_with_every_public_op_replaced(name, monkeypatch):
    run = _runs()[name]
    want = _bits(run())
    for attr in ops.__all__:
        if not attr.endswith("_shape"):
            def forward(*args, _fn=getattr(ops, attr), **kwargs):
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ops, attr, forward)
    assert _bits(run()) == want


def test_evaluate_enters_errstate_once(monkeypatch):
    graph, env, sizes = _transformer()
    entered = []

    class counting(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", counting)
    ad.evaluate(graph, env, axis_sizes=sizes)
    assert len(entered) == 1
    ops.add(1.0, 2.0)  # a public call enters it once too
    assert len(entered) == 2
