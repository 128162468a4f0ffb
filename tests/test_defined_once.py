"""Each operation is declared once in ``ops``, as its shape rule and its
kernel: an expression node names that operation, infers and evaluates
through the shared ``Expr`` glue, and adds only its VJP rule and its
parameter glue.  One node class is one operation, with its own VJP rule
and a surface form the parser reads back."""

import pytest

from ntensor import NamedTensor, lang, ops
from ntensor import autodiff as ad

# each class once, though a builder name is another name for it
CLASSES = list(dict.fromkeys(
    cls for cls in vars(ad).values()
    if isinstance(cls, type) and issubclass(cls, ad.Expr) and cls is not ad.Expr
    and cls._operands))
NODES = [cls for cls in CLASSES if cls.operation is not None]
BASES = [cls for cls in CLASSES if cls.operation is None]

_X, _Y, _I = ad.var("X"), ad.var("Y"), ad.var("I")
# one instance of each node class with operands, parameters at their defaults
SAMPLES = [
    ad.neg(_X), ad.relu(_X), ad.sigmoid(_X), ad.exp(_X), ad.log(_X), ad.sqrt(_X),
    ad.add(_X, _Y), ad.sub(_X, _Y), ad.mul(_X, _Y), ad.div(_X, _Y),
    ad.reduce(_X, "norm", ["a"]), ad.contract(_X, _Y, ["a"]),
    ad.softmax(_X, ["a"]), ad.argmax(_X, ["a"]), ad.argmin(_X, ["a"]),
    ad.standardize(_X, ["a"]), ad.rename(_X, "a", "c"), ad.merge(_X, ["a", "b"], "c"),
    ad.split(_X, "a", "o", "i"), ad.unroll(_X, "a", "k"), ad.index_select(_X, "a", _I),
    ad.maxk(_X, "a", "k"), ad.argmaxk(_X, "a", "k"), ad.det(_X, "a", "b"),
    ad.inv(_X, "a", "b"), ad.partial_index(_X, {"a": 1}),
]
# classes with no surface form, each with its reason
UNPRINTABLE = {ad.Pow: "the language has no power operator"}


def test_every_node_with_operands_runs_an_ops_kernel_and_rule():
    assert len(NODES) >= 27
    public = {getattr(ops, name) for name in ops.__all__}
    for cls in NODES:
        for method in ("_infer", "_eval"):
            assert method not in vars(cls), f"{cls.__name__} overrides {method}"
        assert cls.operation in public, cls.__name__
        assert callable(cls.operation.rule) and callable(cls.operation.kernel), cls.__name__


def test_no_operation_is_named_by_two_classes():
    named = [cls.operation for cls in NODES]
    assert len(set(named)) == len(named)


def test_every_node_has_its_own_vjp_rule_or_its_bases():
    for cls in NODES:
        owner = next(k for k in cls.__mro__ if "_grads" in vars(k))
        assert owner in (cls, *BASES), f"{cls.__name__} takes _grads from {owner.__name__}"


def test_the_bases_are_abstract():
    assert set(BASES) == {ad.Unary, ad.Binary, ad.ArgExtremum, ad.TopK, ad.LinAlg}
    for build in (lambda: ad.Unary(_X), lambda: ad.Binary(_X, _Y),
                  lambda: ad.ArgExtremum(_X, ["a"]), lambda: ad.TopK(_X, "a", "k"),
                  lambda: ad.LinAlg(_X, "a", "b")):
        with pytest.raises(TypeError, match="is abstract"):
            build()


def test_every_node_prints_and_reparses_equal():
    assert {type(node) for node in SAMPLES} == set(NODES) - set(UNPRINTABLE)
    for node in SAMPLES:
        text = lang.format_expr(node)
        assert lang.parse(f"Z = {text}").statements[0].expr == node, text
    for cls in UNPRINTABLE:
        with pytest.raises(ValueError, match="has no surface syntax"):
            lang.format_expr(cls(_X, _Y))


def test_an_op_without_a_vjp_rule_borrows_none():
    class Trial(ad.Unary):
        operation = staticmethod(ops.exp)

    x = NamedTensor.from_nested([1.0, 2.0], ["a"])
    assert ad.evaluate(Trial(ad.var("x")), {"x": x}) == ops.exp(x)
    with pytest.raises(NotImplementedError, match="Trial has no VJP rule"):
        ad.jacobian(Trial(ad.var("x")), "x", {"x": x})
