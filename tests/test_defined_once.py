"""Each operation is defined once, as a kernel and a shape rule in ``ops``:
an expression node names them and infers and evaluates through the shared
``Expr`` glue, adding only its VJP rule and its parameter glue."""

from ntensor import autodiff as ad
from ntensor import ops

# (node class, overridden glue method): why the shared glue does not fit
EXCEPTIONS = {
    (ad.Unary, "_infer"): "its shape is the operand's, and it has no rule",
    (ad.IndexSelect, "_infer"): "the kernel takes ax between its two operands",
    (ad.IndexSelect, "_eval"): "the kernel takes ax between its two operands",
}

NODES = [cls for cls in vars(ad).values()
         if isinstance(cls, type) and issubclass(cls, ad.Expr) and cls is not ad.Expr
         and cls._operands]


def test_every_exception_is_a_real_override():
    for cls, method in EXCEPTIONS:
        assert method in vars(cls), f"{cls.__name__}.{method} is no longer overridden"


def test_every_node_with_operands_runs_an_ops_kernel_and_rule():
    assert len(NODES) >= 15
    for cls in NODES:
        kernels = set(cls.OPS.values()) if cls.OPS is not None else {cls.kernel}
        for method in ("_infer", "_eval"):
            if method in vars(cls):
                assert (cls, method) in EXCEPTIONS, f"{cls.__name__} overrides {method}"
        if (cls, "_eval") not in EXCEPTIONS:
            assert kernels <= set(ops.__all__), cls.__name__
        if (cls, "_infer") not in EXCEPTIONS:
            for kernel in kernels:
                assert (cls.rule or kernel + "_shape") in ops.__all__, cls.__name__
