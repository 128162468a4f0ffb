"""Each operation is declared once in ``ops``, as its shape rule and its
kernel: an expression node names that operation, infers and evaluates
through the shared ``Expr`` glue, and adds only its VJP rule and its
parameter glue."""

from ntensor import autodiff as ad
from ntensor import ops

NODES = [cls for cls in vars(ad).values()
         if isinstance(cls, type) and issubclass(cls, ad.Expr) and cls is not ad.Expr
         and cls._operands]


def test_every_node_with_operands_runs_an_ops_kernel_and_rule():
    assert len(NODES) >= 15
    public = {getattr(ops, name) for name in ops.__all__}
    for cls in NODES:
        for method in ("_infer", "_eval"):
            assert method not in vars(cls), f"{cls.__name__} overrides {method}"
        operations = list(cls.OPS.values()) if cls.OPS is not None else [cls.operation]
        for op in operations:
            assert op in public, cls.__name__
            assert callable(op.rule) and callable(op.kernel), cls.__name__
