"""Static shape checker for tensor programs.

The checker runs the same shape rules the evaluator uses, so a program
with no diagnostics cannot fail at runtime for shape reasons; it also
refuses a value with more entries than a numpy array can hold.  It collects
diagnostics across the whole program rather than stopping at the first;
an axis or a binding whose declaration failed poisons its name, and later
uses of a poisoned name are suppressed instead of producing cascades.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .. import autodiff as ad
from ..axes import Axis, Shape
from ..errors import MissingAxis, NamedTensorError
from .diagnostics import Diagnostic
from .parse import AxisDecl, Binding, Directive, Program, ShapeDecl

__all__ = ["check"]


def check(program: Program) -> List[Diagnostic]:
    """All diagnostics for the program; empty iff every statement checks."""
    diags: List[Diagnostic] = []
    axis_sizes: Dict[str, int] = {}
    var_shapes: Dict[str, Shape] = {}
    defined: Set[str] = set()
    poisoned: Set[str] = set()
    poisoned_axes: Set[str] = set()

    def report(span, message):
        diags.append(Diagnostic("error", span[0], span[1], message))

    for st in program.statements:
        if isinstance(st, AxisDecl):
            if st.name in axis_sizes or st.name in poisoned_axes:
                report(st.span, f"axis '{st.name}' is declared more than once")
            elif st.size < 1:
                report(st.span, f"axis '{st.name}' must have size at least 1")
                poisoned_axes.add(st.name)
            else:
                axis_sizes[st.name] = st.size

        elif isinstance(st, ShapeDecl):
            if st.name in defined:
                report(st.span, f"'{st.name}' is already defined")
                continue
            defined.add(st.name)
            axes = []
            bad = False
            for ax in st.axes:
                if ax in poisoned_axes:
                    bad = True
                elif ax not in axis_sizes:
                    report(st.span, f"axis '{ax}' is not declared")
                    bad = True
                elif any(a.name == ax for a in axes):
                    report(st.span, f"axis '{ax}' appears twice in the shape of '{st.name}'")
                    bad = True
                else:
                    axes.append(Axis(ax, axis_sizes[ax]))
            if bad:
                poisoned.add(st.name)
            else:
                var_shapes[st.name] = Shape(axes)

        elif isinstance(st, Binding):
            if st.name in defined:
                report(st.span, f"'{st.name}' is already defined")
                continue
            defined.add(st.name)
            if poisoned and any(
                isinstance(n, ad.Var) and n.name in poisoned for n in ad._topo(st.expr)
            ):
                poisoned.add(st.name)
                continue
            try:
                var_shapes[st.name] = ad.infer_shape(
                    st.expr, var_shapes, axis_sizes=axis_sizes
                )
            except NamedTensorError as err:
                if err.node is None:
                    raise
                if not (isinstance(err, MissingAxis) and err.axis in poisoned_axes):
                    report(err.node.span or st.span, str(err))
                poisoned.add(st.name)

        elif isinstance(st, Directive):
            if st.target not in defined:
                report(st.span, f"'{st.target}' is not defined")

    return diags
