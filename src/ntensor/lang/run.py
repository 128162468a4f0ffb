"""Program evaluation and differentiation.

Bindings evaluate in order; ``print`` directives capture tensors for
output.  Random literals are drawn once, at their binding, from a single
seeded stream (depth-first, left-to-right within a binding, bindings in
program order), and the drawn values are frozen into the expression so
evaluation and differentiation see identical inputs.

``grad_program`` differentiates one bound identifier with respect to an
identifier bound to a tensor or random literal by splicing intermediate
bindings into one expression graph and taking the dense derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import autodiff as ad
from ..errors import NamedTensorError
from ..rng import SplitMix64
from ..tensor import NamedTensor
from .parse import Binding, Directive, Program

__all__ = ["run_program", "evaluate_program", "grad_program", "ProgramRun"]


def _rebuild(order: List[ad.Expr], memo: dict) -> ad.Expr:
    """Rebuild the graph listed bottom-up in ``order`` (an ``ad._topo`` list).

    ``memo`` maps ``id(node)`` to the node's replacement.  Every node not
    in it is kept when its rebuilt children are its own children, and is
    rebuilt on them otherwise; it is entered into ``memo`` either way.
    """
    for node in order:
        if id(node) not in memo:
            old = node.children()
            kids = tuple([memo[id(c)] for c in old])
            same = all(k is c for k, c in zip(kids, old))
            memo[id(node)] = node if same else node.with_children(kids)
    return memo[id(order[-1])]


def _draw(node: ad.RandomLiteral, rng: SplitMix64, axis_sizes) -> ad.Expr:
    sizes = [axis_sizes[n] for n in node.axis_names]
    arr = rng.floats(math.prod(sizes)).reshape(sizes)
    out = ad.Const(NamedTensor.from_array(arr, node.axis_names))
    out.span = node.span
    return out


@dataclass
class ProgramRun:
    """The result of evaluating a program end to end."""

    env: Dict[str, NamedTensor] = field(default_factory=dict)
    prints: List[Tuple[str, NamedTensor]] = field(default_factory=list)
    exprs: Dict[str, ad.Expr] = field(default_factory=dict)
    axis_sizes: Dict[str, int] = field(default_factory=dict)


def run_program(program: Program, seed: int = 0) -> ProgramRun:
    """Evaluate every binding in order; assumes the program checked clean."""
    from .diagnostics import RunError

    run = ProgramRun(axis_sizes=program.axis_sizes)
    rng = SplitMix64(seed)
    memo: dict = {}
    for st in program.statements:
        if isinstance(st, Binding):
            order = ad._topo(st.expr)
            # Reversed _topo order visits a tree depth-first, left to right.
            for node in reversed(order):
                if isinstance(node, ad.RandomLiteral) and id(node) not in memo:
                    memo[id(node)] = _draw(node, rng, run.axis_sizes)
            expr = _rebuild(order, memo)
            run.exprs[st.name] = expr
            try:
                run.env[st.name] = ad.evaluate(
                    expr, run.env, axis_sizes=run.axis_sizes
                )
            except ad.ExprError as err:
                span = err.node.span or st.span
                raise RunError(span[0], span[1], str(err.error)) from err
        elif isinstance(st, Directive) and st.kind == "print":
            if st.target not in run.env:
                raise RunError(
                    st.span[0], st.span[1],
                    f"'{st.target}' has no value to print",
                )
            run.prints.append((st.target, run.env[st.target]))
    return run


def evaluate_program(program: Program, seed: int = 0) -> Dict[str, NamedTensor]:
    """Mapping from every bound identifier to its value."""
    return run_program(program, seed).env


def grad_program(
    program: Program,
    of: Optional[str],
    wrt: str,
    seed: int = 0,
) -> ad.Derivative:
    """The derivative of binding ``of`` with respect to binding ``wrt``.

    ``wrt`` must be bound to a tensor or random literal; for a random
    literal the derivative is taken at the values the run drew.

    ``of`` may be omitted when the program carries exactly one ``grad``
    directive, which then names the target.
    """
    if of is None:
        targets = [
            st.target for st in program.statements
            if isinstance(st, Directive) and st.kind == "grad"
        ]
        if len(targets) != 1:
            raise NamedTensorError(
                "no --of given and the program does not have exactly one "
                "grad directive"
            )
        of = targets[0]
    run = run_program(program, seed)
    if of not in run.exprs:
        raise NamedTensorError(f"'{of}' is not a bound identifier")
    if wrt not in run.exprs:
        raise NamedTensorError(f"'{wrt}' is not a bound identifier")
    if not isinstance(run.exprs[wrt], ad.Const):
        raise NamedTensorError(
            f"'{wrt}' must be bound to a tensor or random literal to "
            f"differentiate with respect to it"
        )
    # Splice every non-literal binding into the uses of its name, in
    # program order, so each binding is rebuilt once on its spliced inputs.
    spliced: Dict[str, ad.Expr] = {}
    memo: dict = {}
    for name, expr in run.exprs.items():
        order = ad._topo(expr)
        for node in order:
            if isinstance(node, ad.Var) and node.name in spliced:
                memo[id(node)] = spliced[node.name]
        if not isinstance(expr, ad.Const):
            spliced[name] = _rebuild(order, memo)
        if name == of:
            break
    root = spliced.get(of, ad.Var(of))
    return ad.jacobian(root, wrt, run.env, axis_sizes=run.axis_sizes)
