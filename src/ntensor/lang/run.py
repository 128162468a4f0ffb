"""Program evaluation and differentiation.

Bindings evaluate in order; ``print`` directives capture tensors for
output.  Random literals are drawn once, at their binding, from a single
seeded stream (depth-first, left-to-right within a binding, bindings in
program order), and the drawn values are frozen into the expression so
evaluation and differentiation see identical inputs.

``grad_program`` differentiates one bound identifier with respect to an
identifier bound to a tensor or random literal by splicing the bindings
into one graph (``ad.splice``), so it evaluates only what the target reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .. import autodiff as ad
from ..errors import NamedTensorError
from ..rng import SplitMix64
from ..tensor import NamedTensor
from .diagnostics import RunError
from .parse import Binding, Directive, Program

__all__ = ["run_program", "evaluate_program", "grad_program", "ProgramRun"]


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


def _drawn(program: Program, seed: int) -> Iterator[Tuple[object, Optional[ad.Expr]]]:
    """Each statement with, for a binding, its expression with every random
    literal replaced by a constant drawn from the seeded stream."""
    rng = SplitMix64(seed)
    sizes = program.axis_sizes
    memo: dict = {}
    for st in program.statements:
        if not isinstance(st, Binding):
            yield st, None
            continue
        order = ad._topo(st.expr)
        # Reversed _topo order visits a tree depth-first, left to right.
        for node in reversed(order):
            if isinstance(node, ad.RandomLiteral) and id(node) not in memo:
                memo[id(node)] = _draw(node, rng, sizes)
        # a binding that reads no drawn node is its own expression
        drawn = any(id(node) in memo for node in order)
        yield st, ad._rebuild(order, memo) if drawn else st.expr


def run_program(program: Program, seed: int = 0) -> ProgramRun:
    """Evaluate every binding in order; assumes the program checked clean."""
    run = ProgramRun()
    sizes = program.axis_sizes
    for st, expr in _drawn(program, seed):
        if isinstance(st, Binding):
            try:
                run.env[st.name] = ad.evaluate(expr, run.env, axis_sizes=sizes)
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
    exprs = {st.name: e for st, e in _drawn(program, seed) if isinstance(st, Binding)}
    for name in (of, wrt):
        if name not in exprs:
            raise NamedTensorError(f"'{name}' is not a bound identifier")
    if not isinstance(exprs[wrt], ad.Const):
        raise NamedTensorError(
            f"'{wrt}' must be bound to a tensor or random literal to "
            f"differentiate with respect to it"
        )
    inputs = {name: e.value for name, e in exprs.items() if isinstance(e, ad.Const)}
    root = ad.splice(exprs.items()).get(of, ad.Var(of))
    try:
        return ad.jacobian(root, wrt, inputs, axis_sizes=program.axis_sizes)
    except ad.ExprError as err:
        line, col = err.node.span or (0, 0)
        raise RunError(line, col, str(err.error)) from err
