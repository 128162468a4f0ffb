"""Program evaluation and differentiation.

One walk draws the random literals from a single seeded stream
(depth-first, left-to-right within a binding, bindings in program order)
and splices the bindings into one graph (``ad.splice``).  ``run_program``
evaluates it with one ``ad.evaluate`` call, and ``print`` directives
capture tensors for output.  ``grad_program`` differentiates one bound
identifier with respect to one bound to a tensor or random literal, on the
same graph and draws, evaluating only what the target reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import autodiff as ad
from ..axes import Shape
from ..errors import NamedTensorError
from ..rng import SplitMix64
from ..tensor import NamedTensor
from .diagnostics import RunError
from .parse import Binding, Directive, Program

__all__ = ["run_program", "evaluate_program", "grad_program", "ProgramRun"]


@dataclass
class ProgramRun:
    """The result of evaluating a program end to end."""

    env: Dict[str, NamedTensor] = field(default_factory=dict)
    prints: List[Tuple[str, NamedTensor]] = field(default_factory=list)


def _spliced(program: Program, seed: int) -> Tuple[Dict[str, NamedTensor], Dict[str, ad.Expr]]:
    """The values of the bindings to literals, random ones drawn from the
    seeded stream, and the spliced graphs of the other bindings."""
    rng, sizes, drawn = SplitMix64(seed), program.axis_sizes, {}

    def draw(node: ad.RandomLiteral) -> ad.Expr:
        dims = [sizes[n] for n in node.axis_names]
        shape = Shape(zip(node.axis_names, dims))
        arr = rng.floats(shape.num_records).reshape(dims)
        const = drawn[id(node)] = ad.Const(NamedTensor._own(shape, arr, node.axis_names))
        const.span = node.span
        return const

    bindings = [(st.name, st.expr) for st in program.statements if isinstance(st, Binding)]
    graphs = ad.splice(bindings, draw)
    last = {name: drawn.get(id(expr), expr) for name, expr in bindings}
    return {name: e.value for name, e in last.items() if isinstance(e, ad.Const)}, graphs


def _run_error(err: ad.ExprError) -> RunError:
    line, col = err.node.span or (0, 0)
    return RunError(line, col, str(err.error))


def run_program(program: Program, seed: int = 0) -> ProgramRun:
    """Evaluate the spliced graph of every binding; assumes the program
    checked clean."""
    values, graphs = _spliced(program, seed)
    try:
        values.update(ad.evaluate(graphs, values, axis_sizes=program.axis_sizes))
    except ad.ExprError as err:
        raise _run_error(err) from err
    run = ProgramRun()
    for st in program.statements:
        if isinstance(st, Binding):
            run.env[st.name] = values[st.name]
        elif isinstance(st, Directive) and st.kind == "print":
            if st.target not in run.env:
                raise RunError(*st.span, f"'{st.target}' has no value to print")
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
    values, graphs = _spliced(program, seed)
    for name in (of, wrt):
        if name not in values and name not in graphs:
            raise NamedTensorError(f"'{name}' is not a bound identifier")
    if wrt not in values:
        raise NamedTensorError(
            f"'{wrt}' must be bound to a tensor or random literal to "
            f"differentiate with respect to it"
        )
    try:
        return ad.jacobian(graphs.get(of, ad.Var(of)), wrt, values,
                           axis_sizes=program.axis_sizes)
    except ad.ExprError as err:
        raise _run_error(err) from err
