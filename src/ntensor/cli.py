"""The ``nt`` command line tool.

Subcommands: ``check`` (static diagnostics, exit 0 iff clean), ``eval``
(run a program and print each ``print``-directive tensor), ``grad``
(print a derivative tensor), and ``zoo`` (list or run the reference
fixtures against their loop oracles).

Exit codes: 0 on success; 1 for diagnostics, a failed fixture, a file
that cannot be read or decoded, or a reported error; 2 for a usage error,
such as a ``--seed`` outside 0..2**64-1; 3 for an internal error, printed
as one ``error: internal: <Type>: <message>`` line instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import lang
from .errors import NamedTensorError

__all__ = ["main"]

INTERNAL_ERROR = 3  # exit code for an exception no handler expects


def _load(path: str) -> lang.Program:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise OSError(f"{path!r} is not UTF-8 text: {err.reason} at byte {err.start}") from None
    return lang.parse(text)


def _diagnose(program: lang.Program) -> bool:
    """Print ``program``'s diagnostics to stderr; True if there were any."""
    diagnostics = lang.check(program)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    return bool(diagnostics)


def _checked(path: str) -> lang.Program:
    program = _load(path)
    if _diagnose(program):
        raise SystemExit(1)
    return program


def _cmd_check(args) -> int:
    return 1 if _diagnose(_load(args.file)) else 0


def _cmd_eval(args) -> int:
    program = _checked(args.file)
    run = lang.run_program(program, seed=args.seed)
    for name, tensor in run.prints:
        sys.stdout.write(f"# {name}\n")
        sys.stdout.write(tensor.to_text())
    return 0


def _cmd_grad(args) -> int:
    program = _checked(args.file)
    derivative = lang.grad_program(program, args.of, args.wrt, seed=args.seed)
    sys.stdout.write(derivative.value.to_text())
    return 0


def _cmd_zoo(args) -> int:
    from . import zoo

    if args.zoo_command == "list":
        for name in zoo.fixture_names():
            print(name)
        return 0
    result = zoo.run_fixture(args.name, seed=args.seed)
    print(result.summary())
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nt", description="named tensor expression tool"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="statically check a program")
    p_check.add_argument("file")

    p_eval = sub.add_parser("eval", help="evaluate a program")
    p_eval.add_argument("file")
    p_eval.add_argument("--seed", type=int, default=0)

    p_grad = sub.add_parser("grad", help="print a derivative tensor")
    p_grad.add_argument("file")
    p_grad.add_argument("--of", default=None, help="target identifier")
    p_grad.add_argument(
        "--wrt", required=True,
        help="differentiate w.r.t. this tensor or random literal",
    )
    p_grad.add_argument("--seed", type=int, default=0)

    p_zoo = sub.add_parser("zoo", help="reference model fixtures")
    zoo_sub = p_zoo.add_subparsers(dest="zoo_command", required=True)
    zoo_sub.add_parser("list", help="list fixture names")
    p_run = zoo_sub.add_parser("run", help="run a fixture against its oracle")
    p_run.add_argument("name")
    p_run.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if not 0 <= getattr(args, "seed", 0) < 2**64:  # SplitMix64 reads a seed modulo 2**64
        parser.error(f"argument --seed: {args.seed} is outside 0..{2**64 - 1}")
    handler = {
        "check": _cmd_check,
        "eval": _cmd_eval,
        "grad": _cmd_grad,
        "zoo": _cmd_zoo,
    }[args.command]
    try:
        return handler(args)
    except (lang.ParseError, lang.RunError) as err:
        print(str(err), file=sys.stderr)
        return 1
    except (NamedTensorError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # the CLI reports every failure as one line
        message = " ".join(str(err).split())
        print(f"error: internal: {type(err).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
