"""Command line surface.

Exit codes: 0 success (or verification pass), 1 verification mismatch,
2 usage, syntax, schema or resource error or a failed write to standard
output, 3 inconsistent base. Standard output carries only the result
payload; progress and summaries go to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from fractions import Fraction
from typing import Iterable, Iterator, TextIO

from . import io as formats
from .compiler import Ordering, compile_stages, conditional_possibility
from .errors import InconsistentBaseError, PosslogError
from .marginalize import marginal_base
from .model import And, Const, Literal, Not, Or, Var, WeightedBase, Interpretation, negate
from .network import Network
from .normalize import to_clausal
from .oracle import DEFAULT_WEIGHT_POOL, random_base, verify_compilation
from .semantics import (
    inconsistency_degree,
    necessity,
    possibility,
    world_possibility,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


class _UsageError(PosslogError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """`path` opened for writing, or stdout for "-". A command opens its
    outputs before the work that fills them, so an unwritable path fails
    it at once; if the command then fails, the partial file is removed
    (unless `path` is not a regular file, such as a device or a pipe)."""
    if path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc
    try:
        yield fh
    except BaseException:
        with suppress(OSError):  # the text a failed write left would fail again
            fh.close()
        if os.path.isfile(path):
            os.remove(path)
        raise
    fh.close()


def _write(fh: TextIO, path: str, pieces: Iterable[str]) -> None:
    """Writes the pieces in turn to `fh`, `path` as `_output` opened it, so
    that a generator's text is never held whole. A file is flushed here, so
    that its write errors name it; stdout's are left to `main`."""
    if path == "-":
        fh.writelines(pieces)
        return
    try:
        fh.writelines(pieces)
        fh.flush()
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _load_clausal(path: str) -> WeightedBase:
    return to_clausal(formats.parse_base(_read(path)))


def _require_consistent(b: WeightedBase) -> None:
    inc = inconsistency_degree(b)
    if inc != 0:
        raise InconsistentBaseError(inc)


def _parse_order(flag: str | None, base: WeightedBase) -> Ordering:
    if flag is None:
        return Ordering(base.variables)
    names = [s.strip() for s in flag.split(",") if s.strip()]
    known = {v.name: v for v in base.variables}
    missing = [n for n in names if n not in known]
    if missing:
        raise _UsageError(f"unknown variable(s) in --order: {', '.join(missing)}")
    order = Ordering(tuple(known[n] for n in names))
    order.validate_for(base.variables)
    return order


def _parse_world(text: str, base: WeightedBase) -> Interpretation:
    known = {v.name: v for v in base.variables}
    assignment: dict[Var, bool] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        positive = not token.startswith("!")
        name = token[1:] if not positive else token
        if name not in known:
            raise _UsageError(f"unknown variable {name!r} in world")
        var = known[name]
        if var in assignment:
            raise _UsageError(f"variable {name!r} assigned twice")
        assignment[var] = positive
    missing = [v.name for v in base.variables if v not in assignment]
    if missing:
        raise _UsageError(f"world misses variable(s): {', '.join(missing)}")
    return Interpretation.from_assignment(base.variables, assignment)


def _context_literals(text: str, lit: Literal) -> list[Literal]:
    """The literals of a `cond` context, which must be a conjunction of
    literals once its negations are pushed down to the literals
    (`_conjunction`). A context that is false contradicts itself: it is
    handed over as `lit` with its negation, as `a & !a` is."""
    literals = _conjunction(formats.parse_formula(text), False)
    return [lit, negate(lit)] if literals is None else literals


def _conjunction(f, negated: bool) -> list[Literal] | None:
    """The literals whose conjunction is `f`, negated when `negated`, with
    negations pushed down to the literals: [] when it is true, None when
    it is false. A conjunction drops its true parts and is false when one
    part is; a disjunction is true when one part is, and otherwise its
    one part that is not false. Any other disjunction is refused."""
    if isinstance(f, Literal):
        return [negate(f) if negated else f]
    if isinstance(f, Not):
        return _conjunction(f.operand, not negated)
    if isinstance(f, Const):
        return None if f.value == negated else []
    if not isinstance(f, (And, Or)):
        raise _UsageError("context must be a conjunction of literals")
    parts = [_conjunction(p, negated) for p in f.parts]
    if isinstance(f, And) != negated:
        if None in parts:
            return None
        return [p for part in parts for p in part]
    held = [part for part in parts if part is not None]
    if [] in held:
        return []
    if len(held) > 1:
        raise _UsageError("context must be a conjunction of literals")
    return held[0] if held else None


def _print_value(value: Fraction, decimal: bool) -> None:
    if decimal:
        print(f"{value} {float(value):.6f}")
    else:
        print(value)


def cmd_compile(args) -> int:
    base = formats.parse_base(_read(args.base))
    order = _parse_order(args.order, base)
    with ExitStack() as outputs:
        out = outputs.enter_context(_output(args.out))
        dot = outputs.enter_context(_output(args.dot)) if args.dot else None
        nodes = []
        for stage in compile_stages(base, order):
            parents = " ".join(p.name for p in stage.cpt.parents)
            print(
                f"[{stage.index + 1}/{len(order.sequence)}] {stage.cpt.var}:"
                f" parents=[{parents}] cpt={2 * len(stage.cpt.neg)} cells,"
                f" stage={stage.stage_entries} -> marginal={stage.marginal_entries} entries",
                file=sys.stderr,
            )
            nodes.append(stage.cpt)
        net = Network(nodes)
        _write(out, args.out, formats.network_pieces(net))
        if dot is not None:
            _write(dot, args.dot, [formats.export_dot(net)])
    return EXIT_OK


def cmd_query(args) -> int:
    base = _load_clausal(args.base)
    _require_consistent(base)
    formula = formats.parse_formula(args.formula)
    if args.mode == "pi":
        value = possibility(base, formula)
    elif args.mode == "nec":
        value = necessity(base, formula)
    else:
        if args.context is None:
            raise _UsageError("cond mode requires --context")
        if not isinstance(formula, Literal):
            raise _UsageError("cond mode expects a single literal to condition")
        context = _context_literals(args.context, formula)
        value = conditional_possibility(base, formula, context)
    _print_value(value, args.decimal)
    return EXIT_OK


def cmd_eval(args) -> int:
    base = formats.parse_base(_read(args.base))
    world = _parse_world(args.world, base)
    _print_value(world_possibility(base, world), args.decimal)
    return EXIT_OK


def cmd_marginalize(args) -> int:
    base = _load_clausal(args.base)
    known = {v.name: v for v in base.variables}
    if args.var not in known:
        raise _UsageError(f"unknown variable {args.var!r}")
    _require_consistent(base)
    print(formats.serialize_base(marginal_base(base, known[args.var])), end="")
    return EXIT_OK


def cmd_parents(args) -> int:
    base = _load_clausal(args.base)
    _require_consistent(base)
    order = _parse_order(args.order, base)
    known = {v.name: v for v in base.variables}
    if args.var not in known:
        raise _UsageError(f"unknown variable {args.var!r}")
    target = known[args.var]
    stage = next(s for s in compile_stages(base, order) if s.cpt.var == target)
    print(" ".join(p.name for p in stage.cpt.parents))
    return EXIT_OK


def cmd_verify(args) -> int:
    base = formats.parse_base(_read(args.base))
    net = formats.parse_network(_read(args.network))
    if set(base.variables) != set(net.variables):
        raise _UsageError("base and network are over different variables")
    report = verify_compilation(base, net)
    if report.ok:
        print("distributions match", file=sys.stderr)
        return EXIT_OK
    for mismatch in report.mismatches[:10]:
        print(mismatch)
    print(f"{len(report.mismatches)} mismatching world(s)", file=sys.stderr)
    return EXIT_MISMATCH


def cmd_gen(args) -> int:
    pool = DEFAULT_WEIGHT_POOL
    if args.weights:
        pool = [w.strip() for w in args.weights.split(",") if w.strip()]
    with _output(args.out) as out:
        base = random_base(args.seed, args.vars, args.clauses, weight_pool=pool)
        _write(out, args.out, [formats.serialize_base(base)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posslog",
        description="Exact possibilistic-logic toolkit: compile weighted bases "
        "into product-based possibilistic networks and query them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a base into a network")
    p.add_argument("base", help="path to the base file")
    p.add_argument("-o", "--out", default="-", help="output path (default stdout)")
    p.add_argument("--order", help="comma-separated elimination order (default: declaration order)")
    p.add_argument("--dot", help="also write a DOT rendering to this path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("query", help="possibility / necessity / conditional queries")
    p.add_argument("base")
    p.add_argument("mode", choices=("pi", "nec", "cond"))
    p.add_argument("formula")
    p.add_argument("--context", help="conjunction of literals (cond mode)")
    p.add_argument("--decimal", action="store_true", help="append a 6-digit approximation")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="degree of a single world")
    p.add_argument("base")
    p.add_argument("world", help='total assignment, e.g. "se,!wi,su"')
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("marginalize", help="forget a variable syntactically")
    p.add_argument("base")
    p.add_argument("var")
    p.set_defaults(func=cmd_marginalize)

    p = sub.add_parser("parents", help="parent set of a variable at its stage")
    p.add_argument("base")
    p.add_argument("var")
    p.add_argument("--order")
    p.set_defaults(func=cmd_parents)

    p = sub.add_parser("verify", help="check a network against a base, world by world")
    p.add_argument("base")
    p.add_argument("network")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random consistent base")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clauses", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--weights", help="comma-separated weight pool, e.g. '1/3,2/3'")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InconsistentBaseError as exc:
        print(f"error: Inc = {exc.degree}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except PosslogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # Every file a command opens reports its own errors, so this is
        # standard output failing: a closed pipe or a full device. Its
        # descriptor goes to devnull, so that the flush at exit is quiet.
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
