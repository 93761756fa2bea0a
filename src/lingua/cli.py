"""Command-line front door: run, check, restore, ast and a line REPL.

Exit codes: 0 clean run, 1 an abstract error is left in the register,
2 parse diagnostics or a bad command line, 3 fuel exhausted or a program
too deep to evaluate or print, 4 unreadable input (an I/O failure or text
that is not UTF-8).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TextIO, TypeVar

from .diagnostics import LinguaParseError, format_diagnostic
from .kernel import (
    AbstractError,
    ArrayBody,
    ArrayData,
    BoolData,
    Body,
    Composite,
    Data,
    Limits,
    ListBody,
    ListData,
    NumberData,
    OMEGA,
    RecordBody,
    RecordData,
    SimpleBody,
    Value,
    WordData,
)
from . import nodes as n
from .parser import parse_any, parse_program
from .printer import ast_dump, print_concrete
from .semantics import Evaluator, OutOfFuel
from .state import State, empty_state, is_error, register_word

DEFAULT_FUEL = 10_000_000

T = TypeVar("T")

# Lingua recursion rides the host stack; give it room and treat running out
# as a resource outcome alongside fuel exhaustion.
RECURSION_LIMIT = 20_000


@dataclass
class RunConfig:
    fuel: Optional[int] = DEFAULT_FUEL
    limits: Limits = Limits()
    trace: bool = False


def format_data(dat: Data) -> str:
    match dat:
        case BoolData(value):
            return "true" if value else "false"
        case NumberData(value):
            return value.text()
        case WordData(text):
            return f"'{text}'"
        case ListData(items):
            return "(" + ", ".join(format_data(i) for i in items) + ")"
        case ArrayData(items):
            return "[" + ", ".join(format_data(i) for i in items) + "]"
        case RecordData(fields):
            inner = ", ".join(f"{name}: {format_data(d)}" for name, d in fields)
            return "{" + inner + "}"
    raise TypeError(f"not a datum: {dat!r}")


def format_body(bod: Body) -> str:
    match bod:
        case SimpleBody(name):
            return name
        case ListBody(element):
            return f"list of {format_body(element)}"
        case ArrayBody(element):
            return f"array of {format_body(element)}"
        case RecordBody(fields):
            inner = ", ".join(f"{name}: {format_body(b)}" for name, b in fields)
            return "{" + inner + "}"
    raise TypeError(f"not a body: {bod!r}")


def format_composite(com: Composite) -> str:
    return f"({format_data(com.dat)}, {format_body(com.bod)})"


def format_value(val: Value) -> str:
    content = "Ω" if val.content is OMEGA else format_data(val.content)
    return f"({content}, {format_body(val.typ.bod)}) with {val.typ.tra.source}"


def state_report(sta: State) -> list[str]:
    lines = [
        f"{ide} = {format_value(val)}"
        for ide, val in sorted(sta.store.valuation.items())
    ]
    lines.append(f"register = {register_word(sta)}")
    return lines


def _read_file(path: str, err: TextIO) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"lingua: cannot read {path}: {exc}", file=err)
        return None


@contextmanager
def _deep_recursion() -> Iterator[None]:
    """Raise the recursion limit for evaluation and put the old one back."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def _parse(parse: Callable[[str], T], text: str, path: str, err: TextIO) -> Optional[T]:
    """`parse(text)`, or None after printing its diagnostic for `path`."""
    try:
        return parse(text)
    except LinguaParseError as exc:
        print(format_diagnostic(exc.diagnostic, path), file=err)
        return None


def _fuel(text: str) -> Optional[int]:
    """A step budget: a whole number, or None for 'unlimited'."""
    if text == "unlimited":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a whole number or 'unlimited': {text!r}"
        ) from None


def _digits(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        digits = 0
    if digits < 1:
        raise argparse.ArgumentTypeError(f"not a positive whole number: {text!r}")
    return digits


def cmd_run(path: str, config: RunConfig, out: TextIO, err: TextIO) -> int:
    text = _read_file(path, err)
    if text is None:
        return 4
    prg = _parse(parse_program, text, path, err)
    if prg is None:
        return 2
    trace = None
    if config.trace:
        # One line per traced node, printed once for the run: a loop would
        # otherwise print its whole body again on every entry.  `prg` keeps
        # every node alive, so no identity is reused while the run lasts.
        lines: dict[int, str] = {}

        def trace(ins: n.Instruction) -> None:
            line = lines.get(id(ins))
            if line is None:
                line = lines[id(ins)] = f"trace: {print_concrete(ins)[:72]}"
            print(line, file=err)

    evaluator = Evaluator(limits=config.limits, fuel=config.fuel, trace=trace)
    try:
        with _deep_recursion():
            final = evaluator.run_program(prg, empty_state())
    except OutOfFuel:
        print("lingua: fuel exhausted", file=err)
        return 3
    except RecursionError:
        print("lingua: evaluation too deep", file=err)
        return 3
    for line in state_report(final):
        print(line, file=out)
    return 1 if is_error(final) else 0


def cmd_check(path: str, out: TextIO, err: TextIO) -> int:
    text = _read_file(path, err)
    if text is None:
        return 4
    if _parse(parse_any, text, path, err) is None:
        return 2
    return 0


def cmd_restore(path: str, out: TextIO, err: TextIO) -> int:
    text = _read_file(path, err)
    if text is None:
        return 4
    parsed = _parse(parse_any, text, path, err)
    if parsed is None:
        return 2
    try:
        with _deep_recursion():
            restored = print_concrete(parsed[1])
    except RecursionError:
        print("lingua: program too deep to print", file=err)
        return 3
    print(restored, file=out)
    return 0


def cmd_ast(path: str, format: str, out: TextIO, err: TextIO) -> int:
    text = _read_file(path, err)
    if text is None:
        return 4
    parsed = _parse(parse_any, text, path, err)
    if parsed is None:
        return 2
    print(ast_dump(parsed[1], format), file=out)
    return 0


def repl(
    config: RunConfig,
    stdin: TextIO,
    out: TextIO,
    err: TextIO,
) -> int:
    """One preamble item or instruction per line against a persistent state.

    `:state` prints the report, `:ok` clears the register, `:quit` leaves.
    Bare expressions are evaluated and shown as a convenience.
    """
    from .state import clear_error

    sta = empty_state()
    evaluator = Evaluator(limits=config.limits, fuel=config.fuel)
    interactive = stdin.isatty()
    with _deep_recursion():
        while True:
            if interactive:
                print("lingua> ", end="", file=out, flush=True)
            line = stdin.readline()
            if not line:
                return 0
            line = line.strip()
            if not line:
                continue
            if line == ":quit":
                return 0
            if line == ":state":
                for report_line in state_report(sta):
                    print(report_line, file=out)
                continue
            if line == ":ok":
                sta = clear_error(sta)
                continue
            parsed = _parse(parse_any, line, "<repl>", err)
            if parsed is None:
                continue
            kind, node = parsed
            try:
                if kind == "program":
                    sta = evaluator.run_program(node, sta)
                elif kind == "preamble":
                    sta = evaluator.exec_preamble(node, sta)
                elif kind == "instruction":
                    sta = evaluator.exec_instruction(node, sta)
                elif kind == "data":
                    result = evaluator.eval_data_exp(node, sta)
                    if isinstance(result, AbstractError):
                        print(f"error: {result.word}", file=out)
                    else:
                        print(format_composite(result), file=out)
                    continue
                else:
                    print(f"cannot execute a {kind} expression here", file=err)
                    continue
            except OutOfFuel:
                print("lingua: fuel exhausted", file=err)
                continue
            except RecursionError:
                print("lingua: evaluation too deep", file=err)
                continue
            if is_error(sta):
                print(f"error: {register_word(sta)}", file=out)


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lingua")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse checks a string default with `type` too, so a bad LINGUA_FUEL
    # is a usage error like a bad --fuel
    fuel = dict(
        type=_fuel,
        default=os.environ.get("LINGUA_FUEL", str(DEFAULT_FUEL)),
        help="step budget or 'unlimited'; LINGUA_FUEL sets the default",
    )

    run = sub.add_parser("run", help="parse and execute a program")
    run.add_argument("file")
    run.add_argument("--fuel", **fuel)
    run.add_argument("--max-digits", type=_digits, default=None)
    run.add_argument("--trace", action="store_true")

    check = sub.add_parser("check", help="parse only")
    check.add_argument("file")

    restore = sub.add_parser("restore", help="print the concrete form")
    restore.add_argument("file")

    ast = sub.add_parser("ast", help="dump the syntax tree")
    ast.add_argument("file")
    ast.add_argument("--format", choices=("json", "sexpr"), default="sexpr")

    repl_cmd = sub.add_parser("repl", help="interactive session")
    repl_cmd.add_argument("--fuel", **fuel)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    out, err = sys.stdout, sys.stderr
    if args.command == "run":
        limits = Limits()
        if args.max_digits is not None:
            limits = Limits(max_significant_digits=args.max_digits)
        config = RunConfig(fuel=args.fuel, limits=limits, trace=args.trace)
        return cmd_run(args.file, config, out, err)
    if args.command == "check":
        return cmd_check(args.file, out, err)
    if args.command == "restore":
        return cmd_restore(args.file, out, err)
    if args.command == "ast":
        return cmd_ast(args.file, args.format, out, err)
    if args.command == "repl":
        config = RunConfig(fuel=args.fuel)
        return repl(config, sys.stdin, out, err)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
