"""Command-line front door: run, check, restore, ast and a line REPL.

Exit codes: 0 clean run, 1 an abstract error is left in the register,
2 parse diagnostics or a bad command line, 3 fuel exhausted or a program
too deep to evaluate or print, 4 an I/O failure: unreadable input, text
that is not UTF-8, or a standard output closed before the command's
output is written (as when piped into `head`; nothing is printed then).
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TextIO, TypeVar, Union

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
    Number,
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
        case Number():
            return dat.text()
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


def _load(path: str, parse: Callable[[str], T], err: TextIO) -> Union[T, int]:
    """`parse` of the file at `path`, or the exit code after printing why
    not: 4 if it cannot be read as UTF-8, 2 on a parse diagnostic."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"lingua: cannot read {path}: {exc}", file=err)
        return 4
    parsed = _parse(parse, text, path, err)
    return 2 if parsed is None else parsed


def _whole(text: str, least: int, expected: str) -> int:
    """`text` as a whole number no less than `least`, else a usage error."""
    try:
        number = int(text)
    except ValueError:
        number = least - 1
    if number < least:
        raise argparse.ArgumentTypeError(f"not a {expected}: {text!r}")
    return number


def _fuel(text: str) -> Optional[int]:
    """A step budget: a whole number, or None for 'unlimited'."""
    return None if text == "unlimited" else _whole(text, 0, "whole number or 'unlimited'")


def _digits(text: str) -> int:
    return _whole(text, 1, "positive whole number")


def cmd_run(path: str, config: RunConfig, out: TextIO, err: TextIO) -> int:
    prg = _load(path, parse_program, err)
    if isinstance(prg, int):
        return prg
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
    parsed = _load(path, parse_any, err)
    return parsed if isinstance(parsed, int) else 0


def cmd_restore(path: str, out: TextIO, err: TextIO) -> int:
    parsed = _load(path, parse_any, err)
    if isinstance(parsed, int):
        return parsed
    try:
        with _deep_recursion():
            restored = print_concrete(parsed[1])
    except RecursionError:
        print("lingua: program too deep to print", file=err)
        return 3
    print(restored, file=out)
    return 0


def cmd_ast(path: str, format: str, out: TextIO, err: TextIO) -> int:
    parsed = _load(path, parse_any, err)
    if isinstance(parsed, int):
        return parsed
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
    Bare expressions are evaluated and shown as a convenience.  Each line
    runs on the whole step budget."""
    from .state import clear_error

    sta = empty_state()
    evaluator = Evaluator(limits=config.limits, fuel=config.fuel)
    interactive = stdin.isatty()
    with _deep_recursion():
        while True:
            if interactive:
                print("lingua> ", end="", file=out, flush=True)
            try:
                line = stdin.readline()
            except (OSError, UnicodeDecodeError) as exc:
                print(f"lingua: cannot read <stdin>: {exc}", file=err)
                return 4
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
            evaluator.fuel.remaining = config.fuel
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


class _AcyclicFormatter(argparse.HelpFormatter):
    """argparse's formatter, which lets go of its sections once it has
    formatted them.  A section refers back to its formatter, so otherwise
    every usage error and help text leaves a reference cycle behind."""

    def format_help(self) -> str:
        try:
            return super().format_help()
        finally:
            self._root_section = self._current_section = None


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lingua", formatter_class=_AcyclicFormatter)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(
            argparse.ArgumentParser, formatter_class=_AcyclicFormatter
        ),
    )
    # No default: the parser is built once per process, and `_command_fuel`
    # reads LINGUA_FUEL on every call.
    fuel = dict(
        type=_fuel,
        default=argparse.SUPPRESS,
        help="step budget or 'unlimited'; LINGUA_FUEL sets the default",
    )

    run = sub.add_parser("run", help="parse and execute a program")
    run.add_argument("file")
    run.add_argument("--fuel", **fuel)
    run.add_argument("--max-digits", type=_digits, default=None)
    run.add_argument("--trace", action="store_true")
    run.set_defaults(parser=run)

    check = sub.add_parser("check", help="parse only")
    check.add_argument("file")

    restore = sub.add_parser("restore", help="print the concrete form")
    restore.add_argument("file")

    ast = sub.add_parser("ast", help="dump the syntax tree")
    ast.add_argument("file")
    ast.add_argument("--format", choices=("json", "sexpr"), default="sexpr")

    repl_cmd = sub.add_parser("repl", help="interactive session")
    repl_cmd.add_argument("--fuel", **fuel)
    repl_cmd.set_defaults(parser=repl_cmd)
    return parser


def _command_fuel(args: argparse.Namespace) -> Optional[int]:
    """--fuel if given, else LINGUA_FUEL as read now, else the default.  A
    bad LINGUA_FUEL is the same usage error as a bad --fuel."""
    if "fuel" in args:
        return args.fuel
    try:
        return _fuel(os.environ.get("LINGUA_FUEL", str(DEFAULT_FUEL)))
    except argparse.ArgumentTypeError as exc:
        args.parser.error(f"argument --fuel: {exc}")


def _command(args: argparse.Namespace) -> int:
    out, err = sys.stdout, sys.stderr
    if args.command == "run":
        limits = Limits()
        if args.max_digits is not None:
            limits = Limits(max_significant_digits=args.max_digits)
        config = RunConfig(fuel=_command_fuel(args), limits=limits, trace=args.trace)
        return cmd_run(args.file, config, out, err)
    if args.command == "check":
        return cmd_check(args.file, out, err)
    if args.command == "restore":
        return cmd_restore(args.file, out, err)
    if args.command == "ast":
        return cmd_ast(args.file, args.format, out, err)
    if args.command == "repl":
        config = RunConfig(fuel=_command_fuel(args))
        return repl(config, sys.stdin, out, err)
    raise AssertionError(f"unhandled command {args.command}")


def _discard_stdout() -> None:
    """Point standard output's file descriptor at the null device, so the
    output still buffered for a closed pipe is dropped when the interpreter
    flushes it at exit, rather than reported there as an ignored error."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor: nothing is flushed at exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: Optional[list[str]] = None) -> int:
    # A command frees everything it makes by reference counting (a test
    # holds every command to that), so the cycle collector would only scan
    # the live tree and compiled closures; pause it, and put back the state
    # the caller had.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _build_arg_parser().parse_args(argv)
        except SystemExit as exc:
            # Python 3.10's argparse keeps the ArgumentError it reports in
            # a frame of that error's own traceback, a reference cycle.
            # (Imported here: `traceback` is not otherwise loaded at startup.)
            import traceback

            if exc.__context__ is not None:
                traceback.clear_frames(exc.__context__.__traceback__)
            raise
        try:
            code = _command(args)
            sys.stdout.flush()  # a closed output shows here, not at exit
        except BrokenPipeError:  # unbound: the error's traceback holds this frame
            _discard_stdout()
            return 4
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
