"""Command-line front door: run, check, restore, ast and a line REPL.

Exit codes: 0 clean run, 1 an abstract error is left in the register,
2 parse diagnostics or a bad command line, 3 fuel exhausted or a program
too deep to evaluate, 4 an I/O failure: unreadable input, text that is
not UTF-8, or a standard output closed before the command's output is
written (as when piped into `head`; nothing is printed then).

`run` and `repl` import the evaluator and the state module when they
start, so `check`, `restore` and `ast` load only the front end.  Every
command parses at the caller's recursion limit; evaluation runs at the
evaluator's own (`semantics.RECURSION_LIMIT`), and running out of it is
`evaluation too deep`, exit 3.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, TextIO, TypeVar, Union

from .diagnostics import LinguaParseError, format_diagnostic
from .kernel import (
    AbstractError,
    ArrayBody,
    ArrayData,
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
)
from . import nodes as n
from .parser import parse_any, parse_program
from .printer import ast_dump, print_concrete
from .record import record

if TYPE_CHECKING:
    from .state import State

DEFAULT_FUEL = 10_000_000

T = TypeVar("T")


class RunConfig(metaclass=record, frozen=False):
    fuel: Optional[int] = DEFAULT_FUEL
    limits: Limits = Limits()
    trace: bool = False


# How a truth value, a number and a word are written, by class: only a
# number's writer is Python code, so the others cost no Python call
_SCALAR_TEXT = {bool: ("false", "true").__getitem__, Number: Number.text, str: "'{}'".format}


def _scalar_text(dat: object) -> str:
    """The text of a truth value, number or word, as `nodes._render` takes
    a scalar."""
    write = _SCALAR_TEXT.get(dat.__class__)
    if write is None:
        raise TypeError(f"not a datum: {dat!r}")
    return write(dat)


def _labelled(fields: tuple) -> list[tuple[str, object]]:
    """A record's (name, part) fields as `nodes._render`'s children."""
    return [(f", {name}: " if i else f"{name}: ", part) for i, (name, part) in enumerate(fields)]


def _data_parts(dat: Data, depth: int) -> tuple[str, list, str]:
    """A collection datum's text around its items, as `nodes._render`
    takes it.  A certified collection is homogeneous: when its first item
    is a truth value, number or word, so is every item, and one join
    writes them."""
    if dat.__class__ is RecordData:
        return "{", _labelled(dat.fields), "}"
    opening, closing = "()" if dat.__class__ is ListData else "[]"
    items = dat.items
    write = _SCALAR_TEXT.get(items[0].__class__) if items else None
    if write is not None:
        return opening + ", ".join(map(write, items)) + closing, [], ""
    return opening, [(", " if i else "", item) for i, item in enumerate(items)], closing


def format_data(dat: Data) -> str:
    """A datum's text, written by `nodes._render`, so data of any depth
    prints at the default recursion limit."""
    write = _SCALAR_TEXT.get(dat.__class__)
    if write is not None:
        return write(dat)
    return n._render(dat, _data_parts, _scalar_text, (ListData, ArrayData, RecordData))


def _simple_text(bod: object) -> str:
    """A simple body's name, as `nodes._render` takes a scalar."""
    if bod.__class__ is not SimpleBody:
        raise TypeError(f"not a body: {bod!r}")
    return bod.name


def _body_parts(bod: Body, depth: int) -> tuple[str, list, str]:
    """A collection body's text around its parts, as `nodes._render` takes
    it; a collection of a simple body is one text."""
    if bod.__class__ is RecordBody:
        return "{", _labelled(bod.fields), "}"
    kind, element = "list of " if bod.__class__ is ListBody else "array of ", bod.element
    if element.__class__ is SimpleBody:
        return kind + element.name, [], ""
    return kind, [("", element)], ""


def format_body(bod: Body) -> str:
    """A body's text, written by `nodes._render` as `format_data` is."""
    if bod.__class__ is SimpleBody:
        return bod.name
    return n._render(bod, _body_parts, _simple_text, (ListBody, ArrayBody, RecordBody))


def format_composite(com: Composite) -> str:
    return f"({format_data(com.dat)}, {format_body(com.bod)})"


def format_value(val: Value) -> str:
    content = "Ω" if val.content is OMEGA else format_data(val.content)
    return f"({content}, {format_body(val.typ.bod)}) with {val.typ.tra.source}"


def state_report(sta: State) -> list[str]:
    from .state import register_word

    lines = [
        f"{ide} = {format_value(val)}"
        for ide, val in sorted(sta.store.valuation.items())
    ]
    lines.append(f"register = {register_word(sta)}")
    return lines


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
    from .semantics import Evaluator, OutOfFuel
    from .state import empty_state, is_error

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


def cmd_tree(path: str, write: Optional[Callable[[n.Node], str]], out: TextIO, err: TextIO) -> int:
    """`check`, `restore` and `ast`: parse the file at `path` and print
    `write`'s text of its tree, when there is a writer."""
    parsed = _load(path, parse_any, err)
    if isinstance(parsed, int):
        return parsed
    if write is not None:
        print(write(parsed[1]), file=out)
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
    from .semantics import Evaluator, OutOfFuel
    from .state import clear_error, empty_state, is_error, register_word

    sta = empty_state()
    interactive = stdin.isatty()
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
        evaluator = Evaluator(limits=config.limits, fuel=config.fuel)
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
        return cmd_tree(args.file, None, out, err)
    if args.command == "restore":
        return cmd_tree(args.file, print_concrete, out, err)
    if args.command == "ast":
        return cmd_tree(args.file, functools.partial(ast_dump, format=args.format), out, err)
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
        args = _build_arg_parser().parse_args(argv)
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
