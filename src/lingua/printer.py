"""Canonical concrete-syntax printing and AST dumps.

print_concrete writes every phrase of the parser's tables from its row:
a keyword phrase, procedure declarations and calls included, from its
canonical template in `PHRASES`, and an operator from `OPERATORS`, each
operand by the writer of its kind.  It fully parenthesizes binary
operators, glue included: the grammar writes glue without parentheses of
its own, but under the priority ladder a bare glue nested inside another
operator would re-parse differently, and the printing contract is that
output re-parses to an equal tree.  The parser accepts the added
parentheses as plain grouping.
"""

from __future__ import annotations

import json
import re
from functools import cache
from typing import Any

from .kernel import Number
from .parser import ACTUALS, DATA, FORMALS, IDENT, NEGATION, OPERATORS, PHRASES
from . import nodes as n


def _form(cls: type, template: tuple) -> tuple[str, tuple]:
    """`cls`'s template as %-format text, each operand a `%s`, with the
    (name, writer) of the field that fills each.  Words are spaced; brackets
    and parentheses hug what they enclose, and `.` and `[` what they follow."""
    text = ""
    for part in template:
        word = part if part.__class__ is str else "%s"
        if text and text[-1] not in "([." and word not in (")", "]", "[", "."):
            text += " "
        text += word
    writers = [
        _WRITERS.get(part, print_concrete) for part in template if part.__class__ is not str
    ]
    return text, tuple(zip(cls.__match_args__, writers))


def _forms() -> dict[type, tuple[str, tuple]]:
    forms = {cls: _form(cls, templates[0]) for cls, templates in PHRASES.items()}
    for token, (priority, *columns) in (*OPERATORS.items(), ("not", NEGATION)):
        if priority is None:
            template: tuple = ("(", token, DATA, ")")
        else:
            template = ("(", DATA, token, DATA, ")")
        for column in filter(None, columns):
            forms[column] = _form(column, template)
    return forms


def _formals(params: tuple[n.FormalParam, ...]) -> str:
    if not params:
        return "empty-fp"
    return ", ".join(map(print_concrete, params))


def _actuals(names: tuple[str, ...]) -> str:
    return ", ".join(names) if names else "empty-ap"


def print_concrete(ast: n.Node) -> str:
    p = print_concrete
    form = _FORMS.get(ast.__class__)
    if form is not None:
        text, fields = form
        operands = []
        for name, write in fields:  # a loop, not a generator: one frame a level
            operands.append(write(getattr(ast, name)))
        return text % tuple(operands)
    match ast:
        case n.BoolLit(value) | n.TraBoolLit(value):
            return "true" if value else "false"
        case n.NumLit(num) | n.TraNumLit(num):
            return num.text()
        case n.WordLit(wor) | n.TraWordLit(wor):
            return f"'{wor}'"
        case n.IdeExp(ide) | n.IdeTyp(ide):
            return ide
        case n.FunCallExp(ide, apar):
            return f"{ide}({_actuals(apar)})"
        # declarations
        case n.FormalParam(ide, t):
            return f"{ide} as {p(t)}"
        case n.MultiProcDec(decs):
            inner = " ".join(p(d) for d in decs)
            return f"begin multiproc {inner} end multiproc"
        case n.FunProcDec(ide, params, None, dae, None):
            return f"fun {ide} ({_formals(params)}) {p(dae)} endfun"
        case n.FunProcDec(ide, params, prg, dae, tex):
            return (
                f"fun {ide} ({_formals(params)}) {p(prg)} "
                f"return {p(dae)} as {p(tex)} end fun"
            )
        # instructions
        case n.AssignIns(ide, dae):
            return f"{ide} := {p(dae)}"
        # sequences of every sort
        case n.SeqIns(items) | n.PreSeq(items) | n.VarDecSeq(items) | n.TypDefSeq(items):
            return " ; ".join(p(item) for item in items)
        # programs
        case n.Program(None, ins):
            return f"begin-program {p(ins)} end-program"
        case n.Program(pam, ins):
            return f"begin-program {p(pam)} ; {p(ins)} end-program"
    raise TypeError(f"cannot print {ast!r}")


_WRITERS = {IDENT: str, FORMALS: _formals, ACTUALS: _actuals}
_FORMS = _forms()


# ---------------------------------------------------------------------------
# dumps


@cache  # one entry per node class
def _kebab(name: str) -> str:
    if name.endswith("Ins"):  # instruction labels read like their clauses
        name = name[:-3]
    return re.sub(r"(?<=.)(?=[A-Z])", "-", name).lower()


def _fields(value: Any) -> list[tuple[Any, Any]]:
    """A node's (key, value) pairs, its kebab-case name first, or a tuple's
    (None, item) pairs."""
    if isinstance(value, tuple):
        return [(None, item) for item in value]
    fields = [(name, getattr(value, name)) for name in value.__match_args__]
    return [("node", _kebab(type(value).__name__))] + fields


def _json_container(value: Any, depth: int):
    """As `json.dumps(indent=2)` lays out an object or an array."""
    brackets = "[]" if isinstance(value, tuple) else "{}"
    fields = _fields(value)
    if not fields:
        return brackets, [], ""
    inner = "\n" + "  " * (depth + 1)
    children = [
        (("," if i else "") + inner + ("" if key is None else json.dumps(key) + ": "), v)
        for i, (key, v) in enumerate(fields)
    ]
    return brackets[0], children, "\n" + "  " * depth + brackets[1]


def _sexpr_container(value: Any, depth: int):
    children = [(" " if i else "", v) for i, (_, v) in enumerate(_fields(value))]
    return "(", children, ")"


def _json_scalar(value: Any) -> str:
    return json.dumps(value.text() if isinstance(value, Number) else value)


def _sexpr_scalar(value: Any) -> str:
    if isinstance(value, Number):
        value = value.text()
    if value is None:
        return "()"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        if value and all(c.isalnum() or c in "-." for c in value):
            return value
        return json.dumps(value)
    return str(value)


def ast_dump(ast: n.Node, format: str = "sexpr") -> str:
    """Deterministic serialization; format is 'json' or 'sexpr'."""
    if format == "json":
        return n._render(ast, _json_container, _json_scalar)
    if format == "sexpr":
        return n._render(ast, _sexpr_container, _sexpr_scalar)
    raise ValueError(f"unknown dump format: {format!r}")
