"""Canonical concrete-syntax printing and AST dumps.

Every text of a tree is written by `nodes._render`, so a tree of any depth
prints in a constant number of Python frames.  print_concrete writes every
phrase of the parser's tables from its row: a keyword phrase, procedure
declarations and calls included, from its canonical template in
`PHRASES`, and an operator from `OPERATORS`, each operand by the writer
of its kind.  It fully parenthesizes binary operators, glue included: the
grammar writes glue without parentheses of its own, but under the
priority ladder a bare glue nested inside another operator would re-parse
differently, and the printing contract is that output re-parses to an
equal tree.  The parser accepts the added parentheses as plain grouping.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Any

from .kernel import Number
from .parser import ACTUALS, DATA, FORMALS, IDENT, NEGATION, OPERATORS, PHRASES, TYPE
from . import nodes as n


def _form(cls: type, template: tuple) -> tuple[tuple, str]:
    """`cls`'s template split at each operand: (text before, field, writer)
    per operand, and the text after.  Words are spaced; brackets and
    parentheses hug what they enclose, and `.` and `[` what they follow."""
    text = ""
    for part in template:
        word = part if part.__class__ is str else "%s"
        if text and text[-1] not in "([." and word not in (")", "]", "[", "."):
            text += " "
        text += word
    *befores, after = text.split("%s")
    writers = [_WRITERS.get(part) for part in template if part.__class__ is not str]
    return tuple(zip(befores, cls.__match_args__, writers)), after


def _forms() -> dict[type, tuple[tuple, str]]:
    forms = {cls: _form(cls, templates[0]) for cls, templates in PHRASES.items()}
    for token, (priority, *columns) in (*OPERATORS.items(), ("not", NEGATION)):
        if priority is None:
            template: tuple = ("(", token, DATA, ")")
        else:
            template = ("(", DATA, token, DATA, ")")
        for column in filter(None, columns):
            forms[column] = _form(column, template)
    forms[n.IdeExp] = forms[n.IdeTyp] = _form(n.IdeExp, (IDENT,))
    forms[n.FormalParam] = _form(n.FormalParam, (IDENT, "as", TYPE))
    forms[n.AssignIns] = _form(n.AssignIns, (IDENT, ":=", DATA))
    return forms


def _unprintable(value: Any) -> str:
    raise TypeError(f"cannot print {value!r}")


def _ident(ide: Any) -> str:
    return ide if ide.__class__ is str else _unprintable(ide)


def _formals(params: tuple[n.FormalParam, ...]) -> str:
    if not params:
        return "empty-fp"
    return ", ".join(map(print_concrete, params))


def _actuals(names: tuple[str, ...]) -> str:
    return ", ".join(names) if names else "empty-ap"


def _concrete(node: Any, depth: int) -> tuple[str, list, str]:
    """A node's text around its children, as `nodes._render` takes it.  An
    identifier's or a parameter list's text joins the text around it, so
    every child is a node, and `_render` hands anything else to
    `_unprintable`."""
    form = _FORMS.get(node.__class__)
    if form is not None:
        children, text = [], ""
        for before, name, write in form[0]:
            if write is None:
                children.append((text + before, getattr(node, name)))
                text = ""
            else:
                text += before + write(getattr(node, name))
        return "", children, text + form[1]
    match node:
        case n.BoolLit(value) | n.TraBoolLit(value):
            return "true" if value else "false", [], ""
        case n.NumLit(num) | n.TraNumLit(num):
            return num.text(), [], ""
        case n.WordLit(wor) | n.TraWordLit(wor):
            return f"'{wor}'", [], ""
        case n.FunCallExp(ide, apar):
            return f"{_ident(ide)}({_actuals(apar)})", [], ""
        # declarations
        case n.MultiProcDec(decs):
            children = [(" " if i else "", dec) for i, dec in enumerate(decs)]
            return "begin multiproc ", children, " end multiproc"
        case n.FunProcDec(ide, params, None, dae, None):
            return f"fun {_ident(ide)} ({_formals(params)}) ", [("", dae)], " endfun"
        case n.FunProcDec(ide, params, prg, dae, tex):
            children = [("", prg), (" return ", dae), (" as ", tex)]
            return f"fun {_ident(ide)} ({_formals(params)}) ", children, " end fun"
        # sequences of every sort
        case n.SeqIns(items) | n.PreSeq(items) | n.VarDecSeq(items) | n.TypDefSeq(items):
            return "", [(" ; " if i else "", item) for i, item in enumerate(items)], ""
        # programs
        case n.Program(None, ins):
            return "begin-program ", [("", ins)], " end-program"
        case n.Program(pam, ins):
            return "begin-program ", [("", pam), (" ; ", ins)], " end-program"
    return _unprintable(node)


def print_concrete(ast: n.Node) -> str:
    return n._render(ast, _concrete, _unprintable)


_WRITERS = {IDENT: _ident, FORMALS: _formals, ACTUALS: _actuals}
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


def _quote(value: Any) -> str:
    """`value` as JSON.  Only a dump quotes, so `json` is imported here and
    `check` and `run` never load it."""
    import json

    return json.dumps(value)


def _json_container(value: Any, depth: int):
    """As `json.dumps(indent=2)` lays out an object or an array."""
    brackets = "[]" if isinstance(value, tuple) else "{}"
    fields = _fields(value)
    if not fields:
        return brackets, [], ""
    inner = "\n" + "  " * (depth + 1)
    children = [
        (("," if i else "") + inner + ("" if key is None else _quote(key) + ": "), v)
        for i, (key, v) in enumerate(fields)
    ]
    return brackets[0], children, "\n" + "  " * depth + brackets[1]


def _sexpr_container(value: Any, depth: int):
    children = [(" " if i else "", v) for i, (_, v) in enumerate(_fields(value))]
    return "(", children, ")"


def _json_scalar(value: Any) -> str:
    return _quote(value.text() if isinstance(value, Number) else value)


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
        return _quote(value)
    return str(value)


def ast_dump(ast: n.Node, format: str = "sexpr") -> str:
    """Deterministic serialization; format is 'json' or 'sexpr'."""
    if format == "json":
        return n._render(ast, _json_container, _json_scalar)
    if format == "sexpr":
        return n._render(ast, _sexpr_container, _sexpr_scalar)
    raise ValueError(f"unknown dump format: {format!r}")
