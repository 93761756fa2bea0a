"""Canonical concrete-syntax printing and AST dumps.

print_concrete fully parenthesizes binary operators, glue included: the
grammar writes glue without parentheses of its own, but under the priority
ladder a bare glue nested inside another operator would re-parse
differently, and the printing contract is that output re-parses to an
equal tree.  The parser accepts the added parentheses as plain grouping.
"""

from __future__ import annotations

import dataclasses
import json
import re
from functools import cache
from typing import Any

from .kernel import Number
from . import nodes as n


def _formals(params: tuple[n.FormalParam, ...]) -> str:
    if not params:
        return "empty-fp"
    return ", ".join(f"{p.ide} as {print_concrete(p.tex)}" for p in params)


def _actuals(names: tuple[str, ...]) -> str:
    return ", ".join(names) if names else "empty-ap"


def print_concrete(ast: n.Node) -> str:
    p = print_concrete
    match ast:
        # data expressions, each shared operator in one arm with its
        # transfer twin
        case n.BoolLit(value) | n.TraBoolLit(value):
            return "true" if value else "false"
        case n.NumLit(num) | n.TraNumLit(num):
            return num.text()
        case n.WordLit(wor) | n.TraWordLit(wor):
            return f"'{wor}'"
        case n.IdeExp(ide):
            return ide
        case n.AndExp(a, b) | n.TraAndExp(a, b):
            return f"({p(a)} and {p(b)})"
        case n.OrExp(a, b) | n.TraOrExp(a, b):
            return f"({p(a)} or {p(b)})"
        case n.NotExp(a) | n.TraNotExp(a):
            return f"(not {p(a)})"
        case n.LessExp(a, b) | n.TraLessExp(a, b):
            return f"({p(a)} < {p(b)})"
        case n.AddExp(a, b) | n.TraAddExp(a, b):
            return f"({p(a)} + {p(b)})"
        case n.DivExp(a, b) | n.TraDivExp(a, b):
            return f"({p(a)} / {p(b)})"
        case n.MulExp(a, b):
            return f"({p(a)} * {p(b)})"
        case n.SubExp(a, b):
            return f"({p(a)} - {p(b)})"
        case n.EqExp(a, b) | n.TraEqExp(a, b):
            return f"({p(a)} = {p(b)})"
        case n.GlueExp(a, b) | n.TraGlueExp(a, b):
            return f"({p(a)} glue {p(b)})"
        case n.ListExp(a):
            return f"list {p(a)} ee"
        case n.PushExp(a, b):
            return f"push {p(a)} on {p(b)} ee"
        case n.TopExp(a):
            return f"top ({p(a)})"
        case n.PopExp(a):
            return f"pop ({p(a)})"
        case n.ArrayExp(a):
            return f"array {p(a)} ee"
        case n.AddToArrExp(a, b):
            return f"add-to-arr {p(a)} new {p(b)} ee"
        case n.ChangeArrExp(a, i, e):
            return f"change-arr {p(a)} at {p(i)} by {p(e)} ee"
        case n.ArrAtExp(a, i):
            return f"arr {p(a)} at {p(i)} ee"
        case n.RecordExp(ide, e):
            return f"record {ide} of-value {p(e)} ee"
        case n.AddAttrExp(ide, e, r):
            return f"add-attr {ide} of-value {p(e)} to {p(r)} ee"
        case n.RecAtExp(r, ide):
            return f"rec {p(r)} at {ide} ee"
        case n.RemoveAttrExp(ide, r):
            return f"remove-attr {ide} from {p(r)} ee"
        case n.ChangeRecExp(r, ide, e):
            return f"change-rec {p(r)} at {ide} by {p(e)} ee"
        case n.CondExp(g, a, b):
            return f"if {p(g)} then {p(a)} else {p(b)} fi"
        case n.FunCallExp(ide, apar):
            return f"{ide}({_actuals(apar)})"
        # transfer-only expressions
        case n.SumExp(a):
            return f"sum ({p(a)})"
        case n.MaxExp(a):
            return f"max ({p(a)})"
        case n.SmallNumberExp(a):
            return f"small-number ({p(a)})"
        case n.IncreasingExp(a):
            return f"increasing ({p(a)})"
        case n.AllListExp(a):
            return f"all-list {p(a)} ee"
        case n.AllArrayExp(a):
            return f"all-array {p(a)} ee"
        case n.TopTra():
            return "top"
        case n.ArrayAtTra(a):
            return f"array[{p(a)}]"
        case n.RecordAtTra(ide):
            return f"record.{ide}"
        case n.ValueTra():
            return "value"
        # type expressions
        case n.BooleanTyp():
            return "boolean"
        case n.NumberTyp():
            return "number"
        case n.WordTyp():
            return "word"
        case n.IdeTyp(ide):
            return ide
        case n.ListTyp(t):
            return f"list-type {p(t)} ee"
        case n.ArrayTyp(t):
            return f"array-type {p(t)} ee"
        case n.RecordTyp(ide, t):
            return f"record-type {ide} as {p(t)} ee"
        case n.ExpandRecordTyp(t1, ide, t2):
            return f"expand-record-type {p(t1)} at {ide} by {p(t2)} ee"
        case n.ReplaceTransferTyp(t, w):
            return f"replace-transfer-in {p(t)} by {p(w)} ee"
        # declarations
        case n.VarDec(ide, t):
            return f"let {ide} be {p(t)} tel"
        case n.TypDef(ide, t):
            return f"set {ide} as {p(t)} tes"
        case n.FormalParam(ide, t):
            return f"{ide} as {p(t)}"
        case n.ImpProcDec(ide, val_params, ref_params, prg):
            return (
                f"proc {ide} (val {_formals(val_params)} ref {_formals(ref_params)}) "
                f"{p(prg)} end proc"
            )
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
        case n.YokeIns(ide, tre):
            return f"yoke {ide} := {p(tre)}"
        case n.SkipIns():
            return "skip"
        case n.CallIns(ide, ref_args, val_args):
            return f"call {ide} (ref {_actuals(ref_args)} val {_actuals(val_args)})"
        case n.IfIns(g, a, b):
            return f"if {p(g)} then {p(a)} else {p(b)} fi"
        case n.IfErrorIns(g, a):
            return f"if-error {p(g)} then {p(a)} fi"
        case n.WhileIns(g, a):
            return f"while {p(g)} do {p(a)} od"
        # sequences of every sort, joined along an explicit stack so that
        # long straight-line programs print without deep recursion
        case n.SeqIns() | n.PreSeq() | n.VarDecSeq() | n.TypDefSeq():
            return " ; ".join(p(item) for item in n.sequence_items(ast))
        # programs
        case n.Program(None, ins):
            return f"begin-program {p(ins)} end-program"
        case n.Program(pam, ins):
            return f"begin-program {p(pam)} ; {p(ins)} end-program"
    raise TypeError(f"cannot print {ast!r}")


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
    fields = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    return [("node", _kebab(type(value).__name__))] + fields


def _render(ast: n.Node, container, scalar) -> str:
    """Dump `ast` along an explicit stack, so nesting costs no recursion.

    `container(value, depth)` gives a node's or tuple's (opening text,
    [(text before child, child)], closing text); `scalar(value)` gives the
    text of anything else, numbers as their literal text.  Plain text rides
    the stack as `(text, None)`.
    """
    parts: list[str] = []
    stack: list[tuple[Any, Any]] = [(ast, 0)]
    while stack:
        value, depth = stack.pop()
        if depth is None:
            parts.append(value)
        elif isinstance(value, (n.Node, tuple)):
            opening, children, closing = container(value, depth)
            parts.append(opening)
            stack.append((closing, None))
            for before, child in reversed(children):
                stack += ((child, depth + 1), (before, None))
        else:
            parts.append(scalar(value.text() if isinstance(value, Number) else value))
    return "".join(parts)


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


def _sexpr_scalar(value: Any) -> str:
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
        return _render(ast, _json_container, json.dumps)
    if format == "sexpr":
        return _render(ast, _sexpr_container, _sexpr_scalar)
    raise ValueError(f"unknown dump format: {format!r}")
