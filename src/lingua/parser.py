"""Recursive-descent parser accepting the union of concrete and colloquial
syntax.  The result is always a concrete tree: parenthesis restoration,
array/record literal unfolding, selector sugar, type sugar and parameter
grouping are rewritten while parsing.

Operator priorities, tightest first: not, then * /, then + -, then glue,
then < =, then and, then or; equal priorities associate to the left.

Each grammar clause the parser goes through is recorded in a `fired` tag
set, which is how the test corpus measures production coverage.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, TypeVar, Union

from .diagnostics import LinguaParseError, ParseDiagnostic
from .lexer import Token, tokenize
from . import nodes as n

# Tags for every concrete grammar production, grouped by sort.  Documented
# extensions (mul, sub, eq, negative literals) are tagged separately and are
# not part of the core set.
ALL_PRODUCTIONS: dict[str, tuple[str, ...]] = {
    "DatExp": (
        "true", "false", "num", "wor", "ide",
        "and", "or", "not", "less", "add", "div", "glue",
        "list", "push", "top", "pop",
        "array", "add-to-arr", "change-arr", "arr-at",
        "record", "add-attr", "rec-at", "remove-attr", "change-rec",
        "cond", "call",
    ),
    "TraExp": (
        "num", "wor", "add", "div", "sum", "max", "glue",
        "true", "false", "eq", "less", "small-number", "increasing",
        "and", "or", "not",
        "all-list", "all-array",
        "top", "array-at", "record-attr",
        "value",
    ),
    "TypExp": (
        "boolean", "number", "word", "ide",
        "list-type", "array-type", "record-type",
        "expand-record-type", "replace-transfer-in",
    ),
    "VarDec": ("dec", "seq"),
    "TypDef": ("def", "seq"),
    "ActParameters": ("empty", "single", "seq"),
    "ForParameters": ("empty", "single", "seq"),
    "ImpProcDec": ("dec",),
    "MultiProcDec": ("dec",),
    "FunProcDec": ("expression", "program"),
    "Instruction": ("assign", "yoke", "skip", "call", "if", "if-error", "while", "seq"),
    "Preamble": ("imp-proc", "multi-proc", "fun-proc", "typ-def", "var-dec", "skip", "seq"),
    "Program": ("plain", "with-preamble"),
}

ALL_PRODUCTION_TAGS = frozenset(
    f"{sort}:{name}" for sort, names in ALL_PRODUCTIONS.items() for name in names
)

# The operators data and transfer expressions share, written once:
# token -> (priority, (data node, tag), (transfer node, tag)).  `-` and `*`
# have no transfer form.  An expression's sort is its column.
DATA, TRANSFER = 1, 2

_OPERATORS: dict[str, tuple] = {
    "or": (1, (n.OrExp, "DatExp:or"), (n.TraOrExp, "TraExp:or")),
    "and": (2, (n.AndExp, "DatExp:and"), (n.TraAndExp, "TraExp:and")),
    "<": (3, (n.LessExp, "DatExp:less"), (n.TraLessExp, "TraExp:less")),
    "=": (3, (n.EqExp, "DatExp:eq"), (n.TraEqExp, "TraExp:eq")),
    "glue": (4, (n.GlueExp, "DatExp:glue"), (n.TraGlueExp, "TraExp:glue")),
    "+": (5, (n.AddExp, "DatExp:add"), (n.TraAddExp, "TraExp:add")),
    "-": (5, (n.SubExp, "DatExp:sub"), None),
    "*": (6, (n.MulExp, "DatExp:mul"), None),
    "/": (6, (n.DivExp, "DatExp:div"), (n.TraDivExp, "TraExp:div")),
}

# `not`, by the same columns
_NOT = (None, (n.NotExp, "DatExp:not"), (n.TraNotExp, "TraExp:not"))

_COMBINATORS = {
    "sum": (n.SumExp, "TraExp:sum"),
    "max": (n.MaxExp, "TraExp:max"),
    "small-number": (n.SmallNumberExp, "TraExp:small-number"),
    "increasing": (n.IncreasingExp, "TraExp:increasing"),
}

_DECL_KEYWORDS = ("let", "set", "proc", "fun")

T = TypeVar("T")


def _fold_right(items: list, ctor: Callable):
    out = items[-1]
    for item in reversed(items[:-1]):
        out = ctor(item, out)
    return out


def _rebase_value(tre: n.TraExp, attr: str) -> n.TraExp:
    """Rewrite `value` leaves to `record.attr` when folding inline yokes."""
    if isinstance(tre, n.ValueTra):
        return n.RecordAtTra(attr)
    kwargs = {}
    for f in dataclasses.fields(tre):
        v = getattr(tre, f.name)
        kwargs[f.name] = _rebase_value(v, attr) if isinstance(v, n.TraExp) else v
    return type(tre)(**kwargs)


class Parser:
    """Parses `text`, from `tokens` when they are given: parsers that try
    several sorts on one text share a single tokenization."""

    def __init__(self, text: str, tokens: Optional[list[Token]] = None):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.pos = 0
        self.fired: set[str] = set()

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        try:
            return self.tokens[self.pos + k]
        except IndexError:  # looking past the end sees the eof token
            return self.tokens[-1]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fire(self, tag: str) -> None:
        self.fired.add(tag)

    def error(self, message: str, kind: str = "syntactic", token: Optional[Token] = None):
        tok = token or self.peek()
        raise LinguaParseError(ParseDiagnostic(tok.span, message, kind))

    def accept_keyword(self, *names: str) -> bool:
        if self.peek().is_keyword(*names):
            self.take()
            return True
        return False

    def accept_punct(self, *names: str) -> bool:
        if self.peek().is_punct(*names):
            self.take()
            return True
        return False

    def expect_keyword(self, name: str) -> Token:
        tok = self.peek()
        if not tok.is_keyword(name):
            self.error(f"expected '{name}', found {self._describe(tok)}")
        return self.take()

    def expect_punct(self, name: str) -> Token:
        tok = self.peek()
        if not tok.is_punct(name):
            self.error(f"expected '{name}', found {self._describe(tok)}")
        return self.take()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind == "keyword":
            self.error(
                f"keyword '{tok.text}' cannot be used as an identifier",
                kind="keyword-misuse",
            )
        if tok.kind != "ident":
            self.error(f"expected an identifier, found {self._describe(tok)}")
        return self.take().text

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected {self._describe(tok)} after the end of the phrase")

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        if tok.kind == "word":
            return f"word literal '{tok.text}'"
        return f"'{tok.text}'"

    # -- data and transfer expressions --------------------------------------

    def expression(self, sort: int, min_prec: int = 0) -> n.Node:
        """A data or transfer expression, as `sort` says, whose binary
        operators bind at least as tightly as `min_prec`."""
        left = self.unary(sort)
        while True:
            tok = self.peek()
            op = _OPERATORS.get(tok.text) if tok.kind != "word" else None
            if op is None or op[sort] is None or op[0] < min_prec:
                break
            self.take()
            right = self.expression(sort, op[0] + 1)
            ctor, tag = op[sort]
            left = ctor(left, right)
            self.fire(tag)
        return left

    def unary(self, sort: int) -> n.Node:
        if self.accept_keyword("not"):
            operand = self.unary(sort)
            ctor, tag = _NOT[sort]
            self.fire(tag)
            return ctor(operand)
        if sort == DATA:
            return self.data_postfix(self.data_atom())
        return self.tra_atom()

    def data_postfix(self, node: n.DatExp) -> n.DatExp:
        while self.peek().is_punct("."):
            nxt = self.peek(1)
            if nxt.is_punct("["):
                self.take()
                self.take()
                index = self.expression(DATA)
                self.expect_punct("]")
                node = n.ArrAtExp(node, index)
                self.fire("DatExp:arr-at")
            elif nxt.is_punct("("):
                self.take()
                self.take()
                ide = self.expect_ident()
                self.expect_punct(")")
                node = n.RecAtExp(node, ide)
                self.fire("DatExp:rec-at")
            else:
                self.error("expected '[' or '(' after '.'")
        return node

    def data_atom(self) -> n.DatExp:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            self.fire("DatExp:num")
            return n.NumLit(tok.num)
        if tok.is_punct("-") and self.peek(1).kind == "num":
            self.take()
            lit = self.take()
            self.fire("DatExp:num")
            self.fire("DatExp:neg")
            return n.NumLit(lit.num.neg())
        if tok.kind == "word":
            self.take()
            self.fire("DatExp:wor")
            return n.WordLit(tok.text)
        if tok.kind == "ident":
            self.take()
            if self.peek().is_punct("("):
                self.take()
                apar = self.actual_params()
                self.expect_punct(")")
                self.fire("DatExp:call")
                return n.FunCallExp(tok.text, apar)
            self.fire("DatExp:ide")
            return n.IdeExp(tok.text)
        if tok.is_punct("("):
            self.take()
            inner = self.expression(DATA)
            self.expect_punct(")")
            return inner
        if tok.kind == "keyword":
            return self._data_keyword_atom(tok)
        self.error(f"expected a data expression, found {self._describe(tok)}")

    def _data_keyword_atom(self, tok: Token) -> n.DatExp:
        kw = tok.text
        if kw in ("true", "false"):
            self.take()
            self.fire(f"DatExp:{kw}")
            return n.BoolLit(kw == "true")
        if kw == "list":
            self.take()
            element = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:list")
            return n.ListExp(element)
        if kw == "push":
            self.take()
            element = self.expression(DATA)
            self.expect_keyword("on")
            target = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:push")
            return n.PushExp(element, target)
        if kw in ("top", "pop"):
            self.take()
            self.expect_punct("(")
            operand = self.expression(DATA)
            self.expect_punct(")")
            self.fire(f"DatExp:{kw}")
            return n.TopExp(operand) if kw == "top" else n.PopExp(operand)
        if kw == "array":
            self.take()
            if self.accept_punct("["):
                elements = [self.expression(DATA)]
                while self.accept_punct(","):
                    elements.append(self.expression(DATA))
                self.expect_punct("]")
                self.fire("DatExp:array")
                node: n.DatExp = n.ArrayExp(elements[0])
                for element in elements[1:]:
                    node = n.AddToArrExp(node, element)
                    self.fire("DatExp:add-to-arr")
                return node
            element = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:array")
            return n.ArrayExp(element)
        if kw == "add-to-arr":
            self.take()
            target = self.expression(DATA)
            self.expect_keyword("new")
            element = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:add-to-arr")
            return n.AddToArrExp(target, element)
        if kw == "change-arr":
            self.take()
            target = self.expression(DATA)
            if self.accept_keyword("by"):
                pairs = []
                while True:
                    index = self.expression(DATA)
                    self.expect_punct("<=")
                    element = self.expression(DATA)
                    pairs.append((index, element))
                    if not self.accept_punct(","):
                        break
                self.expect_keyword("ee")
                node = target
                for index, element in pairs:
                    node = n.ChangeArrExp(node, index, element)
                    self.fire("DatExp:change-arr")
                return node
            self.expect_keyword("at")
            index = self.expression(DATA)
            self.expect_keyword("by")
            element = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:change-arr")
            return n.ChangeArrExp(target, index, element)
        if kw == "arr":
            self.take()
            target = self.expression(DATA)
            self.expect_keyword("at")
            index = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:arr-at")
            return n.ArrAtExp(target, index)
        if kw in ("record", "set-record"):
            self.take()
            ide = self.expect_ident()
            if self.accept_keyword("of-value"):
                expr = self.expression(DATA)
                self.expect_keyword("ee")
                self.fire("DatExp:record")
                return n.RecordExp(ide, expr)
            self.expect_punct("<=")
            first = self.expression(DATA)
            fields = []
            while self.accept_punct(","):
                attr = self.expect_ident()
                self.expect_punct("<=")
                fields.append((attr, self.expression(DATA)))
            self.expect_keyword("ee")
            self.fire("DatExp:record")
            node = n.RecordExp(ide, first)
            for attr, expr in fields:
                node = n.AddAttrExp(attr, expr, node)
                self.fire("DatExp:add-attr")
            return node
        if kw in ("add-attr", "add-atr"):
            self.take()
            ide = self.expect_ident()
            self.expect_keyword("of-value")
            expr = self.expression(DATA)
            self.expect_keyword("to")
            target = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:add-attr")
            return n.AddAttrExp(ide, expr, target)
        if kw == "rec":
            self.take()
            target = self.expression(DATA)
            self.expect_keyword("at")
            ide = self.expect_ident()
            self.expect_keyword("ee")
            self.fire("DatExp:rec-at")
            return n.RecAtExp(target, ide)
        if kw == "remove-attr":
            self.take()
            ide = self.expect_ident()
            self.expect_keyword("from")
            target = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:remove-attr")
            return n.RemoveAttrExp(ide, target)
        if kw == "change-rec":
            self.take()
            target = self.expression(DATA)
            self.expect_keyword("at")
            ide = self.expect_ident()
            self.expect_keyword("by")
            expr = self.expression(DATA)
            self.expect_keyword("ee")
            self.fire("DatExp:change-rec")
            return n.ChangeRecExp(target, ide, expr)
        if kw == "if":
            self.take()
            guard = self.expression(DATA)
            self.expect_keyword("then")
            then_branch = self.expression(DATA)
            self.expect_keyword("else")
            else_branch = self.expression(DATA)
            self.expect_keyword("fi")
            self.fire("DatExp:cond")
            return n.CondExp(guard, then_branch, else_branch)
        self.error(f"expected a data expression, found {self._describe(tok)}")

    def tra_atom(self) -> n.TraExp:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            self.fire("TraExp:num")
            return n.TraNumLit(tok.num)
        if tok.kind == "word":
            self.take()
            self.fire("TraExp:wor")
            return n.TraWordLit(tok.text)
        if tok.is_punct("("):
            self.take()
            inner = self.expression(TRANSFER)
            self.expect_punct(")")
            return inner
        if tok.is_keyword("true", "false"):
            self.take()
            self.fire(f"TraExp:{tok.text}")
            return n.TraBoolLit(tok.text == "true")
        if tok.kind == "keyword" and tok.text in _COMBINATORS:
            self.take()
            ctor, tag = _COMBINATORS[tok.text]
            self.expect_punct("(")
            inner = self.expression(TRANSFER)
            self.expect_punct(")")
            self.fire(tag)
            return ctor(inner)
        if tok.is_keyword("all-list", "all-array", "all-of-array"):
            self.take()
            inner = self.expression(TRANSFER)
            self.expect_keyword("ee")
            if tok.text == "all-list":
                self.fire("TraExp:all-list")
                return n.AllListExp(inner)
            self.fire("TraExp:all-array")
            return n.AllArrayExp(inner)
        if tok.is_keyword("array"):
            self.take()
            if self.accept_punct("."):
                self.expect_punct("[")
            elif not self.accept_punct("["):
                self.error("expected '[' after 'array' in a transfer expression")
            index = self.expression(TRANSFER)
            self.expect_punct("]")
            self.fire("TraExp:array-at")
            return n.ArrayAtTra(index)
        if tok.is_keyword("get-from-array"):
            self.take()
            index = self.expression(TRANSFER)
            self.expect_keyword("ee")
            self.fire("TraExp:array-at")
            return n.ArrayAtTra(index)
        if tok.is_keyword("record"):
            self.take()
            self.expect_punct(".")
            ide = self.expect_ident()
            self.fire("TraExp:record-attr")
            return n.RecordAtTra(ide)
        if tok.is_keyword("get-from-record"):
            self.take()
            ide = self.expect_ident()
            self.expect_keyword("ee")
            self.fire("TraExp:record-attr")
            return n.RecordAtTra(ide)
        if tok.is_keyword("top"):
            self.take()
            self.fire("TraExp:top")
            return n.TopTra()
        if tok.is_keyword("value"):
            self.take()
            self.fire("TraExp:value")
            return n.ValueTra()
        self.error(f"expected a transfer expression, found {self._describe(tok)}")

    def _with_transfer(self) -> n.TraExp:
        # A bare combinator name (`with small-number`) means the combinator
        # applied to the attribute value.
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in _COMBINATORS and not self.peek(1).is_punct("("):
            self.take()
            ctor, tag = _COMBINATORS[tok.text]
            self.fire(tag)
            self.fire("TraExp:value")
            return ctor(n.ValueTra())
        return self.expression(TRANSFER)

    # -- type expressions --------------------------------------------------

    def typ_exp(self) -> n.TypExp:
        tok = self.peek()
        if tok.is_keyword("boolean"):
            self.take()
            self.fire("TypExp:boolean")
            return n.BooleanTyp()
        if tok.is_keyword("number"):
            self.take()
            self.fire("TypExp:number")
            return n.NumberTyp()
        if tok.is_keyword("word", "string"):
            self.take()
            self.fire("TypExp:word")
            return n.WordTyp()
        if tok.kind == "ident":
            self.take()
            self.fire("TypExp:ide")
            return n.IdeTyp(tok.text)
        if tok.is_keyword("list-type"):
            self.take()
            inner = self.typ_exp()
            self.expect_keyword("ee")
            self.fire("TypExp:list-type")
            return n.ListTyp(inner)
        if tok.is_keyword("array-type", "array-of"):
            self.take()
            inner = self.typ_exp()
            self.expect_keyword("ee")
            self.fire("TypExp:array-type")
            return n.ArrayTyp(inner)
        if tok.is_keyword("record-type", "record-of"):
            self.take()
            return self._record_type()
        if tok.is_keyword("expand-record-type", "expand-record"):
            self.take()
            base = self.typ_exp()
            self.expect_keyword("at")
            ide = self.expect_ident()
            self.expect_keyword("by")
            addition = self.typ_exp()
            self.expect_keyword("ee")
            self.fire("TypExp:expand-record-type")
            return n.ExpandRecordTyp(base, ide, addition)
        if tok.is_keyword("replace-transfer-in"):
            self.take()
            base = self.typ_exp()
            self.expect_keyword("by")
            transfer = self.expression(TRANSFER)
            self.expect_keyword("ee")
            self.fire("TypExp:replace-transfer-in")
            return n.ReplaceTransferTyp(base, transfer)
        if tok.is_keyword("set-type"):
            self.take()
            base = self.typ_exp()
            if self.accept_keyword("with"):
                transfer = self.expression(TRANSFER)
            else:
                transfer = n.TraBoolLit(True)
                self.fire("TraExp:true")
            self.expect_keyword("ee")
            self.fire("TypExp:replace-transfer-in")
            return n.ReplaceTransferTyp(base, transfer)
        self.error(f"expected a type expression, found {self._describe(tok)}")

    def _record_type(self) -> n.TypExp:
        # Multi-attribute lists and inline `with` yokes are colloquial; they
        # fold into expand-record-type chains and one replace-transfer-in.
        fields: list[tuple[str, n.TypExp, Optional[n.TraExp]]] = []
        while True:
            ide = self.expect_ident()
            self.expect_keyword("as")
            tex = self.typ_exp()
            yoke = self._with_transfer() if self.accept_keyword("with") else None
            fields.append((ide, tex, yoke))
            if not self.accept_punct(","):
                break
        self.expect_keyword("ee")
        self.fire("TypExp:record-type")
        node: n.TypExp = n.RecordTyp(fields[0][0], fields[0][1])
        for ide, tex, _ in fields[1:]:
            node = n.ExpandRecordTyp(node, ide, tex)
            self.fire("TypExp:expand-record-type")
        yokes = [
            _rebase_value(w, ide) for ide, _, w in fields if w is not None
        ]
        if yokes:
            combined = yokes[0]
            for w in yokes[1:]:
                combined = n.TraAndExp(combined, w)
                self.fire("TraExp:and")
            node = n.ReplaceTransferTyp(node, combined)
            self.fire("TypExp:replace-transfer-in")
        return node

    # -- parameters ----------------------------------------------------------

    def actual_params(self, stop: tuple[str, ...] = ()) -> tuple[str, ...]:
        if self.accept_keyword("empty-ap"):
            self.fire("ActParameters:empty")
            return ()
        if self.peek().is_punct(")") or self.peek().is_keyword(*stop):
            self.fire("ActParameters:empty")
            return ()
        names = [self.expect_ident()]
        while self.accept_punct(","):
            names.append(self.expect_ident())
        self.fire("ActParameters:single")
        if len(names) > 1:
            self.fire("ActParameters:seq")
        return tuple(names)

    def formal_params(self, stop: tuple[str, ...] = ()) -> tuple[n.FormalParam, ...]:
        if self.accept_keyword("empty-fp"):
            self.fire("ForParameters:empty")
            return ()
        if self.peek().is_punct(")") or self.peek().is_keyword(*stop):
            self.fire("ForParameters:empty")
            return ()
        params: list[n.FormalParam] = []
        pending: list[str] = []
        while True:
            pending.append(self.expect_ident())
            if self.accept_keyword("as"):
                tex = self.typ_exp()
                for name in pending:
                    params.append(n.FormalParam(name, tex))
                pending = []
                if not self.accept_punct(","):
                    break
            elif not self.accept_punct(","):
                self.error("expected 'as' with a type in the formal parameter list")
        self.fire("ForParameters:single")
        if len(params) > 1:
            self.fire("ForParameters:seq")
        return tuple(params)

    # -- instructions ----------------------------------------------------------

    def instruction_seq(self) -> n.Instruction:
        items = [self.simple_instruction()]
        while self.accept_punct(";"):
            items.append(self.simple_instruction())
        if len(items) > 1:
            self.fire("Instruction:seq")
        return _fold_right(items, n.SeqIns)

    def simple_instruction(self) -> n.Instruction:
        tok = self.peek()
        if tok.is_keyword("skip"):
            self.take()
            self.fire("Instruction:skip")
            return n.SkipIns()
        if tok.is_keyword("call"):
            self.take()
            ide = self.expect_ident()
            self.expect_punct("(")
            self.expect_keyword("ref")
            ref_args = self.actual_params(stop=("val",))
            self.expect_keyword("val")
            val_args = self.actual_params()
            self.expect_punct(")")
            self.fire("Instruction:call")
            return n.CallIns(ide, ref_args, val_args)
        if tok.is_keyword("if"):
            self.take()
            guard = self.expression(DATA)
            self.expect_keyword("then")
            then_branch = self.instruction_seq()
            self.expect_keyword("else")
            else_branch = self.instruction_seq()
            self.expect_keyword("fi")
            self.fire("Instruction:if")
            return n.IfIns(guard, then_branch, else_branch)
        if tok.is_keyword("if-error"):
            self.take()
            guard = self.expression(DATA)
            self.expect_keyword("then")
            handler = self.instruction_seq()
            self.expect_keyword("fi")
            self.fire("Instruction:if-error")
            return n.IfErrorIns(guard, handler)
        if tok.is_keyword("while"):
            self.take()
            guard = self.expression(DATA)
            self.expect_keyword("do")
            body = self.instruction_seq()
            self.expect_keyword("od")
            self.fire("Instruction:while")
            return n.WhileIns(guard, body)
        if tok.is_keyword("yoke"):
            self.take()
            ide = self.expect_ident()
            self.expect_punct(":=")
            transfer = self.expression(TRANSFER)
            self.fire("Instruction:yoke")
            return n.YokeIns(ide, transfer)
        if tok.is_keyword(*_DECL_KEYWORDS) or (
            tok.is_keyword("begin") and self.peek(1).is_keyword("multiproc")
        ):
            self.error("declarations must precede the instructions of a program")
        if tok.kind == "ident":
            ide = self.expect_ident()
            self.expect_punct(":=")
            expr = self.expression(DATA)
            self.fire("Instruction:assign")
            return n.AssignIns(ide, expr)
        self.error(f"expected an instruction, found {self._describe(tok)}")

    # -- declarations ----------------------------------------------------

    def var_dec(self) -> n.VarDec:
        self.expect_keyword("let")
        ide = self.expect_ident()
        self.expect_keyword("be")
        tex = self.typ_exp()
        self.expect_keyword("tel")
        self.fire("VarDec:dec")
        return n.VarDec(ide, tex)

    def typ_def(self) -> n.TypDef:
        self.expect_keyword("set")
        ide = self.expect_ident()
        self.expect_keyword("as")
        tex = self.typ_exp()
        self.expect_keyword("tes")
        self.fire("TypDef:def")
        return n.TypDef(ide, tex)

    def imp_proc_dec(self) -> n.ImpProcDec:
        self.expect_keyword("proc")
        ide = self.expect_ident()
        self.expect_punct("(")
        self.expect_keyword("val")
        val_params = self.formal_params(stop=("ref",))
        self.expect_keyword("ref")
        ref_params = self.formal_params()
        self.expect_punct(")")
        prg = self.program()
        self.expect_keyword("end")
        self.expect_keyword("proc")
        self.fire("ImpProcDec:dec")
        return n.ImpProcDec(ide, val_params, ref_params, prg)

    def multi_proc_dec(self) -> n.MultiProcDec:
        self.expect_keyword("begin")
        self.expect_keyword("multiproc")
        decs = [self.imp_proc_dec()]
        self.accept_punct(";")
        while self.peek().is_keyword("proc"):
            decs.append(self.imp_proc_dec())
            self.accept_punct(";")
        self.expect_keyword("end")
        self.expect_keyword("multiproc")
        self.fire("MultiProcDec:dec")
        return n.MultiProcDec(tuple(decs))

    def fun_proc_dec(self) -> n.FunProcDec:
        self.expect_keyword("fun")
        ide = self.expect_ident()
        self.expect_punct("(")
        params = self.formal_params()
        self.expect_punct(")")
        if self.peek().is_keyword("begin-program"):
            prg = self.program()
            self.expect_keyword("return")
            dae = self.expression(DATA)
            self.expect_keyword("as")
            tex = self.typ_exp()
            if not (self.accept_keyword("end") or self.accept_keyword("and")):
                self.error("expected 'end fun' to close the function declaration")
            self.expect_keyword("fun")
            self.fire("FunProcDec:program")
            return n.FunProcDec(ide, params, prg, dae, tex)
        dae = self.expression(DATA)
        self.expect_keyword("endfun")
        self.fire("FunProcDec:expression")
        return n.FunProcDec(ide, params, None, dae, None)

    def program_item(self) -> n.Node:
        tok = self.peek()
        if tok.is_keyword("let"):
            return self.var_dec()
        if tok.is_keyword("set"):
            return self.typ_def()
        if tok.is_keyword("proc"):
            return self.imp_proc_dec()
        if tok.is_keyword("begin") and self.peek(1).is_keyword("multiproc"):
            return self.multi_proc_dec()
        if tok.is_keyword("fun"):
            return self.fun_proc_dec()
        return self.simple_instruction()

    # -- preambles and programs ------------------------------------------

    def program(self) -> n.Program:
        self.expect_keyword("begin-program")
        items: list[tuple[n.Node, Token]] = []
        while True:
            start = self.peek()
            items.append((self.program_item(), start))
            if not self.accept_punct(";"):
                break
        self.expect_keyword("end-program")
        return self._assemble_program(items)

    def _assemble_program(self, items: list[tuple[n.Node, Token]]) -> n.Program:
        decl_indices = [
            i for i, (node, _) in enumerate(items) if isinstance(node, n.Declaration)
        ]
        if not decl_indices:
            instruction = self._fold_instructions([node for node, _ in items])
            self.fire("Program:plain")
            return n.Program(None, instruction)
        boundary = decl_indices[-1]
        for node, start in items[:boundary]:
            if isinstance(node, n.Instruction) and not isinstance(node, n.SkipIns):
                self.error(
                    "declarations must precede the instructions of a program",
                    token=start,
                )
        if boundary + 1 >= len(items):
            self.error("a program needs an instruction after its declarations")
        preamble = self._group_preamble([node for node, _ in items[: boundary + 1]])
        instruction = self._fold_instructions(
            [node for node, _ in items[boundary + 1 :]]
        )
        self.fire("Program:with-preamble")
        return n.Program(preamble, instruction)

    def _fold_instructions(self, items: list[n.Node]) -> n.Instruction:
        if len(items) > 1:
            self.fire("Instruction:seq")
        return _fold_right(items, n.SeqIns)

    def _group_preamble(self, items: list[n.Node]):
        for node in items:
            if isinstance(node, n.ImpProcDec):
                self.fire("Preamble:imp-proc")
            elif isinstance(node, n.MultiProcDec):
                self.fire("Preamble:multi-proc")
            elif isinstance(node, n.FunProcDec):
                self.fire("Preamble:fun-proc")
            elif isinstance(node, n.TypDef):
                self.fire("Preamble:typ-def")
            elif isinstance(node, n.VarDec):
                self.fire("Preamble:var-dec")
            elif isinstance(node, n.SkipIns):
                self.fire("Preamble:skip")
        blocks: list[n.Node] = []
        i = 0
        while i < len(items):
            node = items[i]
            if isinstance(node, n.VarDec):
                run: list[n.Node] = [node]
                while i + 1 < len(items) and isinstance(items[i + 1], n.VarDec):
                    run.append(items[i + 1])
                    i += 1
                if len(run) > 1:
                    self.fire("VarDec:seq")
                blocks.append(_fold_right(run, n.VarDecSeq))
            elif isinstance(node, n.TypDef):
                run = [node]
                while i + 1 < len(items) and isinstance(items[i + 1], n.TypDef):
                    run.append(items[i + 1])
                    i += 1
                if len(run) > 1:
                    self.fire("TypDef:seq")
                blocks.append(_fold_right(run, n.TypDefSeq))
            else:
                blocks.append(node)
            i += 1
        if len(blocks) > 1:
            self.fire("Preamble:seq")
        return _fold_right(blocks, n.PreSeq)

    # -- fragments ----------------------------------------------------------

    def item_sequence(self) -> tuple[str, n.Node]:
        """A `;`-separated run of declarations or of instructions."""
        items: list[tuple[n.Node, Token]] = []
        while True:
            start = self.peek()
            items.append((self.program_item(), start))
            if not self.accept_punct(";"):
                break
        decls = [isinstance(node, n.Declaration) for node, _ in items]
        if all(decls):
            return "preamble", self._group_preamble([node for node, _ in items])
        if any(decls):
            self.error(
                "fragment mixes declarations and instructions; wrap it in "
                "begin-program ... end-program",
                token=items[0][1],
            )
        return "instruction", self._fold_instructions([node for node, _ in items])


# ---------------------------------------------------------------------------
# entry points


def _whole(parser: Parser, rule: Callable[..., T], *args) -> T:
    """`rule(parser, *args)` must consume every token of the parser's text.

    Nesting too deep for the host stack is a `too-deep` diagnostic at the
    token where the parser ran out of room.
    """
    try:
        result = rule(parser, *args)
    except RecursionError:
        # The parser never moves back, so it still stands where it ran out.
        diag = ParseDiagnostic(parser.peek().span, "nesting too deep to parse", "too-deep")
        raise LinguaParseError(diag) from None
    parser.expect_eof()
    return result


def parse_program(text: str) -> n.Program:
    return _whole(Parser(text), Parser.program)


def parse_data_expression(text: str) -> n.DatExp:
    return _whole(Parser(text), Parser.expression, DATA)


def parse_transfer_expression(text: str) -> n.TraExp:
    return _whole(Parser(text), Parser.expression, TRANSFER)


def parse_type_expression(text: str) -> n.TypExp:
    return _whole(Parser(text), Parser.typ_exp)


def parse_instruction(text: str) -> n.Instruction:
    return _whole(Parser(text), Parser.instruction_seq)


def restore_expression(colloquial: Union[str, n.Node]) -> n.Node:
    """Restore a colloquial data expression to its concrete tree.

    Restoring is fused into parsing, so trees are concrete already and pass
    through unchanged.
    """
    if isinstance(colloquial, n.Node):
        return colloquial
    return parse_data_expression(colloquial)


def parse_any(text: str) -> tuple[str, n.Node]:
    """Parse a source fragment as whichever sort fits.

    Tries, in order: program, data expression, declaration/instruction
    sequence, transfer expression, type expression.  On total failure the
    diagnostic that made it furthest into the input is reported.  The text
    is tokenized once and every attempt reads the same tokens.
    """
    tokens = tokenize(text)
    if tokens[0].is_keyword("begin-program"):
        return "program", _whole(Parser(text, tokens), Parser.program)
    attempts: list[LinguaParseError] = []
    for kind, rule, *args in (
        ("data", Parser.expression, DATA),
        ("items", Parser.item_sequence),
        ("transfer", Parser.expression, TRANSFER),
        ("type", Parser.typ_exp),
    ):
        try:
            result = _whole(Parser(text, tokens), rule, *args)
        except LinguaParseError as exc:
            if exc.diagnostic.kind == "too-deep":
                raise  # as deep for every other sort
            attempts.append(exc)
            continue
        if kind == "items":
            return result  # item_sequence already labels its result
        return kind, result
    raise max(attempts, key=lambda exc: exc.diagnostic.span.begin)
