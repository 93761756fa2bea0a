"""Recursive-descent parser accepting the union of concrete and colloquial
syntax.  The result is always a concrete tree: parenthesis restoration,
array/record literal unfolding, selector sugar, type sugar and parameter
grouping are rewritten while parsing.

Operator priorities, tightest first: not, then * /, then + -, then glue,
then < =, then and, then or; equal priorities associate to the left.

Each keyword phrase is written once, in `PHRASES`: its template of
keywords, punctuation and operand kinds, procedure declarations and calls
included.  The parser reads a template from its lead keyword and the
printer writes it from the same row.  The operators, `not` and the
literals have a node class per sort column.  Read by hand are the
colloquial forms that branch after a prefix they share with another form,
`fun` (two forms after one header), `begin multiproc`, assignments and
programs.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Optional, TypeVar, Union

from .diagnostics import LinguaParseError, ParseDiagnostic
from .lexer import Token, span, tokenize
from . import nodes as n

# The sorts of phrases, which are also operand kinds in a template.  DATA
# and TRANSFER are the columns of OPERATORS.  IDENT is an identifier, YOKE
# an optional `with` transfer that is `true` when absent, FORMALS and
# ACTUALS a parameter list that ends at the template's next keyword, and
# PROGRAM a `begin-program … end-program`.
DATA, TRANSFER, TYPE, INSTRUCTION, DECLARATION = range(1, 6)
IDENT, YOKE, FORMALS, ACTUALS, PROGRAM = range(6, 11)

# The operators data and transfer expressions share, written once:
# token -> (priority, data node, transfer node).  `-` and `*` have no
# transfer form.  An expression's sort is its column.
OPERATORS: dict[str, tuple] = {
    "or": (1, n.OrExp, n.TraOrExp),
    "and": (2, n.AndExp, n.TraAndExp),
    "<": (3, n.LessExp, n.TraLessExp),
    "=": (3, n.EqExp, n.TraEqExp),
    "glue": (4, n.GlueExp, n.TraGlueExp),
    "+": (5, n.AddExp, n.TraAddExp),
    "-": (5, n.SubExp, None),
    "*": (6, n.MulExp, None),
    "/": (6, n.DivExp, n.TraDivExp),
}

# `not` and the literals, by the same columns
NEGATION = (None, n.NotExp, n.TraNotExp)
NUMERAL = (None, n.NumLit, n.TraNumLit)
WORD = (None, n.WordLit, n.TraWordLit)
TRUTH = (None, n.BoolLit, n.TraBoolLit)

# Every phrase with a fixed form, written once: node class -> (template,
# colloquial templates...).  A template is the phrase's keywords and
# punctuation, and the operand kind of each field in field order.  The
# first template is the canonical form, which the printer writes.  The
# parser reads each template from its lead keyword, except the canonical
# forms of _BY_HAND.
PHRASES: dict[type, tuple] = {
    n.ListExp: (("list", DATA, "ee"),),
    n.PushExp: (("push", DATA, "on", DATA, "ee"),),
    n.TopExp: (("top", "(", DATA, ")"),),
    n.PopExp: (("pop", "(", DATA, ")"),),
    n.ArrayExp: (("array", DATA, "ee"),),
    n.AddToArrExp: (("add-to-arr", DATA, "new", DATA, "ee"),),
    n.ChangeArrExp: (("change-arr", DATA, "at", DATA, "by", DATA, "ee"),),
    n.ArrAtExp: (("arr", DATA, "at", DATA, "ee"),),
    n.RecordExp: (("record", IDENT, "of-value", DATA, "ee"),),
    n.AddAttrExp: (("add-attr", IDENT, "of-value", DATA, "to", DATA, "ee"),),
    n.RecAtExp: (("rec", DATA, "at", IDENT, "ee"),),
    n.RemoveAttrExp: (("remove-attr", IDENT, "from", DATA, "ee"),),
    n.ChangeRecExp: (("change-rec", DATA, "at", IDENT, "by", DATA, "ee"),),
    n.CondExp: (("if", DATA, "then", DATA, "else", DATA, "fi"),),
    n.SumExp: (("sum", "(", TRANSFER, ")"),),
    n.MaxExp: (("max", "(", TRANSFER, ")"),),
    n.SmallNumberExp: (("small-number", "(", TRANSFER, ")"),),
    n.IncreasingExp: (("increasing", "(", TRANSFER, ")"),),
    n.AllListExp: (("all-list", TRANSFER, "ee"),),
    n.AllArrayExp: (("all-array", TRANSFER, "ee"),),
    n.TopTra: (("top",),),
    n.ArrayAtTra: (("array", "[", TRANSFER, "]"), ("get-from-array", TRANSFER, "ee")),
    n.RecordAtTra: (("record", ".", IDENT), ("get-from-record", IDENT, "ee")),
    n.ValueTra: (("value",),),
    n.BooleanTyp: (("boolean",),),
    n.NumberTyp: (("number",),),
    n.WordTyp: (("word",),),
    n.ListTyp: (("list-type", TYPE, "ee"),),
    n.ArrayTyp: (("array-type", TYPE, "ee"),),
    n.RecordTyp: (("record-type", IDENT, "as", TYPE, "ee"),),
    n.ExpandRecordTyp: (("expand-record-type", TYPE, "at", IDENT, "by", TYPE, "ee"),),
    n.ReplaceTransferTyp: (
        ("replace-transfer-in", TYPE, "by", TRANSFER, "ee"),
        ("set-type", TYPE, YOKE, "ee"),
    ),
    n.VarDec: (("let", IDENT, "be", TYPE, "tel"),),
    n.TypDef: (("set", IDENT, "as", TYPE, "tes"),),
    n.ImpProcDec: (
        ("proc", IDENT, "(", "val", FORMALS, "ref", FORMALS, ")", PROGRAM, "end", "proc"),
    ),
    n.CallIns: (("call", IDENT, "(", "ref", ACTUALS, "val", ACTUALS, ")"),),
    n.YokeIns: (("yoke", IDENT, ":=", TRANSFER),),
    n.SkipIns: (("skip",),),
    n.IfIns: (("if", DATA, "then", INSTRUCTION, "else", INSTRUCTION, "fi"),),
    n.IfErrorIns: (("if-error", DATA, "then", INSTRUCTION, "fi"),),
    n.WhileIns: (("while", DATA, "do", INSTRUCTION, "od"),),
}

# Leads that name another lead's phrase
_SYNONYMS = {
    "add-atr": "add-attr",
    "all-of-array": "all-array",
    "array-of": "array-type",
    "expand-record": "expand-record-type",
    "string": "word",
}

# Phrases whose canonical form shares a prefix with a colloquial form that
# branches after it.  The parser reads the prefix by hand; a data phrase's
# canonical form then resumes its row from _RESUME, past what was read.
_BY_HAND = (n.ArrayExp, n.ChangeArrExp, n.RecordExp, n.ArrayAtTra, n.RecordTyp)
_RESUME = {
    cls: (cls, PHRASES[cls][0][1 + read :])
    for cls, read in ((n.ArrayExp, 0), (n.ChangeArrExp, 1), (n.RecordExp, 1))
}

_SORTS = (
    (n.DatExp, DATA),
    (n.TraExp, TRANSFER),
    (n.TypExp, TYPE),
    (n.Instruction, INSTRUCTION),
    (n.Declaration, DECLARATION),
)


def _index() -> dict[int, dict[str, tuple]]:
    """Per sort: lead keyword -> (node class, rest of the template)."""
    leads: dict[int, dict[str, tuple]] = {sort: {} for _, sort in _SORTS}
    for cls, templates in PHRASES.items():
        index = next(leads[sort] for base, sort in _SORTS if issubclass(cls, base))
        for lead, *rest in templates[cls in _BY_HAND :]:
            index[lead] = (cls, tuple(rest))
    for synonym, lead in _SYNONYMS.items():
        for index in leads.values():
            if lead in index:
                index[synonym] = index[lead]
    return leads


_LEADS = _index()

_DECL_KEYWORDS = (*_LEADS[DECLARATION], "fun")

T = TypeVar("T")

# adjacent preamble items of these classes group into one sequence node
_RUNS = {n.VarDec: n.VarDecSeq, n.TypDef: n.TypDefSeq}


def _rebase_value(tre: n.TraExp, attr: str) -> n.TraExp:
    """Rewrite `value` leaves to `record.attr` when folding inline yokes."""
    if isinstance(tre, n.ValueTra):
        return n.RecordAtTra(attr)
    values = [getattr(tre, name) for name in tre.__match_args__]
    return type(tre)(*[_rebase_value(v, attr) if isinstance(v, n.TraExp) else v for v in values])


def _sequence(items: list, node: Callable = n.SeqIns):
    """One `node` holding the items of a run, or its only item."""
    if len(items) == 1:
        return items[0]
    return node(tuple(items))


def _group_preamble(items: list[n.Node]):
    blocks: list[n.Node] = []
    for kind, run in groupby(items, key=type):
        if kind in _RUNS:
            blocks.append(_sequence(list(run), _RUNS[kind]))
        else:
            blocks += run
    return _sequence(blocks, n.PreSeq)


class Parser:
    """Parses `text`, from `tokens` when they are given: parsers that try
    several sorts on one text share a single tokenization."""

    def __init__(self, text: str, tokens: Optional[list[Token]] = None):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    # The token list ends with its eof token and `pos` never moves past it:
    # the parser advances only past a token it knows is not eof.  So
    # `tokens[pos]` is always there, and so is the token after a non-eof
    # one.  The hot paths (`expression`, `unary`, `data_postfix`, `atom`'s
    # literals and names, and the statement path) read `tokens[pos]` and
    # advance `pos` themselves.  A keyword or punctuation token is matched
    # by its text and kind: a word literal may have any text, and the eof
    # token's is "".

    def peek(self, k: int = 0) -> Token:
        return self.tokens[self.pos + k]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, kind: str = "syntactic", at: Optional[int] = None):
        """Raise a diagnostic at token `at`, by default the current one."""
        where = span(self.text, self.pos if at is None else at)
        raise LinguaParseError(ParseDiagnostic(where, message, kind))

    def accept(self, *names: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.text in names and tok.kind != "word":
            self.pos += 1
            return True
        return False

    def expect(self, name: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != name or tok.kind == "word":
            self.error(f"expected '{name}', found {self._describe(tok)}")
        self.pos += 1
        return tok

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind == "keyword":
            self.error(
                f"keyword '{tok.text}' cannot be used as an identifier",
                kind="keyword-misuse",
            )
        if tok.kind != "ident":
            self.error(f"expected an identifier, found {self._describe(tok)}")
        self.pos += 1
        return tok.text

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

    # -- table phrases -------------------------------------------------------

    def phrase(self, sort: int, row: Optional[tuple] = None, args: Optional[list] = None) -> n.Node:
        """The phrase of `sort` at the current token, or the rest of `row`
        after the operands `args` a hand-written branch has read.

        A table phrase is read here, in the frame that dispatched on its
        lead keyword, so an operand of its own sort costs one frame a level.
        A parameter list ends at `)` or at the keyword that follows it in
        the template.  Data and transfer expressions come here only for a
        table lead (`unary`), and declarations only for a table lead
        (`program_item`); types and instructions read anything else by hand.
        """
        if row is None:
            tok = self.peek()
            row = _LEADS[sort].get(tok.text) if tok.kind == "keyword" else None
            if row is None:
                return self.typ_atom() if sort == TYPE else self.simple_instruction()
            self.take()
            args = []
        ctor, template = row
        for i, part in enumerate(template):
            if part.__class__ is str:
                self.expect(part)
            elif part <= TRANSFER:
                args.append(self.expression(part))
            elif part == TYPE:
                args.append(self.phrase(TYPE))
            elif part == INSTRUCTION:
                args.append(self.instruction_seq())
            elif part == IDENT:
                args.append(self.expect_ident())
            elif part == FORMALS:
                args.append(self.formal_params(template[i + 1]))
            elif part == ACTUALS:
                args.append(self.actual_params(template[i + 1]))
            elif part == PROGRAM:
                args.append(self.program())
            elif self.accept("with"):  # YOKE
                args.append(self.expression(TRANSFER))
            else:
                args.append(n.TraBoolLit(True))
        return ctor(*args)

    # -- data and transfer expressions --------------------------------------

    def expression(self, sort: int, min_prec: int = 0) -> n.Node:
        """A data or transfer expression, as `sort` says, whose binary
        operators bind at least as tightly as `min_prec`."""
        left = self.unary(sort)
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            op = OPERATORS.get(tok.text)
            if op is None or op[sort] is None or op[0] < min_prec or tok.kind == "word":
                return left
            self.pos += 1
            left = op[sort](left, self.expression(sort, op[0] + 1))

    def unary(self, sort: int) -> n.Node:
        """A `not`, a table phrase or an atom, read here without a call when
        it is a numeral or a data name that no `(` follows; in a data
        expression, with its selectors."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        kind = tok.kind
        if kind == "num":
            self.pos = pos + 1
            node = NUMERAL[sort](tok.num)
        elif kind == "ident" and sort == DATA and (
            tokens[pos + 1].text != "(" or tokens[pos + 1].kind != "punct"
        ):
            self.pos = pos + 1
            node = n.IdeExp(tok.text)
        elif kind == "keyword":
            if tok.text == "not":
                self.pos = pos + 1
                return NEGATION[sort](self.unary(sort))
            node = self.phrase(sort) if tok.text in _LEADS[sort] else self.atom(sort)
        else:
            node = self.atom(sort)
        if sort == DATA:
            tok = tokens[self.pos]
            if tok.text == "." and tok.kind == "punct":
                return self.data_postfix(node)
        return node

    def data_postfix(self, node: n.DatExp) -> n.DatExp:
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.text != "." or tok.kind != "punct":
                return node
            nxt = tokens[self.pos + 1]
            if nxt.text == "[" and nxt.kind == "punct":
                self.pos += 2
                index = self.expression(DATA)
                self.expect("]")
                node = n.ArrAtExp(node, index)
            elif nxt.text == "(" and nxt.kind == "punct":
                self.pos += 2
                ide = self.expect_ident()
                self.expect(")")
                node = n.RecAtExp(node, ide)
            else:
                self.error("expected '[' or '(' after '.'")

    def atom(self, sort: int) -> n.Node:
        """A word, truth or negative numeral literal, a parenthesized
        expression or, by sort, a call or colloquial collection, or the
        transfer selector `array[..]`.  `unary` reads the other numerals and
        the data names that no `(` follows."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        kind, text = tok.kind, tok.text
        if kind == "word":
            self.pos = pos + 1
            return WORD[sort](text)
        if kind == "ident" and sort == DATA:
            self.pos = pos + 2  # past the name and its `(`
            apar = self.actual_params()
            self.expect(")")
            return n.FunCallExp(text, apar)
        if kind == "keyword" and text in ("true", "false"):
            self.pos = pos + 1
            return TRUTH[sort](text == "true")
        if kind == "punct" and text == "(":
            self.pos = pos + 1
            inner = self.expression(sort)
            self.expect(")")
            return inner
        if sort == TRANSFER:
            if not tok.is_keyword("array"):
                self.error(f"expected a transfer expression, found {self._describe(tok)}")
            self.take()
            if self.accept("."):
                self.expect("[")
            elif not self.accept("["):
                self.error("expected '[' after 'array' in a transfer expression")
            index = self.expression(TRANSFER)
            self.expect("]")
            return n.ArrayAtTra(index)
        if kind == "punct" and text == "-" and tokens[pos + 1].kind == "num":
            self.pos = pos + 2
            return n.NumLit(tokens[pos + 1].num.neg())
        if tok.is_keyword("array"):
            self.take()
            if self.accept("["):
                elements = [self.expression(DATA)]
                while self.accept(","):
                    elements.append(self.expression(DATA))
                self.expect("]")
                node: n.DatExp = n.ArrayExp(elements[0])
                for element in elements[1:]:
                    node = n.AddToArrExp(node, element)
                return node
            return self.phrase(DATA, _RESUME[n.ArrayExp], [])
        if tok.is_keyword("change-arr"):
            self.take()
            target = self.expression(DATA)
            if self.accept("by"):
                pairs = []
                while True:
                    index = self.expression(DATA)
                    self.expect("<=")
                    element = self.expression(DATA)
                    pairs.append((index, element))
                    if not self.accept(","):
                        break
                self.expect("ee")
                node = target
                for index, element in pairs:
                    node = n.ChangeArrExp(node, index, element)
                return node
            return self.phrase(DATA, _RESUME[n.ChangeArrExp], [target])
        if tok.is_keyword("record", "set-record"):
            self.take()
            ide = self.expect_ident()
            if self.peek().is_keyword("of-value"):
                return self.phrase(DATA, _RESUME[n.RecordExp], [ide])
            self.expect("<=")
            first = self.expression(DATA)
            fields = []
            while self.accept(","):
                attr = self.expect_ident()
                self.expect("<=")
                fields.append((attr, self.expression(DATA)))
            self.expect("ee")
            node = n.RecordExp(ide, first)
            for attr, expr in fields:
                node = n.AddAttrExp(attr, expr, node)
            return node
        self.error(f"expected a data expression, found {self._describe(tok)}")

    def _with_transfer(self) -> n.TraExp:
        # A bare combinator name (`with small-number`), which is a transfer
        # phrase whose operand is parenthesized, means the combinator
        # applied to the attribute value.
        tok = self.peek()
        row = _LEADS[TRANSFER].get(tok.text) if tok.kind == "keyword" else None
        if row is not None and row[1][:1] == ("(",) and not self.peek(1).is_punct("("):
            self.take()
            return row[0](n.ValueTra())
        return self.expression(TRANSFER)

    # -- type expressions --------------------------------------------------

    def typ_atom(self) -> n.TypExp:
        tok = self.peek()
        if tok.kind == "ident":
            self.take()
            return n.IdeTyp(tok.text)
        if not tok.is_keyword("record-type", "record-of"):
            self.error(f"expected a type expression, found {self._describe(tok)}")
        self.take()
        # Multi-attribute lists and inline `with` yokes are colloquial; they
        # fold into expand-record-type chains and one replace-transfer-in.
        fields: list[tuple[str, n.TypExp, Optional[n.TraExp]]] = []
        while True:
            ide = self.expect_ident()
            self.expect("as")
            tex = self.phrase(TYPE)
            yoke = self._with_transfer() if self.accept("with") else None
            fields.append((ide, tex, yoke))
            if not self.accept(","):
                break
        self.expect("ee")
        node: n.TypExp = n.RecordTyp(fields[0][0], fields[0][1])
        for ide, tex, _ in fields[1:]:
            node = n.ExpandRecordTyp(node, ide, tex)
        yokes = [
            _rebase_value(w, ide) for ide, _, w in fields if w is not None
        ]
        if yokes:
            combined = yokes[0]
            for w in yokes[1:]:
                combined = n.TraAndExp(combined, w)
            node = n.ReplaceTransferTyp(node, combined)
        return node

    # -- parameters ----------------------------------------------------------

    # A parameter list ends at `)` or at the keyword `stop`.

    def actual_params(self, stop: str = ")") -> tuple[str, ...]:
        if self.accept("empty-ap") or self.peek().is_punct(")") or self.peek().is_keyword(stop):
            return ()
        names = [self.expect_ident()]
        while self.accept(","):
            names.append(self.expect_ident())
        return tuple(names)

    def formal_params(self, stop: str = ")") -> tuple[n.FormalParam, ...]:
        if self.accept("empty-fp") or self.peek().is_punct(")") or self.peek().is_keyword(stop):
            return ()
        params: list[n.FormalParam] = []
        pending: list[str] = []
        while True:
            pending.append(self.expect_ident())
            if self.accept("as"):
                tex = self.phrase(TYPE)
                for name in pending:
                    params.append(n.FormalParam(name, tex))
                pending = []
                if not self.accept(","):
                    break
            elif not self.accept(","):
                self.error("expected 'as' with a type in the formal parameter list")
        return tuple(params)

    # -- instructions ----------------------------------------------------------

    def instruction_seq(self) -> n.Instruction:
        items = [self.phrase(INSTRUCTION)]
        while self.accept(";"):
            items.append(self.phrase(INSTRUCTION))
        return _sequence(items)

    def simple_instruction(self) -> n.Instruction:
        """An instruction that is not a table phrase: an assignment."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            nxt = tokens[self.pos]
            if nxt.text != ":=" or nxt.kind != "punct":
                self.expect(":=")  # raises
            self.pos += 1
            return n.AssignIns(tok.text, self.expression(DATA))
        if tok.is_keyword(*_DECL_KEYWORDS) or (
            tok.is_keyword("begin") and self.peek(1).is_keyword("multiproc")
        ):
            self.error("declarations must precede the instructions of a program")
        self.error(f"expected an instruction, found {self._describe(tok)}")

    # -- declarations ----------------------------------------------------

    def multi_proc_dec(self) -> n.MultiProcDec:
        self.expect("begin")
        self.expect("multiproc")
        if not self.peek().is_keyword("proc"):
            self.expect("proc")  # a group has at least one member
        decs = []
        while self.peek().is_keyword("proc"):
            decs.append(self.phrase(DECLARATION))
            self.accept(";")
        self.expect("end")
        self.expect("multiproc")
        return n.MultiProcDec(tuple(decs))

    def fun_proc_dec(self) -> n.FunProcDec:
        self.expect("fun")
        ide = self.expect_ident()
        self.expect("(")
        params = self.formal_params()
        self.expect(")")
        if self.peek().is_keyword("begin-program"):
            prg = self.program()
            self.expect("return")
            dae = self.expression(DATA)
            self.expect("as")
            tex = self.phrase(TYPE)
            if not self.accept("end", "and"):
                self.error("expected 'end fun' to close the function declaration")
            self.expect("fun")
            return n.FunProcDec(ide, params, prg, dae, tex)
        dae = self.expression(DATA)
        self.expect("endfun")
        return n.FunProcDec(ide, params, None, dae, None)

    def program_item(self) -> n.Node:
        tok = self.tokens[self.pos]
        if tok.kind != "keyword":
            return self.simple_instruction()
        if tok.text in _LEADS[DECLARATION]:
            return self.phrase(DECLARATION)
        if tok.text == "begin" and self.peek(1).is_keyword("multiproc"):
            return self.multi_proc_dec()
        if tok.text == "fun":
            return self.fun_proc_dec()
        return self.phrase(INSTRUCTION)

    # -- preambles and programs ------------------------------------------

    def program_items(self) -> list[tuple[n.Node, int]]:
        """A `;`-separated run of program items, each with the index of its
        first token."""
        items = []
        tokens = self.tokens
        while True:
            start = self.pos
            items.append((self.program_item(), start))
            tok = tokens[self.pos]
            if tok.text != ";" or tok.kind != "punct":
                return items
            self.pos += 1

    def program(self) -> n.Program:
        self.expect("begin-program")
        items = self.program_items()
        self.expect("end-program")
        return self._assemble_program(items)

    def _assemble_program(self, items: list[tuple[n.Node, int]]) -> n.Program:
        decl_indices = [
            i for i, (node, _) in enumerate(items) if isinstance(node, n.Declaration)
        ]
        if not decl_indices:
            instruction = _sequence([node for node, _ in items])
            return n.Program(None, instruction)
        boundary = decl_indices[-1]
        for node, start in items[:boundary]:
            if isinstance(node, n.Instruction) and not isinstance(node, n.SkipIns):
                self.error(
                    "declarations must precede the instructions of a program",
                    at=start,
                )
        if boundary + 1 >= len(items):
            self.error("a program needs an instruction after its declarations")
        preamble = _group_preamble([node for node, _ in items[: boundary + 1]])
        instruction = _sequence([node for node, _ in items[boundary + 1 :]])
        return n.Program(preamble, instruction)

    # -- fragments ----------------------------------------------------------

    def item_sequence(self) -> tuple[str, n.Node]:
        """A `;`-separated run of declarations or of instructions."""
        items = self.program_items()
        decls = [isinstance(node, n.Declaration) for node, _ in items]
        if all(decls):
            return "preamble", _group_preamble([node for node, _ in items])
        if any(decls):
            self.error(
                "fragment mixes declarations and instructions; wrap it in "
                "begin-program ... end-program",
                at=items[0][1],
            )
        return "instruction", _sequence([node for node, _ in items])


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
        where = span(parser.text, parser.pos)
        diag = ParseDiagnostic(where, "nesting too deep to parse", "too-deep")
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
    return _whole(Parser(text), Parser.phrase, TYPE)


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
    diagnostic of the attempt that read furthest is reported, even where it
    points back at an earlier token; on a tie, the earlier attempt's.  The
    text is tokenized once and every attempt reads the same tokens.
    """
    tokens = tokenize(text)
    if tokens[0].is_keyword("begin-program"):
        return "program", _whole(Parser(text, tokens), Parser.program)
    # Diagnostics, not the exceptions: an exception's traceback holds this
    # frame, which would hold the list, a reference cycle per attempt.
    attempts: list[tuple[int, ParseDiagnostic]] = []
    for kind, rule, *args in (
        ("data", Parser.expression, DATA),
        ("items", Parser.item_sequence),
        ("transfer", Parser.expression, TRANSFER),
        ("type", Parser.phrase, TYPE),
    ):
        parser = Parser(text, tokens)
        try:
            result = _whole(parser, rule, *args)
        except LinguaParseError as exc:
            if exc.diagnostic.kind == "too-deep":
                raise  # as deep for every other sort
            attempts.append((parser.pos, exc.diagnostic))
            continue
        if kind == "items":
            return result  # item_sequence already labels its result
        return kind, result
    raise LinguaParseError(max(attempts, key=lambda attempt: attempt[0])[1])
