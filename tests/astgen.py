"""Seeded random generator of canonical syntax trees.

Canonical means: shapes the parser itself produces.  A sequence holds its
two or more items in one flat tuple, adjacent variable declarations (and
type definitions) sit in their own grouped runs, preambles contain at
least one declaration and end with one, and each sort only contains
clauses from the concrete grammar.
"""

from __future__ import annotations

import random

from lingua.kernel import Number
from lingua import nodes as n

IDENTS = ("x", "y", "z", "acc", "price", "vat", "measurement-data", "ch-name", "k9")
ATTRS = ("a", "b", "price", "vat", "fa-name")
WORDS = ("", "John", "Smith", "abc", "a b")
TYPE_NAMES = ("money", "person", "tab")


def sequence(items: list, node: type) -> n.Node:
    """One `node` holding the items, as the parser builds it, or the only item."""
    return items[0] if len(items) == 1 else node(tuple(items))


class AstGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choice(self, options):
        return self.rng.choice(options)

    def ident(self) -> str:
        return self.choice(IDENTS)

    def attr(self) -> str:
        return self.choice(ATTRS)

    def number(self) -> Number:
        kind = self.rng.randrange(3)
        if kind == 0:
            return Number.from_int(self.rng.randrange(-50, 200))
        if kind == 1:
            return Number.parse(f"{self.rng.randrange(0, 99)}.{self.rng.randrange(1, 99)}")
        return Number.from_int(self.rng.randrange(0, 10))

    # -- data expressions ---------------------------------------------------

    def data_exp(self, depth: int) -> n.DatExp:
        if depth <= 0:
            return self.choice(
                (
                    n.BoolLit(True),
                    n.BoolLit(False),
                    n.NumLit(self.number()),
                    n.WordLit(self.choice(WORDS)),
                    n.IdeExp(self.ident()),
                )
            )
        d = depth - 1
        kind = self.rng.randrange(24)
        if kind == 0:
            return n.AndExp(self.data_exp(d), self.data_exp(d))
        if kind == 1:
            return n.OrExp(self.data_exp(d), self.data_exp(d))
        if kind == 2:
            return n.NotExp(self.data_exp(d))
        if kind == 3:
            return n.LessExp(self.data_exp(d), self.data_exp(d))
        if kind == 4:
            return n.AddExp(self.data_exp(d), self.data_exp(d))
        if kind == 5:
            return n.DivExp(self.data_exp(d), self.data_exp(d))
        if kind == 6:
            return n.MulExp(self.data_exp(d), self.data_exp(d))
        if kind == 7:
            return n.SubExp(self.data_exp(d), self.data_exp(d))
        if kind == 8:
            return n.EqExp(self.data_exp(d), self.data_exp(d))
        if kind == 9:
            return n.GlueExp(self.data_exp(d), self.data_exp(d))
        if kind == 10:
            return n.ListExp(self.data_exp(d))
        if kind == 11:
            return n.PushExp(self.data_exp(d), self.data_exp(d))
        if kind == 12:
            return n.TopExp(self.data_exp(d))
        if kind == 13:
            return n.PopExp(self.data_exp(d))
        if kind == 14:
            return n.ArrayExp(self.data_exp(d))
        if kind == 15:
            return n.AddToArrExp(self.data_exp(d), self.data_exp(d))
        if kind == 16:
            return n.ChangeArrExp(self.data_exp(d), self.data_exp(d), self.data_exp(d))
        if kind == 17:
            return n.ArrAtExp(self.data_exp(d), self.data_exp(d))
        if kind == 18:
            return n.RecordExp(self.attr(), self.data_exp(d))
        if kind == 19:
            return n.AddAttrExp(self.attr(), self.data_exp(d), self.data_exp(d))
        if kind == 20:
            return n.RecAtExp(self.data_exp(d), self.attr())
        if kind == 21:
            return n.RemoveAttrExp(self.attr(), self.data_exp(d))
        if kind == 22:
            return n.CondExp(self.data_exp(d), self.data_exp(d), self.data_exp(d))
        return n.FunCallExp(self.ident(), self.actuals())

    def actuals(self) -> tuple[str, ...]:
        return tuple(self.ident() for _ in range(self.rng.randrange(0, 3)))

    # -- transfer expressions -----------------------------------------------

    def tra_exp(self, depth: int) -> n.TraExp:
        # negative literals are a data-expression extension only
        if depth <= 0:
            return self.choice(
                (
                    n.TraNumLit(self.number().abs()),
                    n.TraWordLit(self.choice(WORDS)),
                    n.TraBoolLit(True),
                    n.TraBoolLit(False),
                    n.ValueTra(),
                    n.TopTra(),
                    n.RecordAtTra(self.attr()),
                )
            )
        d = depth - 1
        kind = self.rng.randrange(15)
        if kind == 0:
            return n.TraAddExp(self.tra_exp(d), self.tra_exp(d))
        if kind == 1:
            return n.TraDivExp(self.tra_exp(d), self.tra_exp(d))
        if kind == 2:
            return n.SumExp(self.tra_exp(d))
        if kind == 3:
            return n.MaxExp(self.tra_exp(d))
        if kind == 4:
            return n.TraGlueExp(self.tra_exp(d), self.tra_exp(d))
        if kind == 5:
            return n.TraEqExp(self.tra_exp(d), self.tra_exp(d))
        if kind == 6:
            return n.TraLessExp(self.tra_exp(d), self.tra_exp(d))
        if kind == 7:
            return n.SmallNumberExp(self.tra_exp(d))
        if kind == 8:
            return n.IncreasingExp(self.tra_exp(d))
        if kind == 9:
            return n.TraAndExp(self.tra_exp(d), self.tra_exp(d))
        if kind == 10:
            return n.TraOrExp(self.tra_exp(d), self.tra_exp(d))
        if kind == 11:
            return n.TraNotExp(self.tra_exp(d))
        if kind == 12:
            return n.AllListExp(self.tra_exp(d))
        if kind == 13:
            return n.AllArrayExp(self.tra_exp(d))
        return n.ArrayAtTra(self.tra_exp(d))

    # -- type expressions -----------------------------------------------------

    def typ_exp(self, depth: int) -> n.TypExp:
        if depth <= 0:
            return self.choice(
                (n.BooleanTyp(), n.NumberTyp(), n.WordTyp(), n.IdeTyp(self.choice(TYPE_NAMES)))
            )
        d = depth - 1
        kind = self.rng.randrange(5)
        if kind == 0:
            return n.ListTyp(self.typ_exp(d))
        if kind == 1:
            return n.ArrayTyp(self.typ_exp(d))
        if kind == 2:
            return n.RecordTyp(self.attr(), self.typ_exp(d))
        if kind == 3:
            base = self.typ_exp(d)
            attr = self.attr()
            return n.ExpandRecordTyp(base, attr, self.typ_exp(d))
        return n.ReplaceTransferTyp(self.typ_exp(d), self.tra_exp(d))

    # -- instructions -----------------------------------------------------------

    def simple_instruction(self, depth: int) -> n.Instruction:
        kind = self.rng.randrange(8 if depth > 0 else 4)
        d = max(depth - 1, 0)
        if kind == 0:
            return n.SkipIns()
        if kind == 1:
            return n.AssignIns(self.ident(), self.data_exp(d))
        if kind == 2:
            return n.YokeIns(self.ident(), self.tra_exp(d))
        if kind == 3:
            return n.CallIns(self.ident(), self.actuals(), self.actuals())
        if kind == 4:
            return n.IfIns(self.data_exp(d), self.instruction(d), self.instruction(d))
        if kind == 5:
            return n.IfErrorIns(self.data_exp(d), self.instruction(d))
        if kind == 6:
            return n.WhileIns(self.data_exp(d), self.instruction(d))
        return n.AssignIns(self.ident(), self.data_exp(d))

    def instruction(self, depth: int) -> n.Instruction:
        items = [
            self.simple_instruction(depth)
            for _ in range(self.rng.randrange(1, 4))
        ]
        return sequence(items, n.SeqIns)

    # -- declarations ---------------------------------------------------------

    def formals(self, max_len: int = 2) -> tuple[n.FormalParam, ...]:
        names = self.rng.sample(IDENTS, self.rng.randrange(0, max_len + 1))
        return tuple(n.FormalParam(name, self.typ_exp(1)) for name in names)

    def imp_proc_dec(self, depth: int) -> n.ImpProcDec:
        return n.ImpProcDec(
            self.ident(), self.formals(), self.formals(), self.program(depth)
        )

    def declaration(self, depth: int) -> n.Declaration:
        kind = self.rng.randrange(5)
        if kind == 0:
            return self.var_dec_run()
        if kind == 1:
            return self.typ_def_run()
        if kind == 2:
            return self.imp_proc_dec(depth)
        if kind == 3:
            decs = tuple(self.imp_proc_dec(depth) for _ in range(self.rng.randrange(1, 3)))
            return n.MultiProcDec(decs)
        if self.rng.randrange(2) == 0:
            return n.FunProcDec(self.ident(), self.formals(), None, self.data_exp(1), None)
        return n.FunProcDec(
            self.ident(),
            self.formals(),
            self.program(depth),
            self.data_exp(1),
            self.typ_exp(1),
        )

    def var_dec_run(self) -> n.Declaration:
        decs = [
            n.VarDec(self.ident(), self.typ_exp(1))
            for _ in range(self.rng.randrange(1, 4))
        ]
        return sequence(decs, n.VarDecSeq)

    def typ_def_run(self) -> n.Declaration:
        defs = [
            n.TypDef(self.ident(), self.typ_exp(1))
            for _ in range(self.rng.randrange(1, 4))
        ]
        return sequence(defs, n.TypDefSeq)

    def _block_kind(self, block) -> str:
        if isinstance(block, (n.VarDec, n.VarDecSeq)):
            return "var"
        if isinstance(block, (n.TypDef, n.TypDefSeq)):
            return "typ"
        return "other"

    def preamble(self, depth: int):
        # Blocks alternate kinds so reparsing regroups identically, and the
        # last block is a declaration (trailing skips would migrate into the
        # instruction part).
        blocks: list[n.Node] = []
        for _ in range(self.rng.randrange(1, 4)):
            if blocks and self.rng.randrange(4) == 0:
                blocks.append(n.SkipIns())
            candidate = self.declaration(depth)
            while blocks and self._block_kind(candidate) != "other" and self._block_kind(
                candidate
            ) == self._block_kind(blocks[-1]):
                candidate = self.declaration(depth)
            blocks.append(candidate)
        return sequence(blocks, n.PreSeq)

    # -- programs ------------------------------------------------------------

    def program(self, depth: int) -> n.Program:
        d = max(depth - 1, 0)
        if depth <= 0 or self.rng.randrange(2) == 0:
            return n.Program(None, self.instruction(d))
        return n.Program(self.preamble(d), self.instruction(d))

    def any_sort(self, depth: int = 3):
        """A (parse_entry_name, ast) pair over all the sorts."""
        kind = self.rng.randrange(5)
        if kind == 0:
            return "data", self.data_exp(depth)
        if kind == 1:
            return "transfer", self.tra_exp(depth)
        if kind == 2:
            return "type", self.typ_exp(depth)
        if kind == 3:
            return "instruction", self.instruction(depth - 1)
        return "program", self.program(depth - 1)
