"""Abstract syntax trees.

One frozen dataclass per grammar clause.  Field names follow the clause
metavariables: ide for identifiers, dae for data expressions, tre for
transfer expressions, tex for type expressions, ins for instructions, pam
for preambles.  A sequence form holds its items, two or more, left to
right in one flat `items` tuple (a run of one is the item itself), and
parameter lists are tuples too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .kernel import Number


class Node:
    pass


class DatExp(Node):
    pass


class TraExp(Node):
    pass


class TypExp(Node):
    pass


class Instruction(Node):
    pass


class Declaration(Node):
    """Preamble items other than skip and sequencing."""


# ---------------------------------------------------------------------------
# data expressions


@dataclass(frozen=True)
class BoolLit(DatExp):
    value: bool


@dataclass(frozen=True)
class NumLit(DatExp):
    num: Number


@dataclass(frozen=True)
class WordLit(DatExp):
    wor: str


@dataclass(frozen=True)
class IdeExp(DatExp):
    ide: str


@dataclass(frozen=True)
class AndExp(DatExp):
    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class OrExp(DatExp):
    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class NotExp(DatExp):
    dae: DatExp


@dataclass(frozen=True)
class LessExp(DatExp):
    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class AddExp(DatExp):
    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class DivExp(DatExp):
    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class MulExp(DatExp):
    """Extension: (dae * dae)."""

    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class SubExp(DatExp):
    """Extension: (dae - dae)."""

    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class EqExp(DatExp):
    """Extension: (dae = dae)."""

    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class GlueExp(DatExp):
    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class ListExp(DatExp):
    dae: DatExp


@dataclass(frozen=True)
class PushExp(DatExp):
    """push dae1 on dae2 ee"""

    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class TopExp(DatExp):
    dae: DatExp


@dataclass(frozen=True)
class PopExp(DatExp):
    dae: DatExp


@dataclass(frozen=True)
class ArrayExp(DatExp):
    dae: DatExp


@dataclass(frozen=True)
class AddToArrExp(DatExp):
    """add-to-arr dae1 new dae2 ee"""

    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class ChangeArrExp(DatExp):
    """change-arr dae1 at dae2 by dae3 ee"""

    dae1: DatExp
    dae2: DatExp
    dae3: DatExp


@dataclass(frozen=True)
class ArrAtExp(DatExp):
    """arr dae1 at dae2 ee"""

    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class RecordExp(DatExp):
    """record ide of-value dae ee"""

    ide: str
    dae: DatExp


@dataclass(frozen=True)
class AddAttrExp(DatExp):
    """add-attr ide of-value dae1 to dae2 ee"""

    ide: str
    dae1: DatExp
    dae2: DatExp


@dataclass(frozen=True)
class RecAtExp(DatExp):
    """rec dae at ide ee"""

    dae: DatExp
    ide: str


@dataclass(frozen=True)
class RemoveAttrExp(DatExp):
    """remove-attr ide from dae ee"""

    ide: str
    dae: DatExp


@dataclass(frozen=True)
class ChangeRecExp(DatExp):
    """change-rec dae1 at ide by dae2 ee"""

    dae1: DatExp
    ide: str
    dae2: DatExp


@dataclass(frozen=True)
class CondExp(DatExp):
    """if dae1 then dae2 else dae3 fi"""

    dae1: DatExp
    dae2: DatExp
    dae3: DatExp


@dataclass(frozen=True)
class FunCallExp(DatExp):
    """ide (actual parameters); actuals are plain identifiers."""

    ide: str
    apar: tuple[str, ...]


# ---------------------------------------------------------------------------
# transfer expressions


@dataclass(frozen=True)
class TraNumLit(TraExp):
    num: Number


@dataclass(frozen=True)
class TraWordLit(TraExp):
    wor: str


@dataclass(frozen=True)
class TraBoolLit(TraExp):
    value: bool


@dataclass(frozen=True)
class TraAddExp(TraExp):
    tre1: TraExp
    tre2: TraExp


@dataclass(frozen=True)
class TraDivExp(TraExp):
    tre1: TraExp
    tre2: TraExp


@dataclass(frozen=True)
class SumExp(TraExp):
    tre: TraExp


@dataclass(frozen=True)
class MaxExp(TraExp):
    tre: TraExp


@dataclass(frozen=True)
class TraGlueExp(TraExp):
    tre1: TraExp
    tre2: TraExp


@dataclass(frozen=True)
class TraEqExp(TraExp):
    tre1: TraExp
    tre2: TraExp


@dataclass(frozen=True)
class TraLessExp(TraExp):
    tre1: TraExp
    tre2: TraExp


@dataclass(frozen=True)
class SmallNumberExp(TraExp):
    tre: TraExp


@dataclass(frozen=True)
class IncreasingExp(TraExp):
    tre: TraExp


@dataclass(frozen=True)
class TraAndExp(TraExp):
    tre1: TraExp
    tre2: TraExp


@dataclass(frozen=True)
class TraOrExp(TraExp):
    tre1: TraExp
    tre2: TraExp


@dataclass(frozen=True)
class TraNotExp(TraExp):
    tre: TraExp


@dataclass(frozen=True)
class AllListExp(TraExp):
    tre: TraExp


@dataclass(frozen=True)
class AllArrayExp(TraExp):
    tre: TraExp


@dataclass(frozen=True)
class TopTra(TraExp):
    pass


@dataclass(frozen=True)
class ArrayAtTra(TraExp):
    """array[tre] - select from the current array composite."""

    tre: TraExp


@dataclass(frozen=True)
class RecordAtTra(TraExp):
    """record.ide - select from the current record composite."""

    ide: str


@dataclass(frozen=True)
class ValueTra(TraExp):
    """The identity transfer."""


# ---------------------------------------------------------------------------
# type expressions


@dataclass(frozen=True)
class BooleanTyp(TypExp):
    pass


@dataclass(frozen=True)
class NumberTyp(TypExp):
    pass


@dataclass(frozen=True)
class WordTyp(TypExp):
    pass


@dataclass(frozen=True)
class IdeTyp(TypExp):
    ide: str


@dataclass(frozen=True)
class ListTyp(TypExp):
    tex: TypExp


@dataclass(frozen=True)
class ArrayTyp(TypExp):
    tex: TypExp


@dataclass(frozen=True)
class RecordTyp(TypExp):
    """record-type ide as tex ee"""

    ide: str
    tex: TypExp


@dataclass(frozen=True)
class ExpandRecordTyp(TypExp):
    """expand-record-type tex1 at ide by tex2 ee"""

    tex1: TypExp
    ide: str
    tex2: TypExp


@dataclass(frozen=True)
class ReplaceTransferTyp(TypExp):
    """replace-transfer-in tex by tre ee"""

    tex: TypExp
    tre: TraExp


# ---------------------------------------------------------------------------
# declarations, definitions, parameters


@dataclass(frozen=True)
class VarDec(Declaration):
    """let ide be tex tel"""

    ide: str
    tex: TypExp


@dataclass(frozen=True)
class VarDecSeq(Declaration):
    items: tuple[VarDec, ...]


@dataclass(frozen=True)
class TypDef(Declaration):
    """set ide as tex tes"""

    ide: str
    tex: TypExp


@dataclass(frozen=True)
class TypDefSeq(Declaration):
    items: tuple[TypDef, ...]


@dataclass(frozen=True)
class FormalParam(Node):
    ide: str
    tex: TypExp


@dataclass(frozen=True)
class ImpProcDec(Declaration):
    """proc ide (val ... ref ...) program end proc"""

    ide: str
    val_params: tuple[FormalParam, ...]
    ref_params: tuple[FormalParam, ...]
    prg: "Program"


@dataclass(frozen=True)
class MultiProcDec(Declaration):
    """begin multiproc ipd+ end multiproc"""

    decs: tuple[ImpProcDec, ...]


@dataclass(frozen=True)
class FunProcDec(Declaration):
    """Either `fun ide (fpar) dae endfun` (prg and tex are None) or
    `fun ide (fpar) program return dae as tex end fun`."""

    ide: str
    params: tuple[FormalParam, ...]
    prg: Optional["Program"]
    dae: DatExp
    tex: Optional[TypExp]


# ---------------------------------------------------------------------------
# instructions


@dataclass(frozen=True)
class AssignIns(Instruction):
    ide: str
    dae: DatExp


@dataclass(frozen=True)
class YokeIns(Instruction):
    """yoke ide := tre"""

    ide: str
    tre: TraExp


@dataclass(frozen=True)
class SkipIns(Instruction):
    pass


@dataclass(frozen=True)
class CallIns(Instruction):
    """call ide (ref ... val ...)"""

    ide: str
    ref_args: tuple[str, ...]
    val_args: tuple[str, ...]


@dataclass(frozen=True)
class IfIns(Instruction):
    dae: DatExp
    ins1: Instruction
    ins2: Instruction


@dataclass(frozen=True)
class IfErrorIns(Instruction):
    """if-error dae then ins fi"""

    dae: DatExp
    ins: Instruction


@dataclass(frozen=True)
class WhileIns(Instruction):
    dae: DatExp
    ins: Instruction


@dataclass(frozen=True)
class SeqIns(Instruction):
    items: tuple[Instruction, ...]


# ---------------------------------------------------------------------------
# preambles and programs

Preamble = Union[Declaration, SkipIns, "PreSeq"]


@dataclass(frozen=True)
class PreSeq(Node):
    items: tuple[Union[Declaration, SkipIns], ...]


@dataclass(frozen=True)
class Program(Node):
    """begin-program [pam ;] ins end-program"""

    pam: Optional[Preamble]
    ins: Instruction

