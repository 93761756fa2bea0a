"""Abstract syntax trees.

One class per grammar clause, each a `record` of the fields it annotates,
as in `class AddExp(DatExp, metaclass=record)`; `Node` defines equality,
hashing, the repr and freezing once for all of them.  Field names
follow the clause metavariables: ide for identifiers, dae for data
expressions, tre for transfer expressions, tex for type expressions, ins
for instructions, pam for preambles.  A sequence form holds its items,
two or more, left to right in one flat `items` tuple (a run of one is the
item itself), and parameter lists are tuples too.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .kernel import Number
from .record import record, refuse_write


class _LazyFields:
    """A node class's `__dataclass_fields__`, which `dataclasses.fields`
    reads.  The first read processes the class as a dataclass, for its
    field metadata alone, which sets the class's own entry in place of
    this descriptor."""

    def __get__(self, node: Optional[Node], cls: type) -> dict:
        from dataclasses import dataclass

        dataclass(init=False, repr=False, eq=False)(cls)
        return cls.__dict__["__dataclass_fields__"]


_TUPLE = object()  # stands for a tuple in `_walk`; the tuple's length follows


def _walk(node: Node) -> list:
    """Every class and leaf value of the tree under `node`, depth first: a
    node is its class, then its fields, last first; a tuple is `_TUPLE` and
    its length, then its items, last first.  Equal trees give equal lists,
    and a loop over an explicit stack costs no Python frame per level."""
    out: list = []
    todo = [node]
    while todo:
        x = todo.pop()
        if isinstance(x, Node):
            out.append(x.__class__)
            for name in x.__match_args__:
                todo.append(getattr(x, name))
        elif x.__class__ is tuple:
            out += (_TUPLE, len(x))
            todo += x
        else:
            out.append(x)
    return out


class Node:
    """A frozen record of the fields its class annotates.

    Each concrete subclass is a `record`, its fields its `__slots__` and
    `__match_args__`, through which every reader goes.  Node adds a weak
    reference slot and dataclass field metadata, built when
    `dataclasses.fields` first reads it.  Equality and hashing go by class
    and fields, the repr is the dataclass text, and assigning or deleting
    an attribute raises `FrozenInstanceError`, as for a frozen dataclass.
    """

    __slots__ = ("__weakref__",)
    __match_args__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__doc__ is None:  # else `dataclass` builds one from a signature
            cls.__doc__ = f"{cls.__name__}({', '.join(cls.__match_args__)})"
        cls.__dataclass_fields__ = _LazyFields()

    # Equality, hashing and the repr walk the tree with an explicit stack,
    # so a tree of any depth needs no more Python frames than a leaf.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self is other or _walk(self) == _walk(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(_walk(self)))

    def __repr__(self) -> str:
        return _render(self, _repr_parts, repr)

    __setattr__ = __delattr__ = refuse_write


def _render(
    node: Any, container: Callable, scalar: Callable[[Any], str], containers: tuple = (Node, tuple)
) -> str:
    """Write `node` along an explicit stack, so nesting costs no recursion.

    `container(value, depth)` gives the (opening text, [(text before
    child, child)], closing text) of a value of one of the `containers`
    classes, nodes and tuples unless given; `scalar(value)` gives the text
    of anything else.  Text rides the stack as `(text, None)`, and empty
    text is dropped.  The repr, dumps, concrete syntax and the CLI's text
    of data and bodies use it.
    """
    parts: list[str] = []
    stack: list[tuple[Any, Any]] = [(node, 0)]
    while stack:
        value, depth = stack.pop()
        if depth is not None and isinstance(value, containers):
            opening, children, closing = container(value, depth)
            stack.append((closing, None))
            for before, child in reversed(children):
                stack += ((child, depth + 1), (before, None))
            stack.append((opening, None))
        elif depth is not None:
            parts.append(scalar(value))
        elif value:
            parts.append(value)
    return "".join(parts)


def _repr_parts(value: Any, depth: int):
    """A node's or tuple's repr, the dataclass text, as `_render` takes it."""
    if isinstance(value, Node):
        labelled = [(f"{name}=", getattr(value, name)) for name in value.__match_args__]
        opening, closing = f"{value.__class__.__qualname__}(", ")"
    else:
        labelled = [("", v) for v in value]
        opening, closing = "(", ",)" if len(value) == 1 else ")"
    children = [(", " + label if i else label, v) for i, (label, v) in enumerate(labelled)]
    return opening, children, closing


class DatExp(Node):
    __slots__ = ()


class TraExp(Node):
    __slots__ = ()


class TypExp(Node):
    __slots__ = ()


class Instruction(Node):
    __slots__ = ()


class Declaration(Node):
    """Preamble items other than skip and sequencing."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# data expressions


class BoolLit(DatExp, metaclass=record):
    value: bool


class NumLit(DatExp, metaclass=record):
    num: Number


class WordLit(DatExp, metaclass=record):
    wor: str


class IdeExp(DatExp, metaclass=record):
    ide: str


class AndExp(DatExp, metaclass=record):
    dae1: DatExp
    dae2: DatExp


class OrExp(DatExp, metaclass=record):
    dae1: DatExp
    dae2: DatExp


class NotExp(DatExp, metaclass=record):
    dae: DatExp


class LessExp(DatExp, metaclass=record):
    dae1: DatExp
    dae2: DatExp


class AddExp(DatExp, metaclass=record):
    dae1: DatExp
    dae2: DatExp


class DivExp(DatExp, metaclass=record):
    dae1: DatExp
    dae2: DatExp


class MulExp(DatExp, metaclass=record):
    """Extension: (dae * dae)."""

    dae1: DatExp
    dae2: DatExp


class SubExp(DatExp, metaclass=record):
    """Extension: (dae - dae)."""

    dae1: DatExp
    dae2: DatExp


class EqExp(DatExp, metaclass=record):
    """Extension: (dae = dae)."""

    dae1: DatExp
    dae2: DatExp


class GlueExp(DatExp, metaclass=record):
    dae1: DatExp
    dae2: DatExp


class ListExp(DatExp, metaclass=record):
    dae: DatExp


class PushExp(DatExp, metaclass=record):
    """push dae1 on dae2 ee"""

    dae1: DatExp
    dae2: DatExp


class TopExp(DatExp, metaclass=record):
    dae: DatExp


class PopExp(DatExp, metaclass=record):
    dae: DatExp


class ArrayExp(DatExp, metaclass=record):
    dae: DatExp


class AddToArrExp(DatExp, metaclass=record):
    """add-to-arr dae1 new dae2 ee"""

    dae1: DatExp
    dae2: DatExp


class ChangeArrExp(DatExp, metaclass=record):
    """change-arr dae1 at dae2 by dae3 ee"""

    dae1: DatExp
    dae2: DatExp
    dae3: DatExp


class ArrAtExp(DatExp, metaclass=record):
    """arr dae1 at dae2 ee"""

    dae1: DatExp
    dae2: DatExp


class RecordExp(DatExp, metaclass=record):
    """record ide of-value dae ee"""

    ide: str
    dae: DatExp


class AddAttrExp(DatExp, metaclass=record):
    """add-attr ide of-value dae1 to dae2 ee"""

    ide: str
    dae1: DatExp
    dae2: DatExp


class RecAtExp(DatExp, metaclass=record):
    """rec dae at ide ee"""

    dae: DatExp
    ide: str


class RemoveAttrExp(DatExp, metaclass=record):
    """remove-attr ide from dae ee"""

    ide: str
    dae: DatExp


class ChangeRecExp(DatExp, metaclass=record):
    """change-rec dae1 at ide by dae2 ee"""

    dae1: DatExp
    ide: str
    dae2: DatExp


class CondExp(DatExp, metaclass=record):
    """if dae1 then dae2 else dae3 fi"""

    dae1: DatExp
    dae2: DatExp
    dae3: DatExp


class FunCallExp(DatExp, metaclass=record):
    """ide (actual parameters); actuals are plain identifiers."""

    ide: str
    apar: tuple[str, ...]


# ---------------------------------------------------------------------------
# transfer expressions


class TraNumLit(TraExp, metaclass=record):
    num: Number


class TraWordLit(TraExp, metaclass=record):
    wor: str


class TraBoolLit(TraExp, metaclass=record):
    value: bool


class TraAddExp(TraExp, metaclass=record):
    tre1: TraExp
    tre2: TraExp


class TraDivExp(TraExp, metaclass=record):
    tre1: TraExp
    tre2: TraExp


class SumExp(TraExp, metaclass=record):
    tre: TraExp


class MaxExp(TraExp, metaclass=record):
    tre: TraExp


class TraGlueExp(TraExp, metaclass=record):
    tre1: TraExp
    tre2: TraExp


class TraEqExp(TraExp, metaclass=record):
    tre1: TraExp
    tre2: TraExp


class TraLessExp(TraExp, metaclass=record):
    tre1: TraExp
    tre2: TraExp


class SmallNumberExp(TraExp, metaclass=record):
    tre: TraExp


class IncreasingExp(TraExp, metaclass=record):
    tre: TraExp


class TraAndExp(TraExp, metaclass=record):
    tre1: TraExp
    tre2: TraExp


class TraOrExp(TraExp, metaclass=record):
    tre1: TraExp
    tre2: TraExp


class TraNotExp(TraExp, metaclass=record):
    tre: TraExp


class AllListExp(TraExp, metaclass=record):
    tre: TraExp


class AllArrayExp(TraExp, metaclass=record):
    tre: TraExp


class TopTra(TraExp, metaclass=record):
    pass


class ArrayAtTra(TraExp, metaclass=record):
    """array[tre] - select from the current array composite."""

    tre: TraExp


class RecordAtTra(TraExp, metaclass=record):
    """record.ide - select from the current record composite."""

    ide: str


class ValueTra(TraExp, metaclass=record):
    """The identity transfer."""


# ---------------------------------------------------------------------------
# type expressions


class BooleanTyp(TypExp, metaclass=record):
    pass


class NumberTyp(TypExp, metaclass=record):
    pass


class WordTyp(TypExp, metaclass=record):
    pass


class IdeTyp(TypExp, metaclass=record):
    ide: str


class ListTyp(TypExp, metaclass=record):
    tex: TypExp


class ArrayTyp(TypExp, metaclass=record):
    tex: TypExp


class RecordTyp(TypExp, metaclass=record):
    """record-type ide as tex ee"""

    ide: str
    tex: TypExp


class ExpandRecordTyp(TypExp, metaclass=record):
    """expand-record-type tex1 at ide by tex2 ee"""

    tex1: TypExp
    ide: str
    tex2: TypExp


class ReplaceTransferTyp(TypExp, metaclass=record):
    """replace-transfer-in tex by tre ee"""

    tex: TypExp
    tre: TraExp


# ---------------------------------------------------------------------------
# declarations, definitions, parameters


class VarDec(Declaration, metaclass=record):
    """let ide be tex tel"""

    ide: str
    tex: TypExp


class VarDecSeq(Declaration, metaclass=record):
    items: tuple[VarDec, ...]


class TypDef(Declaration, metaclass=record):
    """set ide as tex tes"""

    ide: str
    tex: TypExp


class TypDefSeq(Declaration, metaclass=record):
    items: tuple[TypDef, ...]


class FormalParam(Node, metaclass=record):
    ide: str
    tex: TypExp


class ImpProcDec(Declaration, metaclass=record):
    """proc ide (val ... ref ...) program end proc"""

    ide: str
    val_params: tuple[FormalParam, ...]
    ref_params: tuple[FormalParam, ...]
    prg: "Program"


class MultiProcDec(Declaration, metaclass=record):
    """begin multiproc ipd+ end multiproc"""

    decs: tuple[ImpProcDec, ...]


class FunProcDec(Declaration, metaclass=record):
    """Either `fun ide (fpar) dae endfun` (prg and tex are None) or
    `fun ide (fpar) program return dae as tex end fun`."""

    ide: str
    params: tuple[FormalParam, ...]
    prg: Optional["Program"]
    dae: DatExp
    tex: Optional[TypExp]


# ---------------------------------------------------------------------------
# instructions


class AssignIns(Instruction, metaclass=record):
    ide: str
    dae: DatExp


class YokeIns(Instruction, metaclass=record):
    """yoke ide := tre"""

    ide: str
    tre: TraExp


class SkipIns(Instruction, metaclass=record):
    pass


class CallIns(Instruction, metaclass=record):
    """call ide (ref ... val ...)"""

    ide: str
    ref_args: tuple[str, ...]
    val_args: tuple[str, ...]


class IfIns(Instruction, metaclass=record):
    dae: DatExp
    ins1: Instruction
    ins2: Instruction


class IfErrorIns(Instruction, metaclass=record):
    """if-error dae then ins fi"""

    dae: DatExp
    ins: Instruction


class WhileIns(Instruction, metaclass=record):
    dae: DatExp
    ins: Instruction


class SeqIns(Instruction, metaclass=record):
    items: tuple[Instruction, ...]


# ---------------------------------------------------------------------------
# preambles and programs

Preamble = Union[Declaration, SkipIns, "PreSeq"]


class PreSeq(Node, metaclass=record):
    items: tuple[Union[Declaration, SkipIns], ...]


class Program(Node, metaclass=record):
    """begin-program [pam ;] ins end-program"""

    pam: Optional[Preamble]
    ins: Instruction

