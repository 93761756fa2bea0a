"""Lazy three-valued propositional operators over {tt, ff, ee}.

The third value ee stands for an observable evaluation error (a diverging
computation never returns at all).  The left argument decides first: a left
ee poisons the result even when the right argument would settle it, so the
connectives are not commutative.

This is the reference model the tests hold the evaluator's lazy `and`,
`or` and `not` against; the interpreter does not use it.
"""

from __future__ import annotations

from enum import Enum


class Bool3(Enum):
    TT = "tt"
    FF = "ff"
    EE = "ee"

    def __repr__(self) -> str:
        return self.value


TT = Bool3.TT
FF = Bool3.FF
EE = Bool3.EE

_AND = {
    TT: {TT: TT, FF: FF, EE: EE},
    FF: {TT: FF, FF: FF, EE: FF},
    EE: {TT: EE, FF: EE, EE: EE},
}

_OR = {
    TT: {TT: TT, FF: TT, EE: TT},
    FF: {TT: TT, FF: FF, EE: EE},
    EE: {TT: EE, FF: EE, EE: EE},
}

_NOT = {TT: FF, FF: TT, EE: EE}


def and_m(a: Bool3, b: Bool3) -> Bool3:
    return _AND[a][b]


def or_m(a: Bool3, b: Bool3) -> Bool3:
    return _OR[a][b]


def not_m(a: Bool3) -> Bool3:
    return _NOT[a]


def implies_m(a: Bool3, b: Bool3) -> Bool3:
    return or_m(not_m(a), b)
