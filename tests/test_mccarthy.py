import itertools

import pytest

from mccarthy import EE, FF, TT, Bool3, and_m, implies_m, not_m, or_m

ALL = (TT, FF, EE)

# Frozen truth tables, row value first.
AND_TABLE = {
    (TT, TT): TT, (TT, FF): FF, (TT, EE): EE,
    (FF, TT): FF, (FF, FF): FF, (FF, EE): FF,
    (EE, TT): EE, (EE, FF): EE, (EE, EE): EE,
}

OR_TABLE = {
    (TT, TT): TT, (TT, FF): TT, (TT, EE): TT,
    (FF, TT): TT, (FF, FF): FF, (FF, EE): EE,
    (EE, TT): EE, (EE, FF): EE, (EE, EE): EE,
}

NOT_TABLE = {TT: FF, FF: TT, EE: EE}


def test_and_table():
    for pair, expected in AND_TABLE.items():
        assert and_m(*pair) == expected


def test_or_table():
    for pair, expected in OR_TABLE.items():
        assert or_m(*pair) == expected


def test_not_table():
    for a, expected in NOT_TABLE.items():
        assert not_m(a) == expected


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (FF, EE, TT),  # not ff = tt; tt or ee = tt
        (EE, TT, EE),  # not ee = ee; ee or tt = ee
        (TT, TT, TT),
    ],
)
def test_implies_values(a, b, expected):
    assert implies_m(a, b) == expected


def test_implies_is_not_or():
    for a, b in itertools.product(ALL, repeat=2):
        assert implies_m(a, b) == or_m(not_m(a), b)


def test_associativity():
    for a, b, c in itertools.product(ALL, repeat=3):
        assert and_m(a, and_m(b, c)) == and_m(and_m(a, b), c)
        assert or_m(a, or_m(b, c)) == or_m(or_m(a, b), c)


def test_de_morgan():
    for a, b in itertools.product(ALL, repeat=2):
        assert not_m(and_m(a, b)) == or_m(not_m(a), not_m(b))
        assert not_m(or_m(a, b)) == and_m(not_m(a), not_m(b))


def test_right_distributivity():
    for p, q, s in itertools.product(ALL, repeat=3):
        assert and_m(p, or_m(q, s)) == or_m(and_m(p, q), and_m(p, s))
        assert or_m(p, and_m(q, s)) == and_m(or_m(p, q), or_m(p, s))


def test_non_commutativity_witness():
    assert and_m(FF, EE) == FF
    assert and_m(EE, FF) == EE
    assert and_m(FF, EE) != and_m(EE, FF)


def test_left_distributivity_counterexample():
    assert and_m(or_m(TT, EE), FF) == FF
    assert or_m(and_m(TT, FF), and_m(EE, FF)) == EE


def test_classical_agreement():
    classical = {TT: True, FF: False}
    for a, b in itertools.product((TT, FF), repeat=2):
        assert and_m(a, b) == (TT if classical[a] and classical[b] else FF)
        assert or_m(a, b) == (TT if classical[a] or classical[b] else FF)
    assert not_m(TT) == FF and not_m(FF) == TT


def test_excluded_middle_weakened():
    for p in ALL:
        assert or_m(p, not_m(p)) != FF
        assert and_m(p, not_m(p)) != TT


def test_exactly_three_values():
    assert len(Bool3) == 3
