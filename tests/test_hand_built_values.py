"""Hand-built values certify themselves.

`Value(content, typ)` is a trust boundary, as `Composite` is: it raises
`ValueError` unless the datum pairs with the type's body and the type's
transfer accepts that composite.  So a state a library caller builds by
hand satisfies its own types, as every state the evaluator returns does,
and a run from it ends with every value certified.
"""

import pytest
from hypothesis import given, settings, strategies as st

from astgen import AstGen
from lingua.kernel import (
    NUMBER,
    OMEGA,
    TT,
    WORD,
    ArrayBody,
    ArrayData,
    Composite,
    LangType,
    ListData,
    Value,
    clan_bo_member,
    clan_tr_member,
    num,
)
from lingua.parser import parse_transfer_expression
from lingua.semantics import Evaluator
from lingua.state import bind_variable, empty_state

from test_certify import CheckingEvaluator, element_writes, run_checked, seeded_state
from test_element_writes import transfer

RANDOM = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# A transfer that accepts every composite; a random one rarely does.
ACCEPT_ALL = parse_transfer_expression("(value = value)")


def admits(typ, content):
    """Is `content` in the clan of `typ`?  Ω always is."""
    if content is OMEGA:
        return True
    return clan_bo_member(content, typ.bod) and clan_tr_member(
        Composite(content, typ.bod), typ.tra
    )


def drawn_type(gen, evaluator, own, bodies):
    """Half the time the value's own body, else any seeded one; half the
    time a transfer that accepts everything, else a random one."""
    bod = own if gen.rng.random() < 0.5 else gen.choice(bodies)
    tre = ACCEPT_ALL if gen.rng.random() < 0.5 else gen.tra_exp(gen.rng.randrange(1, 4))
    return LangType(bod, evaluator.eval_transfer_exp(tre, empty_state()))


def hand_built(gen, evaluator):
    """The seeded variables, each retyped by hand with a drawn type; a value
    that does not build keeps its seeded type.  Returns the draws, as
    (content, type, built value or None), and the state."""
    seeded = seeded_state().store.valuation
    bodies = [val.typ.bod for val in seeded.values()]
    draws, sta = [], empty_state()
    for ide, held in seeded.items():
        typ = drawn_type(gen, evaluator, held.typ.bod, bodies)
        try:
            val = Value(held.content, typ)
        except ValueError:
            val = None
        draws.append((held.content, typ, val))
        sta = bind_variable(sta, ide, held if val is None else val)
    return draws, sta


def test_value_of_the_wrong_body_raises():
    with pytest.raises(ValueError):
        Value(num(1), LangType(WORD, TT))


def test_value_its_transfer_rejects_raises():
    small = transfer("all-array (value < 5) ee")
    with pytest.raises(ValueError):
        Value(ArrayData((num(9),)), LangType(ArrayBody(NUMBER), small))
    held = Value(ArrayData((num(3),)), LangType(ArrayBody(NUMBER), small))
    assert held.com == Composite(ArrayData((num(3),)), ArrayBody(NUMBER))


def test_a_caller_cannot_change_a_certified_collection():
    small = transfer("all-array (value < 5) ee")
    items = [num(3)]
    held = Value(ArrayData(items), LangType(ArrayBody(NUMBER), small))
    items[0] = num(9)
    assert held.content == held.com.dat == ArrayData((num(3),))
    for dat in (ListData(items), ArrayData(items)):
        assert dat.items == (num(9),)


def test_composite_is_not_a_constructor_argument():
    com = Composite(num(1), NUMBER)
    with pytest.raises(TypeError):
        Value(num(1), LangType(NUMBER, TT), com)
    with pytest.raises(TypeError):
        Value(num(1), LangType(NUMBER, TT), com=com)


@RANDOM
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hand_built_states_stay_certified(seed):
    gen, evaluator = AstGen(seed), CheckingEvaluator()
    draws, sta = hand_built(gen, evaluator)
    for content, typ, val in draws:
        assert (val is not None) == admits(typ, content)
        if val is not None:
            assert (val.com is None) == (content is OMEGA)
    # each program ends in a state whose values are all certified and
    # satisfy their own transfers, or in a resource outcome
    for prg in [gen.program(3), *element_writes(gen)]:
        evaluator.fuel.remaining = 300
        run_checked(evaluator, prg, sta)


def test_random_draws_reach_every_verdict():
    # Guards the property above: its draws must build values under random
    # transfers and reject values both for their body and their transfer.
    seen = set()
    for seed in range(60):
        gen, evaluator = AstGen(seed), Evaluator()
        draws, _ = hand_built(gen, evaluator)
        for content, typ, val in draws:
            if content is OMEGA:
                continue
            if val is not None:
                seen.add("built" if typ.tra.source != "(value = value)" else "accept-all")
            elif not clan_bo_member(content, typ.bod):
                seen.add("wrong body")
            else:
                seen.add("rejected")
    assert seen == {"built", "accept-all", "wrong body", "rejected"}
