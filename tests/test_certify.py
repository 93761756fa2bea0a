"""The certification invariant.

The public kernel constructors check every datum/body pairing; the
evaluator builds the results it derives without re-checking them.  These
tests stand in for the per-touch check: every composite the evaluator
produces, and every initialized value it binds, must pass
`clan_bo_member`, over the acceptance programs and over seeded random
expressions and programs.

Every initialized value the evaluator binds must also satisfy its own
transfer: a write that adds or changes one element of a collection under
`all-list T` or `all-array T` checks T on that element alone, which is
exact only because every old element already satisfies T.
"""

import pytest
from hypothesis import given, settings, strategies as st

from astgen import AstGen
from lingua import nodes as n
from lingua.kernel import (
    NUMBER,
    OMEGA,
    TT,
    WORD,
    ArrayBody,
    ArrayData,
    Composite,
    LangType,
    ListBody,
    ListData,
    Number,
    RecordBody,
    RecordData,
    TRUE_COMPOSITE,
    Value,
    apply_transfer,
    clan_bo_member,
    num,
)
from lingua.semantics import Evaluator, OutOfFuel
from lingua.parser import parse_program
from lingua.state import bind_variable, empty_state, is_error, lookup_variable, register_word

from test_acceptance import (
    COVERAGE_CORPUS,
    FACT_PROGRAM,
    FUEL_CORPUS,
    PARITY_PROGRAM,
    SWAP_PROGRAM,
    YOKE_PROGRAM,
)

RANDOM = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Data and transfer clauses whose result the evaluator builds unchecked.
DERIVED_DATA = {
    n.ListExp, n.PushExp, n.TopExp, n.PopExp, n.ArrayExp, n.AddToArrExp,
    n.ChangeArrExp, n.ArrAtExp, n.RecordExp, n.AddAttrExp, n.RecAtExp,
    n.RemoveAttrExp, n.ChangeRecExp,
}  # fmt: skip
DERIVED_TRANSFER = {n.TopTra, n.ArrayAtTra, n.RecordAtTra, n.AllListExp, n.AllArrayExp}


def assert_certified(com: Composite) -> None:
    assert clan_bo_member(com.dat, com.bod), com


def assert_values_certified(sta) -> None:
    for ide, val in sta.store.valuation.items():
        if val.content is OMEGA:
            continue
        assert clan_bo_member(val.content, val.typ.bod), ide
        com = val.composite()
        assert com.dat == val.content and com.bod == val.typ.bod, ide
        assert_certified(com)
        assert apply_transfer(val.typ.tra, com) == TRUE_COMPOSITE, ide


def is_element_write(ide: str, dae: n.DatExp) -> bool:
    """Does `ide := dae` add or change one element of the value `ide` holds?"""
    match dae:
        case (
            n.AddToArrExp(n.IdeExp(held), _)
            | n.ChangeArrExp(n.IdeExp(held), _, _)
            | n.PushExp(_, n.IdeExp(held))
        ):
            return held == ide
    return False


class CheckingEvaluator(Evaluator):
    """Checks every composite and every state the evaluator produces."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.built: set[type] = set()
        # outcomes of element writes under an elementwise yoke: "OK", or
        # the error word, "yoke-not-satisfied" when the element fails T
        self.element_writes: set[str] = set()

    # The hooks wrap the compiled closure of every node, so they see each
    # result and state as the closures produce them.

    def compile_expression(self, exp):
        code = super().compile_expression(exp)

        if isinstance(exp, n.DatExp):

            def checked(sta):
                result = code(sta)
                if isinstance(result, Composite):
                    assert_certified(result)
                    self.built.add(type(exp))
                return result

        else:

            def checked(com):
                assert_certified(com)
                result = code(com)
                if isinstance(result, Composite):
                    assert_certified(result)
                    self.built.add(type(exp))
                return result

        return checked

    def compile_assignment(self, ide, dae):
        code = super().compile_assignment(ide, dae)
        if not is_element_write(ide, dae):
            return code

        def counted(sta):
            result = code(sta)
            held = lookup_variable(sta, ide)
            if not is_error(sta) and held is not None and held.typ.tra.elementwise:
                self.element_writes.add(register_word(result))
            return result

        return counted

    def compile_instruction(self, ins):
        code = super().compile_instruction(ins)

        def checked(sta):
            result = code(sta)
            assert_values_certified(result)
            return result

        return checked


def seeded_state():
    """One variable of every shape astgen's identifiers can name."""
    record = Composite(
        RecordData.of({"a": num(7), "b": "John"}),
        RecordBody.of({"a": NUMBER, "b": WORD}),
    )
    values = {
        "x": Composite(num(3), NUMBER),
        "y": Composite("abc", WORD),
        "z": Composite(ListData((num(1), num(2), num(3))), ListBody(NUMBER)),
        "acc": Composite(ArrayData((num(4), num("0.5"))), ArrayBody(NUMBER)),
        "price": record,
        "vat": Composite(ArrayData((record.dat, record.dat)), ArrayBody(record.bod)),
        "measurement-data": Composite(
            ListData((ArrayData((num(1),)), ArrayData(()))), ListBody(ArrayBody(NUMBER))
        ),
        "ch-name": Composite(ListData(()), ListBody(WORD)),
    }
    sta = empty_state()
    for ide, com in values.items():
        sta = bind_variable(sta, ide, Value(com.dat, LangType(com.bod, TT)))
    return bind_variable(sta, "k9", Value(OMEGA, LangType(NUMBER, TT)))


def run_checked(evaluator, prg, sta):
    try:
        final = evaluator.run_program(prg, sta)
    except (OutOfFuel, RecursionError):  # resource outcomes, not states
        return
    assert_values_certified(final)


def shaped(gen):
    """Derived-result clauses aimed at seeded variables of a fitting shape,
    which the generator alone rarely or never produces."""
    d = gen.rng.randrange(0, 3)
    index = n.NumLit(Number.from_int(gen.rng.randrange(0, 4)))
    array = n.IdeExp(gen.choice(("acc", "vat")))
    return [
        n.AddToArrExp(array, gen.data_exp(d)),
        n.ArrAtExp(array, index),
        n.ChangeArrExp(array, index, gen.data_exp(d)),
        n.ChangeRecExp(n.IdeExp("price"), gen.attr(), gen.data_exp(d)),
    ]


def element_writes(gen):
    """Programs that yoke `acc` or `z` elementwise and then add or change
    one element of it; the new element sometimes fails the yoke."""
    bound = gen.rng.randrange(5, 10)
    yoke = f"(value < {bound}) ee"

    def element():
        return gen.rng.randrange(0, bound + 4)

    writes = [
        f"yoke acc := all-array {yoke} ; acc := add-to-arr acc new {element()} ee",
        f"yoke acc := all-array {yoke} ; "
        f"acc := change-arr acc at {gen.rng.randrange(1, 3)} by {element()} ee",
        f"yoke z := all-list {yoke} ; z := push {element()} on z ee",
    ]
    return [parse_program(f"begin-program {text} end-program") for text in writes]


def exercise(evaluator, gen, sta):
    """Random data expressions, transfers applied to every variable, a
    program, and element writes under elementwise yokes."""
    for dae in [gen.data_exp(gen.rng.randrange(1, 5)) for _ in range(10)] + shaped(gen):
        evaluator.eval_data_exp(dae, sta)
    for _ in range(5):
        tra = evaluator.eval_transfer_exp(gen.tra_exp(gen.rng.randrange(1, 4)), sta)
        for val in sta.store.valuation.values():
            if val.content is not OMEGA:
                tra.apply(val.composite())
    evaluator.fuel.remaining = 300
    run_checked(evaluator, gen.program(3), sta)
    for prg in element_writes(gen):
        evaluator.fuel.remaining = 300
        run_checked(evaluator, prg, sta)


def test_acceptance_programs_stay_certified():
    programs = [FACT_PROGRAM, SWAP_PROGRAM, YOKE_PROGRAM, *COVERAGE_CORPUS, *FUEL_CORPUS]
    programs += [PARITY_PROGRAM.replace("{value}", str(k)) for k in range(7)]
    for text in programs:
        run_checked(CheckingEvaluator(fuel=10_000), parse_program(text), empty_state())


@RANDOM
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_expressions_and_programs_stay_certified(seed):
    exercise(CheckingEvaluator(), AstGen(seed), seeded_state())


def test_random_corpus_reaches_every_unchecked_site():
    # Guards the random test above: it must build a composite at every
    # clause whose result is built unchecked, or it proves little.
    evaluator, sta = CheckingEvaluator(), seeded_state()
    for seed in range(300):
        exercise(evaluator, AstGen(seed), sta)
    assert not DERIVED_DATA - evaluator.built
    assert not DERIVED_TRANSFER - evaluator.built
    # element writes under `all-array T` or `all-list T`, both ones whose
    # element satisfies T and ones whose element fails it
    assert {"OK", "yoke-not-satisfied"} <= evaluator.element_writes


def test_hand_built_value_is_still_checked():
    with pytest.raises(ValueError):
        Value(num(3), LangType(WORD, TT)).composite()
