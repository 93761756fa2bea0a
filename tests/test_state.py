from lingua.kernel import (
    NUMBER,
    OMEGA,
    TT,
    AbstractError,
    ArrayBody,
    ArrayData,
    LangType,
    Value,
    num,
)
from lingua.semantics import run_source
from lingua.state import (
    bind_type,
    bind_variable,
    clear_error,
    empty_state,
    is_error,
    load_error,
    lookup_procedure,
    lookup_type,
    lookup_variable,
    register_word,
)

OVERFLOW = AbstractError("overflow")
NO_COHERENCE = AbstractError("no-coherence")
NUMBER_TYPE = LangType(NUMBER, TT)


def test_fresh_state_is_clean():
    sta = empty_state()
    assert not is_error(sta)
    assert register_word(sta) == "OK"


def test_load_error_sets_register_only():
    sta = bind_variable(empty_state(), "x", Value(num(1), NUMBER_TYPE))
    poisoned = load_error(sta, OVERFLOW)
    assert is_error(poisoned)
    assert poisoned.store.register == OVERFLOW
    assert poisoned.env == sta.env
    assert poisoned.store.valuation == sta.store.valuation


def test_load_error_overwrites_register():
    sta = load_error(empty_state(), OVERFLOW)
    sta = load_error(sta, NO_COHERENCE)
    assert register_word(sta) == "no-coherence"


def test_load_error_then_is_error_always_true():
    for base in (empty_state(), load_error(empty_state(), OVERFLOW)):
        assert is_error(load_error(base, NO_COHERENCE))


def test_bind_then_lookup():
    val = Value(num(2), NUMBER_TYPE)
    sta = bind_variable(empty_state(), "x", val)
    assert lookup_variable(sta, "x") == val
    assert lookup_variable(sta, "y") is None


def test_binding_is_pointwise():
    sta = bind_variable(empty_state(), "x", Value(num(1), NUMBER_TYPE))
    sta = bind_variable(sta, "y", Value(num(2), NUMBER_TYPE))
    assert lookup_variable(sta, "x") == Value(num(1), NUMBER_TYPE)


def test_rebinding_overwrites():
    sta = bind_variable(empty_state(), "x", Value(num(1), NUMBER_TYPE))
    sta = bind_variable(sta, "x", Value(num(2), NUMBER_TYPE))
    assert lookup_variable(sta, "x") == Value(num(2), NUMBER_TYPE)


def test_empty_lookups_are_none():
    sta = empty_state()
    assert lookup_variable(sta, "x") is None
    assert lookup_type(sta, "t") is None
    assert lookup_procedure(sta, "p") is None


def test_states_are_persistent_snapshots():
    original = bind_variable(empty_state(), "x", Value(num(1), NUMBER_TYPE))
    bind_variable(original, "x", Value(num(9), NUMBER_TYPE))
    bind_type(original, "t", NUMBER_TYPE)
    load_error(original, OVERFLOW)
    assert lookup_variable(original, "x") == Value(num(1), NUMBER_TYPE)
    assert lookup_type(original, "t") is None
    assert not is_error(original)


def test_omega_binding_round_trips():
    sta = bind_variable(empty_state(), "x", Value(OMEGA, NUMBER_TYPE))
    assert lookup_variable(sta, "x") == Value(OMEGA, NUMBER_TYPE)


def test_clear_error():
    sta = load_error(empty_state(), OVERFLOW)
    assert not is_error(clear_error(sta))


def test_run_source_leaves_the_callers_state_untouched():
    numbers = Value(ArrayData((num(1), num(2))), LangType(ArrayBody(NUMBER), TT))
    sta = bind_variable(empty_state(), "a", numbers)
    sta = bind_variable(sta, "x", Value(num(1), NUMBER_TYPE))
    valuation = dict(sta.store.valuation)
    final = run_source(
        "begin-program x := 5 ; a := add-to-arr a new 3 ee ; "
        "yoke a := all-array (value < 10) ee ; a := add-to-arr a new 4 ee end-program",
        sta,
    )
    assert register_word(final) == "OK"
    assert lookup_variable(final, "a").content == ArrayData((num(1), num(2), num(3), num(4)))
    assert sta.store.valuation == valuation
    assert all(sta.store.valuation[ide] is val for ide, val in valuation.items())
    assert sta.store.register is None
