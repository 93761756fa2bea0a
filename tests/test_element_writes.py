"""Writes that add or change one element of the collection a variable holds.

`a := add-to-arr a new e ee`, `l := push e on l ee` and
`a := change-arr a at i by e ee` build the new value from the value the
variable already holds.  Under a yoke `all-array T` or `all-list T` they
apply T to the new or changed element alone; every other yoke, and every
write whose collection is another variable, checks the whole value.  Each
outcome must be the one the whole check gives: the same register word and
the same bound value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lingua import nodes as n
from lingua.kernel import (
    NUMBER,
    TT,
    AbstractError,
    ArrayBody,
    ArrayData,
    Composite,
    LangType,
    ListBody,
    ListData,
    Number,
    Value,
    apply_transfer,
    is_boo_composite,
    num,
)
from lingua.parser import parse_program, parse_transfer_expression
from lingua.semantics import Evaluator
from lingua.state import bind_variable, empty_state, lookup_variable, register_word

from util import run_text

RANDOM = settings(max_examples=300, deadline=None, derandomize=True, database=None)

NUMBERS = ArrayBody(NUMBER)


def numbers(*values):
    return tuple(num(v) for v in values)


def content(sta, ide):
    return lookup_variable(sta, ide).content


def yoked_array(verdict_text, write, *values):
    """Run `write` on an array `a` built from `values` and then yoked."""
    items = " ; ".join(f"a := add-to-arr a new {v} ee" for v in values[1:])
    text = (
        "begin-program let a be array-type number ee tel ; "
        f"a := array {values[0]} ee ; {items + ' ; ' if items else ''}"
        f"yoke a := {verdict_text} ; {write} end-program"
    )
    return run_text(text)


def full_check_word(tra, com):
    """The register word the whole-value check gives for `com`."""
    verdict = apply_transfer(tra, com)
    if isinstance(verdict, AbstractError):
        return verdict.word
    if not is_boo_composite(verdict):
        return "a-yoke-expected"
    return "OK" if verdict.dat else "yoke-not-satisfied"


class CountingEvaluator(Evaluator):
    """Counts the applications of every compiled `<` transfer, such as the
    T of `all-array (value < k) ee`."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.applications = 0

    def compile_expression(self, exp):
        code = super().compile_expression(exp)
        if not isinstance(exp, n.TraLessExp):
            return code

        def counted(com):
            self.applications += 1
            return code(com)

        return counted


def count_applications(length, text):
    """T's applications while `text` runs on `a` and `b`, both holding
    `length` numbers under the yoke `true`."""
    held = Value(ArrayData(numbers(*range(length))), LangType(NUMBERS, TT))
    sta = bind_variable(bind_variable(empty_state(), "a", held), "b", held)
    evaluator = CountingEvaluator()
    final = evaluator.run_program(parse_program(f"begin-program {text} end-program"), sta)
    assert register_word(final) == "OK"
    return evaluator.applications


class TestElementVerdict:
    def test_only_the_new_element_breaks_the_yoke(self):
        sta = yoked_array("all-array (value < 10) ee", "a := add-to-arr a new 20 ee", 1, 2)
        assert register_word(sta) == "yoke-not-satisfied"
        assert content(sta, "a") == ArrayData(numbers(1, 2))
        sta = yoked_array("all-array (value < 10) ee", "a := add-to-arr a new 9 ee", 1, 2)
        assert register_word(sta) == "OK"
        assert content(sta, "a") == ArrayData(numbers(1, 2, 9))

    def test_error_word_of_the_new_element_is_the_full_checks(self):
        sta = yoked_array("all-array ((1 / value) < 5) ee", "a := add-to-arr a new 0 ee", 1, 2)
        assert register_word(sta) == "division-by-zero"
        tra = lookup_variable(sta, "a").typ.tra
        whole = Composite(ArrayData(numbers(1, 2, 0)), NUMBERS)
        assert full_check_word(tra, whole) == "division-by-zero"

    def test_non_boolean_verdict_on_the_new_element(self):
        held = Value(ArrayData(()), LangType(NUMBERS, transfer("all-array value ee")))
        sta = bind_variable(empty_state(), "a", held)
        final = Evaluator().run_program(
            parse_program("begin-program a := add-to-arr a new 1 ee end-program"), sta
        )
        assert register_word(final) == "a-yoke-expected"

    def test_push_under_all_list(self):
        program = (
            "begin-program let l be list-type number ee tel ; l := list 1 ee ; "
            "yoke l := all-list (value < 10) ee ; l := push {} on l ee end-program"
        )
        assert register_word(run_text(program.format(20))) == "yoke-not-satisfied"
        sta = run_text(program.format(3))
        assert register_word(sta) == "OK"
        assert content(sta, "l") == ListData(numbers(3, 1))

    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_change_arr_at_every_position(self, position):
        write = f"a := change-arr a at {position} by {{}} ee"
        sta = yoked_array("all-array (value < 10) ee", write.format(50), 1, 2, 3)
        assert register_word(sta) == "yoke-not-satisfied"
        assert content(sta, "a") == ArrayData(numbers(1, 2, 3))
        sta = yoked_array("all-array (value < 10) ee", write.format(7), 1, 2, 3)
        assert register_word(sta) == "OK"
        changed = [1, 2, 3]
        changed[position - 1] = 7
        assert content(sta, "a") == ArrayData(numbers(*changed))


class TestWholeValueChecks:
    def test_increasing_checks_the_whole_array(self):
        sta = yoked_array("increasing (value)", "a := add-to-arr a new 3 ee", 1, 5)
        assert register_word(sta) == "yoke-not-satisfied"
        sta = yoked_array("increasing (value)", "a := add-to-arr a new 6 ee", 1, 5)
        assert register_word(sta) == "OK"

    def test_conjunction_checks_the_whole_array(self):
        # Every element is below 10, but the sum is not below 12.
        yoke = "(all-array (value < 10) ee and (sum (value) < 12))"
        sta = yoked_array(yoke, "a := add-to-arr a new 4 ee", 5, 5)
        assert register_word(sta) == "yoke-not-satisfied"
        sta = yoked_array(yoke, "a := add-to-arr a new 1 ee", 5, 5)
        assert register_word(sta) == "OK"

    def test_another_variables_collection_checks_the_whole_value(self):
        program = (
            "begin-program let a be array-type number ee tel ; "
            "let b be array-type number ee tel ; a := array 1 ee ; b := array 50 ee ; "
            "yoke a := all-array (value < 10) ee ; a := add-to-arr b new 1 ee end-program"
        )
        sta = run_text(program)
        assert register_word(sta) == "yoke-not-satisfied"
        assert content(sta, "a") == ArrayData(numbers(1))


class TestApplicationCount:
    @pytest.mark.parametrize("length", [10, 1_000])
    def test_element_write_applies_t_once(self, length):
        yoke = "yoke a := all-array (value < 100000) ee"
        # The yoke itself checks every element once; the write adds one.
        assert count_applications(length, f"{yoke} ; a := add-to-arr a new 5 ee") == length + 1
        assert count_applications(length, f"{yoke} ; a := change-arr a at 1 by 5 ee") == (
            length + 1
        )

    @pytest.mark.parametrize("length", [10, 1_000])
    def test_other_writes_and_yokes_apply_t_to_every_element(self, length):
        yoke = "yoke a := all-array (value < 100000) ee"
        assert count_applications(length, f"{yoke} ; a := add-to-arr b new 5 ee") == (
            2 * length + 1
        )
        both = "yoke a := (all-array (value < 100000) ee and true)"
        assert count_applications(length, f"{both} ; a := add-to-arr a new 5 ee") == (
            2 * length + 1
        )

    @pytest.mark.parametrize("length", [10, 1_000])
    def test_putting_back_the_held_element_applies_t_to_none(self, length):
        yoke = "yoke a := all-array (value < 100000) ee"
        write = "a := change-arr a at 2 by a.[2] ee"
        # Only the yoke itself applies T: the write changes no element.
        assert count_applications(length, f"{yoke} ; {write}") == length

    @pytest.mark.parametrize("length", [10, 1_000])
    def test_push_applies_t_once(self, length):
        held = Value(ListData(numbers(*range(length))), LangType(ListBody(NUMBER), TT))
        sta = bind_variable(empty_state(), "l", held)
        evaluator = CountingEvaluator()
        text = "yoke l := all-list (value < 100000) ee ; l := push 5 on l ee"
        final = evaluator.run_program(parse_program(f"begin-program {text} end-program"), sta)
        assert register_word(final) == "OK"
        assert evaluator.applications == length + 1


class RecordingEvaluator(Evaluator):
    """Records the class of every node it compiles as an expression."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.compiled = set()

    def compile_expression(self, exp):
        self.compiled.add(exp.__class__)
        return super().compile_expression(exp)


class TestOneDefinition:
    @pytest.mark.parametrize(
        "write, cls",
        [
            ("a := add-to-arr a new 5 ee", n.AddToArrExp),
            ("l := push 5 on l ee", n.PushExp),
            ("a := change-arr a at 1 by 5 ee", n.ChangeArrExp),
        ],
    )
    def test_element_write_compiles_its_value_as_an_expression(self, write, cls):
        """An element write runs the code its expression compiles to, so a
        subclass that wraps `compile_expression` sees the write's node."""
        yoke = LangType(NUMBERS, transfer("all-array (value < 9) ee"))
        sta = bind_variable(empty_state(), "a", Value(ArrayData(numbers(1, 2)), yoke))
        sta = bind_variable(sta, "l", Value(ListData(numbers(1)), LangType(ListBody(NUMBER), TT)))
        evaluator = RecordingEvaluator()
        final = evaluator.run_program(parse_program(f"begin-program {write} end-program"), sta)
        assert register_word(final) == "OK"
        assert cls in evaluator.compiled


# -- the element verdict against the whole-value check, over random writes

TRANSFERS = ["(value < {k})", "((1 / value) < {k})", "value", "(value + 1)"]
TENTHS = st.integers(min_value=-30, max_value=30).map(lambda c: Number.make(c, -1))


def transfer(text):
    return Evaluator().eval_transfer_exp(parse_transfer_expression(text), empty_state())


def number_value(number):
    return Value(number, LangType(NUMBER, TT))


@RANDOM
@given(
    template=st.sampled_from(TRANSFERS),
    k=st.integers(min_value=0, max_value=6),
    old=st.lists(TENTHS, max_size=8),
    new=TENTHS,
    shape=st.sampled_from(["add-to-arr", "change-arr", "push"]),
    position=st.integers(min_value=1, max_value=8),
)
def test_element_write_matches_the_full_check(template, k, old, new, shape, position):
    listed = shape == "push"
    body, data = (ListBody(NUMBER), ListData) if listed else (NUMBERS, ArrayData)
    tra = transfer(f"{'all-list' if listed else 'all-array'} {template.format(k=k)} ee")
    # The held value satisfies its own transfer, as every binder ensures.
    items = [
        x for x in old if full_check_word(tra, Composite(data((x,)), body)) == "OK"
    ]
    if shape == "change-arr" and not items:
        shape = "add-to-arr"
    if shape == "add-to-arr":
        expected, write = items + [new], "add-to-arr {} new e ee"
    elif shape == "push":
        expected, write = [new] + items, "push e on {} ee"
    else:
        i = (position - 1) % len(items) + 1
        expected, write = list(items), "change-arr {} at i by e ee"
        expected[i - 1] = new
    held = Value(data(tuple(items)), LangType(body, tra))
    sta = bind_variable(empty_state(), "a", held)
    sta = bind_variable(sta, "b", Value(held.content, LangType(body, TT)))
    sta = bind_variable(sta, "e", number_value(new))
    if shape == "change-arr":
        sta = bind_variable(sta, "i", number_value(Number.from_int(i)))

    word = full_check_word(tra, Composite(data(tuple(expected)), body))
    outcomes = []
    for source in ("a", "b"):  # the element write, then the whole-value write
        program = parse_program(f"begin-program a := {write.format(source)} end-program")
        final = Evaluator().run_program(program, sta)
        assert register_word(final) == word
        outcomes.append(content(final, "a"))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (data(tuple(expected)) if word == "OK" else held.content)
