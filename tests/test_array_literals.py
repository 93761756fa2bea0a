"""Array literals and other `add-to-arr` spines.

`array [e1, ..., en]` is `array e1 ee` under n-1 left-nested `add-to-arr
... new ei ee`.  The evaluator compiles such a spine into one loop, which
must end exactly as the nested form does: the first error in element
order wins, an element's error beats `array-expected`, `no-coherence`
comes next, and `overflow` comes as soon as the length passes the limit,
with no element after it evaluated, so no call inside one spends fuel.

The reference model in `perfbench/oracle.py` evaluates the nested form one
`add-to-arr` at a time; it is imported read-only, as
`tests/test_fold_memo.py` imports it.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lingua.cli import main
from lingua.kernel import AbstractError, ArrayData, Limits, num
from lingua.parser import parse_program
from lingua.semantics import Evaluator, OutOfFuel, eval_source_expression, run_source
from lingua.state import empty_state, lookup_variable, register_word

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402

RANDOM = settings(max_examples=150, deadline=None, derandomize=True, database=None)
THREE = Limits(max_collection_size=3)


def word(result) -> str:
    assert isinstance(result, AbstractError), result
    return result.word


class TestFirstError:
    def test_an_element_error_beats_a_later_incoherent_element(self):
        assert word(eval_source_expression("array [1, 1 / 0, 'a']")) == "division-by-zero"

    def test_an_incoherent_element_beats_a_later_error(self):
        assert word(eval_source_expression("array [1, 'a', 1 / 0]")) == "no-coherence"

    def test_the_first_element_error_wins(self):
        assert word(eval_source_expression("array [1 / 0, 'a' + 1, x]")) == "division-by-zero"
        assert word(eval_source_expression("array [1, x, 1 / 0]")) == "identifier-not-declared"

    def test_a_literal_of_literals(self):
        result = eval_source_expression("array [array [1, 2], array [3], array [4, 5, 6]]")
        assert [len(row.items) for row in result.dat.items] == [2, 1, 3]
        assert word(eval_source_expression("array [array [1], array ['a']]")) == "no-coherence"


class TestOverflowStep:
    def test_the_element_that_fills_the_array_may_still_fail(self):
        assert word(eval_source_expression("array [1, 2, 3, 1 / 0]", limits=THREE)) == "division-by-zero"

    def test_no_element_past_the_overflow_is_evaluated(self):
        assert word(eval_source_expression("array [1, 2, 3, 4, 1 / 0]", limits=THREE)) == "overflow"

    def test_an_incoherent_element_beats_the_overflow_it_would_cause(self):
        assert word(eval_source_expression("array [1, 2, 3, 'a']", limits=THREE)) == "no-coherence"

    def test_a_full_array_is_no_overflow(self):
        result = eval_source_expression("array [1, 2, 3]", limits=THREE)
        assert result.dat == ArrayData((num(1), num(2), num(3)))


SPINE = "add-to-arr add-to-arr b new {} ee new {} ee"


def spine_over(declare_b: str, first="1", second="2") -> str:
    """The register word of `a := ` a spine of two elements over `b`."""
    return register_word(run_source(
        "begin-program let a be array-type number ee tel ; "
        f"{declare_b} a := {SPINE.format(first, second)} end-program"
    ))


class TestSpineOverAVariable:
    def test_undeclared(self):
        assert spine_over("") == "identifier-not-declared"
        assert spine_over("", "1 / 0") == "identifier-not-declared"

    def test_not_initialized(self):
        assert spine_over("let b be array-type number ee tel ;") == "variable-not-initialized"

    def test_a_number(self):
        number = "let b be number tel ; b := 5 ;"
        assert spine_over(number) == "array-expected"
        # the first element is evaluated before `b` is found not to be an
        # array, and the second only after
        assert spine_over(number, "1 / 0") == "division-by-zero"
        assert spine_over(number, "1", "1 / 0") == "array-expected"

    def test_an_array_of_words(self):
        words = "let b be array-type word ee tel ; b := array ['x'] ;"
        assert spine_over(words) == "no-coherence"
        assert spine_over(words, "'y'", "'z'") == "no-coherence"  # written to `a`
        assert spine_over(words, "'y'", "1 / 0") == "division-by-zero"

    def test_an_array_of_numbers(self):
        sta = run_source(
            "begin-program let a be array-type number ee tel ; let b be array-type number ee tel ; "
            f"b := array [7, 8] ; a := {SPINE.format(1, 2)} end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "a").content == ArrayData(tuple(num(v) for v in (7, 8, 1, 2)))
        assert lookup_variable(sta, "b").content == ArrayData((num(7), num(8)))

    def test_the_base_length_counts_toward_the_limit(self):
        text = "begin-program let b be array-type number ee tel ; b := array [7, 8] ; b := {} end-program"
        full = run_source(text.format("add-to-arr b new 1 ee"), limits=THREE)
        assert register_word(full) == "OK"
        assert register_word(run_source(text.format(SPINE.format(1, 2)), limits=THREE)) == "overflow"
        spine = SPINE.format(1, "1 / 0")
        assert register_word(run_source(text.format(spine), limits=THREE)) == "division-by-zero"


CALLS = (
    "begin-program fun f (x as number) x + 1 endfun ; "
    "let a be array-type number ee tel ; let i be number tel ; "
    "i := 1 ; a := array [{}] end-program"
)


def fuel_left(elements: int, fuel: int, limits: Limits = Limits()):
    """The register word and the fuel left after `a := array [f(i), ...]`
    of `elements` calls."""
    evaluator = Evaluator(limits=limits, fuel=fuel)
    prg = parse_program(CALLS.format(", ".join(["f(i)"] * elements)))
    sta = evaluator.run_program(prg, empty_state())
    return register_word(sta), evaluator.fuel.remaining


class TestFuel:
    def test_each_element_spends_its_calls(self):
        assert fuel_left(1, 10) == ("OK", 9)
        assert fuel_left(5, 10) == ("OK", 5)
        assert fuel_left(5, 5) == ("OK", 0)

    def test_running_out_inside_an_element(self):
        with pytest.raises(OutOfFuel):
            fuel_left(5, 4)

    def test_no_call_past_the_overflow_step(self):
        assert fuel_left(3, 10, THREE) == ("OK", 7)
        assert fuel_left(6, 10, THREE) == ("overflow", 6)
        assert fuel_left(6, 4, THREE) == ("overflow", 0)


# -- differential: `lingua run` against the reference model ---------------------

F = oracle.FunDef("f", [("x", oracle.NUMBER_T)], [], [], oracle.Bin("/", oracle.Num(12), oracle.Var("x")))
ELEMENTS = {
    "number": lambda k: oracle.Num(k),
    "word": lambda k: oracle.Word("w"),
    "division": lambda k: oracle.Bin("/", oracle.Num(k), oracle.Num(0)),
    "call": lambda k: oracle.FunCall(F, ["i"]),
    "undeclared": lambda k: oracle.Var("u"),
    "literal": lambda k: oracle.ArrayLit([oracle.Num(k)]),
}
NUMBERS_T = oracle.Type("array-type number ee", oracle.array_of(oracle.NUMBER))
BASES = {
    # the base of an `add-to-arr` spine over `b`: b's declaration and value
    "undeclared": None,
    "omega": (NUMBERS_T, None),
    "number": (oracle.NUMBER_T, oracle.Num(5)),
    "words": (oracle.Type("array-type word ee", oracle.array_of(oracle.WORD)), oracle.ArrayLit([oracle.Word("x")])),
    "numbers": (NUMBERS_T, oracle.ArrayLit([oracle.Num(7), oracle.Num(8)])),
}


def literal_program(base, elements, i) -> oracle.Program:
    """`i := i ; a := ` an array literal of `elements`, or, for a `base`, an
    `add-to-arr` spine over `b` that adds them."""
    items = [ELEMENTS[kind](k) for kind, k in elements]
    declared = [("a", NUMBERS_T), ("i", oracle.NUMBER_T)]
    body = [oracle.Assign("i", oracle.Num(i))]
    if base is None:
        exp = oracle.ArrayLit(items)
    else:
        exp = oracle.Var("b")
        for item in items:
            exp = oracle.AddToArr(exp, item)
        if BASES[base] is not None:
            typ, value = BASES[base]
            declared.append(("b", typ))
            if value is not None:
                body.append(oracle.Assign("b", value))
    body.append(oracle.Assign("a", exp))
    return oracle.Program([], [F], declared, body)


# Most elements are numbers and calls, so that runs end OK and out of fuel
# as well as at each error; most spines are literals or over an array.
KINDS = ["number"] * 10 + ["call"] * 6 + ["word", "division", "undeclared", "literal"]
SPINES = [None] * 3 + ["numbers"] * 3 + ["number", "words", "omega", "undeclared"]


@RANDOM
@given(
    st.sampled_from(SPINES),
    st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 9)), min_size=1, max_size=8),
    st.integers(0, 3),
    st.sampled_from([None, 0, 1, 2, 3, 4, 6]),
)
def test_literals_match_the_reference_model(base, elements, i, fuel):
    prg = literal_program(base, elements, i)
    code, report, steps = prg.expect()
    if fuel is not None and steps > fuel:
        code, report = 3, []
    command = ["run"] if fuel is None else ["run", "--fuel", str(fuel)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "literal.lng"
        path.write_text(prg.source(), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([*command, str(path)]) == code
    assert err.getvalue() == ("lingua: fuel exhausted\n" if code == 3 else "")
    assert out.getvalue().splitlines() == report
