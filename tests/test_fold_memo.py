"""The fold memo: each compiled `sum`/`max` keeps the items it last folded
and its result, and returns that result again for those very items.

Data never change after they are built, so the memo must give the verdict
of a full fold every time.  The reference model in `perfbench/oracle.py`
computes that verdict independently; it is imported read-only, as
`tests/call_counts.py` imports the workload generators.
"""

import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lingua.cli import main
from lingua.kernel import (
    OVERFLOW,
    AbstractError,
    ArrayBody,
    ArrayData,
    Composite,
    Limits,
    ListBody,
    ListData,
    NUMBER,
    Number,
    apply_transfer,
    num,
)
from lingua.parser import parse_transfer_expression
from lingua.semantics import Evaluator, run_source
from lingua.state import empty_state, lookup_variable, register_word

from test_cli import write

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402

RANDOM = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def calls_of(function, run):
    """`run()` and the number of Python calls of `function` it made, counted
    under `sys.setprofile` as `tests/call_counts.py` counts calls."""
    code, calls = function.__code__, 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def transfer(text, **kw):
    return Evaluator(**kw).eval_transfer_exp(parse_transfer_expression(text), empty_state())


def array(*values):
    return Composite(ArrayData(tuple(num(v) for v in values)), ArrayBody(NUMBER))


class TestFreshVerdicts:
    def test_each_new_collection_is_folded_again(self):
        tra, first = transfer("sum (value)"), array(1, 2, 3)
        changed = run_source(
            "begin-program let a be array-type number ee tel ; "
            "a := array [1, 2, 3] ; a := change-arr a at 2 by 20 ee end-program"
        )
        steps = [
            (first, 6, 1),  # folded
            (first, 6, 0),  # the very items again
            (array(1, 2, 3), 6, 1),  # equal items, a distinct tuple
            (lookup_variable(changed, "a").com, 24, 1),  # changed by change-arr
        ]
        for com, total, folds in steps:
            result, calls = calls_of(Number.sum, lambda: apply_transfer(tra, com))
            assert (result, calls) == (Composite(num(total), NUMBER), folds)

    def test_max_reads_the_changed_collection(self):
        tra = transfer("max (value)")
        assert apply_transfer(tra, array(1, 9, 3)) == Composite(num(9), NUMBER)
        assert apply_transfer(tra, array(1, 2, 3)) == Composite(num(3), NUMBER)
        assert apply_transfer(tra, array(1, 2, 30)) == Composite(num(30), NUMBER)

    def test_a_write_that_crosses_the_bound_between_two_yokes(self):
        sta = run_source(
            "begin-program let a be array-type number ee tel ; let i be number tel ; "
            "a := array [1, 2, 3] ; i := 1 ; "
            "while i < 4 do "
            "yoke a := (sum (value) < 10) ; yoke a := true ; "
            "a := change-arr a at 1 by (i * 3) ee ; i := (i + 1) "
            "od end-program"
        )
        assert register_word(sta) == "yoke-not-satisfied"
        assert lookup_variable(sta, "i").content == num(3)
        assert lookup_variable(sta, "a").content.items == tuple(num(v) for v in (6, 2, 3))

    def test_a_list_and_an_array_of_the_same_items(self):
        items = tuple(num(v) for v in (4, 5, 6))
        tra = transfer("sum (value)")
        as_list = Composite(ListData(items), ListBody(NUMBER))
        as_array = Composite(ArrayData(items), ArrayBody(NUMBER))
        assert apply_transfer(tra, as_list) == Composite(num(15), NUMBER)
        assert apply_transfer(tra, as_array) == Composite(num(15), NUMBER)
        assert apply_transfer(tra, as_list) == Composite(num(15), NUMBER)

    def test_a_hand_built_list_of_items_is_kept_as_a_tuple(self):
        items = [num(1), num(2)]
        com = Composite(ArrayData(items), ArrayBody(NUMBER))
        tra = transfer("sum (value)")
        assert apply_transfer(tra, com) == Composite(num(3), NUMBER)
        items[0] = num(10)
        assert com.dat.items.__class__ is tuple
        assert apply_transfer(tra, com) == Composite(num(3), NUMBER)


class TestErrorsAgain:
    def test_an_empty_collection_is_empty_list_every_time(self):
        tra = transfer("sum (value)")
        empty = Composite(ArrayData(()), ArrayBody(NUMBER))
        for _ in range(2):
            assert apply_transfer(tra, empty) == AbstractError("empty-list")
        assert apply_transfer(tra, array(2)) == Composite(num(2), NUMBER)
        assert apply_transfer(tra, empty) == AbstractError("empty-list")

    def test_an_overflow_is_returned_again(self):
        tra, com = transfer("sum (value)", limits=Limits(max_significant_digits=2)), array(60, 50)
        assert calls_of(Number.sum, lambda: apply_transfer(tra, com)) == (OVERFLOW, 1)
        assert calls_of(Number.sum, lambda: apply_transfer(tra, com)) == (OVERFLOW, 0)

    def test_an_overflow_under_max_digits_is_caught_twice(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "overflow.lng",
            "begin-program let a be array-type number ee tel ; let i be number tel ; "
            "a := array [60, 50] ; i := 1 ; "
            "while i < 3 do yoke a := (sum (value) < 10) ; "
            "if-error 'overflow' then i := (i + 1) fi od end-program",
        )
        assert main(["run", path, "--max-digits", "2"]) == 0
        out, _ = capsys.readouterr()
        assert "i = (3, number) with true" in out.splitlines()
        assert main(["run", path]) == 1
        assert "register = yoke-not-satisfied" in capsys.readouterr()[0].splitlines()


class TestOneFoldPerSite:
    LOOP = (
        "begin-program let a be array-type number ee tel ; let i be number tel ; "
        "a := array [1, 2, 3] ; i := 0 ; "
        "while i < {k} do yoke a := (sum (value) < 100) ; yoke a := (max (value) < 100) ; "
        "yoke a := (sum (value) < 200) ; i := (i + 1) od end-program"
    )

    def test_an_unchanged_array_is_folded_once_per_site(self):
        for k in (1, 5, 20):
            sta, sums = calls_of(Number.sum, lambda: run_source(self.LOOP.format(k=k)))
            assert register_word(sta) == "OK"
            assert sums == 2  # two `sum` sites
            _, maxes = calls_of(Number.max, lambda: run_source(self.LOOP.format(k=k)))
            assert maxes == 1

    def test_each_compile_is_a_site_of_its_own(self):
        com = array(1, 2)
        for _ in range(2):
            tra = transfer("sum (value)")
            assert calls_of(Number.sum, lambda: apply_transfer(tra, com))[1] == 1


# -- differential: `lingua run` against the reference model ---------------------

NUMBERS = st.builds(Fraction, st.integers(1, 60), st.sampled_from([1, 2, 4]))
STEPS = st.one_of(
    st.tuples(st.just("write"), st.integers(1, 5), st.integers(-20, 40)),
    st.tuples(st.just("yoke"), st.integers(0, 300)),
)


def fold_program(items, steps, rounds) -> oracle.Program:
    """An array literal, then a `while` loop of `rounds` iterations over
    `steps`: writes that add to one element, and yokes `fold (value) <
    bound` that alternate `sum` and `max`."""
    a, i = oracle.Var("a"), oracle.Var("i")
    body, folds = [], ("sum", "max")
    for step in steps:
        if step[0] == "write":
            _, k, delta = step
            element = oracle.Bin("+", oracle.ArrAt(a, oracle.Num(k)), oracle.Num(delta))
            body.append(oracle.Assign("a", oracle.ChangeArr(a, oracle.Num(k), element)))
        else:
            fold = oracle.TFold(folds[0], oracle.TValue())
            folds = folds[::-1]
            body.append(oracle.Yoke("a", oracle.TLess(fold, oracle.TNum(step[1]))))
    body.append(oracle.Assign("i", oracle.Bin("+", i, oracle.Num(1))))
    declared = [
        ("a", oracle.Type("array-type number ee", oracle.array_of(oracle.NUMBER))),
        ("i", oracle.NUMBER_T),
    ]
    return oracle.Program([], [], declared, [
        oracle.Assign("a", oracle.ArrayLit([oracle.Num(q) for q in items])),
        oracle.Assign("i", oracle.Num(0)),
        oracle.While(oracle.Bin("<", i, oracle.Num(rounds)), body),
    ])


@RANDOM
@given(
    st.lists(NUMBERS, min_size=1, max_size=5),
    st.lists(STEPS, min_size=1, max_size=6),
    st.integers(1, 6),
)
def test_folds_match_the_reference_model(items, steps, rounds):
    prg = fold_program(items, steps, rounds)
    code, report, _ = prg.expect()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fold.lng"
        path.write_text(prg.source(), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["run", str(path)]) == code
    assert err.getvalue() == ""
    assert out.getvalue().splitlines() == report
