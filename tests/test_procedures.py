"""Procedure declaration and the four-stage call protocol."""

import subprocess
import sys
import threading

import pytest

from lingua import semantics
from lingua.cli import main, state_report
from lingua.kernel import (
    OVERFLOW,
    TT,
    WORD,
    AbstractError,
    Composite,
    LangType,
    Limits,
    NUMBER,
    Value,
    num,
)
from lingua.parser import (
    parse_any,
    parse_data_expression,
    parse_instruction,
    parse_program,
    parse_transfer_expression,
    parse_type_expression,
)
from lingua.printer import print_concrete
from lingua.semantics import Evaluator, OutOfFuel, run_source
from lingua.state import bind_type, bind_variable, empty_state, lookup_variable, register_word

import test_cli
from test_cli import cli_env
from util import run_text

SWAP = (
    "proc swap (val empty-fp ref a as number, b as number) "
    "begin-program let t be number tel ; t := a ; a := b ; b := t end-program "
    "end proc"
)

INC_FUN = (
    "fun inc (n as number) begin-program skip end-program "
    "return (n + 1) as number end fun"
)

FACT_FUN = (
    "fun fact (n as number) "
    "begin-program "
    "let m be number tel ; let r be number tel ; "
    "if (n < 1) then r := 1 else m := (n - 1) ; r := (n * fact(m)) fi "
    "end-program "
    "return r as number end fun"
)

PARITY_MULTIPROC = (
    "begin multiproc "
    "proc even (val n as number ref r as word) "
    "begin-program let m be number tel ; "
    "if (n < 1) then r := 'yes' else m := (n - 1) ; call odd (ref r val m) fi "
    "end-program end proc "
    "proc odd (val n as number ref r as word) "
    "begin-program let m be number tel ; "
    "if (n < 1) then r := 'no' else m := (n - 1) ; call even (ref r val m) fi "
    "end-program end proc "
    "end multiproc"
)


def err(word_):
    return AbstractError(word_)


class TestImperativeCalls:
    def test_ref_parameter_written_back(self):
        sta = run_text(
            "begin-program "
            "proc store (val empty-fp ref x as number) "
            "begin-program x := 1 end-program end proc ; "
            "let a be number tel ; a := 0 ; "
            "call store (ref a val empty-ap) end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "a").content == num(1)

    def test_swap(self):
        sta = run_text(
            f"begin-program {SWAP} ; "
            "let x be number tel ; let y be number tel ; "
            "x := 1 ; y := 2 ; call swap (ref x, y val empty-ap) end-program"
        )
        assert lookup_variable(sta, "x").content == num(2)
        assert lookup_variable(sta, "y").content == num(1)

    def test_locals_are_invisible_after_the_call(self):
        sta = run_text(
            f"begin-program {SWAP} ; "
            "let x be number tel ; let y be number tel ; "
            "x := 1 ; y := 2 ; call swap (ref x, y val empty-ap) end-program"
        )
        assert lookup_variable(sta, "t") is None

    def test_value_parameter_mutation_does_not_escape(self):
        sta = run_text(
            "begin-program "
            "proc bump (val v as number ref out as number) "
            "begin-program v := (v + 1) ; out := v end-program end proc ; "
            "let a be number tel ; let b be number tel ; a := 5 ; "
            "call bump (ref b val a) end-program"
        )
        assert lookup_variable(sta, "a").content == num(5)
        assert lookup_variable(sta, "b").content == num(6)

    def test_omega_actual_for_out_parameter(self):
        sta = run_text(
            "begin-program "
            "proc init (val empty-fp ref x as number) "
            "begin-program x := 9 end-program end proc ; "
            "let a be number tel ; call init (ref a val empty-ap) end-program"
        )
        assert lookup_variable(sta, "a").content == num(9)

    def test_procedure_not_declared(self):
        sta = run_text(
            "begin-program call nope (ref empty-ap val empty-ap) end-program"
        )
        assert register_word(sta) == "procedure-not-declared"

    def test_calling_a_functional_procedure_imperatively(self):
        sta = run_text(
            f"begin-program {INC_FUN} ; "
            "call inc (ref empty-ap val empty-ap) end-program"
        )
        assert register_word(sta) == "procedure-not-declared"

    def test_parameter_list_mismatch(self):
        sta = run_text(
            f"begin-program {SWAP} ; let x be number tel ; x := 1 ; "
            "call swap (ref x val empty-ap) end-program"
        )
        assert register_word(sta) == "parameter-list-mismatch"

    def test_parameter_type_mismatch(self):
        sta = run_text(
            f"begin-program {SWAP} ; "
            "let x be number tel ; let w be word tel ; "
            "x := 1 ; w := 'a' ; call swap (ref x, w val empty-ap) end-program"
        )
        assert register_word(sta) == "parameter-type-mismatch"

    def test_undeclared_actual(self):
        sta = run_text(
            f"begin-program {SWAP} ; "
            "call swap (ref x, y val empty-ap) end-program"
        )
        assert register_word(sta) == "identifier-not-declared"

    def test_body_error_reaches_caller_with_valuation_intact(self):
        sta = run_text(
            "begin-program "
            "proc boom (val empty-fp ref x as number) "
            "begin-program x := (1 / 0) end-program end proc ; "
            "let a be number tel ; a := 3 ; "
            "call boom (ref a val empty-ap) end-program"
        )
        assert register_word(sta) == "division-by-zero"
        assert lookup_variable(sta, "a").content == num(3)

    def test_error_state_returns_unchanged(self):
        sta = run_text(
            f"begin-program {SWAP} ; let x be number tel ; "
            "x := 'bad' ; call swap (ref x, x val empty-ap) end-program"
        )
        assert register_word(sta) == "no-coherence"

    def test_declaration_once_for_procedures(self):
        sta = run_text(
            f"begin-program {SWAP} ; {SWAP} ; skip end-program"
        )
        assert register_word(sta) == "identifier-not-free"

    def test_declaration_time_environment_is_captured(self):
        # q is declared before type t exists; the call fails to build the
        # formal parameter type even though the caller has t by then
        sta = run_text(
            "begin-program "
            "proc q (val v as t ref empty-fp) "
            "begin-program skip end-program end proc ; "
            "set t as number tes ; "
            "let x be number tel ; x := 1 ; "
            "call q (ref empty-ap val x) end-program"
        )
        assert register_word(sta) == "type-not-defined"

    def test_types_declared_before_are_visible(self):
        sta = run_text(
            "begin-program "
            "set t as number tes ; "
            "proc q (val v as t ref out as t) "
            "begin-program out := (v + 1) end-program end proc ; "
            "let x be number tel ; let y be number tel ; x := 1 ; "
            "call q (ref y val x) end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "y").content == num(2)


class TestMultiprocedures:
    @pytest.mark.parametrize("value, answer", [(0, "yes"), (1, "no"), (4, "yes"), (5, "no")])
    def test_mutual_recursion_parity(self, value, answer):
        sta = run_text(
            f"begin-program {PARITY_MULTIPROC} ; "
            "let res be word tel ; let k be number tel ; "
            f"k := {value} ; call even (ref res val k) end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "res").content == answer

    def test_member_name_collision(self):
        sta = run_text(
            "begin-program begin multiproc "
            "proc p (val empty-fp ref empty-fp) begin-program skip end-program end proc "
            "proc p (val empty-fp ref empty-fp) begin-program skip end-program end proc "
            "end multiproc ; skip end-program"
        )
        assert register_word(sta) == "identifier-not-free"


class TestFunctionalCalls:
    def test_inc_with_skip_body(self):
        sta = run_text(
            f"begin-program {INC_FUN} ; "
            "let x be number tel ; let y be number tel ; "
            "x := 5 ; y := inc(x) end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "y").content == num(6)

    def test_recursive_factorial(self):
        sta = run_text(
            f"begin-program {FACT_FUN} ; "
            "let x be number tel ; let y be number tel ; "
            "x := 6 ; y := fact(x) end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "y").content == num(720)

    def test_expression_form(self):
        sta = run_text(
            "begin-program fun double (n as number) (n + n) endfun ; "
            "let x be number tel ; let y be number tel ; "
            "x := 4 ; y := double(x) end-program"
        )
        assert lookup_variable(sta, "y").content == num(8)

    def test_return_type_mismatch(self):
        sta = run_text(
            "begin-program "
            "fun bad (n as number) begin-program skip end-program "
            "return 'oops' as number end fun ; "
            "let x be number tel ; let y be number tel ; x := 1 ; "
            "y := bad(x) end-program"
        )
        assert register_word(sta) == "return-type-mismatch"

    def test_return_yoke_checked(self):
        sta = run_text(
            "begin-program "
            "fun clamped (n as number) begin-program skip end-program "
            "return (n + 1) as replace-transfer-in number by (value < 3) ee end fun ; "
            "let x be number tel ; let y be number tel ; x := 5 ; "
            "y := clamped(x) end-program"
        )
        assert register_word(sta) == "return-type-mismatch"

    def test_purity(self):
        evaluator = Evaluator()
        prelude = run_text(
            f"begin-program {INC_FUN} ; "
            "let x be number tel ; x := 5 end-program"
        )
        before = prelude
        result = evaluator.eval_data_exp(parse_data_expression("inc(x)"), prelude)
        assert result == Composite(num(6), NUMBER)
        assert prelude == before

    def test_body_error_returned(self):
        sta = run_text(
            "begin-program "
            "fun bad (n as number) begin-program n := (n / 0) end-program "
            "return n as number end fun ; "
            "let x be number tel ; let y be number tel ; x := 1 ; "
            "y := bad(x) end-program"
        )
        assert register_word(sta) == "division-by-zero"

    def test_arity_mismatch(self):
        sta = run_text(
            f"begin-program {INC_FUN} ; "
            "let x be number tel ; let y be number tel ; x := 1 ; "
            "y := inc(x, x) end-program"
        )
        assert register_word(sta) == "parameter-list-mismatch"

    def test_functional_call_on_undeclared_name(self):
        sta = run_text(
            "begin-program let y be number tel ; y := nope(y) end-program"
        )
        assert register_word(sta) == "procedure-not-declared"


class TestSharedCallProtocol:
    """Stages 1 and 2 are one path for both kinds: lookup and kind check,
    then fuel, then every list's length, then binding ref before val."""

    def test_imperative_procedure_called_in_an_expression(self):
        sta = run_text(
            f"begin-program {SWAP} ; let x be number tel ; x := 1 ; "
            "x := swap(x) end-program"
        )
        assert register_word(sta) == "procedure-not-declared"

    @pytest.mark.parametrize(
        "call",
        ["call swap (ref x val empty-ap)", "call swap (ref x, x val x)", "y := inc(x, x)"],
    )
    def test_fuel_is_spent_before_the_arity_check(self, call):
        with pytest.raises(OutOfFuel):
            run_text(
                f"begin-program {SWAP} ; {INC_FUN} ; "
                "let x be number tel ; let y be number tel ; x := 1 ; "
                f"{call} end-program",
                fuel=0,
            )

    @pytest.mark.parametrize(
        "call",
        [
            "call nope (ref empty-ap val empty-ap)",
            "y := nope(x)",
            "call inc (ref empty-ap val x)",
            "y := swap(x)",
        ],
    )
    def test_no_fuel_is_spent_on_a_missing_procedure(self, call):
        sta = run_text(
            f"begin-program {SWAP} ; {INC_FUN} ; "
            "let x be number tel ; let y be number tel ; x := 1 ; "
            f"{call} end-program",
            fuel=0,
        )
        assert register_word(sta) == "procedure-not-declared"

    def test_ref_list_binds_before_the_val_list(self):
        sta = run_text(
            "begin-program "
            "proc q (val v as number ref r as number) "
            "begin-program skip end-program end proc ; "
            "let w be word tel ; w := 'a' ; "
            "call q (ref w val undeclared) end-program"
        )
        assert register_word(sta) == "parameter-type-mismatch"

    @pytest.mark.parametrize(
        "declaration, call",
        [
            (
                "proc q (val v as nope, w as number ref empty-fp) "
                "begin-program skip end-program end proc",
                "call q (ref empty-ap val %s)",
            ),
            ("fun q (v as nope, w as number) v endfun", "y := q(%s)"),
        ],
        ids=["imperative", "functional"],
    )
    @pytest.mark.parametrize(
        "actuals, word",
        [
            ("u, x", "identifier-not-declared"),
            ("x, u", "type-not-defined"),
            ("x, x", "type-not-defined"),
        ],
        ids=["undeclared-first", "undeclared-second", "declared"],
    )
    def test_each_actual_is_looked_up_before_its_formal_type(
        self, declaration, call, actuals, word
    ):
        # The first actual is reported before the first formal's type, and
        # the first formal's type before the second actual.
        sta = run_text(
            f"begin-program {declaration} ; let x be number tel ; let y be number tel ; "
            f"x := 1 ; {call % actuals} end-program"
        )
        assert register_word(sta) == word

    def test_functional_formal_type_defined_after_the_procedure(self):
        sta = run_text(
            "begin-program "
            "fun f (v as t) (v + 1) endfun ; "
            "set t as number tes ; "
            "let x be number tel ; let y be number tel ; x := 1 ; "
            "y := f(x) end-program"
        )
        assert register_word(sta) == "type-not-defined"

    def test_formal_types_are_read_in_each_declarations_environment(self):
        # One evaluator runs both calls; each declaration of `q` captures
        # its own `t`, which its formal types must read on every call.
        evaluator = Evaluator()
        pam = parse_program(
            "begin-program proc q (val v as t ref out as t) "
            "begin-program out := v end-program end proc ; skip end-program"
        ).pam
        call = parse_instruction("call q (ref y val x)")
        outcomes = []
        for body in (NUMBER, WORD):
            sta = bind_type(empty_state(), "t", LangType(body, TT))
            sta = bind_variable(sta, "x", Value(num(1), LangType(NUMBER, TT)))
            sta = bind_variable(sta, "y", Value(num(0), LangType(NUMBER, TT)))
            sta = evaluator.exec_preamble(pam, sta)
            outcomes.append(register_word(evaluator.exec_instruction(call, sta)))
        assert outcomes == ["OK", "parameter-type-mismatch"]


class TestFrameLaw:
    def test_environments_untouched_and_valuation_confined(self):
        evaluator = Evaluator()
        prelude = run_text(
            f"begin-program {SWAP} ; "
            "let x be number tel ; let y be number tel ; let z be number tel ; "
            "x := 1 ; y := 2 ; z := 3 end-program"
        )
        from lingua.parser import parse_instruction

        # a snapshot: the returned state may share its valuation with prelude
        valuation = dict(prelude.store.valuation)
        after = evaluator.exec_instruction(
            parse_instruction("call swap (ref x, y val empty-ap)"), prelude
        )
        assert prelude.store.valuation == valuation
        assert after.env == prelude.env
        assert after.store.valuation["z"] == valuation["z"]
        assert after.store.valuation.keys() == valuation.keys()
        assert after.store.valuation["x"].content == num(2)


class TestCalleeEnvironments:
    """A callee's environment is built once per declaration and
    declaration-time environment in an entry point, keyed by their
    identities, and dropped when the entry point ends."""

    def test_one_declaration_in_two_states_reads_each_states_procedures(self):
        # Both entry points call `f`, one declaration node, bound in two
        # states over different `g`s: each call must reach its own `g`.
        evaluator = Evaluator()
        pam = parse_program(
            "begin-program fun f (n as number) g(n) endfun ; skip end-program"
        ).pam
        call = parse_data_expression("f(x)")
        results = []
        for g in ("(n + 1)", "(n * 10)"):
            sta = run_text(
                f"begin-program fun g (n as number) {g} endfun ; "
                "let x be number tel ; x := 2 end-program"
            )
            sta = evaluator.exec_preamble(pam, sta)
            results.append(evaluator.eval_data_exp(call, sta))
        assert results == [Composite(num(3), NUMBER), Composite(num(20), NUMBER)]

    def test_one_name_bound_to_two_declarations(self):
        # Each state's `f` recurses through its own environment, so a call
        # that ran on the other state's environment would read 11, not 20.
        evaluator = Evaluator()
        call = parse_data_expression("f(x)")
        results = []
        for step in (1, 10):
            sta = run_text(
                "begin-program fun f (n as number) begin-program "
                "let m be number tel ; let r be number tel ; "
                "if (n < 1) then r := 0 else m := (n - 1) ; "
                f"r := (f(m) + {step}) fi end-program return r as number end fun ; "
                "let x be number tel ; x := 2 end-program"
            )
            results.append(evaluator.eval_data_exp(call, sta))
        assert results == [Composite(num(2), NUMBER), Composite(num(20), NUMBER)]

    def test_local_type_and_procedure_under_recursion(self):
        sta = run_source(
            "begin-program "
            "proc down (val n as number ref r as number) "
            "begin-program set small as replace-transfer-in number by value < 100 ee tes ; "
            "proc inc (val v as small ref w as small) "
            "begin-program w := (v + 1) end-program end proc ; "
            "let m be small tel ; let t be small tel ; "
            "if (n < 1) then r := 0 else m := (n - 1) ; call down (ref t val m) ; "
            "call inc (ref r val t) fi "
            "end-program end proc ; "
            "let k be number tel ; let res be number tel ; "
            "k := 50 ; call down (ref res val k) end-program"
        )
        assert state_report(sta) == [
            "k = (50, number) with true",
            "res = (50, number) with (value < 100)",
            "register = OK",
        ]

    @pytest.mark.parametrize("n, word", [(3, "OK"), (7, "return-type-mismatch")])
    def test_a_return_type_defined_in_the_body_is_read_on_every_call(self, n, word):
        # `t` is defined in the body, so each call, each recursive one
        # included, reads it from its own terminal state: 5 breaks the yoke.
        sta = run_text(
            "begin-program fun f (n as number) begin-program "
            "set t as replace-transfer-in number by value < 5 ee tes ; "
            "let m be number tel ; let r be number tel ; "
            "if (n < 1) then r := 0 else m := (n - 1) ; r := (1 + f(m)) fi "
            "end-program return r as t end fun ; "
            f"let x be number tel ; let y be number tel ; x := {n} ; y := f(x) end-program"
        )
        assert register_word(sta) == word
        if word == "OK":
            assert lookup_variable(sta, "y").content == num(n)

    def test_mutual_recursion_builds_one_environment_per_member(self, monkeypatch):
        # `even` calls `odd` through a procedure value made when `even`'s
        # environment was built, and the other way round: each member's
        # environment is still built once, not once per level.
        built = []

        class CountedEnv(semantics.Env):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(semantics, "Env", CountedEnv)
        sta = run_text(
            f"begin-program {PARITY_MULTIPROC} ; "
            "let res be word tel ; let k be number tel ; "
            "k := 200 ; call even (ref res val k) end-program"
        )
        assert lookup_variable(sta, "res").content == "yes"
        assert len(built) == 2

    def test_the_tables_are_empty_after_the_entry_point(self):
        evaluator = Evaluator()
        prg = parse_program(
            f"begin-program {FACT_FUN} ; let x be number tel ; x := 3 ; x := fact(x) end-program"
        )
        sta = evaluator.run_program(prg, empty_state())
        assert lookup_variable(sta, "x").content == num(6)
        assert evaluator._envs == {} and evaluator._calls == {}


class TestTheCallerRunsTheCall:
    """A procedure declared under one evaluator and called under another
    runs under the caller's fuel, trace hook and limits: a `Procedure`
    holds no code, and the evaluator that runs the call compiles it."""

    def test_the_body_spends_the_callers_fuel(self):
        # In a subprocess, so that a body spending the declaring run's
        # unlimited fuel fails on the timeout instead of hanging the suite.
        script = (
            "from lingua.semantics import OutOfFuel, eval_source_expression, run_source\n"
            "sta = run_source('begin-program fun f (n as number) begin-program "
            "while true do skip od end-program return n as number end fun ; "
            "let x be number tel ; x := 1 end-program')\n"
            "try:\n"
            "    eval_source_expression('f(x)', sta, fuel=3)\n"
            "except OutOfFuel:\n"
            "    print('out of fuel')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=cli_env(), timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"out of fuel\n", b"")

    def test_the_body_reaches_the_callers_trace_hook(self):
        sta = run_source(
            "begin-program proc p (val empty-fp ref r as number) "
            "begin-program r := 1 ; r := (r + 1) end-program end proc ; "
            "let x be number tel ; x := 0 end-program"
        )
        traced = []
        call = parse_instruction("call p (ref x val empty-ap)")
        after = Evaluator(trace=traced.append).exec_instruction(call, sta)
        assert lookup_variable(after, "x").content == num(2)
        assert [print_concrete(ins) for ins in traced] == [
            "call p (ref x val empty-ap)",
            "r := 1",
            "r := (r + 1)",
        ]

    def test_the_body_computes_under_the_callers_limits(self):
        sta = run_source(
            "begin-program fun sq (n as number) begin-program let m be number tel ; "
            "m := (n * n) end-program return m as number end fun ; "
            "let x be number tel ; x := 99 end-program"
        )
        small = Evaluator(limits=Limits(max_significant_digits=3))
        assert small.eval_data_exp(parse_data_expression("sq(x)"), sta) == OVERFLOW
        assert Evaluator().eval_data_exp(parse_data_expression("sq(x)"), sta) == Composite(
            num(9801), NUMBER
        )


# `cnt`, the recursive function of `test_cli.TestDeepRecursion`; the class
# itself is not imported, so that it is collected only there.
CNT = test_cli.TestDeepRecursion.PROGRAM


def at_limit(limit, entry, *args, **kwargs):
    """`entry(*args, **kwargs)` called at recursion limit `limit`, which it
    must put back, also when it raises; the test's own limit is restored
    after."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        try:
            return entry(*args, **kwargs)
        finally:
            assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(previous)


class TestRecursionLimit:
    """Every entry point evaluates at `semantics.RECURSION_LIMIT`, whatever
    the caller's limit, and puts the caller's limit back, so a program has
    one outcome however deep the library is called."""

    LIMITS = (1_000, 1_234, 20_000)

    @pytest.mark.parametrize("limit", (1_000, 20_000))
    def test_cnt_2000_deep_finishes_at_any_callers_limit(self, limit):
        sta = at_limit(limit, run_source, CNT % 2_000)
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "y").content == num(2_000)

    @pytest.mark.parametrize("limit", (1_000, 20_000))
    def test_cnt_3500_deep_is_too_deep_at_any_callers_limit(self, limit):
        with pytest.raises(RecursionError):
            at_limit(limit, run_source, CNT % 3_500)

    @pytest.mark.parametrize("limit", LIMITS)
    def test_every_entry_point_puts_the_callers_limit_back(self, limit):
        sta = run_source(f"begin-program {FACT_FUN} ; let x be number tel ; x := 3 end-program")
        evaluator = Evaluator()
        entries = [
            (evaluator.eval_data_exp, parse_data_expression("fact(x)")),
            (evaluator.eval_transfer_exp, parse_transfer_expression("value < 10")),
            (evaluator.eval_type_exp, parse_type_expression("list-type number ee")),
            (evaluator.exec_instruction, parse_instruction("x := fact(x)")),
            (evaluator.exec_preamble, parse_any("let y be number tel")[1]),
            (evaluator.run_program, parse_program("begin-program x := 1 end-program")),
        ]
        for entry, node in entries:
            assert not isinstance(at_limit(limit, entry, node, sta), AbstractError), entry.__name__

    @pytest.mark.parametrize("limit", LIMITS)
    def test_the_callers_limit_is_back_after_out_of_fuel(self, limit):
        with pytest.raises(OutOfFuel):
            at_limit(
                limit,
                run_source,
                "begin-program let x be number tel ; x := 0 ; "
                "while true do x := (x + 1) od end-program",
                fuel=10,
            )

    @pytest.mark.parametrize("limit", (1_000, 30_000))
    def test_the_run_sees_exactly_the_evaluators_limit(self, limit):
        seen = set()
        prg = parse_program(CNT % 10)

        def trace(ins):
            seen.add(sys.getrecursionlimit())

        at_limit(limit, semantics.run_program, prg, trace=trace)
        assert seen == {semantics.RECURSION_LIMIT}


class TestOverlappingEntries:
    """The recursion limit and the collector switch belong to the
    interpreter, so they hold while any entry point runs in any thread,
    and the caller's come back when the last one leaves."""

    ROUNDS = 20

    def test_a_deep_run_beside_short_runs_in_another_thread(self):
        stop, errors = threading.Event(), []

        def short_runs():
            try:
                while not stop.is_set():
                    run_source("begin-program let x be number tel ; x := 1 end-program")
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        def rounds():
            words = []
            for _ in range(self.ROUNDS):
                try:
                    words.append(register_word(run_source(CNT % 2_000)))
                except RecursionError:
                    words.append("RecursionError")
            return words

        other = threading.Thread(target=short_runs)
        previous, interval = sys.getrecursionlimit(), sys.getswitchinterval()
        sys.setrecursionlimit(1_000)
        sys.setswitchinterval(1e-5)
        try:
            other.start()
            words = rounds()
        finally:
            stop.set()
            other.join(timeout=60)
            limit = sys.getrecursionlimit()
            sys.setswitchinterval(interval)
            sys.setrecursionlimit(previous)
        assert not other.is_alive()
        assert errors == []
        assert words == ["OK"] * self.ROUNDS
        assert limit == 1_000


class TestParameterBinding:
    """A call site passes its actuals as one list, ref before val, and a
    parameter is checked against its formal's type unless the actual holds
    that very type object."""

    ACC = (
        "set small as replace-transfer-in number by value < 100 ee tes ; "
        "proc acc (val d as small ref t as small) "
        "begin-program t := (t + d) end-program end proc"
    )

    def test_same_total_length_with_another_split(self):
        sta = run_text(
            f"begin-program {SWAP} ; let x be number tel ; let y be number tel ; "
            "x := 1 ; y := 2 ; call swap (ref x val y) end-program"
        )
        assert register_word(sta) == "parameter-list-mismatch"

    def test_transfer_only_mismatch(self):
        sta = run_text(
            f"begin-program {self.ACC} ; let total be number tel ; let step be number tel ; "
            "total := 0 ; step := 500 ; call acc (ref total val step) end-program"
        )
        assert register_word(sta) == "parameter-type-mismatch"

    @pytest.mark.parametrize("step_type, checks", [("small", 1), ("other", 2)])
    def test_only_another_type_object_is_checked(self, monkeypatch, step_type, checks):
        # `other` has the text of `small` but is a type of its own; `total`
        # is a `number`, so its ref parameter is checked either way.
        seen, check = [], semantics.clan_ty_member

        def counted(com, typ):
            seen.append(typ)
            return check(com, typ)

        monkeypatch.setattr(semantics, "clan_ty_member", counted)
        sta = run_text(
            f"begin-program {self.ACC} ; "
            "set other as replace-transfer-in number by value < 100 ee tes ; "
            f"let total be number tel ; let step be {step_type} tel ; "
            "total := 0 ; step := 3 ; call acc (ref total val step) end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "total").content == num(3)
        assert len(seen) == checks

    def test_copy_back_carries_the_formal_type(self):
        program = (
            f"begin-program {self.ACC} ; let total be number tel ; let step be small tel ; "
            "total := 0 ; step := 3 ; call acc (ref total val step) ; %s end-program"
        )
        sta = run_text(program % "skip")
        assert state_report(sta)[-2:] == [
            "total = (3, number) with (value < 100)",
            "register = OK",
        ]
        assert register_word(run_text(program % "total := 5000")) == "yoke-not-satisfied"


class TestWritesToParameterHeldCollections:
    """A `ref` formal's type is built on each call, so the collection the
    parameter holds has a body equal to, but not the same object as, the
    formal's body.  Element writes and `yoke` on it still run every check
    of the write ladder and report as a whole-value write would."""

    GROW = (
        "proc grow (val empty-fp ref a as array-type number ee) "
        "begin-program a := add-to-arr a new 1 ee ; "
        "yoke a := all-array (value < 10) ee ; "
        "a := change-arr a at 1 by {changed} ee end-program end proc"
    )

    def run(self, tmp_path, capsys, first, changed):
        path = tmp_path / "grow.lng"
        path.write_text(
            f"begin-program {self.GROW.format(changed=changed)} ; "
            "let x be array-type number ee tel ; "
            f"x := array {first} ee ; "
            "call grow (ref x val empty-ap) ; call grow (ref x val empty-ap) end-program",
            encoding="utf-8",
        )
        code = main(["run", str(path)])
        out, err = capsys.readouterr()
        assert err == ""
        return code, out.splitlines()

    def test_two_calls_grow_yoke_and_change(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, 5, 7) == (
            0,
            [
                "x = ([7, 1, 1], array of number) with all-array (value < 10) ee",
                "register = OK",
            ],
        )

    @pytest.mark.parametrize(
        "first, changed",
        [(50, 7), (5, 70)],
        ids=["the-yoke-rejects-the-held-array", "the-changed-element-breaks-the-yoke"],
    )
    def test_a_broken_yoke_leaves_the_actual_as_it_was(self, tmp_path, capsys, first, changed):
        assert self.run(tmp_path, capsys, first, changed) == (
            1,
            [f"x = ([{first}], array of number) with true", "register = yoke-not-satisfied"],
        )
