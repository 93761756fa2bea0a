"""Procedure declaration and the four-stage call protocol."""

import pytest

from lingua import semantics
from lingua.cli import state_report
from lingua.kernel import TT, WORD, AbstractError, Composite, LangType, NUMBER, Value, num, word
from lingua.parser import parse_data_expression, parse_instruction, parse_program
from lingua.semantics import Evaluator, OutOfFuel
from lingua.state import bind_type, bind_variable, empty_state, lookup_variable, register_word

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
        assert lookup_variable(sta, "res").content == word(answer)

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
        # One evaluator compiles `q` once; each declaration of it captures
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
