"""Instruction, declaration and program semantics."""

import weakref

import pytest

from lingua.kernel import (
    NUMBER,
    OMEGA,
    TT,
    WORD,
    AbstractError,
    Composite,
    LangType,
    RecordBody,
    Value,
    num,
)
from lingua.parser import parse_data_expression, parse_instruction, parse_program
from lingua.semantics import Evaluator, OutOfFuel
from lingua.state import (
    empty_state,
    is_error,
    load_error,
    lookup_type,
    lookup_variable,
    register_word,
)

from util import number_var, run_text


def err(word_):
    return AbstractError(word_)


def exec_ins(text, sta, fuel=None):
    return Evaluator(fuel=fuel).exec_instruction(parse_instruction(text), sta)


class TestAssignment:
    def test_identifier_not_declared(self):
        sta = run_text("begin-program x := 1 end-program")
        assert register_word(sta) == "identifier-not-declared"

    def test_expression_error_loaded(self):
        sta = run_text(
            "begin-program let x be number tel ; x := (1 / 0) end-program"
        )
        assert register_word(sta) == "division-by-zero"

    def test_no_coherence(self):
        sta = run_text("begin-program let x be number tel ; x := 'a' end-program")
        assert register_word(sta) == "no-coherence"

    def test_a_yoke_expected(self):
        sta = run_text(
            "begin-program let x be replace-transfer-in number by 273 ee tel ; "
            "x := 1 end-program"
        )
        assert register_word(sta) == "a-yoke-expected"

    def test_coherence_checked_before_yoke_shape(self):
        # both defects present: the body mismatch is reported first
        sta = run_text(
            "begin-program let x be replace-transfer-in number by 273 ee tel ; "
            "x := 'a' end-program"
        )
        assert register_word(sta) == "no-coherence"

    def test_yoke_not_satisfied(self):
        sta = run_text(
            "begin-program let x be replace-transfer-in number by (value < 10) ee tel ; "
            "x := 11 end-program"
        )
        assert register_word(sta) == "yoke-not-satisfied"

    def test_transfer_error_loaded(self):
        sta = run_text(
            "begin-program let x be replace-transfer-in number by (value / 0) ee tel ; "
            "x := 1 end-program"
        )
        assert register_word(sta) == "division-by-zero"

    def test_successful_assignment(self):
        sta = run_text(
            "begin-program let x be number tel ; x := 3 ; x := (x + 4) end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "x") == Value(num(7), LangType(NUMBER, TT))

    def test_assignment_keeps_the_transfer(self):
        sta = run_text(
            "begin-program let x be replace-transfer-in number by (value < 10) ee tel ; "
            "x := 5 end-program"
        )
        val = lookup_variable(sta, "x")
        assert val.content == num(5)
        assert val.typ.tra.source == "(value < 10)"

    def test_record_body_may_evolve_coherently(self):
        sta = run_text(
            "begin-program let r be record-type a as number ee tel ; "
            "r := record a of-value 1 ee ; "
            "r := add-attr b of-value 'x' to r ee end-program"
        )
        assert register_word(sta) == "OK"
        val = lookup_variable(sta, "r")
        assert val.typ.bod == RecordBody.of({"a": NUMBER, "b": WORD})

    def test_incoherent_record_change_rejected(self):
        sta = run_text(
            "begin-program let r be record-type a as number ee tel ; "
            "r := record a of-value 'w' ee end-program"
        )
        assert register_word(sta) == "no-coherence"


class TestYokeReplacement:
    def test_replaces_transfer_keeps_composite(self):
        sta = run_text(
            "begin-program let x be number tel ; x := 5 ; "
            "yoke x := (value < 10) end-program"
        )
        val = lookup_variable(sta, "x")
        assert register_word(sta) == "OK"
        assert val.content == num(5)
        assert val.typ.tra.source == "(value < 10)"

    def test_rejects_violating_composite(self):
        sta = run_text(
            "begin-program let x be number tel ; x := 50 ; "
            "yoke x := (value < 10) end-program"
        )
        assert register_word(sta) == "yoke-not-satisfied"
        # the binding is untouched
        assert lookup_variable(sta, "x").typ.tra == TT

    def test_requires_yoke_shape(self):
        sta = run_text(
            "begin-program let x be number tel ; x := 5 ; yoke x := 273 end-program"
        )
        assert register_word(sta) == "a-yoke-expected"

    def test_undeclared_and_uninitialized(self):
        sta = run_text("begin-program yoke x := true end-program")
        assert register_word(sta) == "identifier-not-declared"
        sta = run_text(
            "begin-program let x be number tel ; yoke x := true end-program"
        )
        assert register_word(sta) == "variable-not-initialized"

    def test_new_yoke_guards_later_assignments(self):
        sta = run_text(
            "begin-program let x be number tel ; x := 5 ; "
            "yoke x := (value < 10) ; x := 11 end-program"
        )
        assert register_word(sta) == "yoke-not-satisfied"
        assert lookup_variable(sta, "x").content == num(5)


class TestConditionalsAndLoops:
    def test_if_branches(self):
        sta = run_text(
            "begin-program let x be number tel ; "
            "if true then x := 1 else x := 2 fi end-program"
        )
        assert lookup_variable(sta, "x").content == num(1)

    def test_if_guard_error_loaded(self):
        sta = run_text(
            "begin-program let x be number tel ; "
            "if (1 / 0) then x := 1 else x := 2 fi end-program"
        )
        assert register_word(sta) == "division-by-zero"

    def test_if_guard_must_be_boolean(self):
        sta = run_text(
            "begin-program let x be number tel ; "
            "if 3 then x := 1 else x := 2 fi end-program"
        )
        assert register_word(sta) == "Boolean-expected"

    def test_while_countdown(self):
        sta = run_text(
            "begin-program let x be number tel ; let s be number tel ; "
            "x := 5 ; s := 0 ; "
            "while (0 < x) do s := (s + x) ; x := (x - 1) od end-program"
        )
        assert lookup_variable(sta, "s").content == num(15)
        assert lookup_variable(sta, "x").content == num(0)

    def test_while_guard_error(self):
        sta = run_text(
            "begin-program while (1 / 0) do skip od end-program"
        )
        assert register_word(sta) == "division-by-zero"

    def test_while_exhausts_fuel(self):
        with pytest.raises(OutOfFuel):
            run_text("begin-program while true do skip od end-program", fuel=100)

    def test_body_error_stops_loop(self):
        sta = run_text(
            "begin-program let x be number tel ; x := 3 ; "
            "while (0 < x) do x := (x / 0) od end-program"
        )
        assert register_word(sta) == "division-by-zero"


class TestIfError:
    def test_matching_word_clears_and_handles(self):
        sta = run_text(
            "begin-program let x be number tel ; let y be number tel ; y := 1 ; "
            "x := (1 / 0) ; "
            "if-error 'division-by-zero' then y := 2 fi end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "y").content == num(2)

    def test_non_matching_word_is_identity(self):
        sta = run_text(
            "begin-program let x be number tel ; x := (1 / 0) ; "
            "if-error 'overflow' then x := 1 fi end-program"
        )
        assert register_word(sta) == "division-by-zero"

    def test_identity_on_clean_state(self):
        sta = run_text(
            "begin-program let x be number tel ; x := 1 ; "
            "if-error 'overflow' then x := 2 fi end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "x").content == num(1)

    def test_non_word_guard(self):
        sta = run_text(
            "begin-program let x be number tel ; x := (1 / 0) ; "
            "if-error 42 then skip fi end-program"
        )
        assert register_word(sta) == "word-expected"

    def test_guard_evaluation_error_is_loaded(self):
        sta = run_text(
            "begin-program let x be number tel ; x := (1 / 0) ; "
            "if-error ('a' glue 1) then skip fi end-program"
        )
        assert register_word(sta) == "word-expected"
        sta = run_text(
            "begin-program let x be number tel ; x := 'bad' ; "
            "if-error y then skip fi end-program"
        )
        assert register_word(sta) == "identifier-not-declared"

    def test_guard_evaluates_against_cleared_register(self):
        # the guard reads a variable, which only works once the register is
        # conceptually cleared
        sta = run_text(
            "begin-program let w be word tel ; let x be number tel ; "
            "w := 'division-by-zero' ; x := (1 / 0) ; "
            "if-error w then x := 9 fi end-program"
        )
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "x").content == num(9)


class TestDeclarations:
    def test_let_binds_pseudo_value(self):
        sta = run_text("begin-program let x be number tel ; skip end-program")
        assert lookup_variable(sta, "x") == Value(OMEGA, LangType(NUMBER, TT))

    def test_redeclaration(self):
        sta = run_text(
            "begin-program let x be number tel ; let x be word tel ; skip end-program"
        )
        assert register_word(sta) == "identifier-not-free"

    def test_set_binds_type_constant(self):
        sta = run_text("begin-program set t as number tes ; skip end-program")
        assert lookup_type(sta, "t") == LangType(NUMBER, TT)

    def test_type_redefinition(self):
        sta = run_text(
            "begin-program set t as number tes ; set t as word tes ; skip end-program"
        )
        assert register_word(sta) == "identifier-not-free"

    def test_undefined_type_surfaces(self):
        sta = run_text("begin-program set t as u tes ; skip end-program")
        assert register_word(sta) == "type-not-defined"

    def test_type_constant_usable_in_declaration(self):
        sta = run_text(
            "begin-program set t as number tes ; let x be t tel ; x := 1 end-program"
        )
        assert register_word(sta) == "OK"

    def test_declaration_sequencing(self):
        sta = run_text(
            "begin-program let x be number tel ; let y be word tel ; skip end-program"
        )
        assert lookup_variable(sta, "x") is not None
        assert lookup_variable(sta, "y") is not None

    def test_preamble_error_makes_program_transparent(self):
        sta = run_text(
            "begin-program let x be number tel ; let x be number tel ; "
            "x := 1 end-program"
        )
        assert register_word(sta) == "identifier-not-free"
        assert lookup_variable(sta, "x").content is OMEGA


class TestTransparency:
    ERROR = err("overflow")

    def poisoned(self):
        sta = number_var(empty_state(), "x", num(1))
        return load_error(sta, self.ERROR)

    @pytest.mark.parametrize(
        "text",
        [
            "x := 2",
            "yoke x := true",
            "skip",
            "call p (ref empty-ap val empty-ap)",
            "if true then x := 2 else x := 3 fi",
            "while true do skip od",
            "x := 2 ; x := 3",
        ],
    )
    def test_error_states_pass_through(self, text):
        sta = self.poisoned()
        assert exec_ins(text, sta) == sta

    def test_if_error_is_the_exception(self):
        sta = self.poisoned()
        handled = exec_ins("if-error 'overflow' then x := 9 fi", sta)
        assert handled != sta
        assert register_word(handled) == "OK"


class TestPrograms:
    def test_skip_program_is_identity(self):
        sta = number_var(empty_state(), "x", num(1))
        out = Evaluator().run_program(
            parse_program("begin-program skip end-program"), sta
        )
        assert out == sta

    def test_program_without_preamble_errors_on_variables(self):
        sta = run_text("begin-program x := 1 end-program")
        assert is_error(sta)

    def test_entry_points_keep_no_tree_alive(self):
        """The evaluator compiles the tree it is given, runs it and keeps
        nothing of it: the caller's tree is freed when the caller drops it."""
        evaluator = Evaluator()
        sta = number_var(empty_state(), "x", num(1))
        ins, dae = parse_instruction("x := (x + 1)"), parse_data_expression("(x * 2)")
        refs = weakref.ref(ins), weakref.ref(dae)
        sta = evaluator.exec_instruction(ins, sta)
        assert evaluator.eval_data_exp(dae, sta) == Composite(num(4), NUMBER)
        del ins, dae  # `evaluator` is still alive
        assert [ref() for ref in refs] == [None, None]
