"""Data-expression evaluation: guard ladders, transparency, laziness."""

import pytest

from lingua.kernel import (
    NUMBER,
    WORD,
    AbstractError,
    ArrayBody,
    ArrayData,
    Composite,
    LangType,
    Limits,
    ListBody,
    ListData,
    OMEGA,
    RecordBody,
    RecordData,
    TT,
    Value,
    boo_composite,
    num,
)
from lingua.parser import parse_data_expression, parse_transfer_expression
from lingua.semantics import Evaluator
from lingua.state import bind_variable, empty_state, load_error, register_word

from util import eval_text, number_var, run_text


def err(word_):
    return AbstractError(word_)


class TestLiteralsAndIdentifiers:
    def test_constants(self):
        assert eval_text("true") == boo_composite(True)
        assert eval_text("3") == Composite(num(3), NUMBER)
        assert eval_text("'ab'") == Composite("ab", WORD)
        assert eval_text("-4") == Composite(num(-4), NUMBER)

    def test_identifier_not_declared(self):
        assert eval_text("x") == err("identifier-not-declared")

    def test_variable_not_initialized(self):
        sta = bind_variable(empty_state(), "x", Value(OMEGA, LangType(NUMBER, TT)))
        assert eval_text("x", sta) == err("variable-not-initialized")

    def test_initialized_identifier(self):
        sta = number_var(empty_state(), "x", num(5))
        assert eval_text("x", sta) == Composite(num(5), NUMBER)

    def test_error_state_returns_register(self):
        sta = load_error(empty_state(), err("overflow"))
        assert eval_text("1", sta) == err("overflow")

    def test_oversized_literal_is_overflow(self):
        assert eval_text("100", limits=Limits(max_significant_digits=2)) == err(
            "overflow"
        )


class TestArithmetic:
    def test_addition_golden(self):
        assert eval_text("(1 + (1 + 0))") == Composite(num(2), NUMBER)

    def test_comparison_golden(self):
        assert eval_text("((1 + (1 + 0)) < 0)") == boo_composite(False)

    def test_division(self):
        assert eval_text("(1 / 8)") == Composite(num("0.125"), NUMBER)
        assert eval_text("(1 / 0)") == err("division-by-zero")
        assert eval_text("(1 / 3)") == err("overflow")

    def test_number_expected(self):
        assert eval_text("(1 + 'a')") == err("number-expected")
        assert eval_text("(true < 1)") == err("number-expected")

    def test_extensions(self):
        assert eval_text("(6 * 7)") == Composite(num(42), NUMBER)
        assert eval_text("(6 - 7)") == Composite(num(-1), NUMBER)
        assert eval_text("(6 = 7)") == boo_composite(False)
        assert eval_text("(7 = 7)") == boo_composite(True)
        assert eval_text("('a' = 1)") == boo_composite(False)

    def test_overflow_depends_on_association(self):
        # with one significant digit, -4 + 9 + 2 only works left to right
        lim = Limits(max_significant_digits=1)
        assert eval_text("((-4 + 9) + 2)", limits=lim) == Composite(num(7), NUMBER)
        assert eval_text("(-4 + (9 + 2))", limits=lim) == err("overflow")

    def test_left_to_right_first_error(self):
        # the left operand error wins even though the right is undeclared
        assert eval_text("((1 / 0) + x)") == err("division-by-zero")
        assert eval_text("(x + (1 / 0))") == err("identifier-not-declared")

    def test_operands_evaluated_before_body_checks(self):
        # both operands evaluate first, so the right error precedes the
        # left body check
        assert eval_text("(true + (1 / 0))") == err("division-by-zero")
        assert eval_text("(true + 1)") == err("number-expected")


class TestConstantOperands:
    """A literal right operand is bound into its operator's code when it
    compiles, unless it is an error; the operands still evaluate left to
    right, and the first error wins."""

    SMALL = Limits(max_significant_digits=3)

    def test_an_undeclared_left_operand_beats_an_oversized_right_literal(self):
        assert eval_text("(x + 1234)", limits=self.SMALL) == err("identifier-not-declared")

    def test_a_declared_left_operand_with_an_oversized_right_literal(self):
        sta = number_var(empty_state(), "x", num(1))
        assert eval_text("(x + 1234)", sta, limits=self.SMALL) == err("overflow")
        assert eval_text("(x + 123)", sta, limits=self.SMALL) == Composite(num(124), NUMBER)

    def test_a_yoke_with_a_literal_bound(self):
        program = (
            "begin-program set small as replace-transfer-in number by value < 1000000 ee tes ; "
            "let s be small tel ; s := %s end-program"
        )
        assert register_word(run_text(program % "999999")) == "OK"
        assert register_word(run_text(program % "1000000")) == "yoke-not-satisfied"

    @pytest.mark.parametrize(
        "parse, text, limits, shape",
        [
            (parse_data_expression, "(x + 1)", Limits(), "binary_constant"),
            (parse_data_expression, "(x < 'a')", Limits(), "binary_constant"),
            (parse_data_expression, "(x = true)", Limits(), "binary_constant"),
            (parse_data_expression, "(x + y)", Limits(), "binary"),
            (parse_data_expression, "(1 + x)", Limits(), "binary"),
            (parse_data_expression, "(x + (1 + 2))", Limits(), "binary"),
            (parse_data_expression, "(x + 1234)", SMALL, "binary"),
            (parse_transfer_expression, "(value < 1000000)", Limits(), "binary_constant"),
            (parse_transfer_expression, "(value < 1000000)", SMALL, "binary"),
        ],
    )
    def test_one_closure_shape_per_node_chosen_when_it_compiles(self, parse, text, limits, shape):
        code = Evaluator(limits=limits).compile_expression(parse(text))
        assert code.__code__.co_name == shape


class TestBooleans:
    def test_lazy_or(self):
        assert eval_text("(true or ((1 / 0) < 1))") == boo_composite(True)
        assert eval_text("(((1 / 0) < 1) or true)") == err("division-by-zero")

    def test_lazy_and(self):
        assert eval_text("(false and ((1 / 0) < 1))") == boo_composite(False)
        assert eval_text("(true and ((1 / 0) < 1))") == err("division-by-zero")

    def test_not(self):
        assert eval_text("(not false)") == boo_composite(True)
        assert eval_text("(not 1)") == err("Boolean-expected")
        assert eval_text("(not (1 / 0))") == err("division-by-zero")

    def test_boolean_expected(self):
        assert eval_text("(1 and true)") == err("Boolean-expected")
        assert eval_text("(true and 1)") == err("Boolean-expected")

    def test_mccarthy_agreement(self):
        from mccarthy import EE, FF, TT as M_TT, and_m, not_m, or_m

        atoms = {"true": M_TT, "false": FF, "((1 / 0) < 1)": EE}

        def outcome(text):
            result = eval_text(text)
            if isinstance(result, AbstractError):
                return EE
            return M_TT if result.dat else FF

        for left, lv in atoms.items():
            assert outcome(f"(not {left})") == not_m(lv)
            for right, rv in atoms.items():
                assert outcome(f"({left} and {right})") == and_m(lv, rv)
                assert outcome(f"({left} or {right})") == or_m(lv, rv)


class TestWords:
    def test_glue(self):
        assert eval_text("('ab' glue 'cd')") == Composite("abcd", WORD)

    def test_glue_requires_words(self):
        assert eval_text("(1 glue 'a')") == err("word-expected")

    def test_glue_overflow(self):
        lim = Limits(max_word_length=3)
        assert eval_text("('ab' glue 'cd')", limits=lim) == err("overflow")

    def test_glue_associativity_of_evaluation(self):
        assert eval_text("(('a' glue 'b') glue 'c')") == eval_text(
            "('a' glue ('b' glue 'c'))"
        )


class TestLists:
    def test_construction_and_stack_ops(self):
        assert eval_text("list 1 ee") == Composite(ListData((num(1),)), ListBody(NUMBER))
        assert eval_text("push 2 on list 1 ee ee") == Composite(
            ListData((num(2), num(1))), ListBody(NUMBER)
        )
        assert eval_text("top (push 2 on list 1 ee ee)") == Composite(num(2), NUMBER)
        assert eval_text("pop (push 2 on list 1 ee ee)") == Composite(
            ListData((num(1),)), ListBody(NUMBER)
        )

    def test_guards(self):
        assert eval_text("top (1)") == err("list-expected")
        assert eval_text("push 1 on 2 ee") == err("list-expected")
        assert eval_text("push 'a' on list 1 ee ee") == err("no-coherence")
        assert eval_text("top (pop (list 1 ee))") == err("empty-list")
        assert eval_text("pop (pop (list 1 ee))") == err("empty-list")

    def test_size_limit(self):
        lim = Limits(max_collection_size=1)
        assert eval_text("push 2 on list 1 ee ee", limits=lim) == err("overflow")


class TestArrays:
    def test_construction_and_access(self):
        assert eval_text("array 7 ee") == Composite(ArrayData((num(7),)), ArrayBody(NUMBER))
        grown = eval_text("add-to-arr array 7 ee new 8 ee")
        assert grown == Composite(ArrayData((num(7), num(8))), ArrayBody(NUMBER))
        # add-to-arr appends at index n+1
        assert eval_text("arr add-to-arr array 7 ee new 8 ee at 2 ee") == Composite(
            num(8), NUMBER
        )

    def test_change(self):
        assert eval_text("change-arr array 7 ee at 1 by 9 ee") == Composite(
            ArrayData((num(9),)), ArrayBody(NUMBER)
        )

    def test_guards(self):
        assert eval_text("arr 1 at 1 ee") == err("array-expected")
        assert eval_text("arr array 7 ee at 0 ee") == err("index-out-of-range")
        assert eval_text("arr array 7 ee at 2 ee") == err("index-out-of-range")
        assert eval_text("arr array 7 ee at 1.5 ee") == err("index-out-of-range")
        assert eval_text("arr array 7 ee at 'x' ee") == err("number-expected")
        assert eval_text("add-to-arr array 7 ee new 'a' ee") == err("no-coherence")
        assert eval_text("change-arr array 7 ee at 1 by 'a' ee") == err("no-coherence")


class TestRecords:
    def test_construction(self):
        built = eval_text("record a of-value 1 ee")
        assert built == Composite(
            RecordData.of({"a": num(1)}), RecordBody.of({"a": NUMBER})
        )

    def test_add_and_select(self):
        built = eval_text("add-attr b of-value 'x' to record a of-value 1 ee ee")
        assert built == Composite(
            RecordData.of({"a": num(1), "b": "x"}),
            RecordBody.of({"a": NUMBER, "b": WORD}),
        )
        assert eval_text(
            "rec add-attr b of-value 'x' to record a of-value 1 ee ee at b ee"
        ) == Composite("x", WORD)

    def test_remove_and_change(self):
        removed = eval_text("remove-attr a from record a of-value 1 ee ee")
        assert removed == Composite(RecordData.of({}), RecordBody.of({}))
        changed = eval_text("change-rec record a of-value 1 ee at a by 'w' ee")
        assert changed == Composite(
            RecordData.of({"a": "w"}), RecordBody.of({"a": WORD})
        )

    def test_read_a_false_attribute(self):
        # A false datum is a found attribute, not a missing one.
        assert eval_text("rec record flag of-value false ee at flag ee") == boo_composite(
            False
        )

    def test_read_an_empty_list_attribute(self):
        assert eval_text("rec record xs of-value pop (list 1 ee) ee at xs ee") == Composite(
            ListData(()), ListBody(NUMBER)
        )

    def test_guards(self):
        assert eval_text("rec 1 at a ee") == err("record-expected")
        assert eval_text("rec record a of-value 1 ee at b ee") == err(
            "attribute-not-present"
        )
        assert eval_text(
            "add-attr a of-value 2 to record a of-value 1 ee ee"
        ) == err("attribute-already-present")
        assert eval_text("remove-attr b from record a of-value 1 ee ee") == err(
            "attribute-not-present"
        )
        assert eval_text("change-rec record a of-value 1 ee at b by 2 ee") == err(
            "attribute-not-present"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "add-attr a of-value (1 / 0) to 5 ee",
            "add-attr a of-value 1 to (1 / 0) ee",
            "change-rec 5 at a by (1 / 0) ee",
        ],
    )
    def test_an_operand_error_wins_over_the_record_checks(self, text):
        # Operands evaluate left to right, and their first error beats
        # record-expected and the attribute checks.
        assert eval_text(text) == err("division-by-zero")

    def test_size_limit(self):
        lim = Limits(max_collection_size=2)
        grown = "add-attr b of-value 2 to record a of-value 1 ee ee"
        assert eval_text(grown, limits=lim) == Composite(
            RecordData.of({"a": num(1), "b": num(2)}), RecordBody.of({"a": NUMBER, "b": NUMBER})
        )
        assert eval_text(f"add-attr c of-value 3 to {grown} ee", limits=lim) == err("overflow")

    def test_a_one_attribute_literal_fits_the_smallest_limit(self):
        assert eval_text("record a of-value 1 ee", limits=Limits(max_collection_size=1)) == (
            Composite(RecordData.of({"a": num(1)}), RecordBody.of({"a": NUMBER}))
        )


class TestConditional:
    def test_branch_selection(self):
        assert eval_text("if true then 1 else 2 fi") == Composite(num(1), NUMBER)
        assert eval_text("if false then 1 else 2 fi") == Composite(num(2), NUMBER)

    def test_only_taken_branch_evaluates(self):
        assert eval_text("if true then 1 else (1 / 0) fi") == Composite(num(1), NUMBER)
        assert eval_text("if false then (1 / 0) else 2 fi") == Composite(num(2), NUMBER)

    def test_guard_errors(self):
        assert eval_text("if 3 then 1 else 2 fi") == err("Boolean-expected")
        assert eval_text("if (1 / 0) then 1 else 2 fi") == err("division-by-zero")
