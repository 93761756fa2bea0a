"""Transfer- and type-expression evaluation."""

from lingua.kernel import (
    BOOLEAN,
    NUMBER,
    WORD,
    AbstractError,
    ArrayBody,
    ArrayData,
    Composite,
    LangType,
    ListBody,
    ListData,
    RecordBody,
    RecordData,
    TT,
    apply_transfer,
    boo_composite,
    num,
)
from lingua.parser import parse_transfer_expression, parse_type_expression
from lingua.semantics import Evaluator
from lingua.state import bind_type, empty_state, load_error


def err(word_):
    return AbstractError(word_)


def transfer(text, sta=None, **kw):
    evaluator = Evaluator(**kw)
    return evaluator.eval_transfer_exp(
        parse_transfer_expression(text), sta if sta is not None else empty_state()
    )


def typ(text, sta=None, **kw):
    evaluator = Evaluator(**kw)
    return evaluator.eval_type_exp(
        parse_type_expression(text), sta if sta is not None else empty_state()
    )


FIVE = Composite(num(5), NUMBER)
NUMBER_LIST = Composite(ListData((num(1), num(2), num(3))), ListBody(NUMBER))
NUMBER_ARRAY = Composite(ArrayData((num(1), num(2), num(3))), ArrayBody(NUMBER))
PRICE_VAT = Composite(
    RecordData.of({"price": num(800), "vat": num(100)}),
    RecordBody.of({"price": NUMBER, "vat": NUMBER}),
)


class TestTransferBasics:
    def test_error_state_short_circuits(self):
        sta = load_error(empty_state(), err("overflow"))
        assert transfer("true", sta) == err("overflow")

    def test_constant_ignores_current_composite(self):
        tra = transfer("273")
        assert apply_transfer(tra, FIVE) == Composite(num(273), NUMBER)
        assert apply_transfer(tra, PRICE_VAT) == Composite(num(273), NUMBER)

    def test_word_constant(self):
        assert apply_transfer(transfer("'ok'"), FIVE) == Composite("ok", WORD)

    def test_true_is_tt(self):
        tra = transfer("true")
        assert tra == TT
        assert apply_transfer(tra, FIVE) == boo_composite(True)

    def test_error_input_passes_through(self):
        overflow = err("overflow")
        assert apply_transfer(transfer("true"), overflow) is overflow

    def test_value_is_identity(self):
        assert apply_transfer(transfer("value"), FIVE) == FIVE

    def test_source_text_is_canonical(self):
        assert transfer("2+value < 10").source == "((2 + value) < 10)"


class TestSelections:
    def test_record_projection(self):
        tra = transfer("record.price")
        assert apply_transfer(tra, PRICE_VAT) == Composite(num(800), NUMBER)
        assert apply_transfer(tra, FIVE) == err("record-expected")
        assert apply_transfer(transfer("record.other"), PRICE_VAT) == err(
            "attribute-not-present"
        )

    def test_top_projection(self):
        assert apply_transfer(transfer("top"), NUMBER_LIST) == Composite(num(1), NUMBER)
        assert apply_transfer(transfer("top"), FIVE) == err("list-expected")
        empty = Composite(ListData(()), ListBody(NUMBER))
        assert apply_transfer(transfer("top"), empty) == err("empty-list")

    def test_array_selection(self):
        assert apply_transfer(transfer("array[2]"), NUMBER_ARRAY) == Composite(
            num(2), NUMBER
        )
        assert apply_transfer(transfer("array[9]"), NUMBER_ARRAY) == err(
            "index-out-of-range"
        )
        assert apply_transfer(transfer("array[1]"), FIVE) == err("array-expected")


class TestTransferOperators:
    def test_price_vat_yoke(self):
        tra = transfer("record.price + record.vat < 1000")
        assert apply_transfer(tra, PRICE_VAT) == boo_composite(True)
        expensive = Composite(
            RecordData.of({"price": num(950), "vat": num(100)}),
            RecordBody.of({"price": NUMBER, "vat": NUMBER}),
        )
        assert apply_transfer(tra, expensive) == boo_composite(False)

    def test_arithmetic_guards(self):
        assert apply_transfer(transfer("(value + 'a')"), FIVE) == err("number-expected")
        assert apply_transfer(transfer("(value / 0)"), FIVE) == err("division-by-zero")
        assert apply_transfer(transfer("('a' glue 'b')"), FIVE) == Composite(
            "ab", WORD
        )

    def test_equality_on_mismatched_bodies_is_false(self):
        assert apply_transfer(transfer("(value = 'a')"), FIVE) == boo_composite(False)
        assert apply_transfer(transfer("(value = 5)"), FIVE) == boo_composite(True)

    def test_lazy_connectives(self):
        tra = transfer("(false and (top = 1))")
        assert apply_transfer(tra, FIVE) == boo_composite(False)  # top never applied
        tra = transfer("(true or (top = 1))")
        assert apply_transfer(tra, FIVE) == boo_composite(True)
        tra = transfer("(true and top)")
        assert apply_transfer(tra, FIVE) == err("list-expected")

    def test_non_boolean_operand_is_a_yoke_error(self):
        assert apply_transfer(transfer("(true and 3)"), FIVE) == err("a-yoke-expected")
        assert apply_transfer(transfer("(not 3)"), FIVE) == err("a-yoke-expected")


class TestQuantifiers:
    def test_all_list_true_on_number_list(self):
        tra = transfer("all-list true ee")
        assert apply_transfer(tra, NUMBER_LIST) == boo_composite(True)

    def test_all_list_on_non_list(self):
        assert apply_transfer(transfer("all-list true ee"), FIVE) == err("list-expected")

    def test_all_list_checks_every_element(self):
        tra = transfer("all-list (value < 3) ee")
        assert apply_transfer(tra, NUMBER_LIST) == boo_composite(False)
        small = Composite(ListData((num(1), num(2))), ListBody(NUMBER))
        assert apply_transfer(tra, small) == boo_composite(True)

    def test_all_list_element_error_propagates(self):
        tra = transfer("all-list (1 / value < 2) ee")
        with_zero = Composite(ListData((num(1), num(0))), ListBody(NUMBER))
        assert apply_transfer(tra, with_zero) == err("division-by-zero")

    def test_all_list_checks_interleave_in_element_order(self):
        # the first element's non-Boolean result is seen before the second
        # element's error
        tra = transfer("all-list (1 / value) ee")
        with_zero = Composite(ListData((num(1), num(0))), ListBody(NUMBER))
        assert apply_transfer(tra, with_zero) == err("a-yoke-expected")

    def test_all_list_demands_yokes(self):
        assert apply_transfer(transfer("all-list 273 ee"), NUMBER_LIST) == err(
            "a-yoke-expected"
        )

    def test_all_array(self):
        tra = transfer("all-array (value < 10) ee")
        assert apply_transfer(tra, NUMBER_ARRAY) == boo_composite(True)
        assert apply_transfer(tra, NUMBER_LIST) == err("array-expected")

    def test_empty_collection_is_vacuously_true(self):
        tra = transfer("all-list false ee")
        empty = Composite(ListData(()), ListBody(NUMBER))
        assert apply_transfer(tra, empty) == boo_composite(True)


class TestCombinators:
    def test_sum_and_max(self):
        assert apply_transfer(transfer("sum (value)"), NUMBER_ARRAY) == Composite(
            num(6), NUMBER
        )
        assert apply_transfer(transfer("sum (value)"), NUMBER_LIST) == Composite(
            num(6), NUMBER
        )
        assert apply_transfer(transfer("max (value)"), NUMBER_ARRAY) == Composite(
            num(3), NUMBER
        )

    def test_sum_guards(self):
        assert apply_transfer(transfer("sum (value)"), FIVE) == err("array-expected")
        empty = Composite(ArrayData(()), ArrayBody(NUMBER))
        assert apply_transfer(transfer("sum (value)"), empty) == err("empty-list")

    def test_small_number(self):
        assert apply_transfer(transfer("small-number (value)"), FIVE) == boo_composite(
            True
        )
        big = Composite(num(10_000_000), NUMBER)
        assert apply_transfer(transfer("small-number (value)"), big) == boo_composite(
            False
        )
        assert apply_transfer(transfer("small-number (value)"), NUMBER_LIST) == err(
            "number-expected"
        )

    def test_increasing(self):
        assert apply_transfer(transfer("increasing (value)"), NUMBER_ARRAY) == (
            boo_composite(True)
        )
        flat = Composite(ArrayData((num(1), num(1))), ArrayBody(NUMBER))
        assert apply_transfer(transfer("increasing (value)"), flat) == boo_composite(
            False
        )
        assert apply_transfer(transfer("increasing (value)"), FIVE) == err(
            "array-expected"
        )


class TestTypeExpressions:
    def test_builtins(self):
        assert typ("boolean") == LangType(BOOLEAN, TT)
        assert typ("number") == LangType(NUMBER, TT)
        assert typ("word") == LangType(WORD, TT)

    def test_named_type(self):
        sta = bind_type(empty_state(), "money", LangType(NUMBER, TT))
        assert typ("money", sta) == LangType(NUMBER, TT)
        assert typ("money") == err("type-not-defined")

    def test_collection_types_wrap_with_tt(self):
        assert typ("list-type word ee") == LangType(ListBody(WORD), TT)
        assert typ("array-type number ee") == LangType(ArrayBody(NUMBER), TT)
        # the inner type's own transfer is not inherited
        sta = bind_type(
            empty_state(),
            "bounded",
            LangType(NUMBER, transfer("(value < 10)")),
        )
        wrapped = typ("list-type bounded ee", sta)
        assert wrapped == LangType(ListBody(NUMBER), TT)
        assert wrapped.tra == TT

    def test_one_attribute_record_type(self):
        assert typ("record-type a as number ee") == LangType(
            RecordBody.of({"a": NUMBER}), TT
        )

    def test_expand_record_type(self):
        expanded = typ("expand-record-type record-type a as number ee at b by word ee")
        assert expanded == LangType(RecordBody.of({"a": NUMBER, "b": WORD}), TT)

    def test_expand_guards(self):
        assert typ("expand-record-type number at b by word ee") == err(
            "not-a-record-type"
        )
        assert typ(
            "expand-record-type record-type a as number ee at a by word ee"
        ) == err("attribute-already-present")

    def test_replace_transfer(self):
        replaced = typ("replace-transfer-in number by (value < 10) ee")
        assert replaced.bod == NUMBER
        assert replaced.tra.source == "(value < 10)"

    def test_expand_keeps_base_transfer(self):
        sta = bind_type(
            empty_state(),
            "person",
            LangType(RecordBody.of({"a": NUMBER}), transfer("record.a < 10")),
        )
        expanded = typ("expand-record-type person at b by word ee", sta)
        assert expanded.tra.source == "(record.a < 10)"

    def test_inner_errors_propagate(self):
        assert typ("list-type nope ee") == err("type-not-defined")
        assert typ("record-type a as nope ee") == err("type-not-defined")
        assert typ("replace-transfer-in nope by value ee") == err("type-not-defined")

    def test_error_state_short_circuits(self):
        sta = load_error(empty_state(), err("overflow"))
        assert typ("number", sta) == err("overflow")
