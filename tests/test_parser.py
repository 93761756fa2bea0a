import sys

import pytest

from lingua.diagnostics import LinguaParseError
from lingua.kernel import Number, num
from lingua import nodes as n
from lingua import parser
from lingua import semantics
from lingua.parser import (
    parse_any,
    parse_data_expression,
    parse_instruction,
    parse_program,
    parse_transfer_expression,
    parse_type_expression,
    restore_expression,
)
from lingua.printer import print_concrete
from lingua.semantics import eval_source_expression, run_source
from lingua.state import empty_state


def lit(value):
    return n.NumLit(Number.from_int(value))


# ---------------------------------------------------------------------------
# data expressions: concrete forms


class TestConcreteDataExpressions:
    def test_constants(self):
        assert parse_data_expression("true") == n.BoolLit(True)
        assert parse_data_expression("false") == n.BoolLit(False)
        assert parse_data_expression("3") == lit(3)
        assert parse_data_expression("'Smith'") == n.WordLit("Smith")
        assert parse_data_expression("x") == n.IdeExp("x")

    def test_negative_literal(self):
        assert parse_data_expression("-4") == n.NumLit(Number.from_int(-4))

    def test_parenthesized_binary(self):
        assert parse_data_expression("(1 + 2)") == n.AddExp(lit(1), lit(2))
        assert parse_data_expression("(1 / 0)") == n.DivExp(lit(1), lit(0))
        assert parse_data_expression("(x < 1)") == n.LessExp(n.IdeExp("x"), lit(1))
        assert parse_data_expression("(not true)") == n.NotExp(n.BoolLit(True))

    def test_nested_concrete(self):
        assert parse_data_expression("(1 + (1 + 0))") == n.AddExp(
            lit(1), n.AddExp(lit(1), lit(0))
        )

    def test_list_forms(self):
        assert parse_data_expression("list 1 ee") == n.ListExp(lit(1))
        assert parse_data_expression("push 1 on xs ee") == n.PushExp(
            lit(1), n.IdeExp("xs")
        )
        assert parse_data_expression("top (xs)") == n.TopExp(n.IdeExp("xs"))
        assert parse_data_expression("pop (xs)") == n.PopExp(n.IdeExp("xs"))

    def test_array_forms(self):
        assert parse_data_expression("array 1 ee") == n.ArrayExp(lit(1))
        assert parse_data_expression("add-to-arr a new 2 ee") == n.AddToArrExp(
            n.IdeExp("a"), lit(2)
        )
        assert parse_data_expression("change-arr a at 1 by 2 ee") == n.ChangeArrExp(
            n.IdeExp("a"), lit(1), lit(2)
        )
        assert parse_data_expression("arr a at 1 ee") == n.ArrAtExp(n.IdeExp("a"), lit(1))

    def test_record_forms(self):
        assert parse_data_expression("record a of-value 1 ee") == n.RecordExp("a", lit(1))
        assert parse_data_expression("add-attr b of-value 2 to r ee") == n.AddAttrExp(
            "b", lit(2), n.IdeExp("r")
        )
        assert parse_data_expression("rec r at a ee") == n.RecAtExp(n.IdeExp("r"), "a")
        assert parse_data_expression("remove-attr a from r ee") == n.RemoveAttrExp(
            "a", n.IdeExp("r")
        )
        assert parse_data_expression("change-rec r at a by 2 ee") == n.ChangeRecExp(
            n.IdeExp("r"), "a", lit(2)
        )

    def test_conditional(self):
        assert parse_data_expression("if true then 1 else 2 fi") == n.CondExp(
            n.BoolLit(True), lit(1), lit(2)
        )

    def test_functional_call(self):
        assert parse_data_expression("f(x)") == n.FunCallExp("f", ("x",))
        assert parse_data_expression("f(x, y)") == n.FunCallExp("f", ("x", "y"))
        assert parse_data_expression("f(empty-ap)") == n.FunCallExp("f", ())
        assert parse_data_expression("f()") == n.FunCallExp("f", ())


# ---------------------------------------------------------------------------
# restoration of colloquial forms


class TestRestoration:
    def test_priorities_left_to_right(self):
        # and-of-or is built by priority, + before <, * before +
        restored = parse_data_expression("x + y + z + x * y")
        assert restored == n.AddExp(
            n.AddExp(n.AddExp(n.IdeExp("x"), n.IdeExp("y")), n.IdeExp("z")),
            n.MulExp(n.IdeExp("x"), n.IdeExp("y")),
        )
        assert print_concrete(restored) == "(((x + y) + z) + (x * y))"

    def test_mul_tighter_than_add(self):
        assert print_concrete(parse_data_expression("x + y * z")) == "(x + (y * z))"

    def test_comparison_looser_than_add(self):
        restored = parse_transfer_expression("2+value < 10")
        assert print_concrete(restored) == "((2 + value) < 10)"
        assert print_concrete(parse_data_expression("2 + x < 10")) == "((2 + x) < 10)"

    def test_and_or_priorities(self):
        restored = parse_data_expression("a and b or not c")
        assert restored == n.OrExp(
            n.AndExp(n.IdeExp("a"), n.IdeExp("b")), n.NotExp(n.IdeExp("c"))
        )

    def test_glue_sits_between_add_and_compare(self):
        restored = parse_data_expression("a glue b glue c")
        assert restored == n.GlueExp(n.GlueExp(n.IdeExp("a"), n.IdeExp("b")), n.IdeExp("c"))
        mixed = parse_data_expression("x + y glue z < w")
        assert mixed == n.LessExp(
            n.GlueExp(n.AddExp(n.IdeExp("x"), n.IdeExp("y")), n.IdeExp("z")),
            n.IdeExp("w"),
        )

    def test_array_literal_unfolds(self):
        restored = parse_data_expression("array [x, x+y, 3*y]")
        assert (
            print_concrete(restored)
            == "add-to-arr add-to-arr array x ee new (x + y) ee new (3 * y) ee"
        )

    def test_array_index_sugar(self):
        restored = parse_data_expression("measurement-data.[x+1]")
        assert print_concrete(restored) == "arr measurement-data at (x + 1) ee"

    def test_chained_index_sugar(self):
        restored = parse_data_expression("measurement-data.[x+1].[y-1]")
        assert (
            print_concrete(restored)
            == "arr arr measurement-data at (x + 1) ee at (y - 1) ee"
        )

    def test_change_arr_sugar(self):
        restored = parse_data_expression(
            "change-arr measurement-data by s <= x, s+1 <= x+y, 3*p <= z-1 ee"
        )
        assert print_concrete(restored) == (
            "change-arr change-arr change-arr measurement-data at s by x ee "
            "at (s + 1) by (x + y) ee at (3 * p) by (z - 1) ee"
        )

    def test_record_literal_unfolds(self):
        restored = parse_data_expression(
            "record ch-name <= 'John', fa-name <= 'Smith', birth-date <= 1968 ee"
        )
        assert print_concrete(restored) == (
            "add-attr birth-date of-value 1968 to "
            "add-attr fa-name of-value 'Smith' to "
            "record ch-name of-value 'John' ee ee ee"
        )

    def test_record_selection_sugar(self):
        restored = parse_data_expression("employee. (fa-name)")
        assert print_concrete(restored) == "rec employee at fa-name ee"

    def test_restore_is_total_on_parsed_input(self):
        text = "x + y * z"
        assert restore_expression(text) == parse_data_expression(text)
        node = parse_data_expression(text)
        assert restore_expression(node) is node

    def test_restoring_concrete_is_identity(self):
        text = "(x + (y * z))"
        assert print_concrete(parse_data_expression(text)) == text

    def test_aliases(self):
        assert parse_data_expression("set-record a of-value 1 ee") == n.RecordExp(
            "a", lit(1)
        )
        assert parse_data_expression("add-atr b of-value 2 to r ee") == n.AddAttrExp(
            "b", lit(2), n.IdeExp("r")
        )


# ---------------------------------------------------------------------------
# transfer expressions


class TestTransferExpressions:
    def test_atoms(self):
        assert parse_transfer_expression("273") == n.TraNumLit(Number.from_int(273))
        assert parse_transfer_expression("'a'") == n.TraWordLit("a")
        assert parse_transfer_expression("true") == n.TraBoolLit(True)
        assert parse_transfer_expression("value") == n.ValueTra()
        assert parse_transfer_expression("top") == n.TopTra()
        assert parse_transfer_expression("record.price") == n.RecordAtTra("price")
        assert parse_transfer_expression("array[3]") == n.ArrayAtTra(
            n.TraNumLit(Number.from_int(3))
        )

    def test_combinators(self):
        assert parse_transfer_expression("sum (value)") == n.SumExp(n.ValueTra())
        assert parse_transfer_expression("max (value)") == n.MaxExp(n.ValueTra())
        assert parse_transfer_expression("small-number (value)") == n.SmallNumberExp(
            n.ValueTra()
        )
        assert parse_transfer_expression("increasing (value)") == n.IncreasingExp(
            n.ValueTra()
        )

    def test_quantifiers(self):
        assert parse_transfer_expression("all-list true ee") == n.AllListExp(
            n.TraBoolLit(True)
        )
        assert parse_transfer_expression("all-array (value < 10) ee") == n.AllArrayExp(
            n.TraLessExp(n.ValueTra(), n.TraNumLit(Number.from_int(10)))
        )

    def test_price_vat_yoke(self):
        restored = parse_transfer_expression("record.price + record.vat < 1000")
        assert restored == n.TraLessExp(
            n.TraAddExp(n.RecordAtTra("price"), n.RecordAtTra("vat")),
            n.TraNumLit(Number.from_int(1000)),
        )

    def test_selection_aliases(self):
        assert parse_transfer_expression("array.[value + 1]") == n.ArrayAtTra(
            n.TraAddExp(n.ValueTra(), n.TraNumLit(Number.from_int(1)))
        )
        assert parse_transfer_expression("get-from-array 3 ee") == n.ArrayAtTra(
            n.TraNumLit(Number.from_int(3))
        )
        assert parse_transfer_expression("get-from-record fa-name ee") == n.RecordAtTra(
            "fa-name"
        )
        assert parse_transfer_expression("record. fa-name") == n.RecordAtTra("fa-name")

    def test_no_multiplication_in_transfers(self):
        # `*` and `-` end a transfer expression, so the operator is left over
        for op in "*-":
            with pytest.raises(LinguaParseError) as exc:
                parse_transfer_expression(f"value {op} 2")
            diag = exc.value.diagnostic
            assert diag.kind == "syntactic"
            assert diag.message == f"unexpected '{op}' after the end of the phrase"
            assert (diag.span.begin, diag.span.end, diag.span.line, diag.span.column) == (6, 7, 1, 7)


# ---------------------------------------------------------------------------
# type expressions


class TestTypeExpressions:
    def test_builtins(self):
        assert parse_type_expression("boolean") == n.BooleanTyp()
        assert parse_type_expression("number") == n.NumberTyp()
        assert parse_type_expression("word") == n.WordTyp()
        assert parse_type_expression("string") == n.WordTyp()
        assert parse_type_expression("money") == n.IdeTyp("money")

    def test_collections(self):
        assert parse_type_expression("list-type word ee") == n.ListTyp(n.WordTyp())
        assert parse_type_expression("array-type number ee") == n.ArrayTyp(n.NumberTyp())
        assert parse_type_expression("array-of number ee") == n.ArrayTyp(n.NumberTyp())

    def test_single_attribute_record(self):
        assert parse_type_expression("record-type a as number ee") == n.RecordTyp(
            "a", n.NumberTyp()
        )

    def test_expand_and_replace(self):
        assert parse_type_expression(
            "expand-record-type record-type a as number ee at b by word ee"
        ) == n.ExpandRecordTyp(n.RecordTyp("a", n.NumberTyp()), "b", n.WordTyp())
        assert parse_type_expression(
            "replace-transfer-in number by (value < 10) ee"
        ) == n.ReplaceTransferTyp(
            n.NumberTyp(),
            n.TraLessExp(n.ValueTra(), n.TraNumLit(Number.from_int(10))),
        )

    def test_multi_attribute_record_folds(self):
        restored = parse_type_expression(
            "record-type ch-name as word, fa-name as word, birth-year as number ee"
        )
        assert restored == n.ExpandRecordTyp(
            n.ExpandRecordTyp(n.RecordTyp("ch-name", n.WordTyp()), "fa-name", n.WordTyp()),
            "birth-year",
            n.NumberTyp(),
        )

    def test_record_with_clause_folds_to_replace_transfer(self):
        restored = parse_type_expression(
            "record-type birth-date as number with small-number, "
            "fa-name as string ee"
        )
        assert restored == n.ReplaceTransferTyp(
            n.ExpandRecordTyp(
                n.RecordTyp("birth-date", n.NumberTyp()), "fa-name", n.WordTyp()
            ),
            n.SmallNumberExp(n.RecordAtTra("birth-date")),
        )

    def test_record_with_full_transfer_rebases_value(self):
        restored = parse_type_expression(
            "record-type price as number with (value < 1000) ee"
        )
        assert restored == n.ReplaceTransferTyp(
            n.RecordTyp("price", n.NumberTyp()),
            n.TraLessExp(n.RecordAtTra("price"), n.TraNumLit(Number.from_int(1000))),
        )

    def test_two_with_clauses_combine_with_and(self):
        restored = parse_type_expression(
            "record-type a as number with small-number, b as number with (value < 5) ee"
        )
        assert restored == n.ReplaceTransferTyp(
            n.ExpandRecordTyp(n.RecordTyp("a", n.NumberTyp()), "b", n.NumberTyp()),
            n.TraAndExp(
                n.SmallNumberExp(n.RecordAtTra("a")),
                n.TraLessExp(n.RecordAtTra("b"), n.TraNumLit(Number.from_int(5))),
            ),
        )

    def test_set_type_with_and_without_yoke(self):
        assert parse_type_expression("set-type number with (value < 9) ee") == (
            n.ReplaceTransferTyp(
                n.NumberTyp(),
                n.TraLessExp(n.ValueTra(), n.TraNumLit(Number.from_int(9))),
            )
        )
        assert parse_type_expression("set-type array-of number ee ee") == (
            n.ReplaceTransferTyp(n.ArrayTyp(n.NumberTyp()), n.TraBoolLit(True))
        )

    def test_record_of_alias(self):
        assert parse_type_expression("record-of a as number ee") == n.RecordTyp(
            "a", n.NumberTyp()
        )


# ---------------------------------------------------------------------------
# instructions, declarations, programs


class TestPrograms:
    def test_minimal_program(self):
        assert parse_program("begin-program skip end-program") == n.Program(
            None, n.SkipIns()
        )

    def test_program_with_preamble(self):
        prg = parse_program("begin-program let x be number tel ; x := 1 end-program")
        assert prg == n.Program(
            n.VarDec("x", n.NumberTyp()), n.AssignIns("x", lit(1))
        )

    def test_sequences_are_flat(self):
        prg = parse_program("begin-program x := 1 ; y := 2 ; z := 3 end-program")
        assert prg.ins == n.SeqIns(
            (n.AssignIns("x", lit(1)), n.AssignIns("y", lit(2)), n.AssignIns("z", lit(3)))
        )

    def test_adjacent_var_decs_group(self):
        prg = parse_program(
            "begin-program let x be number tel ; let y be word tel ; skip end-program"
        )
        assert prg.pam == n.VarDecSeq(
            (n.VarDec("x", n.NumberTyp()), n.VarDec("y", n.WordTyp()))
        )

    def test_mixed_preamble_blocks(self):
        prg = parse_program(
            "begin-program set t as number tes ; let x be t tel ; skip end-program"
        )
        assert prg.pam == n.PreSeq(
            (n.TypDef("t", n.NumberTyp()), n.VarDec("x", n.IdeTyp("t")))
        )

    def test_preamble_skip_stays_in_preamble(self):
        prg = parse_program(
            "begin-program skip ; let x be number tel ; x := 1 end-program"
        )
        assert prg.pam == n.PreSeq((n.SkipIns(), n.VarDec("x", n.NumberTyp())))
        assert prg.ins == n.AssignIns("x", lit(1))

    def test_skip_only_items_are_the_instruction(self):
        prg = parse_program("begin-program skip ; skip end-program")
        assert prg == n.Program(None, n.SeqIns((n.SkipIns(), n.SkipIns())))

    def test_instructions(self):
        assert parse_instruction("skip") == n.SkipIns()
        assert parse_instruction("x := 1") == n.AssignIns("x", lit(1))
        assert parse_instruction("yoke x := true") == n.YokeIns("x", n.TraBoolLit(True))
        assert parse_instruction("call p (ref a val b)") == n.CallIns(
            "p", ("a",), ("b",)
        )
        assert parse_instruction(
            "call p (ref empty-ap val empty-ap)"
        ) == n.CallIns("p", (), ())
        assert parse_instruction("if true then skip else x := 1 fi") == n.IfIns(
            n.BoolLit(True), n.SkipIns(), n.AssignIns("x", lit(1))
        )
        assert parse_instruction("if-error 'overflow' then skip fi") == n.IfErrorIns(
            n.WordLit("overflow"), n.SkipIns()
        )
        assert parse_instruction("while false do skip od") == n.WhileIns(
            n.BoolLit(False), n.SkipIns()
        )

    def test_branch_bodies_may_be_sequences(self):
        ins = parse_instruction("if true then x := 1 ; y := 2 else skip fi")
        assert ins.ins1 == n.SeqIns((n.AssignIns("x", lit(1)), n.AssignIns("y", lit(2))))

    def test_imp_proc_dec(self):
        prg = parse_program(
            "begin-program "
            "proc p (val a as number ref b as word) begin-program skip end-program end proc ; "
            "skip end-program"
        )
        dec = prg.pam
        assert dec == n.ImpProcDec(
            "p",
            (n.FormalParam("a", n.NumberTyp()),),
            (n.FormalParam("b", n.WordTyp()),),
            n.Program(None, n.SkipIns()),
        )

    def test_grouped_formal_parameters_expand(self):
        prg = parse_program(
            "begin-program "
            "proc p (val w, z as number ref empty-fp) begin-program skip end-program end proc ; "
            "skip end-program"
        )
        assert prg.pam.val_params == (
            n.FormalParam("w", n.NumberTyp()),
            n.FormalParam("z", n.NumberTyp()),
        )

    def test_fun_proc_both_forms(self):
        expr_form = parse_program(
            "begin-program fun f (n as number) (n + 1) endfun ; skip end-program"
        ).pam
        assert expr_form == n.FunProcDec(
            "f",
            (n.FormalParam("n", n.NumberTyp()),),
            None,
            n.AddExp(n.IdeExp("n"), lit(1)),
            None,
        )
        program_form = parse_program(
            "begin-program fun g (n as number) begin-program skip end-program "
            "return n as number end fun ; skip end-program"
        ).pam
        assert program_form.prg == n.Program(None, n.SkipIns())
        assert program_form.tex == n.NumberTyp()

    def test_and_fun_accepted_as_end_fun(self):
        program_form = parse_program(
            "begin-program fun g (n as number) begin-program skip end-program "
            "return n as number and fun ; skip end-program"
        ).pam
        assert program_form.tex == n.NumberTyp()

    def test_multiproc(self):
        prg = parse_program(
            "begin-program begin multiproc "
            "proc a (val empty-fp ref empty-fp) begin-program skip end-program end proc "
            "proc b (val empty-fp ref empty-fp) begin-program skip end-program end proc "
            "end multiproc ; skip end-program"
        )
        assert isinstance(prg.pam, n.MultiProcDec)
        assert tuple(d.ide for d in prg.pam.decs) == ("a", "b")

    def test_multiproc_with_semicolons(self):
        prg = parse_program(
            "begin-program begin multiproc "
            "proc a (val empty-fp ref empty-fp) begin-program skip end-program end proc ; "
            "proc b (val empty-fp ref empty-fp) begin-program skip end-program end proc "
            "end multiproc ; skip end-program"
        )
        assert tuple(d.ide for d in prg.pam.decs) == ("a", "b")


# ---------------------------------------------------------------------------
# diagnostics


class TestDiagnostics:
    def test_keyword_as_identifier(self):
        with pytest.raises(LinguaParseError) as exc:
            parse_program("begin-program let if be number tel ; skip end-program")
        assert exc.value.diagnostic.kind == "keyword-misuse"
        assert "if" in exc.value.diagnostic.message

    def test_unbalanced_fi(self):
        with pytest.raises(LinguaParseError) as exc:
            parse_program("begin-program if true then skip else skip end-program")
        assert exc.value.diagnostic.kind == "syntactic"

    def test_declaration_after_instruction(self):
        with pytest.raises(LinguaParseError) as exc:
            parse_program(
                "begin-program x := 1 ; let y be number tel ; skip end-program"
            )
        assert "declarations" in exc.value.diagnostic.message

    def test_program_needs_instruction(self):
        with pytest.raises(LinguaParseError):
            parse_program("begin-program let x be number tel end-program")

    def test_spans_present(self):
        with pytest.raises(LinguaParseError) as exc:
            parse_program("begin-program x := end-program")
        assert exc.value.diagnostic.span.line == 1

    # Procedure declarations, calls, literals and parentheses, each at the
    # first token that does not fit: (kind, message, line, column).
    BODY = "begin-program skip end-program"

    @pytest.mark.parametrize(
        "parse, text, kind, message, line, column",
        [
            (
                parse_program,
                f"begin-program proc p (a as number ref empty-fp) {BODY} end proc ; skip end-program",
                "syntactic", "expected 'val', found 'a'", 1, 23,
            ),
            (
                parse_program,
                f"begin-program proc p (val a as number) {BODY} end proc ; skip end-program",
                "syntactic", "expected 'ref', found ')'", 1, 38,
            ),
            (
                parse_program,
                f"begin-program proc p (val skip as number ref empty-fp) {BODY} end proc ; skip end-program",
                "keyword-misuse", "keyword 'skip' cannot be used as an identifier", 1, 27,
            ),
            (
                parse_program,
                f"begin-program proc p (val a ref empty-fp) {BODY} end proc ; skip end-program",
                "syntactic", "expected 'as' with a type in the formal parameter list", 1, 29,
            ),
            (
                parse_program,
                f"begin-program\nproc p (val empty-fp ref empty-fp)\n  {BODY}\nend ; skip end-program",
                "syntactic", "expected 'proc', found ';'", 4, 5,
            ),
            (
                parse_program,
                "begin-program begin multiproc end multiproc ; skip end-program",
                "syntactic", "expected 'proc', found 'end'", 1, 31,
            ),
            (parse_instruction, "call p (val a)", "syntactic", "expected 'ref', found 'val'", 1, 9),
            (
                parse_instruction, "call p (ref skip val a)",
                "keyword-misuse", "keyword 'skip' cannot be used as an identifier", 1, 13,
            ),
            (
                parse_instruction, "call p (ref a val b",
                "syntactic", "expected ')', found end of input", 1, 20,
            ),
            (
                parse_transfer_expression, "value < -1",
                "syntactic", "expected a transfer expression, found '-'", 1, 9,
            ),
            (
                parse_transfer_expression, "array x",
                "syntactic", "expected '[' after 'array' in a transfer expression", 1, 7,
            ),
            (parse_data_expression, "(1 + 2", "syntactic", "expected ')', found end of input", 1, 7),
            (
                parse_transfer_expression, "(value + 1",
                "syntactic", "expected ')', found end of input", 1, 11,
            ),
            (
                parse_type_expression, "set-type number with (value < 1 ee",
                "syntactic", "expected ')', found 'ee'", 1, 33,
            ),
            (parse_instruction, "x := (1 + 2", "syntactic", "expected ')', found end of input", 1, 12),
            # selectors, calls, assignments, operators and `;` runs
            (parse_instruction, "x := 1 .", "syntactic", "expected '[' or '(' after '.'", 1, 8),
            (
                parse_instruction, "x := a.(",
                "syntactic", "expected an identifier, found end of input", 1, 9,
            ),
            (parse_instruction, "x := a . [1", "syntactic", "expected ']', found end of input", 1, 12),
            (
                parse_instruction, "x := f(a,",
                "syntactic", "expected an identifier, found end of input", 1, 10,
            ),
            (parse_instruction, "x 1", "syntactic", "expected ':=', found '1'", 1, 3),
            (
                parse_instruction, "x := 1 +",
                "syntactic", "expected a data expression, found end of input", 1, 9,
            ),
            (parse_data_expression, "-x", "syntactic", "expected a data expression, found '-'", 1, 1),
            (
                parse_transfer_expression, "value + 1 .",
                "syntactic", "unexpected '.' after the end of the phrase", 1, 11,
            ),
            (
                parse_program, "begin-program x := 1 ; end-program",
                "syntactic", "expected an instruction, found 'end-program'", 1, 24,
            ),
            (
                parse_program, "begin-program x := 1 ; y end-program",
                "syntactic", "expected ':=', found 'end-program'", 1, 26,
            ),
            (
                parse_program, "begin-program x := 1 x := 2 end-program",
                "syntactic", "expected 'end-program', found 'x'", 1, 22,
            ),
        ],
        ids=[
            "proc-without-val", "proc-without-ref", "proc-keyword-formal",
            "proc-formal-without-as", "proc-unclosed", "multiproc-without-member",
            "call-val-first", "call-keyword-actual", "call-unclosed",
            "transfer-negative-numeral", "transfer-array-without-bracket",
            "data-unclosed-parenthesis", "transfer-unclosed-parenthesis",
            "type-unclosed-parenthesis", "instruction-unclosed-parenthesis",
            "selector-dot-alone", "record-selector-unclosed", "array-selector-unclosed",
            "call-unclosed-actuals", "assignment-without-becomes", "operator-without-operand",
            "data-negative-name", "transfer-trailing-dot", "program-empty-item",
            "program-name-alone", "program-missing-semicolon",
        ],
    )
    def test_pinned_diagnostic(self, parse, text, kind, message, line, column):
        with pytest.raises(LinguaParseError) as exc:
            parse(text)
        diag = exc.value.diagnostic
        assert (diag.kind, diag.message, diag.span.line, diag.span.column) == (
            kind, message, line, column,
        )

    DEPTH = max(600, sys.getrecursionlimit())
    NESTED = "(" * DEPTH + "1" + ")" * DEPTH
    DEEP_PROGRAM = f"begin-program let x be number tel ; x := {NESTED} end-program"

    @pytest.mark.parametrize(
        "entry, text",
        [
            (parse_program, DEEP_PROGRAM),
            (run_source, DEEP_PROGRAM),
            (parse_any, NESTED),
            (parse_data_expression, NESTED),
        ],
        ids=["parse_program", "run_source", "parse_any", "parse_data_expression"],
    )
    def test_nesting_too_deep_is_a_diagnostic(self, entry, text):
        with pytest.raises(LinguaParseError) as exc:
            entry(text)
        diag = exc.value.diagnostic
        assert diag.kind == "too-deep"
        # at a token inside the nest, where the parser ran out of room
        assert diag.span.line == 1
        assert text.index("(") < diag.span.begin < text.index("1")
        assert text[diag.span.begin] == "("


class TestNestingDepth:
    """How deep expressions nest at the host's default recursion limit.

    Each level of nesting costs the parser, the compiler and the compiled
    code a fixed number of Python frames; one frame more per level on the
    path a case takes fails that case.  An entry point sets the limit to
    `semantics.RECURSION_LIMIT` while it compiles and runs, so that is
    pinned at the default too, and the compiler and the compiled code are
    held to the same budget as the parser.
    """

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self, monkeypatch):
        monkeypatch.setattr(semantics, "RECURSION_LIMIT", 1000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(limit)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(" * 300 + "1" + ")" * 300, num(1)),
            ("(1 + " * 225 + "1" + ")" * 225, num(226)),
            ("not " * 900 + "true", True),
        ],
        ids=["parentheses", "sums", "negations"],
    )
    def test_data_expression(self, text, expected):
        assert eval_source_expression(text).dat == expected

    def test_transfer_expression(self):
        tre = parse_transfer_expression("(value + " * 225 + "value" + ")" * 225)
        for _ in range(225):
            assert isinstance(tre, n.TraAddExp) and tre.tre1 == n.ValueTra()
            tre = tre.tre2
        assert tre == n.ValueTra()

    # Keyword phrases nest as deeply as at a parser with one hand-written
    # branch per phrase: under pytest that parser reaches 237 data, 316
    # transfer, 952 type and 474 instruction levels.
    @pytest.mark.parametrize(
        "parse, opening, leaf, closing, depth, cls, field",
        [
            (parse_data_expression, "list ", "1", " ee", 225, n.ListExp, "dae"),
            (parse_data_expression, "top (", "l", ")", 225, n.TopExp, "dae"),
            (parse_data_expression, "push 1 on ", "l", " ee", 225, n.PushExp, "dae2"),
            (parse_data_expression, "if true then 1 else ", "2", " fi", 225, n.CondExp, "dae3"),
            (parse_transfer_expression, "sum (", "value", ")", 300, n.SumExp, "tre"),
            (parse_transfer_expression, "all-list ", "value", " ee", 300, n.AllListExp, "tre"),
            (parse_type_expression, "list-type ", "number", " ee", 900, n.ListTyp, "tex"),
            (parse_instruction, "while true do ", "skip", " od", 450, n.WhileIns, "ins"),
            (parse_instruction, "if true then ", "skip", " else skip fi", 450, n.IfIns, "ins1"),
            # the atom reader and the call row: under pytest, two atom readers
            # and a hand-written call reach 317, 317 and 475 levels
            (parse_transfer_expression, "array[", "value", "]", 300, n.ArrayAtTra, "tre"),
            (parse_data_expression, "array [ ", "1", " ]", 300, n.ArrayExp, "dae"),
            (parse_instruction, "while true do ", "call p (ref a val b)", " od", 450, n.WhileIns, "ins"),
            # the selector loop, which nests as deeply as parentheses
            (parse_data_expression, "a.[", "1", "]", 300, n.ArrAtExp, "dae2"),
        ],
        ids=[
            "list", "top", "push", "data-if", "sum", "all-list", "list-type", "while", "if",
            "transfer-array-selector", "data-array-literal", "while-around-call",
            "data-array-selector",
        ],
    )
    def test_keyword_phrase(self, parse, opening, leaf, closing, depth, cls, field):
        node = parse(opening * depth + leaf + closing * depth)
        for _ in range(depth):
            assert isinstance(node, cls)
            node = getattr(node, field)
        assert not isinstance(node, cls)

    # An array literal is a left-nested `add-to-arr` spine as long as the
    # literal, which compiles and runs as one loop at constant depth.
    def test_a_long_array_literal(self):
        text = "array [" + ", ".join(str(k) for k in range(5_000)) + "]"
        assert eval_source_expression(text).dat.items == tuple(num(k) for k in range(5_000))

    def test_an_array_literal_costs_calls_linear_in_its_length(self):
        """The Python calls of compiling and running a literal of n, 2n and
        4n elements, counted under `sys.setprofile` as `tests/call_counts.py`
        counts them, at most 2.1 times as many per doubling."""
        counts = []
        for length in (1_000, 2_000, 4_000):
            dae = parse_data_expression("array [" + ", ".join(str(k) for k in range(length)) + "]")
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            sys.setprofile(profile)
            try:
                semantics.Evaluator().eval_data_exp(dae, empty_state())
            finally:
                sys.setprofile(None)
            counts.append(calls)
        assert counts[1] <= 2.1 * counts[0] and counts[2] <= 2.1 * counts[1], counts

    def test_procedure_declaration(self):
        # under pytest a hand-written declaration reader reaches 237 levels
        text = "begin-program skip end-program"
        for _ in range(225):
            text = f"begin-program proc p (val empty-fp ref empty-fp) {text} end proc ; skip end-program"
        prg = parse_program(text)
        for _ in range(225):
            assert isinstance(prg.pam, n.ImpProcDec)
            prg = prg.pam.prg
        assert prg.pam is None


# ---------------------------------------------------------------------------
# parse_any cascade


class TestParseAny:
    def test_program(self):
        kind, _ = parse_any("begin-program skip end-program")
        assert kind == "program"

    def test_data(self):
        kind, node = parse_any("x + y * z")
        assert kind == "data"
        assert print_concrete(node) == "(x + (y * z))"

    def test_instruction(self):
        kind, _ = parse_any("x := 3")
        assert kind == "instruction"

    def test_declarations(self):
        kind, node = parse_any("let x be number tel ; let y be word tel")
        assert kind == "preamble"
        assert isinstance(node, n.VarDecSeq)

    def test_transfer(self):
        kind, _ = parse_any("record.price")
        assert kind == "transfer"

    def test_type(self):
        kind, _ = parse_any("number")
        assert kind == "type"

    def test_mixed_fragment_rejected(self):
        with pytest.raises(LinguaParseError):
            parse_any("let x be number tel ; x := 1")

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("begin-program x := 1 end-program", "program"),
            ("x + y * z", "data"),
            # fails as data, item sequence and transfer before it parses
            ("list-type number ee", "type"),
        ],
    )
    def test_tokenizes_once(self, monkeypatch, text, kind):
        calls = []
        tokenize = parser.tokenize

        def counting(source):
            calls.append(source)
            return tokenize(source)

        monkeypatch.setattr(parser, "tokenize", counting)
        assert parse_any(text)[0] == kind
        assert calls == [text]
