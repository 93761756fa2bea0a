"""Print/parse round trips and dump determinism."""

import json

import pytest

from astgen import AstGen
from lingua import nodes as n
from lingua.kernel import num
from lingua.parser import (
    parse_any,
    parse_data_expression,
    parse_instruction,
    parse_program,
    parse_transfer_expression,
    parse_type_expression,
)
from lingua.printer import ast_dump, print_concrete

PARSERS = {
    "data": parse_data_expression,
    "transfer": parse_transfer_expression,
    "type": parse_type_expression,
    "instruction": parse_instruction,
    "program": parse_program,
}


@pytest.mark.parametrize(
    "text",
    [
        "(1 + 1)",
        "(x + (y * z))",
        "((a glue b) glue c)",
        "begin-program skip end-program",
        "begin-program let x be number tel ; x := (x + 1) end-program",
        "if true then 1 else 2 fi",
        "arr arr measurement-data at (x + 1) ee at (y - 1) ee",
        "add-to-arr add-to-arr array x ee new (x + y) ee new (3 * y) ee",
    ],
)
def test_concrete_text_is_a_fixpoint(text):
    kind, node = ("program", parse_program(text)) if text.startswith(
        "begin-program"
    ) else ("data", parse_data_expression(text))
    assert print_concrete(node) == text
    assert PARSERS[kind](print_concrete(node)) == node


def test_restored_array_literal_prints_concretely():
    node = parse_data_expression("array [1, 2]")
    assert print_concrete(node) == "add-to-arr array 1 ee new 2 ee"


def test_random_roundtrip_sample():
    gen = AstGen(seed=20240901)
    for _ in range(150):
        kind, ast = gen.any_sort(depth=3)
        text = print_concrete(ast)
        reparsed = PARSERS[kind](text)
        assert reparsed == ast, f"round-trip failed for {kind}: {text}"


def test_restore_idempotent_on_random_sample():
    gen = AstGen(seed=7)
    for _ in range(60):
        kind, ast = gen.any_sort(depth=3)
        once = print_concrete(PARSERS[kind](print_concrete(ast)))
        twice = print_concrete(PARSERS[kind](once))
        assert once == twice


def test_glue_association_is_canonicalized():
    left = parse_data_expression("a glue b glue c")
    assert left == n.GlueExp(n.GlueExp(n.IdeExp("a"), n.IdeExp("b")), n.IdeExp("c"))
    # printing keeps the association explicit, so both shapes round-trip
    right = n.GlueExp(n.IdeExp("a"), n.GlueExp(n.IdeExp("b"), n.IdeExp("c")))
    assert parse_data_expression(print_concrete(right)) == right
    assert print_concrete(left) == "((a glue b) glue c)"


def test_dump_sexpr_and_json_are_deterministic():
    node = parse_program("begin-program x := 1 end-program")
    assert ast_dump(node, "sexpr") == ast_dump(node, "sexpr")
    assert ast_dump(node, "json") == ast_dump(node, "json")
    assert ast_dump(n.SkipIns(), "sexpr") == "(skip)"


@pytest.mark.parametrize(
    "text, dump",
    [
        (
            "if true then 'a b' else f(empty-ap) fi",
            '(cond-exp (bool-lit true) (word-lit "a b") (fun-call-exp f ()))',
        ),
        (
            "begin-program fun f (x as number) (x * 2.5) endfun ; "
            "call p (ref empty-ap val x, y) end-program",
            "(program (fun-proc-dec f ((formal-param x (number-typ))) () "
            "(mul-exp (ide-exp x) (num-lit 2.5)) ()) (call p () (x y)))",
        ),
    ],
)
def test_dump_sexpr_golden(text, dump):
    assert ast_dump(parse_any(text)[1], "sexpr") == dump


def test_json_dump_is_laid_out_as_json_dumps():
    gen = AstGen(seed=11)
    for _ in range(150):
        _, ast = gen.any_sort(depth=3)
        out = ast_dump(ast, "json")
        assert json.dumps(json.loads(out), indent=2) == out


def test_dump_stable_under_whitespace():
    a = parse_program("begin-program x := 1 end-program")
    b = parse_program("begin-program   x :=\n 1 end-program")
    assert ast_dump(a, "json") == ast_dump(b, "json")


def test_dump_rejects_unknown_format():
    with pytest.raises(ValueError):
        ast_dump(n.SkipIns(), "yaml")


@pytest.mark.parametrize(
    "tree",
    [
        None,
        "x",
        (n.SkipIns(),),
        n.DatExp(),
        n.AssignIns("x", None),
        n.AddExp(n.NumLit(num(1)), "x"),
        n.SeqIns((n.SkipIns(), 1)),
        n.Program(n.VarDec("x", n.NumberTyp()), (n.SkipIns(),)),
        n.VarDec(None, n.NumberTyp()),
    ],
    ids=["none", "word", "tuple", "abstract-node", "none-field", "word-field",
         "int-item", "tuple-field", "none-identifier"],
)
def test_print_concrete_rejects_what_is_not_a_node(tree):
    # An identifier field holds a word; anything else in any field is
    # rejected, not printed through `str`.
    with pytest.raises(TypeError, match="^cannot print "):
        print_concrete(tree)
