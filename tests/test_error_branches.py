"""Error branches of the evaluator and the parser that no other test
reaches.  Each row is a program and what it ends in: the word its run
leaves in the register, or the diagnostic its parse raises.
"""

import pytest

from lingua.diagnostics import LinguaParseError
from lingua.kernel import (
    NUMBER,
    TRUE_COMPOSITE,
    ArrayBody,
    ArrayData,
    Composite,
    LangType,
    Transfer,
    Value,
    num,
)
from lingua.parser import parse_program
from lingua.semantics import run_program
from lingua.state import bind_variable, empty_state, register_word

# `a` holds the array [1] of numbers
ARRAY = "let a be array-type number ee tel ; a := array 1 ee ; "

# `a` holds [1] under a hand-built transfer whose verdict is true on an
# array of one element and the number 0 on a longer one
ONE_ELEMENT = Transfer(
    "one-element",
    lambda com: TRUE_COMPOSITE if len(com.dat.items) == 1 else Composite(num(0), NUMBER),
)
HELD = bind_variable(
    empty_state(), "a", Value(ArrayData((num(1),)), LangType(ArrayBody(NUMBER), ONE_ELEMENT))
)


def outcome(text, sta):
    """The register word of running `text` from `sta`, or its diagnostic
    as `line:column: kind: message`."""
    try:
        prg = parse_program(text)
    except LinguaParseError as exc:
        diag = exc.diagnostic
        return f"{diag.span.line}:{diag.span.column}: {diag.kind}: {diag.message}"
    return register_word(run_program(prg, sta))


@pytest.mark.parametrize(
    "body, sta, expected",
    [
        # an element write to an undeclared variable
        ("a := add-to-arr a new 1 ee", None, "identifier-not-declared"),
        # an element write whose element errs
        (ARRAY + "a := add-to-arr a new (1 / 0) ee", None, "division-by-zero"),
        # an element write whose element has another body
        (ARRAY + "a := add-to-arr a new 'w' ee", None, "no-coherence"),
        # an element write under `all-list` with a verdict that is no truth value
        (
            "let a be list-type number ee tel ; a := pop (list 1 ee) ; "
            "yoke a := all-list 5 ee ; a := push 1 on a ee",
            None,
            "a-yoke-expected",
        ),
        # an element write whose whole-value verdict is a number
        ("a := add-to-arr a new 2 ee", HELD, "a-yoke-expected"),
        ("let x be number tel ; x := remove-attr a from 5 ee", None, "record-expected"),
        ("let x be number tel ; x := change-rec 5 at a by 1 ee", None, "record-expected"),
        # a record type expanded by an undefined type
        (
            "let r be expand-record-type record-type a as number ee at b by nothing ee tel ; skip",
            None,
            "type-not-defined",
        ),
        # a function whose result errs
        (
            "fun f (x as number) (x / 0) endfun ; let y be number tel ; y := 1 ; y := f(y)",
            None,
            "division-by-zero",
        ),
        # a function whose return type is undefined
        (
            "fun f (x as number) begin-program skip end-program return x as nothing end fun ; "
            "let y be number tel ; y := 1 ; y := f(y)",
            None,
            "type-not-defined",
        ),
        (
            "if true then let x be number tel else skip fi",
            None,
            "1:28: syntactic: declarations must precede the instructions of a program",
        ),
        (
            "fun f (x as number) begin-program skip end-program return x as number endfun ; skip",
            None,
            "1:85: syntactic: expected 'end fun' to close the function declaration",
        ),
    ],
    ids=[
        "element-write-undeclared",
        "element-write-element-errs",
        "element-write-wrong-body",
        "element-write-all-list-non-boolean",
        "element-write-non-boolean-verdict",
        "remove-attr-from-a-number",
        "change-rec-of-a-number",
        "expanded-by-undefined-type",
        "function-result-errs",
        "function-return-type-errs",
        "declaration-in-a-branch",
        "function-without-end-fun",
    ],
)
def test_error_branch(body, sta, expected):
    assert outcome(f"begin-program {body} end-program", sta) == expected
