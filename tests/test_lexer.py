from string import ascii_letters, digits

import pytest
from hypothesis import example, given, settings, strategies as st

import lexer_oracle
from lingua.diagnostics import LinguaParseError
from lingua.kernel import Number
from lingua.lexer import KEYWORDS, span, tokenize


def kinds_and_texts(text):
    return [(t.kind, t.text) for t in tokenize(text) if t.kind != "eof"]


def test_whitespace_is_insignificant():
    assert kinds_and_texts("x :=  3") == kinds_and_texts("x := 3")
    assert kinds_and_texts("x\n:=\n3") == kinds_and_texts("x := 3")


def test_keywords_are_classified():
    toks = kinds_and_texts("let if be number tel")
    assert toks == [
        ("keyword", "let"),
        ("keyword", "if"),
        ("keyword", "be"),
        ("keyword", "number"),
        ("keyword", "tel"),
    ]


def test_word_literal():
    toks = tokenize("'Smith'")
    assert toks[0].kind == "word"
    assert toks[0].text == "Smith"


def test_empty_word_literal():
    assert tokenize("''")[0].text == ""


def test_unterminated_word_literal():
    with pytest.raises(LinguaParseError) as exc:
        tokenize("'Smith")
    assert exc.value.diagnostic.kind == "lexical"


def test_illegal_character():
    with pytest.raises(LinguaParseError) as exc:
        tokenize("x := @")
    assert exc.value.diagnostic.kind == "lexical"
    assert "@" in exc.value.diagnostic.message


def test_numbers():
    toks = tokenize("12 0.5 123.45")
    assert toks[0].num == Number.parse("12")
    assert toks[1].num == Number.parse("0.5")
    assert toks[2].num == Number.parse("123.45")


def test_hyphen_joins_letter_segments():
    toks = kinds_and_texts("measurement-data")
    assert toks == [("ident", "measurement-data")]


def test_hyphen_before_digit_is_minus():
    assert kinds_and_texts("y-1") == [
        ("ident", "y"),
        ("punct", "-"),
        ("num", "1"),
    ]


def test_hyphen_between_identifiers_needs_spaces():
    assert kinds_and_texts("x-y") == [("ident", "x-y")]
    assert kinds_and_texts("x - y") == [
        ("ident", "x"),
        ("punct", "-"),
        ("ident", "y"),
    ]


def test_hyphenated_keywords():
    assert kinds_and_texts("begin-program if-error add-to-arr empty-ap") == [
        ("keyword", "begin-program"),
        ("keyword", "if-error"),
        ("keyword", "add-to-arr"),
        ("keyword", "empty-ap"),
    ]


def test_two_character_punct():
    assert kinds_and_texts("x := 1") == [
        ("ident", "x"),
        ("punct", ":="),
        ("num", "1"),
    ]
    assert kinds_and_texts("s <= x") == [
        ("ident", "s"),
        ("punct", "<="),
        ("ident", "x"),
    ]


def test_selector_punctuation():
    assert kinds_and_texts("a.[x]") == [
        ("ident", "a"),
        ("punct", "."),
        ("punct", "["),
        ("ident", "x"),
        ("punct", "]"),
    ]


def test_spans_track_lines():
    text = "x :=\n 1"
    first, _, last, _ = (span(text, i) for i in range(len(tokenize(text))))
    assert first.line == 1 and first.column == 1
    assert last.line == 2 and last.column == 2


def test_lone_colon_is_lexical_error():
    with pytest.raises(LinguaParseError):
        tokenize("x : 1")


@pytest.mark.parametrize(
    "text, char, column",
    [("x := \u00b2", "\u00b2", 6), ("x := \u0663", "\u0663", 6), ("x := 12\u00b3", "\u00b3", 8)],
)
def test_non_ascii_digit_is_illegal(text, char, column):
    # Numerals are ASCII; any other digit is an illegal character.
    with pytest.raises(LinguaParseError) as exc:
        tokenize(text)
    diag = exc.value.diagnostic
    assert diag.kind == "lexical"
    assert diag.message == f"illegal character {char!r}"
    assert (diag.span.line, diag.span.column) == (1, column)
    assert (diag.span.begin, diag.span.end) == (column - 1, column)


def test_positions_count_code_points_and_only_newline_ends_a_line():
    text = "'a\nb' x\r\n\u2028 y"
    spans = [(t.text, span(text, i)) for i, t in enumerate(tokenize(text))]
    assert [(word, s.line, s.column) for word, s in spans] == [
        ("a\nb", 1, 1),
        ("x", 2, 4),
        ("y", 3, 3),
        ("", 3, 4),
    ]


def test_each_distinct_lexeme_is_one_token():
    # 1,300 lines with every token kind, names, numerals and words repeating
    body = [
        f"v{i % 40} := (v{i % 7} + {i % 13}.5) * a.[{i % 4}] ; w := 'w{i % 5}' glue w ;"
        for i in range(1_298)
    ]
    text = "\n".join(["begin-program", *body, "skip end-program"]) + "\n"
    assert text.count("\n") == 1_300
    tokens = tokenize(text)
    oracle = lexer_oracle.tokenize(text)
    assert len(tokens) == len(oracle)
    by_lexeme = {}
    for token, expected in zip(tokens, oracle):
        assert (token.kind, token.text, token.num) == (expected.kind, expected.text, expected.num)
        lexeme = text[expected.span.begin : expected.span.end]
        assert by_lexeme.setdefault(lexeme, token) is token
    assert len({id(token) for token in tokens}) == len(by_lexeme)
    assert {token.kind for token in tokens} == {"keyword", "ident", "num", "word", "punct", "eof"}


def test_keywords_are_shared_across_texts_and_names_are_not():
    # A name's token lives with its text's list, so a long-lived caller (the
    # REPL) holds no table that grows with what it reads.
    first, second = tokenize("skip ; fresh"), tokenize("fresh ; skip")
    assert first[0] is second[2] and first[1] is second[1] and first[3] is second[3]
    assert first[2] == second[0] and first[2] is not second[0]


# ---------------------------------------------------------------------------
# differential test against the character-at-a-time tokenizer

# Non-ASCII digits stay out: the oracle mistakes them for numerals.  A
# piece listed twice is drawn more often.
_PIECES = st.one_of(
    st.sampled_from(list(ascii_letters)),
    st.sampled_from(list(digits) + [".", "0.5"]),
    st.sampled_from(list("()[],;.+-*/<=") + [":=", "<=", "'", "'", "-", "."]),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from([" ", " ", "\n", "\r\n", "\t", "\u00a0", "\u2028"]),
    st.sampled_from(["\u00e9", "@", ":", "'"]),
)


def _lexer_tokens(text):
    return [(t.kind, t.text, t.num, span(text, i)) for i, t in enumerate(tokenize(text))]


def _oracle_tokens(text):
    return [(t.kind, t.text, t.num, t.span) for t in lexer_oracle.tokenize(text)]


def _outcome(tokens, text):
    try:
        return tokens(text)
    except LinguaParseError as exc:
        diag = exc.diagnostic
        return diag.kind, diag.message, diag.span


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
@example("")
@example("x :=\n  'two\nlines' ;\n y")
@example("1. 1.5.2 x-1 x-y a- a-b-c 007")
@example("x := 'unterminated\nline")
@example("\u2028x\r\ny\n\n")
def test_tokenize_matches_the_oracle(text):
    assert _outcome(_lexer_tokens, text) == _outcome(_oracle_tokens, text)
