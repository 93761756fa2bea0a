"""Random input for `parse_any`: token soup, and printed trees with a few
token edits.

Whatever the text, parsing ends in a tree or a `LinguaParseError`; a
diagnostic the parser raises points at a token, with its line and column;
and a text that parses restores to a fixpoint that parses back to the
same tree.
"""

from hypothesis import example, given, settings, strategies as st

import lexer_oracle
from astgen import AstGen
from lingua.diagnostics import LinguaParseError
from lingua.lexer import KEYWORDS, span, tokenize
from lingua.parser import parse_any
from lingua.printer import print_concrete

RANDOM = settings(max_examples=1_000, deadline=None, derandomize=True, database=None)

VOCABULARY = (
    sorted(KEYWORDS)
    + list("()[],;.+-*/<=")
    + [":=", "<=", "0", "1", "2.5", "'a b'", "''", "x", "acc", "price"]
)

# (operation, position, word): the position is taken modulo the length
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "replace")),
        st.integers(0, 1_000),
        st.sampled_from(VOCABULARY),
    ),
    max_size=2,
)


def parsed_or_none(text: str):
    try:
        return parse_any(text)
    except LinguaParseError:
        return None


@RANDOM
@given(st.lists(st.sampled_from(VOCABULARY), max_size=40))
def test_token_streams_raise_only_parse_errors(words):
    parsed_or_none(" ".join(words))


# Line breaks, and a word literal that spans lines, move later tokens' lines.
LAYOUT = VOCABULARY + ["\n", "\r\n", " ", "'two\nlines'"]


@RANDOM
@given(st.lists(st.sampled_from(LAYOUT), max_size=40))
@example(
    ["begin-program", "x", ":=", "'two\nlines'"]
    + ["\n", ";", "x", ":=", "1"] * 5_000
    + ["\r\n", ")", "end-program"]
)
def test_diagnostics_carry_their_tokens_line_and_column(words):
    text = " ".join(words)
    try:
        parse_any(text)
    except LinguaParseError as exc:
        diag = exc.diagnostic
        if diag.kind != "lexical":
            tokens = lexer_oracle.tokenize(text)
            [token] = [t for t in tokens if t.span.begin == diag.span.begin]
            assert token.span == diag.span


@RANDOM
@given(st.integers(0, 2**32), EDITS)
def test_edited_printed_trees_restore_to_a_fixpoint(seed, edits):
    _, tree = AstGen(seed).any_sort(depth=3)
    text = print_concrete(tree)
    spans = (span(text, i) for i in range(len(tokenize(text)) - 1))
    lexemes = [text[s.begin : s.end] for s in spans]
    for operation, position, word in edits:
        if operation == "insert":
            lexemes.insert(position % (len(lexemes) + 1), word)
        elif lexemes and operation == "delete":
            del lexemes[position % len(lexemes)]
        elif lexemes:
            lexemes[position % len(lexemes)] = word
    parsed = parsed_or_none(" ".join(lexemes))
    if parsed is None:
        return
    restored = print_concrete(parsed[1])
    assert parse_any(restored) == parsed
    assert print_concrete(parse_any(restored)[1]) == restored
