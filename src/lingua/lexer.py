"""Tokenizer.

Whitespace is any character `str.isspace` accepts; it separates tokens
and is otherwise ignored.  Identifiers are ASCII-letter-led segments of
ASCII letters and digits joined by hyphens (`measurement-data`); a hyphen
followed by a digit never continues an identifier, so `y-1` is a
subtraction while `x-y` is one name.  Numerals are ASCII digits with an
optional fraction (`12`, `0.5`); any other digit is an illegal character.
Word literals sit between apostrophes and may span lines.  Keywords are
classified here; using one where an identifier is required is reported by
the parser as keyword-misuse.

A token is the tuple (kind, text, num), where num is a numeral's
`Number`.  A text's distinct lexemes get one token each, which every
occurrence shares; the keywords, the punctuation and eof get theirs once,
at import.  A token's position is its index in the list `tokenize`
returns: `span` finds its offsets, line and column by reading the text
again up to it, when a diagnostic needs them.  Only `\n` ends a line.
"""

from __future__ import annotations

import re
from itertools import islice
from string import ascii_letters, digits
from typing import NamedTuple, Optional

from .diagnostics import LinguaParseError, ParseDiagnostic, SourceSpan
from .kernel import Number

KEYWORDS = frozenset(
    """
    true false and or not glue
    list push on top pop
    array add-to-arr new change-arr at by arr
    record of-value add-attr to rec remove-attr change-rec from
    if then else fi if-error while do od skip call ref val yoke
    let be tel set as tes
    proc end begin multiproc fun return endfun
    empty-ap empty-fp
    boolean number word
    list-type array-type record-type expand-record-type replace-transfer-in
    sum max small-number increasing all-list all-array value with ee
    begin-program end-program
    set-record add-atr record-of expand-record array-of set-type
    all-of-array get-from-array get-from-record string
    """.split()
)

# One match per token: the whitespace before it, then the lexeme, and at
# the end of the text an empty lexeme.  Any other character, and an
# apostrophe that no second one closes, is matched alone by `\S` and
# reported below.
_TOKEN = re.compile(
    r"\s*("
    r"[A-Za-z](?:[A-Za-z0-9]|-[A-Za-z])*"  # identifier or keyword
    r"|[0-9]+(?:\.[0-9]+)?"  # numeral
    r"|'[^']*'"  # word literal
    r"|:=|<="
    r"|\S|\Z)"
)


class Token(NamedTuple):
    kind: str  # keyword | ident | num | word | punct | eof
    text: str
    num: Optional[Number]

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.text in names

    def is_punct(self, *names: str) -> bool:
        return self.kind == "punct" and self.text in names


# The tokens every text shares, by lexeme
_FIXED = {
    **{word: Token("keyword", word, None) for word in KEYWORDS},
    **{mark: Token("punct", mark, None) for mark in (*"()[],;.+-*/<=", ":=", "<=")},
    "": Token("eof", "", None),
}


def span(text: str, index: int) -> SourceSpan:
    """The span of token `index` of `tokenize(text)`, with the line and
    column of its first code point."""
    begin, end = next(islice(_TOKEN.finditer(text), index, None)).span(1)
    line_start = text.rfind("\n", 0, begin) + 1
    return SourceSpan(begin, end, text.count("\n", 0, begin) + 1, begin - line_start + 1)


def _token(lexeme: str, text: str, lexemes: list[str]) -> Token:
    """The token of a lexeme that is not a keyword, punctuation or eof."""
    first = lexeme[0]
    if first in ascii_letters:
        return Token("ident", lexeme, None)
    if first in digits:
        return Token("num", lexeme, Number.parse(lexeme))
    if first == "'" and len(lexeme) > 1:
        return Token("word", lexeme[1:-1], None)
    # the first occurrence is the first lexical error of the text
    where = span(text, lexemes.index(lexeme))
    if lexeme == "'":
        message = "unterminated word literal"
        where = SourceSpan(where.begin, len(text), where.line, where.column)
    else:
        message = f"illegal character {lexeme!r}"
    raise LinguaParseError(ParseDiagnostic(where, message, "lexical"))


def tokenize(text: str) -> list[Token]:
    lexemes = _TOKEN.findall(text)
    if len(lexemes) > 1 and not lexemes[-2]:
        lexemes.pop()  # trailing whitespace leaves an empty match after eof
    # Each distinct lexeme in order of first occurrence, so the first one
    # that is in error is also the first in the text.
    table = dict.fromkeys(lexemes)
    for lexeme in table:
        table[lexeme] = _FIXED.get(lexeme) or _token(lexeme, text, lexemes)
    return list(map(table.__getitem__, lexemes))
