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

A token is the tuple (kind, text, begin, end, num): its offsets in code
points and, for a numeral, its `Number`.  Line and column are not kept;
`span` computes them from the text when a diagnostic needs them.  Only
`\n` ends a line.
"""

from __future__ import annotations

import re
from string import ascii_letters, digits
from typing import NamedTuple, NoReturn, Optional

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
    r"(\s*)("
    r"[A-Za-z](?:[A-Za-z0-9]|-[A-Za-z])*"  # identifier or keyword
    r"|[0-9]+(?:\.[0-9]+)?"  # numeral
    r"|'[^']*'"  # word literal
    r"|:=|<="
    r"|\S|\Z)"
)

# A lexeme's kind follows from its first character; `:` starts only `:=`.
_KIND = {
    **dict.fromkeys(ascii_letters, "ident"),
    **dict.fromkeys(digits, "num"),
    **dict.fromkeys("()[],;.+-*/<=", "punct"),
    "'": "word",
    "": "eof",
}


class Token(NamedTuple):
    kind: str  # keyword | ident | num | word | punct | eof
    text: str
    begin: int  # offset of the lexeme's first code point
    end: int  # offset just past its last
    num: Optional[Number]

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.text in names

    def is_punct(self, *names: str) -> bool:
        return self.kind == "punct" and self.text in names


def span(text: str, begin: int, end: int) -> SourceSpan:
    """The span of `text[begin:end]`, with the line and column of `begin`."""
    line_start = text.rfind("\n", 0, begin) + 1
    return SourceSpan(begin, end, text.count("\n", 0, begin) + 1, begin - line_start + 1)


def _fail(message: str, text: str, begin: int, end: int) -> NoReturn:
    raise LinguaParseError(ParseDiagnostic(span(text, begin, end), message, "lexical"))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append, new, kinds = tokens.append, tuple.__new__, _KIND
    numbers: dict[str, Number] = {}  # numerals repeat; `Number` is frozen
    pos = 0
    for space, lexeme in _TOKEN.findall(text):
        begin = pos + len(space)
        pos = begin + len(lexeme)
        kind = kinds.get(lexeme[:1])
        if kind == "ident":
            kind = "keyword" if lexeme in KEYWORDS else "ident"
            append(new(Token, (kind, lexeme, begin, pos, None)))
        elif kind == "punct" or lexeme == ":=":
            append(new(Token, ("punct", lexeme, begin, pos, None)))
        elif kind == "num":
            num = numbers.get(lexeme)
            if num is None:
                num = numbers[lexeme] = Number.parse(lexeme)
            append(new(Token, ("num", lexeme, begin, pos, num)))
        elif kind == "word":
            if len(lexeme) == 1:
                _fail("unterminated word literal", text, begin, len(text))
            append(new(Token, ("word", lexeme[1:-1], begin, pos, None)))
        elif kind == "eof":
            append(new(Token, ("eof", "", begin, pos, None)))
            break  # trailing whitespace can leave an empty match after it
        else:
            _fail(f"illegal character {lexeme!r}", text, begin, pos)
    return tokens
