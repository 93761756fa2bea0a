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

Positions are offsets, lines and columns counted in code points; only
`\n` ends a line.  A token keeps its position as plain fields and builds
its `SourceSpan` only when a diagnostic asks for one.
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
    line: int
    column: int
    num: Optional[Number] = None

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.begin, self.end, self.line, self.column)

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.text in names

    def is_punct(self, *names: str) -> bool:
        return self.kind == "punct" and self.text in names


def _fail(message: str, begin: int, end: int, line: int, column: int) -> NoReturn:
    raise LinguaParseError(
        ParseDiagnostic(SourceSpan(begin, end, line, column), message, "lexical")
    )


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    for space, lexeme in _TOKEN.findall(text):
        if "\n" in space:
            line += space.count("\n")
            line_start = pos + space.rindex("\n") + 1
        begin = pos + len(space)
        pos = begin + len(lexeme)
        column = begin - line_start + 1
        kind, value, num = _KIND.get(lexeme[:1]), lexeme, None
        if kind == "num":
            num = Number.parse(lexeme)
        elif kind == "ident" and lexeme in KEYWORDS:
            kind = "keyword"
        elif kind == "word":
            if len(lexeme) == 1:
                _fail("unterminated word literal", begin, len(text), line, column)
            value = lexeme[1:-1]
        elif lexeme == ":=":
            kind = "punct"
        elif kind is None:
            _fail(f"illegal character {lexeme!r}", begin, pos, line, column)
        tokens.append(Token(kind, value, begin, pos, line, column, num))
        if kind == "eof":  # trailing whitespace can leave an empty match after it
            break
        if kind == "word" and "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = begin + lexeme.rindex("\n") + 1
    return tokens
