"""The character-at-a-time tokenizer, kept as the oracle of `lingua.lexer`.

`tokenize` here is the lexer the interpreter shipped before it became one
compiled regular expression.  `test_lexer` checks the two agree on random
text: the same tokens (kind, text, number and span) or the same lexical
diagnostic.  Tokens are frozen dataclasses with a stored span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from lingua.diagnostics import LinguaParseError, ParseDiagnostic, SourceSpan
from lingua.kernel import Number
from lingua.lexer import KEYWORDS

_PUNCT_TWO = (":=", "<=")
_PUNCT_ONE = "()[],;.+-*/<="


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | ident | num | word | punct | eof
    text: str
    span: SourceSpan
    num: Optional[Number] = None

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.text in names

    def is_punct(self, *names: str) -> bool:
        return self.kind == "punct" and self.text in names


def _is_ident_start(c: str) -> bool:
    return c.isascii() and c.isalpha()


def _is_ident_char(c: str) -> bool:
    return c.isascii() and (c.isalpha() or c.isdigit())


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    n = len(text)

    def span(begin: int, begin_line: int, begin_col: int) -> SourceSpan:
        return SourceSpan(begin, pos, begin_line, begin_col)

    def fail(message: str, begin: int, begin_line: int, begin_col: int) -> None:
        raise LinguaParseError(
            ParseDiagnostic(span(begin, begin_line, begin_col), message, "lexical")
        )

    def advance() -> str:
        nonlocal pos, line, col
        c = text[pos]
        pos += 1
        if c == "\n":
            line += 1
            col = 1
        else:
            col += 1
        return c

    while pos < n:
        c = text[pos]
        if c.isspace():
            advance()
            continue
        begin, begin_line, begin_col = pos, line, col
        if c == "'":
            advance()
            chars: list[str] = []
            while pos < n and text[pos] != "'":
                chars.append(advance())
            if pos >= n:
                fail("unterminated word literal", begin, begin_line, begin_col)
            advance()
            tokens.append(Token("word", "".join(chars), span(begin, begin_line, begin_col)))
            continue
        if c.isdigit():
            while pos < n and text[pos].isdigit():
                advance()
            if pos + 1 < n and text[pos] == "." and text[pos + 1].isdigit():
                advance()
                while pos < n and text[pos].isdigit():
                    advance()
            lexeme = text[begin:pos]
            tokens.append(
                Token("num", lexeme, span(begin, begin_line, begin_col), Number.parse(lexeme))
            )
            continue
        if _is_ident_start(c):
            advance()
            while pos < n:
                if _is_ident_char(text[pos]):
                    advance()
                elif (
                    text[pos] == "-"
                    and pos + 1 < n
                    and _is_ident_start(text[pos + 1])
                ):
                    advance()
                    advance()
                else:
                    break
            lexeme = text[begin:pos]
            kind = "keyword" if lexeme in KEYWORDS else "ident"
            tokens.append(Token(kind, lexeme, span(begin, begin_line, begin_col)))
            continue
        two = text[pos : pos + 2]
        if two in _PUNCT_TWO:
            advance()
            advance()
            tokens.append(Token("punct", two, span(begin, begin_line, begin_col)))
            continue
        if c in _PUNCT_ONE:
            advance()
            tokens.append(Token("punct", c, span(begin, begin_line, begin_col)))
            continue
        advance()
        fail(f"illegal character {c!r}", begin, begin_line, begin_col)

    tokens.append(Token("eof", "", SourceSpan(pos, pos, line, col)))
    return tokens
