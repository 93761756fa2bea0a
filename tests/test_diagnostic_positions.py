"""Where a diagnostic lands: file, line and column, through the library and
through `lingua check`.

These are the diagnostics that point at a token other than the one the
parser stands on, or that are raised away from the parser's own `error`:
the lexer's at the end of a long text, a program item that precedes a
declaration, a fragment that mixes items, `too-deep`, and `parse_any`'s
furthest attempt.
"""

import sys

import pytest

from lingua import parser
from lingua.cli import main
from lingua.diagnostics import LinguaParseError, ParseDiagnostic, SourceSpan
from lingua.lexer import tokenize
from lingua.parser import Parser, parse_any, parse_instruction, parse_program
from test_cli import write


def diagnostic(parse, text):
    with pytest.raises(LinguaParseError) as exc:
        parse(text)
    diag = exc.value.diagnostic
    return diag.kind, diag.message, diag.span.line, diag.span.column, diag.span.begin, diag.span.end


def check_line(tmp_path, capsys, text):
    """What `lingua check` prints for `text`, with the file name cut off."""
    path = write(tmp_path, "case.lng", text)
    assert main(["check", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(path + ":")
    return err[len(path) + 1 :]


# 1,999 assignments after `begin-program`, then a last line that goes wrong
HEAD = "begin-program\n" + "x := x + 1 ;\n" * 1_998
ILLEGAL = HEAD + "x := @ end-program\n"
UNTERMINATED = HEAD + "x := 'open end-program\n"


class TestLexical:
    def test_illegal_character_on_line_two_thousand(self, tmp_path, capsys):
        begin = ILLEGAL.index("@")
        expected = ("lexical", "illegal character '@'", 2_000, 6, begin, begin + 1)
        assert diagnostic(tokenize, ILLEGAL) == expected
        assert diagnostic(parse_program, ILLEGAL) == expected
        assert check_line(tmp_path, capsys, ILLEGAL) == "2000:6: lexical: illegal character '@'\n"

    def test_unterminated_word_on_line_two_thousand(self, tmp_path, capsys):
        # the span runs from the apostrophe to the end of the text
        begin = UNTERMINATED.index("'")
        expected = ("lexical", "unterminated word literal", 2_000, 6, begin, len(UNTERMINATED))
        assert diagnostic(tokenize, UNTERMINATED) == expected
        assert diagnostic(parse_program, UNTERMINATED) == expected
        assert check_line(tmp_path, capsys, UNTERMINATED) == "2000:6: lexical: unterminated word literal\n"


class TestEarlierToken:
    def test_declarations_must_precede_at_a_later_items_first_token(self, tmp_path, capsys):
        # at `y`, the first item that is an instruction other than `skip`
        text = "begin-program\nskip ;\n  y := 2 ;\nlet z be number tel ;\nskip\nend-program"
        begin = text.index("y")
        message = "declarations must precede the instructions of a program"
        assert diagnostic(parse_program, text) == ("syntactic", message, 3, 3, begin, begin + 1)
        assert check_line(tmp_path, capsys, text) == f"3:3: syntactic: {message}\n"

    def test_fragment_mixes_at_its_first_token(self):
        text = "\n\n   x := 1 ;\n let y be number tel"
        message = (
            "fragment mixes declarations and instructions; wrap it in "
            "begin-program ... end-program"
        )
        expected = ("syntactic", message, 3, 4, 5, 6)
        assert diagnostic(lambda t: Parser(t).item_sequence(), text) == expected

    @pytest.mark.parametrize(
        "text, line, column, begin, end",
        [
            ("x := 1 ; let y be number tel", 1, 1, 0, 1),
            ("\n  let x be number tel ;\n x := 1", 2, 3, 3, 6),
        ],
        ids=["instruction-first", "declaration-first"],
    )
    def test_parse_any_reports_a_mixed_fragment(
        self, text, line, column, begin, end, tmp_path, capsys
    ):
        # the item sequence reads the whole fragment, further than any other
        # attempt, though its diagnostic points back at the first token
        message = (
            "fragment mixes declarations and instructions; wrap it in "
            "begin-program ... end-program"
        )
        assert diagnostic(parse_any, text) == ("syntactic", message, line, column, begin, end)
        assert check_line(tmp_path, capsys, text) == f"{line}:{column}: syntactic: {message}\n"


class TestTooDeep:
    # tokens: x := ( 1 + ( 2 + 3 ) ) eof; the second `(` is token 5
    TEXT = "x :=\n  (1 +\n   (2 + 3))"

    @pytest.fixture
    def out_of_room_at_token_5(self, monkeypatch):
        unary = Parser.unary

        def short_of_stack(self, sort):
            if self.pos == 5:
                raise RecursionError
            return unary(self, sort)

        monkeypatch.setattr(parser.Parser, "unary", short_of_stack)

    def test_at_the_token_where_the_parser_ran_out(self, out_of_room_at_token_5, tmp_path, capsys):
        begin = self.TEXT.index("(2")
        expected = ("too-deep", "nesting too deep to parse", 3, 4, begin, begin + 1)
        assert diagnostic(parse_instruction, self.TEXT) == expected
        assert diagnostic(parse_any, self.TEXT) == expected
        assert check_line(tmp_path, capsys, self.TEXT) == "3:4: too-deep: nesting too deep to parse\n"

    def test_a_real_nest_reports_one_of_its_parentheses(self, tmp_path, capsys):
        depth = max(600, sys.getrecursionlimit())
        text = "x :=\n" + "(\n" * depth + "1" + ")" * depth
        lines = text.split("\n")
        kind, _, line, column, begin, end = diagnostic(parse_any, text)
        assert (kind, column, lines[line - 1], text[begin:end]) == ("too-deep", 1, "(", "(")
        reported = check_line(tmp_path, capsys, text)
        line, column, kind = reported.split(":")[:3]
        assert (kind, column, lines[int(line) - 1]) == (" too-deep", "1", "(")


class TestParseAnyFurthest:
    @pytest.mark.parametrize(
        "text, expected",
        [
            # the data attempt gets furthest
            ("x + y\n  z", ("syntactic", "unexpected 'z' after the end of the phrase", 2, 3, 8, 9)),
            # the item sequence attempt
            ("x := 1 +\n\n  ;", ("syntactic", "expected a data expression, found ';'", 3, 3, 12, 13)),
            # the type attempt
            (
                "list-type\n number ee ee",
                ("syntactic", "unexpected 'ee' after the end of the phrase", 2, 12, 21, 23),
            ),
        ],
        ids=["data", "items", "type"],
    )
    def test_furthest_attempt(self, text, expected, tmp_path, capsys):
        kind, message, line, column, _, _ = expected
        assert diagnostic(parse_any, text) == expected
        assert check_line(tmp_path, capsys, text) == f"{line}:{column}: {kind}: {message}\n"


def test_a_diagnostic_needs_a_forward_span_and_a_message():
    with pytest.raises(ValueError, match="^span runs backwards$"):
        SourceSpan(2, 1, 1, 3)
    with pytest.raises(ValueError, match="^diagnostic needs a message$"):
        ParseDiagnostic(SourceSpan(0, 0, 1, 1), "", "syntactic")
