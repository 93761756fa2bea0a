"""Command-line interface: exit codes, reports, restore fixpoint, REPL."""

import io
import re
import sys

import pytest

from lingua.cli import RunConfig, _deep_recursion, main, repl
from lingua.parser import parse_program
from lingua.printer import print_concrete


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_main(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestRun:
    def test_clean_run_reports_and_exits_zero(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "ok.lng",
            "begin-program let x be number tel ; x := 7 end-program",
        )
        code = main(["run", path])
        out, err = capsys.readouterr()
        assert code == 0
        assert "x = (7, number)" in out
        assert "register = OK" in out

    def test_error_register_exits_one(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "div.lng",
            "begin-program let x be number tel ; x := (1 / 0) end-program",
        )
        code = main(["run", path])
        out, _ = capsys.readouterr()
        assert code == 1
        assert "register = division-by-zero" in out

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.lng", "begin-program x := end-program")
        code = main(["run", path])
        _, err = capsys.readouterr()
        assert code == 2
        assert "syntactic" in err

    def test_fuel_exhaustion_exits_three(self, tmp_path, capsys):
        path = write(
            tmp_path, "loop.lng", "begin-program while true do skip od end-program"
        )
        code = main(["run", path, "--fuel", "100"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "fuel" in err

    def test_missing_file_exits_four(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.lng")])
        _, err = capsys.readouterr()
        assert code == 4

    def test_env_var_fuel(self, tmp_path, capsys, monkeypatch):
        path = write(
            tmp_path, "loop.lng", "begin-program while true do skip od end-program"
        )
        monkeypatch.setenv("LINGUA_FUEL", "50")
        code = main(["run", path])
        capsys.readouterr()
        assert code == 3

    def test_flag_overrides_env_var(self, tmp_path, capsys, monkeypatch):
        path = write(
            tmp_path,
            "ok.lng",
            "begin-program let x be number tel ; x := 7 end-program",
        )
        monkeypatch.setenv("LINGUA_FUEL", "0")
        code = main(["run", path, "--fuel", "unlimited"])
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["run", "--fuel", "abc"], None),
            (["repl"], "1.5"),
            (["run", "--max-digits", "0"], None),
        ],
        ids=["fuel-flag", "fuel-env-var", "max-digits"],
    )
    def test_bad_argument_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, env):
        path = write(tmp_path, "ok.lng", "begin-program skip end-program")
        if env is not None:
            monkeypatch.setenv("LINGUA_FUEL", env)
        with pytest.raises(SystemExit) as exit_:
            main(argv + ([path] if argv[0] == "run" else []))
        _, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert err.startswith("usage: lingua ")
        assert "error: argument --" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "check", "restore", "ast"])
    def test_non_utf8_file_exits_four(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.lng"
        path.write_bytes(b"begin-program x := 'caf\xe9' ; \xff end-program")
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err.startswith(f"lingua: cannot read {path}: ")

    def test_max_digits_flag(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "over.lng",
            "begin-program let x be number tel ; x := (-4 + (9 + 2)) end-program",
        )
        code = main(["run", path, "--max-digits", "1"])
        out, _ = capsys.readouterr()
        assert code == 1
        assert "register = overflow" in out

    def test_trace_flag(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "ok.lng",
            "begin-program let x be number tel ; x := 7 end-program",
        )
        code = main(["run", path, "--trace"])
        _, err = capsys.readouterr()
        assert code == 0
        assert "trace:" in err

    def test_recursion_limit_restored(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "ok.lng",
            "begin-program let x be number tel ; x := 7 end-program",
        )
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(1234)
        try:
            assert main(["run", path]) == 0
            assert sys.getrecursionlimit() == 1234
        finally:
            sys.setrecursionlimit(previous)
        capsys.readouterr()

    def test_ref_transfer_shown_in_report(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "yoked.lng",
            "begin-program "
            "let x be replace-transfer-in number by (value < 10) ee tel ; "
            "x := 5 end-program",
        )
        main(["run", path])
        out, _ = capsys.readouterr()
        assert "x = (5, number) with (value < 10)" in out

    def test_uninitialized_shown_as_omega(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "omega.lng",
            "begin-program let x be number tel ; skip end-program",
        )
        main(["run", path])
        out, _ = capsys.readouterr()
        assert "x = (Ω, number) with true" in out


class TestCheckRestoreAst:
    def test_check_valid_program(self, tmp_path, capsys):
        path = write(tmp_path, "ok.lng", "begin-program skip end-program")
        assert main(["check", path]) == 0

    def test_check_colloquial_file(self, tmp_path, capsys):
        path = write(tmp_path, "sugar.lng", "x + y * z")
        assert main(["check", path]) == 0

    def test_check_keyword_misuse(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "kw.lng",
            "begin-program let if be number tel ; skip end-program",
        )
        code = main(["check", path])
        _, err = capsys.readouterr()
        assert code == 2
        assert "keyword-misuse" in err

    def test_parse_too_deep_is_a_diagnostic(self, tmp_path, capsys):
        depth = max(600, sys.getrecursionlimit())
        path = write(tmp_path, "deep.lng", "x := " + "(" * depth + "1" + ")" * depth)
        code = main(["check", path])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(re.escape(path) + r":1:\d+: too-deep: .+", lines[0])

    def test_check_non_ascii_digit_is_a_diagnostic(self, tmp_path, capsys):
        for digit in ("\u00b2", "\u0663"):
            path = write(tmp_path, "digit.lng", f"x := {digit}")
            code = main(["check", path])
            out, err = capsys.readouterr()
            assert code == 2
            assert out == ""
            assert err == f"{path}:1:6: lexical: illegal character {digit!r}\n"

    def test_restore_expression(self, tmp_path, capsys):
        path = write(tmp_path, "expr.lng", "x + y * z")
        code = main(["restore", path])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.strip() == "(x + (y * z))"

    def test_restore_array_literal(self, tmp_path, capsys):
        path = write(tmp_path, "arr.lng", "array [1, 2]")
        code = main(["restore", path])
        out, _ = capsys.readouterr()
        assert out.strip() == "add-to-arr array 1 ee new 2 ee"

    def test_restore_is_a_fixpoint(self, tmp_path, capsys):
        path = write(tmp_path, "expr.lng", "x + y * z + 1")
        main(["restore", path])
        first, _ = capsys.readouterr()
        again = write(tmp_path, "again.lng", first.strip())
        assert main(["check", again]) == 0
        main(["restore", again])
        second, _ = capsys.readouterr()
        assert first == second

    @staticmethod
    def _sum_program(terms):
        chain = " + ".join(["1"] * terms)
        return f"begin-program let x be number tel ; x := {chain} end-program"

    def test_restore_long_operator_chain(self, tmp_path, capsys):
        # the chain parses flat but prints one parenthesis level per term,
        # deeper than the parser follows at the default limit, so the
        # output is read back under the limit `restore` prints with
        source = self._sum_program(2_000)
        path = write(tmp_path, "chain.lng", source)
        code = main(["restore", path])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        restored = out.strip()
        with _deep_recursion():
            assert parse_program(restored) == parse_program(source)
            assert print_concrete(parse_program(restored)) == restored

    def test_restore_too_deep_to_print_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "chain.lng", self._sum_program(20_000))
        code = main(["restore", path])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "lingua: program too deep to print\n"

    def test_restore_parse_failure(self, tmp_path, capsys):
        path = write(tmp_path, "bad.lng", "x +")
        code = main(["restore", path])
        capsys.readouterr()
        assert code == 2

    def test_ast_sexpr(self, tmp_path, capsys):
        path = write(tmp_path, "p.lng", "begin-program skip end-program")
        code = main(["ast", path])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.strip() == "(program () (skip))"

    def test_ast_json_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "p.lng", "begin-program x := 1 end-program")
        main(["ast", path, "--format", "json"])
        first, _ = capsys.readouterr()
        main(["ast", path, "--format", "json"])
        second, _ = capsys.readouterr()
        assert first == second
        assert '"node"' in first


class TestRepl:
    def drive(self, lines, capsys, fuel=None):
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        out, err = io.StringIO(), io.StringIO()
        config = RunConfig(fuel=fuel)
        code = repl(config, stdin, out, err)
        return code, out.getvalue(), err.getvalue()

    def test_declare_assign_state(self, capsys):
        code, out, _ = self.drive(
            ["let x be number tel", "x := 2", ":state", ":quit"], capsys
        )
        assert code == 0
        assert "x = (2, number)" in out
        assert "register = OK" in out

    def test_error_shown_session_survives(self, capsys):
        # the register persists (transparency!) until cleared with :ok
        code, out, _ = self.drive(
            ["x := 1", ":ok", "let x be number tel", "x := 3", ":state"], capsys
        )
        assert code == 0
        assert "error: identifier-not-declared" in out
        assert "x = (3, number)" in out

    def test_ok_clears_register(self, capsys):
        code, out, _ = self.drive(
            ["x := 1", ":ok", ":state"], capsys
        )
        assert "register = OK" in out.splitlines()[-1]

    def test_expression_convenience(self, capsys):
        code, out, _ = self.drive(["(1 + 2)", "(1 / 0)"], capsys)
        assert "(3, number)" in out
        assert "error: division-by-zero" in out

    def test_parse_error_reported_and_survived(self, capsys):
        code, out, err = self.drive(["x +", "(1 + 2)"], capsys)
        assert code == 0
        assert "<repl>" in err
        assert "(3, number)" in out

    def test_fuel_exhausted_midway_keeps_the_session_state(self, capsys):
        # The loop writes x before the budget runs out; the session keeps
        # the state it had before the line.
        code, out, err = self.drive(
            [
                "let x be number tel",
                "x := 1",
                "while true do x := x + 1 od",
                ":state",
            ],
            capsys,
            fuel=5,
        )
        assert code == 0
        assert "lingua: fuel exhausted" in err
        assert "x = (1, number) with true" in out.splitlines()

    def test_quit_exits_zero(self, capsys):
        code, _, _ = self.drive([":quit"], capsys)
        assert code == 0

    def test_recursion_limit_restored(self, capsys):
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(1234)
        try:
            code, out, _ = self.drive(["(1 + 2)", ":quit"], capsys)
            assert sys.getrecursionlimit() == 1234
        finally:
            sys.setrecursionlimit(previous)
        assert code == 0
        assert "(3, number)" in out
