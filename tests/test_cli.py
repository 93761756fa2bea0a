"""Command-line interface: exit codes, reports, restore fixpoint, REPL."""

import gc
import io
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from lingua import cli
from lingua.cli import RunConfig, _deep_recursion, main, repl
from lingua.parser import parse_program
from lingua.printer import print_concrete


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def cli_env():
    """The environment for `python -m lingua.cli` on this checkout's `src`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


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

    def test_env_var_fuel_read_on_each_call(self, tmp_path, capsys, monkeypatch):
        path = write(
            tmp_path,
            "count.lng",
            "begin-program let i be number tel ; i := 0 ; "
            "while (i < 10) do i := (i + 1) od end-program",
        )
        codes = []
        for fuel in ("5", "1000", "5", None):
            if fuel is None:
                monkeypatch.delenv("LINGUA_FUEL")
            else:
                monkeypatch.setenv("LINGUA_FUEL", fuel)
            codes.append(main(["run", path]))
        capsys.readouterr()
        assert codes == [3, 0, 3, 0]

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["run", "--fuel", "abc"], None),
            (["repl"], "1.5"),
            (["run", "--max-digits", "0"], None),
            (["run", "--fuel", "-1"], None),
            (["run"], "-1"),
        ],
        ids=[
            "fuel-flag",
            "fuel-env-var",
            "max-digits",
            "negative-fuel-flag",
            "negative-fuel-env-var",
        ],
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


class TestNumeralsPastTheDigitLimit:
    """Python converts between int and str only up to a digit limit, 4,300
    digits by default; numerals and results of any length are numbers."""

    PROGRAM = f"begin-program let x be number tel ; x := {'1' * 5_000} end-program"

    def test_run_loads_overflow(self, tmp_path, capsys):
        path = write(tmp_path, "long.lng", self.PROGRAM)
        code, out, err = run_main(["run", path], capsys=capsys)
        assert (code, err) == (1, "")
        assert "register = overflow" in out

    def test_check_and_restore(self, tmp_path, capsys):
        path = write(tmp_path, "long.lng", self.PROGRAM)
        assert run_main(["check", path], capsys=capsys) == (0, "", "")
        assert run_main(["restore", path], capsys=capsys) == (0, self.PROGRAM + "\n", "")

    def test_long_result_is_reported_in_full(self, tmp_path, capsys):
        steps = " ; ".join(["x := (x * 7)"] * 5_200)
        path = write(
            tmp_path, "power.lng", f"begin-program let x be number tel ; x := 1 ; {steps} end-program"
        )
        code, out, err = run_main(["run", path, "--max-digits", "10000"], capsys=capsys)
        assert (code, err) == (0, "")
        assert f"x = ({Decimal(7**5_200)}, number) with true" in out


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

    def test_each_line_gets_the_whole_fuel_budget(self, capsys):
        # A line that runs out of fuel leaves the next line a full budget.
        code, out, err = self.drive(
            [
                "let x be number tel",
                "while true do skip od",
                "x := 1",
                "while (x < 2) do x := (x + 1) od",
                ":state",
            ],
            capsys,
            fuel=5,
        )
        assert code == 0
        assert err == "lingua: fuel exhausted\n"
        assert "x = (2, number) with true" in out.splitlines()

    def test_quit_exits_zero(self, capsys):
        code, _, _ = self.drive([":quit"], capsys)
        assert code == 0

    def test_undecodable_input_exits_four(self):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert repl(RunConfig(), stdin, out, err) == 4
        assert err.getvalue().startswith("lingua: cannot read <stdin>: 'utf-8' codec")
        assert out.getvalue() == ""

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


class TestCollector:
    """`main` pauses the cycle collector for a command, which is safe only
    while every command frees what it makes by reference counting."""

    FILES = {
        "ok.lng": (
            "begin-program let x be number tel ; "
            "fun double (k as number) (k * 2) endfun ; "
            "proc inc (val empty-fp ref r as number) "
            "begin-program r := (r + 1) end-program end proc ; "
            "x := 1 ; while (x < 5) do x := double(x) ; call inc (ref x val empty-ap) od "
            "end-program"
        ),
        "div.lng": "begin-program let x be number tel ; x := (1 / 0) end-program",
        "bad.lng": "begin-program x := end-program",
        "loop.lng": "begin-program while true do skip od end-program",
        "recurse.lng": (
            "begin-program proc p (val empty-fp ref empty-fp) "
            "begin-program call p (ref empty-ap val empty-ap) end-program end proc ; "
            "call p (ref empty-ap val empty-ap) end-program"
        ),
        "fragment.lng": "(1 + 2)",
        "deep.lng": "x := " + "(" * 1_200 + "1" + ")" * 1_200,
    }
    # The declared procedures keep their compiled code in the session's state.
    REPL_SESSION = (
        "1 + 2\nvalue < 3\nnumber\nx :=\nlet y be number tel\ny := 1\n"
        "fun double (k as number) (k * 2) endfun\ny := double(y)\n"
        "proc inc (val empty-fp ref r as number) begin-program r := (r + 1) end-program end proc\n"
        "call inc (ref y val empty-ap)\n:state\n"
    )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "ok.lng", "--trace"], 0),
            (["run", "div.lng"], 1),
            (["run", "bad.lng"], 2),
            (["run", "loop.lng", "--fuel", "100"], 3),
            (["run", "recurse.lng"], 3),
            (["run", "absent.lng"], 4),
            (["check", "ok.lng"], 0),
            (["check", "fragment.lng"], 0),
            (["check", "deep.lng"], 2),
            (["restore", "ok.lng"], 0),
            (["ast", "ok.lng"], 0),
            (["ast", "ok.lng", "--format", "json"], 0),
            (["repl"], 0),
        ],
        ids=[
            "run-0", "run-1", "run-2", "run-3-fuel", "run-3-too-deep", "run-4",
            "check-program", "check-fragment", "check-too-deep",
            "restore", "ast-sexpr", "ast-json", "repl",
        ],
    )
    def test_command_leaves_no_cyclic_garbage(self, tmp_path, capsys, monkeypatch, argv, code):
        for name, text in self.FILES.items():
            write(tmp_path, name, text)
        argv = [str(tmp_path / arg) if arg.endswith(".lng") else arg for arg in argv]
        # once first: the parser is built once per process, not per command
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(self.REPL_SESSION))
            gc.collect()
            assert main(argv) == code
            garbage = gc.collect()
        capsys.readouterr()
        assert garbage == 0

    def test_undecodable_repl_input_leaves_no_cyclic_garbage(self):
        for _ in range(2):
            stdin = io.TextIOWrapper(io.BytesIO(b"x := 1\n\xff\n"), encoding="utf-8")
            gc.collect()
            assert repl(RunConfig(), stdin, io.StringIO(), io.StringIO()) == 4
            garbage = gc.collect()
        assert garbage == 0

    @pytest.mark.parametrize(
        "argv, env_fuel",
        [
            (["run", "ok.lng", "--fuel", "abc"], None),
            (["run"], None),
            (["run", "ok.lng"], "1.5"),
        ],
        ids=["bad-fuel", "run-without-file", "bad-env-fuel"],
    )
    def test_usage_error_leaves_no_cyclic_garbage(
        self, tmp_path, capsys, monkeypatch, argv, env_fuel
    ):
        write(tmp_path, "ok.lng", self.FILES["ok.lng"])
        argv = [str(tmp_path / arg) if arg.endswith(".lng") else arg for arg in argv]
        if env_fuel is not None:
            monkeypatch.setenv("LINGUA_FUEL", env_fuel)
        for _ in range(2):
            gc.collect()
            # not pytest.raises: its ExceptionInfo, held in this frame, would
            # hold the traceback that holds this frame
            try:
                main(argv)
            except SystemExit as exc:
                code = exc.code
            garbage = gc.collect()
            assert code == 2
        capsys.readouterr()
        assert garbage == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, capsys, monkeypatch, enabled):
        path = write(tmp_path, "ok.lng", "begin-program skip end-program")
        seen = []
        run = cli.cmd_run

        def recorded(*args):
            seen.append(gc.isenabled())
            return run(*args)

        monkeypatch.setattr(cli, "cmd_run", recorded)
        was_enabled = gc.isenabled()
        gc.freeze()
        try:
            gc.enable() if enabled else gc.disable()
            before = (gc.isenabled(), gc.get_freeze_count())
            assert main(["run", path]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == before
            with pytest.raises(SystemExit):
                main(["run", path, "--fuel", "abc"])
            assert (gc.isenabled(), gc.get_freeze_count()) == before
        finally:
            gc.unfreeze()
            gc.enable() if was_enabled else gc.disable()
        capsys.readouterr()
        assert seen == [False]


class TestClosedOutput:
    """A standard output closed before the command writes is exit 4, an I/O
    failure, with nothing on standard error: no traceback, and no error
    ignored when the interpreter flushes its streams at exit."""

    FILE = (
        "begin-program let x be number tel ; x := 1 ; "
        "while (x < 9) do x := (x + x) od end-program"
    )
    COMMANDS = [["run"], ["restore"], ["ast"], ["ast", "--format", "json"], ["repl"]]

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_in_process(self, tmp_path, capsys, monkeypatch, command):
        path = write(tmp_path, "ok.lng", self.FILE)
        argv = [command[0], *([] if command == ["repl"] else [path]), *command[1:]]
        for _ in range(2):  # once first: the parser is built once per process
            monkeypatch.setattr("sys.stdin", io.StringIO(":state\n"))
            monkeypatch.setattr("sys.stdout", self.ClosedPipe())
            gc.collect()
            assert main(argv) == 4
            garbage = gc.collect()
        assert capsys.readouterr().err == ""
        assert garbage == 0

    @pytest.mark.parametrize("command", COMMANDS[:2] + COMMANDS[3:4], ids=" ".join)
    def test_subprocess(self, tmp_path, command):
        path = write(tmp_path, "ok.lng", self.FILE)
        proc = subprocess.Popen(
            [sys.executable, "-m", "lingua.cli", command[0], path, *command[1:]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        proc.stdout.close()  # before the interpreter has started to write
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (4, b"")


class TestDeepRecursion:
    """A deep recursion of a function ends in an outcome, a state or exit 3
    (`evaluation too deep`), never in a signal.  Both call sites compile to
    Python closures, so a Lingua call spends no C stack on Python 3.11 and
    later.  Each run is a subprocess: a crash would take the test with it."""

    PROGRAM = (
        "begin-program "
        "fun cnt (n as number) begin-program let m be number tel ; let r be number tel ; "
        "if (n < 1) then r := 0 else m := (n - 1) ; r := (1 + cnt(m)) fi end-program "
        "return r as number end fun ; "
        "let x be number tel ; let y be number tel ; x := %d ; y := cnt(x) end-program"
    )

    def run(self, tmp_path, depth, preexec_fn=None):
        path = write(tmp_path, "deep.lng", self.PROGRAM % depth)
        return subprocess.run(
            [sys.executable, "-m", "lingua.cli", "run", path],
            capture_output=True,
            env=cli_env(),
            preexec_fn=preexec_fn,
            timeout=60,
        )

    def test_within_reach(self, tmp_path):
        proc = self.run(tmp_path, 2_500)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b"(2500, number)" in proc.stdout

    def test_within_reach_at_3000(self, tmp_path):
        proc = self.run(tmp_path, 3_000)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b"(3000, number)" in proc.stdout

    def test_past_reach_is_too_deep(self, tmp_path):
        proc = self.run(tmp_path, 3_500)
        assert (proc.returncode, proc.stderr) == (3, b"lingua: evaluation too deep\n")

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="Python 3.10 spends C stack on every Python call, so 1 MB runs out first",
    )
    def test_within_reach_on_a_1_mb_stack(self, tmp_path):
        resource = pytest.importorskip("resource", reason="no resource module to limit the stack")

        def small_stack():  # in the child only
            hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
            resource.setrlimit(resource.RLIMIT_STACK, (2**20, hard))

        proc = self.run(tmp_path, 2_000, small_stack)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b"(2000, number)" in proc.stdout
