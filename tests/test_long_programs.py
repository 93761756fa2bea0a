"""Resources of long programs: stack depth, trace length, leftover memory.

Sequences compile to flat blocks, print by walking their spine with an
explicit stack and dump along an explicit stack, so the host recursion
limit bounds how deeply a program nests, not how long it is.
"""

import gc
import sys

from lingua import cli
from lingua.cli import main
from lingua.kernel import NUMBER, OMEGA, Composite, num
from lingua.parser import parse_program
from lingua.printer import print_concrete
from lingua.semantics import Evaluator, run_source
from lingua.state import empty_state, register_word
from test_cli import write


def assignments(k: int) -> str:
    """`x` declared, then k assignments, one per line; x ends as k - 1."""
    lines = ["begin-program", "let x be number tel ;"]
    lines += [f"x := (x + 1) ;" if i else "x := 0 ;" for i in range(k - 1)]
    lines += ["x := (x + 1)" if k > 1 else "x := 0", "end-program"]
    return "\n".join(lines) + "\n"


def canonical(k: int) -> str:
    items = ["x := 0"] + ["x := (x + 1)"] * (k - 1)
    return "begin-program let x be number tel ; " + " ; ".join(items) + " end-program"


def test_thousand_assignments_run():
    sta = run_source(assignments(1_000))
    assert register_word(sta) == "OK"
    assert sta.store.valuation["x"].composite() == Composite(num(999), NUMBER)


def test_twenty_thousand_assignments_run():
    sta = run_source(assignments(20_000))
    assert register_word(sta) == "OK"
    assert sta.store.valuation["x"].composite() == Composite(num(19_999), NUMBER)


def test_two_thousand_declarations_run():
    decs = " ; ".join(f"let v{i} be number tel" for i in range(2_000))
    sta = run_source(f"begin-program {decs} ; v1999 := 7 end-program")
    assert register_word(sta) == "OK"
    assert len(sta.store.valuation) == 2_000
    assert sta.store.valuation["v0"].content is OMEGA
    assert sta.store.valuation["v1999"].composite() == Composite(num(7), NUMBER)


def test_cli_runs_twenty_thousand_lines(tmp_path, capsys):
    path = write(tmp_path, "long.lng", assignments(20_000))
    code = main(["run", path])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "too deep" not in err
    assert out.splitlines() == ["x = (19999, number) with true", "register = OK"]


def test_trace_prints_one_line_per_instruction(tmp_path, capsys):
    k = 50
    path = write(tmp_path, "k.lng", assignments(k))
    assert main(["run", path, "--trace"]) == 0
    _, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == k
    assert lines[0] == "trace: x := 0"
    assert set(lines[1:]) == {"trace: x := (x + 1)"}


def test_trace_follows_loop_iterations(tmp_path, capsys):
    text = (
        "begin-program let i be number tel ; i := 0 ; "
        "while (i < 3) do i := (i + 1) ; skip od end-program"
    )
    path = write(tmp_path, "loop.lng", text)
    assert main(["run", path, "--trace"]) == 0
    _, err = capsys.readouterr()
    # i := 0, the loop, then two instructions per iteration
    assert len(err.splitlines()) == 2 + 3 * 2


def test_trace_prints_each_instruction_once_per_node(tmp_path, capsys, monkeypatch):
    text = (
        "begin-program let i be number tel ; let j be number tel ; i := 0 ; "
        "while (i < 3) do j := 0 ; "
        "while (j < i) do j := (j + 1) ; skip od ; i := (i + 1) od end-program"
    )
    # Every executed instruction, printed afresh and cut to 72 characters.
    traced = []
    Evaluator(trace=traced.append).run_program(parse_program(text), empty_state())
    expected = [f"trace: {print_concrete(ins)[:72]}" for ins in traced]
    printed = []

    def counted(node):
        printed.append(node)
        return print_concrete(node)

    monkeypatch.setattr(cli, "print_concrete", counted)
    path = write(tmp_path, "nested.lng", text)
    assert main(["run", path, "--trace"]) == 0
    _, err = capsys.readouterr()
    assert err == "".join(line + "\n" for line in expected)
    assert len(printed) == len({id(node) for node in printed}) == len({id(ins) for ins in traced})


def sequence_program(k: int, last: int = 1):
    items = ["x := 1"] * (k - 1) + [f"x := {last}"]
    return parse_program(
        "begin-program let x be number tel ; " + " ; ".join(items) + " end-program"
    )


def test_long_sequences_compare_and_hash_without_recursion():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        first, second = sequence_program(2_000), sequence_program(2_000)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert first != sequence_program(2_000, last=2)
    finally:
        sys.setrecursionlimit(previous)


def test_print_concrete_long_sequence():
    assert print_concrete(parse_program(assignments(1_600))) == canonical(1_600)


def test_restore_long_program_is_a_fixpoint(tmp_path, capsys):
    path = write(tmp_path, "long.lng", assignments(1_600))
    assert main(["restore", path]) == 0
    first, err = capsys.readouterr()
    assert err == ""
    assert first == canonical(1_600) + "\n"
    again = write(tmp_path, "again.lng", first)
    assert main(["restore", again]) == 0
    second, _ = capsys.readouterr()
    assert second == first


def test_ast_dumps_long_program(tmp_path, capsys):
    k = 1_300
    step = "(assign x (add-exp (ide-exp x) (num-lit 1)))"
    expected = (
        "(program (var-dec x (number-typ)) (seq (assign x (num-lit 0)) "
        + f"(seq {step} " * (k - 2)
        + step
        + ")" * (k - 1)
        + ")\n"
    )
    path = write(tmp_path, "long.lng", assignments(k))
    assert main(["ast", path]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")
    # The JSON dump indents each nested sequence further, so its size grows
    # with the square of the length; 600 lines already nest past the
    # recursion limit of a recursive dumper.
    k = 600
    path = write(tmp_path, "json.lng", assignments(k))
    assert main(["ast", path, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count('"node": "assign"') == k
    assert out.endswith("\n}\n")


def test_run_leaves_no_cyclic_garbage():
    # Compiled code holds its evaluator weakly, so a finished run is freed
    # by reference counting and leaves nothing for the cycle collector.
    text = (
        "begin-program let i be number tel ; "
        "fun double (k as number) (k * 2) endfun ; "
        "i := 0 ; while (i < 3) do i := (i + double(i)) ; i := (i + 1) od end-program"
    )
    gc.collect()
    assert register_word(run_source(text)) == "OK"
    assert gc.collect() == 0
