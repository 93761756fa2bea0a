"""Resources of long programs: stack depth, trace length, leftover memory.

A sequence is one node holding its items in a flat tuple, so it compiles
to one block, prints and dumps item by item and compares, hashes and
reprs along a tuple: the host recursion limit bounds how deeply a
program nests, not how long it is.
"""

import gc
import json
import sys

import pytest

from lingua import cli
from lingua.cli import main
from lingua import nodes as n
from lingua.kernel import NUMBER, OMEGA, Composite, _unchecked_array, num
from lingua.parser import parse_program
from lingua.printer import ast_dump, print_concrete
from lingua import semantics
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


def test_short_sequences_repr_as_dataclasses():
    # The texts the dataclass default repr gives, all four sequence forms
    # and a hand-built sequence nested in a sequence among them.
    prg = parse_program(
        "begin-program let x be number tel ; let y be number tel ; "
        "set t as number tes ; set u as number tes ; x := 1 ; skip end-program"
    )
    assert repr(prg) == (
        "Program(pam=PreSeq(items=(VarDecSeq(items=(VarDec(ide='x', tex=NumberTyp()), "
        "VarDec(ide='y', tex=NumberTyp()))), TypDefSeq(items=(TypDef(ide='t', "
        "tex=NumberTyp()), TypDef(ide='u', tex=NumberTyp()))))), "
        "ins=SeqIns(items=(AssignIns(ide='x', dae=NumLit(num=Number(coeff=1, exp=0))), "
        "SkipIns())))"
    )
    nested = n.SeqIns(
        (
            n.SeqIns(
                (n.SkipIns(), n.WhileIns(n.BoolLit(True), n.SeqIns((n.SkipIns(), n.SkipIns()))))
            ),
            n.SkipIns(),
        )
    )
    assert repr(nested) == (
        "SeqIns(items=(SeqIns(items=(SkipIns(), WhileIns(dae=BoolLit(value=True), "
        "ins=SeqIns(items=(SkipIns(), SkipIns()))))), SkipIns()))"
    )


def test_long_sequence_repr_without_recursion():
    k = 5_000
    item = "AssignIns(ide='x', dae=NumLit(num=Number(coeff=1, exp=0)))"
    try:
        text = repr(sequence_program(k))
    except RecursionError:
        # failed outside the handler: pytest takes minutes to report a
        # traceback thousands of frames deep
        text = "RecursionError"
    assert text == (
        "Program(pam=VarDec(ide='x', tex=NumberTyp()), ins=SeqIns(items=("
        + ", ".join([item] * k)
        + ")))"
    )


def test_print_concrete_long_sequence():
    assert print_concrete(parse_program(assignments(1_600))) == canonical(1_600)


def test_long_chain_prints_and_dumps_at_the_default_limit():
    # A left-nested chain is as deep as it is long; every writer and `==`
    # keep their own stack, so the host limit does not bound its length.
    k = 5_000
    source = "begin-program x := " + " + ".join(["1"] * k) + " end-program"
    first, second = parse_program(source), parse_program(source)
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        text = print_concrete(first)
        assert first == second
        assert repr(first) == repr(second)
        dumps = [ast_dump(first, format) for format in ("json", "sexpr")]
    except RecursionError:
        # failed outside the handler: pytest takes minutes to report a
        # traceback thousands of frames deep
        text = "RecursionError"
    finally:
        sys.setrecursionlimit(previous)
    assert text == (
        "begin-program x := " + "(" * (k - 1) + "1" + " + 1)" * (k - 1) + " end-program"
    )
    assert dumps[0].count('"node": "num-lit"') == k
    assert dumps[1].count("(num-lit 1)") == k


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
        "(program (var-dec x (number-typ)) (seq ((assign x (num-lit 0)) "
        + " ".join([step] * (k - 1))
        + ")))\n"
    )
    path = write(tmp_path, "long.lng", assignments(k))
    assert main(["ast", path]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")
    # A sequence's items are one JSON array, so the JSON dump nests no
    # deeper for a longer program: it loads at a recursion limit below
    # the number of items, and its size grows with the length alone.
    k = 2_000
    path = write(tmp_path, "json.lng", assignments(k))
    assert main(["ast", path, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        tree = json.loads(out)
    finally:
        sys.setrecursionlimit(previous)
    assert [item["node"] for item in tree["ins"]["items"]] == ["assign"] * k
    assert out == json.dumps(tree, indent=2) + "\n"
    path = write(tmp_path, "size.lng", assignments(1_302))
    assert main(["ast", path, "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    assert len(out.encode()) < 1_000_000


def nested_equality(depth: int, innermost: int) -> str:
    """`x1 .. x<depth>` and `z1 .. z<depth>`, arrays nested as deep as their
    index, built apart around 1 and around `innermost`, then `b := x = z`
    at the deepest level."""
    lines = ["begin-program", "set t1 as array-type number ee tes ;"]
    lines += [f"set t{k} as array-type t{k - 1} ee tes ;" for k in range(2, depth + 1)]
    lines += [f"let {v}{k} be t{k} tel ;" for v in "xz" for k in range(1, depth + 1)]
    steps = ["x1 := array 1 ee", f"z1 := array {innermost} ee"]
    steps += [f"{v}{k} := array {v}{k - 1} ee" for v in "xz" for k in range(2, depth + 1)]
    lines += ["let b be boolean tel ;", " ; ".join([*steps, f"b := x{depth} = z{depth}"])]
    return "\n".join([*lines, "end-program"])


@pytest.mark.parametrize("innermost, equal", [(1, True), (2, False)], ids=["equal", "differ"])
def test_equality_of_data_nested_300_deep(innermost, equal, monkeypatch):
    """`=` compares data along a stack of its own, so nesting deeper than
    the recursion limit leaves room for compares too.  The run is held to
    the host's default limit: the evaluator's own is pinned there."""
    monkeypatch.setattr(semantics, "RECURSION_LIMIT", 1000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        sta = run_source(nested_equality(300, innermost))
    finally:
        sys.setrecursionlimit(limit)
    assert register_word(sta) == "OK"
    assert sta.store.valuation["b"].com.dat is equal


@pytest.mark.parametrize("innermost, equal", [(1, True), (2, False)], ids=["equal", "differ"])
def test_same_data_nested_deeper_than_the_limit(innermost, equal):
    """`semantics._same_data`, the walk behind `=`, compares two arrays
    nested 3,000 deep, built apart, at the host's default limit of 1,000.
    They are built unchecked, as the evaluator builds `array x ee`: the
    checking constructor walks its items recursively."""
    def nested(leaf):
        dat = _unchecked_array((num(leaf),))
        for _ in range(3000):
            dat = _unchecked_array((dat,))
        return dat

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert semantics._same_data(nested(1), nested(innermost)) is equal
    finally:
        sys.setrecursionlimit(limit)

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
