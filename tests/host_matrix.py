"""Print how `lingua run` and `lingua check` end on deep programs, per stack.

One row per program family and size, each a program that nests deeply in
one way: a deep recursion (`cnt`, the function of `TestDeepRecursion` in
tests/test_cli.py), a flat `+` chain, nested parentheses, writes of types
nested through `set` definitions, `=` on data nested as deeply, and long
array literals, each a left-nested `add-to-arr` spine as long as it.  Each
cell is the exit code of `python -m lingua.cli run` or `check` on that
program, or the name of the signal that ended it, in a child whose
`RLIMIT_STACK` soft limit is 1 MB or 8 MB.  A program whose outcome does
not depend on the host reads the same in every column on every Python
version.  The children run the interpreter that runs this script; to
measure another, run the script under it.  It needs no pytest.

Run from the repository root:

    PYTHONPATH=src python tests/host_matrix.py
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STACKS = {"1 MB": 2**20, "8 MB": 2**23}
COMMANDS = ("run", "check")
TIMEOUT_S = 600


def cnt(depth: int) -> str:
    return (
        "begin-program "
        "fun cnt (n as number) begin-program let m be number tel ; let r be number tel ; "
        "if (n < 1) then r := 0 else m := (n - 1) ; r := (1 + cnt(m)) fi end-program "
        "return r as number end fun ; "
        f"let x be number tel ; let y be number tel ; x := {depth} ; y := cnt(x) end-program"
    )


def chain(terms: int) -> str:
    return f"begin-program let x be number tel ; x := 1{' + 1' * (terms - 1)} end-program"


def parentheses(depth: int) -> str:
    return f"begin-program let x be number tel ; x := {'(' * depth}1{')' * depth} end-program"


def literal(elements: int) -> str:
    items = ", ".join(str(k) for k in range(1, elements + 1))
    return f"begin-program let a be array-type number ee tel ; a := array [{items}] end-program"


def nested(depth: int, names: str) -> list[str]:
    """`t1 .. t<depth>`, each an array of the one before, and variables
    `<name>k` of type `tk` for each of `names`, each `<name>k` written as an
    array of `<name>(k-1)`."""
    lines = ["begin-program", "set t1 as array-type number ee tes ;"]
    lines += [f"set t{k} as array-type t{k - 1} ee tes ;" for k in range(2, depth + 1)]
    lines += [f"let {v}{k} be t{k} tel ;" for v in names for k in range(1, depth + 1)]
    steps = [f"{v}1 := array 1 ee" for v in names]
    steps += [f"{v}{k} := array {v}{k - 1} ee" for v in names for k in range(2, depth + 1)]
    return [*lines, " ; ".join(steps)]


def types(depth: int) -> str:
    return "\n".join([*nested(depth, "x"), "end-program"])


def equality(depth: int) -> str:
    *lines, steps = nested(depth, "xz")
    lines += ["let b be boolean tel ;", f"{steps} ; b := x{depth} = z{depth}", "end-program"]
    return "\n".join(lines)


FAMILIES = {
    "cnt 2,000 deep": cnt(2_000),
    "+ chain of 10,000 terms": chain(10_000),
    "340 nested parentheses": parentheses(340),
    "writes of types nested 1,000 deep": types(1_000),
    "= on data nested 1,000 deep": equality(1_000),
    "array literal of 10,000 elements": literal(10_000),
    "array literal of 25,000 elements": literal(25_000),
}


def outcome(command: str, path: Path, stack: int) -> str:
    """The exit code of `lingua <command> path` on a `stack`-byte stack, or
    the name of the signal that ended it."""

    def limit_stack():  # in the child only
        hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
        resource.setrlimit(resource.RLIMIT_STACK, (stack, hard))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lingua.cli", command, str(path)],
            capture_output=True,
            env=env,
            preexec_fn=limit_stack,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    code = proc.returncode
    return signal.Signals(-code).name if code < 0 else str(code)


def main() -> None:
    columns = [f"{command} {stack}" for command in COMMANDS for stack in STACKS]
    width = max(map(len, FAMILIES))
    print(f"Python {platform.python_version()}: exit code or signal per RLIMIT_STACK")
    print(f"{'program':<{width}}  " + "  ".join(f"{c:>10}" for c in columns))
    with tempfile.TemporaryDirectory() as tmp:
        for family, text in FAMILIES.items():
            path = Path(tmp) / "deep.lng"
            path.write_text(text, encoding="utf-8")
            cells = [outcome(c, path, s) for c in COMMANDS for s in STACKS.values()]
            print(f"{family:<{width}}  " + "  ".join(f"{c:>10}" for c in cells), flush=True)


if __name__ == "__main__":
    main()
