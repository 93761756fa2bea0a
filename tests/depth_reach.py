"""Print the deepest recursion of `cnt` that `lingua run` finishes, per stack.

`cnt` is the recursive function of `TestDeepRecursion` in
tests/test_cli.py: `cnt(n)` calls itself on `n - 1` down to 0.  Each depth
runs in a subprocess of `python -m lingua.cli run`, which evaluates at the
evaluator's recursion limit (`lingua.semantics.RECURSION_LIMIT`), and a
bisection finds the deepest one that exits 0 with the right answer; the
search takes every shallower depth to finish too.  It searches twice, with
the child's `RLIMIT_STACK` soft limit at 1 MB and at 8 MB, set as
tests/host_matrix.py sets it: when the recursion limit, not the C stack,
bounds the reach, both read the same.  The subprocesses run the
interpreter that runs this script; to measure another, run the script
under it (with pytest installed, since tests/test_cli.py imports it).

Run from the repository root:

    PYTHONPATH=src python tests/depth_reach.py
"""

from __future__ import annotations

import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from lingua.semantics import RECURSION_LIMIT
from test_cli import TestDeepRecursion, cli_env

CEILING = 1 << 16  # deeper than any reach at the evaluator's limit
STACKS = {"1 MB": 2**20, "8 MB": 2**23}


def finishes(path: Path, depth: int, stack: int) -> bool:
    def limit_stack():  # in the child only
        hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
        resource.setrlimit(resource.RLIMIT_STACK, (stack, hard))

    path.write_text(TestDeepRecursion.PROGRAM % depth, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "lingua.cli", "run", str(path)],
        capture_output=True,
        env=cli_env(),
        preexec_fn=limit_stack,
        timeout=60,
    )
    return proc.returncode == 0 and f"({depth}, number)".encode() in proc.stdout


def reach(stack: int) -> int:
    """The deepest depth that finishes on a `stack`-byte stack, by doubling
    and then bisection."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deep.lng"
        low, high = 0, 1_000
        while high < CEILING and finishes(path, high, stack):
            low, high = high, high * 2
        while high - low > 1:
            mid = (low + high) // 2
            if finishes(path, mid, stack):
                low = mid
            else:
                high = mid
        return low


def main() -> None:
    for name, stack in STACKS.items():
        print(
            f"cnt reach at recursion limit {RECURSION_LIMIT:,}, {name} stack: {reach(stack):,}"
            f" (Python {platform.python_version()})",
            flush=True,
        )


if __name__ == "__main__":
    main()
