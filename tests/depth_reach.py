"""Print the deepest recursion of `cnt` that `lingua run` finishes.

`cnt` is the recursive function of `TestDeepRecursion` in
tests/test_cli.py: `cnt(n)` calls itself on `n - 1` down to 0.  Each depth
runs in a subprocess of `python -m lingua.cli run`, which evaluates at the
CLI's recursion limit, and a bisection finds the deepest one that exits 0
with the right answer; the search takes every shallower depth to finish
too.  The subprocesses run the interpreter that runs this script; to
measure another, run the script under it (with pytest installed, since
tests/test_cli.py imports it).

Run from the repository root:

    PYTHONPATH=src python tests/depth_reach.py
"""

from __future__ import annotations

import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from lingua.cli import RECURSION_LIMIT
from test_cli import TestDeepRecursion, cli_env

CEILING = 1 << 16  # deeper than any reach at the CLI's limit


def finishes(path: Path, depth: int) -> bool:
    path.write_text(TestDeepRecursion.PROGRAM % depth, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "lingua.cli", "run", str(path)],
        capture_output=True,
        env=cli_env(),
        timeout=60,
    )
    return proc.returncode == 0 and f"({depth}, number)".encode() in proc.stdout


def reach() -> int:
    """The deepest depth that finishes, by doubling and then bisection."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deep.lng"
        low, high = 0, 1_000
        while high < CEILING and finishes(path, high):
            low, high = high, high * 2
        while high - low > 1:
            mid = (low + high) // 2
            if finishes(path, mid):
                low = mid
            else:
                high = mid
        return low


def main() -> None:
    print(
        f"cnt reach at recursion limit {RECURSION_LIMIT:,}: {reach():,}"
        f" (Python {platform.python_version()})"
    )


if __name__ == "__main__":
    main()
