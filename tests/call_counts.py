"""Print the Python and C calls of one `lingua run` and one `lingua check`
pass over each workload's seed-1 corpus, and the size of the parsed tree
of its largest program.

Each corpus is built by perfbench/workloads.py and written to a temporary
directory.  A pass calls `lingua.cli.main([command, file])` once per
program, in process, with its output captured, as the benchmark harness
does.  One pass of each command runs first, uncounted, so the lazy imports
and first-use caches are behind the counted one.  The counted pass runs
under `sys.setprofile`, which sees a `call` event for every Python frame
and a `c_call` event for every builtin or C function called from Python;
the counts are deterministic for one Python version and checkout, unlike
timings, so a change to the number of calls per step shows exactly.  The
tree columns give the nodes of the largest program's tree, counted as the
traced harness counts them, and the memory tracemalloc sees held after
`parse_program` returns it.  It needs no pytest.

Run from the repository root:

    PYTHONPATH=src python tests/call_counts.py
"""

from __future__ import annotations

import contextlib
import io
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from spans import count_nodes  # noqa: E402
from lingua import cli  # noqa: E402
from lingua.parser import parse_program  # noqa: E402

SEED = 1
COMMANDS = ("run", "check")


def one_pass(command: str, paths: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for path in paths:
            cli.main([command, str(path)])


def counted_pass(command: str, paths: list) -> tuple[int, int]:
    """(Python calls, C calls) of one pass of `command` over `paths`."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        one_pass(command, paths)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def tree_size(text: str) -> tuple[int, int]:
    """(nodes, bytes) of the parsed tree of `text`."""
    parse_program(text)  # the parser's tables and caches are built untraced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = parse_program(text)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return count_nodes(tree), size


def main() -> None:
    print(f"Python {platform.python_version()}: calls per pass over each seed-{SEED} corpus")
    print(f"{'workload':<18}{'programs':>9}" + "".join(
        f"{f'{command} {kind}':>15}" for command in COMMANDS for kind in ("Python", "C")
    ) + f"{'tree nodes':>12}{'tree KB':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            paths, cases = [], workload.corpus(SEED)
            for case in cases:
                path = Path(tmp) / f"{case.name}.lng"
                path.write_text(case.text, encoding="utf-8")
                paths.append(path)
            cells = []
            for command in COMMANDS:
                one_pass(command, paths)
                cells += counted_pass(command, paths)
            nodes, size = tree_size(max((case.text for case in cases), key=len))
            print(
                f"{name:<18}{len(paths):>9}" + "".join(f"{c:>15,}" for c in cells)
                + f"{nodes:>12,}{size / 1024:>10,.0f}",
                flush=True,
            )


if __name__ == "__main__":
    main()
