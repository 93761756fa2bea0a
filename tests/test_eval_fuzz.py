"""Random programs through `lingua run`, `check` and `restore`.

Each example draws an `AstGen` seed and depth and writes the concrete text
of `gen.program(depth)` to a file.  `run` under a small step budget ends
in an exit code from 0 to 4, with no exception escaping `main`, and
`check` and `restore` accept the text.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from astgen import AstGen
from lingua.cli import main
from lingua.printer import print_concrete

RANDOM = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def exit_code(argv: list[str]) -> int:
    """`main(argv)`'s exit code, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@RANDOM
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_random_programs_end_in_an_exit_code(seed, depth):
    text = print_concrete(AstGen(seed).program(depth))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "random.lng")
        Path(path).write_text(text, encoding="utf-8")
        assert exit_code(["run", path, "--fuel", "2000"]) in range(5)
        assert exit_code(["check", path]) == 0
        assert exit_code(["restore", path]) == 0
