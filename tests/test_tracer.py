"""The benchmark's tracer against the interpreter it patches.

`perfbench/spans.py` wraps names inside the lingua modules and classes,
slotted ones included, and must put every original back.  The module is
loaded from its file; nothing under `perfbench/` is changed.
"""

import importlib.util
from pathlib import Path

from lingua import cli, kernel, parser, semantics
from lingua.semantics import run_source
from lingua.state import lookup_variable

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

OWNERS = (
    cli, kernel, parser, semantics,
    semantics.Evaluator, semantics.Fuel, kernel.Number, kernel.Composite,
)  # fmt: skip

PROGRAM = """begin-program
  let i be number tel ;
  let s be number tel ;
  i := 0 ;
  s := 0.5 ;
  while i < 3 do s := s + i * 1.5 ; i := i + 1 od
end-program"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def snapshot() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def changed(before: list[dict], after: list[dict]) -> set[tuple[int, str]]:
    return {
        (k, name)
        for k, (old, new) in enumerate(zip(before, after))
        for name in old.keys() | new.keys()
        if old.get(name) is not new.get(name)
    }


def test_tracer_patches_counts_and_restores_the_kernel():
    untraced = run_source(PROGRAM)
    before = snapshot()
    tracer = load_tracer()
    tracer.install()
    try:
        patched = changed(before, snapshot())
        traced = run_source(PROGRAM)
    finally:
        tracer.uninstall()
    assert not changed(before, snapshot())

    names = {(OWNERS[k].__name__, name) for k, name in patched}
    for op in ("add", "mul", "divide", "lt", "digits"):
        assert ("Number", op) in names
    assert ("Composite", "__post_init__") in names
    assert ("lingua.semantics", "oversized") in names

    assert lookup_variable(traced, "s") == lookup_variable(untraced, "s")
    assert tracer.counts["semantics.steps"] == 3
    assert tracer.counts["kernel.oversized.calls"] > 0
    assert tracer.counts["lexer.tokens"] > 0
    assert tracer.aggregate("kernel.number_ops")[0] > 0
