"""Start-up: what importing the package and the CLI loads.

`import lingua` loads no submodule; its names are exported lazily.  The
front end (`check`, `restore`, `ast`) runs without the evaluator, the
state module, `dataclasses` or `inspect`, and `check` without `fractions`,
`decimal` or `json`; `run` loads the evaluator when it first runs.  Node
classes build their dataclass field metadata only when it is first asked
for.  Each check that depends on what is already loaded runs in a fresh
interpreter.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import lingua
from lingua import diagnostics, kernel, parser, printer, semantics, state

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = {
    diagnostics: ["LinguaParseError", "ParseDiagnostic", "SourceSpan"],
    kernel: [
        "AbstractError", "Composite", "LangType", "Limits", "Number", "OMEGA", "TT",
        "Transfer", "Value", "apply_transfer", "clan_bo_member", "clan_ty_member",
        "coherent", "oversized",
    ],
    parser: [
        "parse_any", "parse_data_expression", "parse_program",
        "parse_transfer_expression", "parse_type_expression", "restore_expression",
    ],
    printer: ["ast_dump", "print_concrete"],
    semantics: ["Evaluator", "OutOfFuel", "eval_source_expression", "run_program", "run_source"],
    state: [
        "State", "bind_variable", "empty_state", "is_error", "load_error",
        "lookup_procedure", "lookup_type", "lookup_variable",
    ],
}  # fmt: skip


def fresh(code: str) -> str:
    """The standard output of `code` run by a fresh interpreter on this
    checkout's `src` and `perfbench`."""
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    prelude = f"import sys; sys.path[:0] = {path!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_front_end_loads_neither_the_evaluator_nor_dataclasses(tmp_path):
    path = tmp_path / "ok.lng"
    path.write_text("begin-program let x be number tel ; x := 1 + 2 end-program")
    out = fresh(
        f"""
import lingua
assert [m for m in sys.modules if m.startswith("lingua.")] == [], sorted(sys.modules)
from lingua import cli
assert cli.main(["check", {str(path)!r}]) == 0
loaded = {{
    "lingua.semantics", "lingua.state", "dataclasses", "inspect", "fractions", "decimal", "json"
}} & set(sys.modules)
assert not loaded, loaded
assert cli.main(["run", {str(path)!r}]) == 0
"""
    )
    assert out == "x = (3, number) with true\nregister = OK\n"


def test_the_exports_are_lazy_and_complete():
    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert sorted(lingua.__all__) == sorted(names) and len(names) == 38
    for module, module_names in EXPORTS.items():
        for name in module_names:
            assert getattr(lingua, name) is getattr(module, name), name
    assert set(names) <= set(dir(lingua))
    namespace: dict = {}
    exec("from lingua import *", namespace)
    assert {name: namespace[name] for name in names} == {name: getattr(lingua, name) for name in names}
    try:
        lingua.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name was found")


def test_node_field_metadata_is_built_on_first_request():
    # A class and an instance, before anything else reads the metadata,
    # and then the harness's node count of the scalar-loops seed-1 corpus.
    # Each of its 102 programs is parsed twice by the traced harness (check,
    # then run), which is why CI's parser.nodes reads twice this, 42,024.
    out = fresh(
        """
from lingua import nodes as n
from lingua.parser import parse_program
assert "dataclasses" not in sys.modules
import dataclasses
names = tuple(f.name for f in dataclasses.fields(n.AddExp))
assert names == n.AddExp.__match_args__ == ("dae1", "dae2"), names
node = n.CallIns("p", ("a",), ("b",))
names = tuple(f.name for f in dataclasses.fields(node))
assert names == n.CallIns.__match_args__ == ("ide", "ref_args", "val_args"), names
import spans, workloads
cases = workloads.WORKLOADS["scalar-loops"].corpus(1)
print(len(cases), sum(spans.count_nodes(parse_program(c.text)) for c in cases))
"""
    )
    assert out == "102 21012\n"


def test_every_node_class_reports_its_fields():
    for cls in vars(lingua.nodes).values():
        if isinstance(cls, type) and issubclass(cls, lingua.nodes.Node) and cls is not lingua.nodes.Node:
            assert tuple(f.name for f in dataclasses.fields(cls)) == cls.__match_args__, cls
