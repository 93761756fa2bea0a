"""Per-layer tracing from outside the interpreter.

`Tracer.install` replaces names inside the lingua modules with timing or
counting wrappers and `uninstall` puts the originals back.  Names are
wrapped where they are looked up: `semantics` and `parser` bind kernel,
printer, state and lexer functions with from-imports, so those are
wrapped in the importing module; methods are wrapped on their class,
where recursive calls find them too.

Every span records its name, start, end, parent span and operation id.
Spans are kept in flat arrays while the pass runs and written out at the
end.  Aggregates are kept as the spans close:

- `calls`: how many times the span ran;
- `s`: inclusive time, counting a span nested in one of its own name once;
- `self_s`: time not covered by child spans.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from pathlib import Path

# Spans beyond this many are aggregated but not stored, which bounds memory.
MAX_STORED_SPANS = 4_000_000


def count_nodes(root) -> int:
    from lingua.nodes import Node

    count, stack = 0, [root]
    while stack:
        item = stack.pop()
        if isinstance(item, Node):
            count += 1
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif isinstance(item, tuple):
            stack.extend(item)
    return count


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self._active: list[int] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[list] = []  # [stored index, time covered by children]
        self._undo: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
            self._active.append(0)
        return self._ids[name]

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Time `fn` as span `name`; `after(result)` runs outside the span."""
        nid = self._intern(name)
        perf = time.perf_counter
        stack, active = self._stack, self._active
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        def traced(*args, **kwargs):
            if len(starts) < MAX_STORED_SPANS:
                index = len(starts)
                names.append(nid)
                starts.append(0.0)
                ends.append(0.0)
                parents.append(stack[-1][0] if stack else -1)
                ops.append(self.op)
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[nid] -= 1
                duration = t1 - t0
                calls[nid] += 1
                self_time[nid] += duration - frame[1]
                if not active[nid]:
                    inclusive[nid] += duration
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    starts[index] = t0
                    ends[index] = t1
            if after is not None:
                after(result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Count calls of `fn`."""
        add = self.adder(name, lambda result: 1)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            add(result)
            return result

        return counted

    def adder(self, name: str, amount):
        """A callback that adds `amount(result)` to the count `name`."""
        counts = self.counts
        counts.setdefault(name, 0)

        def add(result) -> None:
            counts[name] += amount(result)

        return add

    def root(self, name: str, op: int, fn, *args):
        """Run one operation as a root span with its own operation id."""
        self.op = op
        return self.span(name, fn)(*args)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from lingua import cli, kernel, parser, semantics

        ev = semantics.Evaluator
        nodes = self.adder("parser.nodes", count_nodes)
        tokens = self.adder("lexer.tokens", len)
        plan = [
            (parser, "tokenize", self.span("lexer.tokenize", parser.tokenize, after=tokens)),
            (cli, "parse_program", self.span("parser.parse", cli.parse_program, after=nodes)),
            (cli, "parse_any", self.span("parser.parse", cli.parse_any, after=lambda r: nodes(r[1]))),
            (ev, "exec_instruction", self.span("semantics.exec_instruction", ev.exec_instruction)),
            (ev, "eval_data_exp", self.span("semantics.eval_data_exp", ev.eval_data_exp)),
            (ev, "eval_type_exp", self.span("semantics.eval_type_exp", ev.eval_type_exp)),
            (ev, "eval_transfer_exp", self.counter("semantics.eval_transfer_exp.calls", ev.eval_transfer_exp)),
            (ev, "call_imperative_procedure", self.span("semantics.call", ev.call_imperative_procedure)),
            (ev, "call_functional_procedure", self.span("semantics.call", ev.call_functional_procedure)),
            (semantics.Fuel, "spend", self.counter("semantics.steps", semantics.Fuel.spend)),
            (semantics, "print_concrete", self.span("printer.print_concrete", semantics.print_concrete)),
            (semantics, "bind_variable", self.span("state.bind", semantics.bind_variable)),
            (semantics, "apply_transfer", self.span("kernel.apply_transfer", semantics.apply_transfer)),
            (kernel, "apply_transfer", self.span("kernel.apply_transfer", kernel.apply_transfer)),
            (semantics, "coherent", self.span("kernel.coherent", semantics.coherent)),
            (semantics, "oversized", self.counter("kernel.oversized.calls", semantics.oversized)),
            (kernel, "clan_bo_member", self.counter("kernel.clan_bo_member.calls", kernel.clan_bo_member)),
            (kernel, "body_of", self.counter("kernel.body_of.calls", kernel.body_of)),
            (kernel.Composite, "__post_init__", self.span("kernel.composite_check", kernel.Composite.__post_init__)),
            (cli, "state_report", self.span("cli.state_report", cli.state_report)),
        ]
        for op in ("add", "mul", "divide", "lt", "digits"):
            plan.append((kernel.Number, op, self.span("kernel.number_ops", getattr(kernel.Number, op))))
        for owner, attr, wrapper in plan:
            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def aggregate(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.inclusive[nid], self.self_time[nid]

    def self_times(self) -> dict[str, float]:
        return {name: self.self_time[i] for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as raw arrays in `path`, described by `path` + '.json'."""
        columns = ("span_name", "span_start", "span_end", "span_parent", "span_op")
        with open(path, "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        index = {
            "names": self.names,
            "spans": len(self.span_start),
            "dropped": self.dropped,
            "columns": [[c, getattr(self, c).typecode, getattr(self, c).itemsize] for c in columns],
        }
        Path(str(path) + ".json").write_text(json.dumps(index, indent=1) + "\n")
