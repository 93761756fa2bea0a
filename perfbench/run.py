"""Lingua benchmark: `lingua check` and `lingua run` on seeded programs.

Run from the root of a Lingua checkout:

    python3 perfbench/run.py --workload collection-build --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: every operation is
`lingua.cli.main([command, file])` called in-process with its output
captured, and the next starts when the previous one returns.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPS = 7
# Other work on the machine's cores moves its speed by tens of percent
# within minutes.  Every timed operation is therefore bracketed by a fixed
# calibration workload, and its latency is reported at the reference
# speed, the one at which that workload takes this long:
# seconds * REFERENCE_CALIBRATION_S / mean calibration seconds before and
# after.  Raw wall-clock quantiles are printed beside the scaled ones.
REFERENCE_CALIBRATION_S = 0.0004
# The calibration evaluates a fixed two-iteration scalar-loops program in
# the oracle: Fraction arithmetic, small objects and method dispatch slow
# down with the machine in the same proportion as the interpreter does,
# which a tighter loop does not.  It runs no lingua code, so a change to
# the interpreter cannot move it.
CALIBRATION_PROGRAM = workloads.scalar_program(random.Random(0), 2)
# A restore of a program this long exercises the printer's recursion depth.
SELF_TEST_LINES = 1300


def calibration() -> float:
    """Seconds for the calibration workload, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        CALIBRATION_PROGRAM.expect()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Outcome:
    code: Optional[int]
    out: str
    err: str
    seconds: float
    exc: Optional[BaseException] = None
    cal: float = REFERENCE_CALIBRATION_S  # calibration seconds around the operation

    @property
    def scaled(self) -> float:
        """Seconds at the reference speed."""
        return self.seconds * REFERENCE_CALIBRATION_S / self.cal


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)  # (phase, program, command, cause)

    def record(self, phase: str, program: str, command: str, cause: Optional[str]) -> bool:
        self.attempted += 1
        if cause is not None:
            self.failures.append((phase, program, command, cause))
        return cause is None


class Harness:
    """Calls `lingua.cli.main` in-process with captured output.

    `lingua run` raises the process-wide recursion limit; the limit goes
    back to its start value before every operation, so that an earlier
    `run` cannot hide a recursion failure of a later `restore`.
    """

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.start_limit = sys.getrecursionlimit()
        self.last_cal: Optional[float] = None  # calibration right before the next operation

    def invoke(self, command: str, path: Path, tracer: Optional[Tracer] = None, op: int = 0,
               calibrate: bool = False) -> Outcome:
        before = (self.last_cal or calibration()) if calibrate else None
        out, err = io.StringIO(), io.StringIO()
        sys.setrecursionlimit(self.start_limit)
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main([command, str(path)])
                else:
                    code = tracer.root(f"cli.{command}", op, self.cli.main, [command, str(path)])
            except Exception as caught:  # an escaped exception is a failed operation
                code, exc = None, caught
            seconds = time.perf_counter() - t0
        sys.setrecursionlimit(self.start_limit)
        outcome = Outcome(code, out.getvalue(), err.getvalue(), seconds, exc)
        self.last_cal = calibration() if calibrate else None
        if calibrate:
            outcome.cal = (before + self.last_cal) / 2
        return outcome


def cause_of(outcome: Outcome, expected_code: int, expected_out: Optional[list]) -> Optional[str]:
    """None when the outcome matches the expectation, else why not."""
    if outcome.exc is not None:
        return f"{type(outcome.exc).__name__} escaped cli.main"
    if outcome.code != expected_code:
        detail = outcome.err.strip().splitlines()[:1]
        return f"exit {outcome.code}, expected {expected_code}" + (f" ({detail[0]})" if detail else "")
    if outcome.err:
        return f"unexpected stderr: {outcome.err.strip().splitlines()[0]}"
    if expected_out is not None:
        got = outcome.out.splitlines()
        if got != expected_out:
            for k, (a, b) in enumerate(zip(got, expected_out)):
                if a != b:
                    return f"state report line {k + 1} differs: {a[:60]!r} vs {b[:60]!r}"
            return f"state report has {len(got)} lines, expected {len(expected_out)}"
    return None


def check_op(h: Harness, tally: Tally, phase: str, c, path: Path, command: str, **kw) -> Outcome:
    outcome = h.invoke(command, path, **kw)
    if command == "run":
        cause = cause_of(outcome, c.exit_code, c.report)
    else:
        cause = cause_of(outcome, 0, [])
    tally.record(phase, c.name, command, cause)
    return outcome


# -- set-up ------------------------------------------------------------------------


def measure_setup(root: Path) -> list:
    """Wall time for a fresh interpreter to start and import lingua.cli,
    as (raw seconds, seconds at the reference speed) pairs."""
    code = "import sys; sys.path.insert(0, 'src'); import lingua.cli"
    times = []
    for _ in range(SETUP_REPS):
        before = calibration()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
        seconds = time.perf_counter() - t0
        cal = (before + calibration()) / 2
        times.append((seconds, seconds * REFERENCE_CALIBRATION_S / cal))
    return times


def write_corpus(cases: list, workdir: Path) -> list:
    paths = []
    for c in cases:
        path = workdir / f"{c.name}.lng"
        path.write_text(c.text, encoding="utf-8")
        paths.append(path)
    return paths


# -- untimed checks ------------------------------------------------------------------


def restore_pass(h: Harness, cases: list, paths: list, tally: Tally) -> None:
    """`restore` must be a fixpoint and keep the tree that `ast` dumps."""
    for c, path in zip(cases, paths):
        restored = h.invoke("restore", path)
        ok = tally.record("restore-pass", c.name, "restore", cause_of(restored, 0, None))
        dumped = h.invoke("ast", path)
        tally.record("restore-pass", c.name, "ast", cause_of(dumped, 0, None))
        if not ok:
            continue
        again_path = path.with_suffix(".restored.lng")
        again_path.write_text(restored.out, encoding="utf-8")
        again = h.invoke("restore", again_path)
        cause = cause_of(again, 0, None)
        if cause is None and again.out != restored.out:
            cause = "restoring the restored text changes it"
        tally.record("restore-pass", c.name, "restore(restored)", cause)
        redumped = h.invoke("ast", again_path)
        cause = cause_of(redumped, 0, None)
        if cause is None and dumped.code == 0 and redumped.out != dumped.out:
            cause = "the restored text parses to a different tree"
        tally.record("restore-pass", c.name, "ast(restored)", cause)


def recursion_self_test(h: Harness) -> tuple[bool, str]:
    """A `run` between two restores of a long program must not change the second."""
    rng = random.Random("self-test")
    long_case = workloads.case("self-test-long", "", workloads.frontend_program(rng, SELF_TEST_LINES))
    short_case = workloads.case("self-test-short", "", workloads.frontend_program(rng, 20))
    long_path = h.workdir / "self-test-long.lng"
    short_path = h.workdir / "self-test-short.lng"
    long_path.write_text(long_case.text, encoding="utf-8")
    short_path.write_text(short_case.text, encoding="utf-8")
    before = h.invoke("restore", long_path)
    ran = h.invoke("run", short_path)
    after = h.invoke("restore", long_path)
    summary = lambda o: f"exit {o.code}" + (f", {type(o.exc).__name__}" if o.exc else "")
    same = (summary(before), before.out) == (summary(after), after.out)
    ran_ok = cause_of(ran, short_case.exit_code, short_case.report) is None
    text = (
        f"restore of a {long_case.lines}-line program: {summary(before)} before a run, "
        f"{summary(after)} after it ({'same' if same else 'DIFFERENT'})"
    )
    return same and ran_ok, text


# -- timed loop ------------------------------------------------------------------------


def timed_loop(h: Harness, cases: list, paths: list, seconds: float, tally: Tally):
    """Closed loop over the corpus until `seconds` pass; the first pass always completes.

    Returns per-program samples at the reference speed, the same samples
    raw, the programs checked and run, and the wall time."""
    samples = {c.name: {"check": [], "run": []} for c in cases}
    raw = {c.name: {"check": [], "run": []} for c in cases}
    # The corpus and the oracle's objects are the harness's, not the
    # interpreter's: keep them out of the collections timed operations pay for.
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    programs = passes = 0
    while True:
        for c, path in zip(cases, paths):
            for command in ("check", "run"):
                outcome = check_op(h, tally, "timed", c, path, command, calibrate=True)
                samples[c.name][command].append(outcome.scaled)
                raw[c.name][command].append(outcome.seconds)
            programs += 1
            if passes and time.perf_counter() >= deadline:
                break
        passes += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - t0
    return samples, raw, programs, wall


# A quantile is the mean of this many per-program values nearest its rank.
# Neighbouring programs have neighbouring sizes, so the window smooths the
# noise of single operations without mixing in other sizes.
QUANTILE_WINDOW = 9


def quantile_ms(values: list, q: float) -> float:
    ms = sorted(v * 1000 for v in values)
    centre = round(q * (len(ms) - 1))
    lo = min(max(0, centre - QUANTILE_WINDOW // 2), len(ms) - QUANTILE_WINDOW)
    return statistics.fmean(ms[lo:lo + QUANTILE_WINDOW])


def quantiles_ms(values: list) -> tuple[float, float]:
    """p50 and p90 of per-program latencies, in ms."""
    return quantile_ms(values, 0.5), quantile_ms(values, 0.9)


# -- traced run --------------------------------------------------------------------------


def traced_pass(h: Harness, cases: list, paths: list, tally: Tally) -> tuple[Tracer, float, float]:
    """One traced pass; returns the tracer, the pass's operation time at the
    reference speed, and the factor that takes its span times there."""
    tracer = Tracer()
    tracer.install()
    scaled, cals = 0.0, []
    try:
        gc.collect()
        op = 0
        for c, path in zip(cases, paths):
            for command in ("check", "run"):
                outcome = check_op(h, tally, "traced", c, path, command, tracer=tracer, op=op,
                                   calibrate=True)
                scaled += outcome.scaled
                cals.append(outcome.cal)
                op += 1
    finally:
        tracer.uninstall()
    return tracer, scaled, REFERENCE_CALIBRATION_S / statistics.median(cals)


def median_run_ms(h: Harness, c, path: Path, tally: Tally, reps: int) -> float:
    times = []
    for _ in range(reps):
        times.append(check_op(h, tally, "sweep", c, path, "run", calibrate=True).scaled * 1000)
    return statistics.median(times)


def sweep(h: Harness, w, seed: int, tally: Tally) -> dict:
    """run_ms of fresh programs at n, 2n and 4n, median of three runs each."""
    cases = w.sweep(seed)
    paths = write_corpus(cases, h.workdir)
    return {f"sweep.run_ms.{c.size}": median_run_ms(h, c, p, tally, 3) for c, p in zip(cases, paths)}


# (quoted seed figure, program kind, size, quoted seconds or None)
ROADMAP_FIGURES = {
    "scalar-loops": [
        ("roadmap: counting loop, 10000 iterations, 0.53 s", "count", 10000, 0.53),
    ],
    "collection-build": [
        ("seed: append, n=250, 0.05 s", "append", 250, 0.05),
        ("seed: append, n=500, 0.17 s", "append", 500, 0.17),
        ("roadmap: append, n=500, 0.23 s", "append", 500, 0.23),
        ("seed: append, n=1000, 0.63 s", "append", 1000, 0.63),
        ("roadmap: append, n=1000, 0.94 s", "append", 1000, 0.94),
        ("roadmap: append, n=2000, 3.56 s", "append", 2000, 3.56),
        ("roadmap: all-array-yoked append, n=250, 0.42 s", "yoked", 250, 0.42),
        ("roadmap: all-array-yoked append, n=500, 1.64 s", "yoked", 500, 1.64),
    ],
    "collection-scan": [
        ("seed: index scan, n=250, 0.09 s", "scan", 250, 0.09),
        ("seed: index scan, n=500, 0.34 s", "scan", 500, 0.34),
        ("seed: index scan, n=1000, 1.38 s", "scan", 1000, 1.38),
    ],
    "frontend-bulk": [
        ("seed: check, 3000 lines, 0.63 s; roadmap: parse 130-170 ms, lexer ~55%, run 83 ms",
         "lines", 3000, 0.63),
    ],
}


def _figure_source(kind: str, n: int) -> str:
    if kind == "count":
        return f"begin-program let i be number tel ; i := 0 ; while i < {n} do i := i + 1 od end-program\n"
    yoke = "replace-transfer-in array-type number ee by all-array value < 100000 ee ee"
    typ = yoke if kind == "yoked" else "array-type number ee"
    head = f"begin-program let a be {typ} tel ; let i be number tel ; let x be number tel ;\n"
    build = f"a := array [0] ; i := 1 ; while i < {n} do a := add-to-arr a new i ee ; i := i + 1 od"
    if kind == "scan":
        build += f" ; x := 0 ; i := 1 ; while i < {n} do x := x + a.[i] ; i := i + 1 od"
    return head + build + "\nend-program\n"


def roadmap_figures(h: Harness, workload: str, tally: Tally) -> list:
    """Re-measure, untraced and at the reference speed, the seed figures
    quoted for this repository."""
    lines = []
    measured: dict = {}
    for label, kind, n, quoted in ROADMAP_FIGURES[workload]:
        path = h.workdir / f"figure-{kind}-{n}.lng"
        if kind == "lines":
            c = workloads.case("figure", "", workloads.frontend_program(random.Random(0), n))
            path.write_text(c.text, encoding="utf-8")
            from lingua.lexer import tokenize
            from lingua.parser import parse_program

            check = h.invoke("check", path, calibrate=True)
            tally.record("figures", "figure", "check", cause_of(check, 0, []))
            run = check_op(h, tally, "figures", c, path, "run", calibrate=True)
            before = calibration()
            t0 = time.perf_counter()
            tokenize(c.text)
            t1 = time.perf_counter()
            parse_program(c.text)
            t2 = time.perf_counter()
            scale = 2 * REFERENCE_CALIBRATION_S / (before + calibration())
            lines.append(
                f"{label} -> check {check.scaled:.3f} s ({check.scaled / quoted:.2f}x), "
                f"parse {1000 * (t2 - t1) * scale:.0f} ms, lexer {100 * (t1 - t0) / (t2 - t1):.0f}% of it, "
                f"run {1000 * run.scaled:.0f} ms"
            )
            continue
        if (kind, n) not in measured:
            path.write_text(_figure_source(kind, n), encoding="utf-8")
            outcome = h.invoke("run", path, calibrate=True)
            tally.record("figures", path.name, "run", cause_of(outcome, 0, None))
            measured[kind, n] = outcome.scaled
        seconds = measured[kind, n]
        note = f"{seconds:.3f} s ({seconds / quoted:.2f}x)"
        if kind == "count":
            note += f", {1e6 * seconds / n:.1f} us/iteration"
        lines.append(f"{label} -> {note}")
    return lines


PER_LAYER_SPANS = {
    # metric prefix: (span name, fields)
    "semantics.exec_instruction": ("semantics.exec_instruction", ("calls", "self_s")),
    "semantics.eval_data_exp": ("semantics.eval_data_exp", ("calls", "self_s")),
    "semantics.call": ("semantics.call", ("calls", "self_s")),
    "semantics.eval_type_exp": ("semantics.eval_type_exp", ("calls", "self_s")),
    "printer.print_concrete": ("printer.print_concrete", ("calls", "s")),
    "state.bind": ("state.bind", ("calls", "s")),
    "kernel.composite_check": ("kernel.composite_check", ("calls", "s")),
    "kernel.apply_transfer": ("kernel.apply_transfer", ("calls", "s")),
    "kernel.coherent": ("kernel.coherent", ("calls", "s")),
    "kernel.number_ops": ("kernel.number_ops", ("calls", "s")),
    "lexer.tokenize": ("lexer.tokenize", ("s",)),
    "parser.parse": ("parser.parse", ("self_s",)),
    "cli.state_report": ("cli.state_report", ("s",)),
}
COUNTERS = (
    "lexer.tokens",
    "parser.nodes",
    "semantics.steps",
    "semantics.eval_transfer_exp.calls",
    "kernel.clan_bo_member.calls",
    "kernel.body_of.calls",
    "kernel.oversized.calls",
)


def layer_metrics(tracer: Tracer, scale: float) -> dict:
    """Per-layer metrics; `scale` takes span times to the reference speed."""
    metrics = {}
    for prefix, (span, fields) in PER_LAYER_SPANS.items():
        calls, inclusive, self_s = tracer.aggregate(span)
        values = {"calls": (calls, "count"), "s": (inclusive * scale, "s"), "self_s": (self_s * scale, "s")}
        for f in fields:
            value, unit = values[f]
            metrics[f"{prefix}.{f}"] = (value, unit)
    for name in COUNTERS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    return metrics


# -- main ------------------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emit(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.4f}" if isinstance(value, float) else str(value)
    print(f"  {name:<40} {shown:>14} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "lingua" / "cli.py").is_file():
        print(f"perfbench: no Lingua sources at {src}/lingua; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from lingua import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported lingua from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, root, w, cli, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, w, cli, workdir: Path, out_dir: Path) -> int:
    h = Harness(cli, workdir)
    tally = Tally()
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    phases = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    setup = measure_setup(root)
    phase("setup")
    cases = w.corpus(args.seed)
    digest = workloads.corpus_hash([c.text for c in cases])
    same_hash = workloads.corpus_hash([p.source() for _, _, p in w.programs(args.seed)]) == digest
    paths = write_corpus(cases, workdir)
    phase("corpus")
    sizes: dict = {}
    for c in cases:
        sizes[c.size] = sizes.get(c.size, 0) + 1
    if len(sizes) <= 3:
        size_text = " ".join(f"{k}={v}" for k, v in sorted(sizes.items()))
    else:
        size_text = f"{min(c.lines for c in cases)}-{max(c.lines for c in cases)} lines"
    print(f"corpus: {len(cases)} programs ({size_text}), hash {digest}, "
          f"regenerated from the seed: {'same hash' if same_hash else 'DIFFERENT HASH'}")

    self_test_ok, self_test_text = recursion_self_test(h)
    print(f"recursion self-test: {self_test_text}")
    phase("self-test")

    restore_pass(h, cases, paths, tally)
    phase("restore-pass")
    restore_attempted, restore_failed = tally.attempted, len(tally.failures)

    samples, raw, programs, wall = timed_loop(h, cases, paths, args.seconds, tally)
    phase("timed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def per_program(table: dict, command: str) -> list:
        return [statistics.median(table[c.name][command]) for c in cases]

    run_p50, run_p90 = quantiles_ms(per_program(samples, "run"))
    check_p50, check_p90 = quantiles_ms(per_program(samples, "check"))
    busy = sum(sum(s["check"]) + sum(s["run"]) for s in samples.values())
    counts = [len(samples[c.name]["run"]) for c in cases]
    print(f"timed: {programs} programs checked and run in {wall:.2f} s wall, "
          f"{min(counts)}-{max(counts)} samples per program, quantiles over {len(cases)} per-program medians")
    raw_run, raw_check = quantiles_ms(per_program(raw, "run")), quantiles_ms(per_program(raw, "check"))
    print(f"raw wall clock: run_ms p50 {raw_run[0]:.3f} p90 {raw_run[1]:.3f}, "
          f"check_ms p50 {raw_check[0]:.3f} p90 {raw_check[1]:.3f}, "
          f"setup_s {statistics.median(s for s, _ in setup):.4f}, runs_per_s {programs / wall:.3f}")

    end_to_end = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "run_ms.p50": (run_p50, "ms"),
        "run_ms.p90": (run_p90, "ms"),
        "check_ms.p50": (check_p50, "ms"),
        "check_ms.p90": (check_p90, "ms"),
        "runs_per_s": (programs / busy, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }

    per_layer: dict = {}
    if args.trace:
        untraced = sum(per_program(samples, "check")) + sum(per_program(samples, "run"))
        tracer, traced, scale = traced_pass(h, cases, paths, tally)
        phase("traced")
        per_layer = layer_metrics(tracer, scale)
        per_layer.update({k: (v, "ms") for k, v in sweep(h, w, args.seed, tally).items()})
        per_layer["trace.overhead_ratio"] = (traced / untraced, "ratio")
        phase("sweep")
        spans_path = out_dir / f"spans-{w.name}.bin"
        tracer.write(spans_path)
        print(f"traced pass: {2 * len(cases)} operations, {traced:.2f} s against {untraced:.2f} s "
              f"untraced (reference speed); {len(tracer.span_start)} spans written to "
              f"{spans_path.relative_to(root)}")
        print("self time by span (s, reference speed):")
        for name, value in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
            emit(name, value * scale, "s")
        steps_expected = sum(c.steps for c in cases)
        steps_seen = tracer.counts.get("semantics.steps", 0)
        print(f"fuel spent: {steps_seen} traced, {steps_expected} by the oracle "
              f"({'same' if steps_seen == steps_expected else 'DIFFERENT'})")
        print("quoted seed figures, re-measured untraced at the reference speed:")
        for line in roadmap_figures(h, w.name, tally):
            print(f"  {line}")
        phase("figures")
        fuel_ok = steps_seen == steps_expected
    else:
        fuel_ok = True

    # The result line counts the measured operations: the timed loop, the
    # traced pass, the sweep and the quoted figures.  The untimed restore
    # pass checks a property of the printer, not a measured operation; its
    # failures are reported on their own line below and in the result file.
    failed = sum(1 for f in tally.failures if f[0] != "restore-pass")
    attempted = tally.attempted - restore_attempted
    correct = same_hash and self_test_ok and fuel_ok and failed == 0

    print(f"end-to-end metrics (untraced, at the reference speed where the calibration loop "
          f"takes {1000 * REFERENCE_CALIBRATION_S:g} ms):")
    for name, (value, unit) in end_to_end.items():
        emit(name, value, unit)
    emit("failed_ratio", failed / attempted, "ratio", f"{failed} failed / {attempted} attempted")
    emit("restore_pass.failed_ratio", restore_failed / restore_attempted, "ratio",
         f"{restore_failed} failed / {restore_attempted} attempted")
    if per_layer:
        print("per-layer metrics (traced pass; sweep untraced):")
        for name, (value, unit) in per_layer.items():
            emit(name, value, unit)
    print("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    lines_of = {c.name: c.lines for c in cases}
    groups: dict = {}
    for phase_name, program, command, cause in tally.failures:
        groups.setdefault((phase_name, command, cause), []).append(lines_of.get(program, 0))
    for (phase_name, command, cause), lines in sorted(groups.items()):
        print(f"  failed [{phase_name}] {command}: {cause} x{len(lines)}, {min(lines)}-{max(lines)} lines")
    for phase_name, program, command, cause in tally.failures:
        print(f"failure [{phase_name}] {program} {command}: {cause}", file=sys.stderr)

    chosen = per_layer if args.trace else end_to_end
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {"workload": w.name, "seed": args.seed, "corpus_hash": digest, **summary,
               "restore_pass": {"attempted": restore_attempted, "failed": restore_failed},
               "failures": tally.failures}
    (out_dir / f"result-{w.name}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
