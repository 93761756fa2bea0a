"""Write tests/data/eval_snapshot.json: what the evaluator does on seeded cases.

Each case starts from `test_certify.seeded_state()` and runs one `AstGen`
seed: random data expressions (plus the shaped ones `test_certify` adds),
random transfers applied to every initialized variable, and one random
program under a fuel budget of 300.  The snapshot records the program's
outcome (a state, `OutOfFuel` or `RecursionError`), its register word and
state report, and every expression and transfer result, formatted.
`test_eval_snapshot.py` checks that the evaluator still reproduces it.

Run from the repository root:

    PYTHONPATH=src python tests/make_eval_snapshot.py
"""

from __future__ import annotations

import json
from pathlib import Path

from astgen import AstGen
from lingua.cli import format_composite, state_report
from lingua.kernel import OMEGA, AbstractError
from lingua.semantics import Evaluator, OutOfFuel
from lingua.state import register_word
from test_certify import seeded_state, shaped

CASES = 500
FUEL = 300
SNAPSHOT = Path(__file__).parent / "data" / "eval_snapshot.json"


def formatted(result) -> str:
    if isinstance(result, AbstractError):
        return f"error: {result.word}"
    return format_composite(result)


def snapshot_case(seed: int) -> dict:
    gen, sta = AstGen(seed), seeded_state()
    evaluator = Evaluator(fuel=FUEL)
    daes = [gen.data_exp(gen.rng.randrange(1, 5)) for _ in range(10)] + shaped(gen)
    data = [formatted(evaluator.eval_data_exp(dae, sta)) for dae in daes]
    transfers = []
    for _ in range(5):
        tra = evaluator.eval_transfer_exp(gen.tra_exp(gen.rng.randrange(1, 4)), sta)
        results = [
            formatted(tra.apply(val.composite()))
            for _, val in sorted(sta.store.valuation.items())
            if val.content is not OMEGA
        ]
        transfers.append([tra.source, *results])
    prg = gen.program(3)
    case = {"seed": seed, "data": data, "transfers": transfers}
    try:
        final = evaluator.run_program(prg, sta)
    except OutOfFuel:
        return {**case, "outcome": "OutOfFuel", "register": None, "report": None}
    except RecursionError:
        return {**case, "outcome": "RecursionError", "register": None, "report": None}
    return {
        **case,
        "outcome": "state",
        "register": register_word(final),
        "report": state_report(final),
    }


def main() -> None:
    # Each entry point evaluates at the evaluator's own recursion limit, so
    # fuel, not the host stack, ends every case.
    cases = [snapshot_case(seed) for seed in range(CASES)]
    SNAPSHOT.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case, ensure_ascii=False) for case in cases)
    SNAPSHOT.write_text(f'{{"fuel": {FUEL}, "cases": [\n{lines}\n]}}\n', encoding="utf-8")
    outcomes = {}
    for case in cases:
        outcomes[case["outcome"]] = outcomes.get(case["outcome"], 0) + 1
    print(f"wrote {len(cases)} cases to {SNAPSHOT}: {outcomes}")


if __name__ == "__main__":
    main()
