"""The evaluator reproduces the recorded behaviour of seeded random cases.

`tests/data/eval_snapshot.json` was written by `make_eval_snapshot.py`
from the tree-walking evaluator, before it was replaced by compiled
closures; every case must still come out the same.
"""

import json

from make_eval_snapshot import FUEL, SNAPSHOT, snapshot_case


def test_snapshot_is_reproduced():
    recorded = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert recorded["fuel"] == FUEL
    assert 0 < len(recorded["cases"]) <= 500
    for case in recorded["cases"]:
        assert snapshot_case(case["seed"]) == case, case["seed"]
