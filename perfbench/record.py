"""Record the expected outputs that the benchmark's gate compares with.

    python3 perfbench/record.py

Runs every workload once at each size (seed 0; no canonical output depends
on the seed) and writes expected.json: the item count and the sha256 of the
canonical outputs. The cochain dims are recorded from the dense rank
oracle, not from the timed path. Rerun only when a change is meant to alter
these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record() -> dict:
    expected = {}
    for name, workload in workloads.WORKLOADS.items():
        expected[name] = {}
        for size, params in workloads.SIZES[name].items():
            state = workload.setup(0, **params)
            outcome = workload.check(state, workload.run(state))
            if outcome.failed_items:
                raise SystemExit(f"{name}/{size}: {outcome.failures}")
            canonical = outcome.canonical
            if name == "cochain":
                canonical = workload.oracle_dims(params["level"])
            expected[name][size] = {"items": outcome.items,
                                    "sha256": workloads.digest(canonical)}
            print(name, size, expected[name][size], flush=True)
    return expected


if __name__ == "__main__":
    text = json.dumps(record(), indent=2, sort_keys=True) + "\n"
    workloads.EXPECTED_PATH.write_text(text)
