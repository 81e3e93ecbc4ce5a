"""Fast self-test of the benchmark harness at tiny work sizes.

Usage: python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the metrics
BENCHMARK.json names, each with its unit, with no failed operation at an
unpinned seed; that a deliberately wrong pinned output makes the error rate
positive; and that compare.py refuses records of different seeds. Exits 0
when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SEED = 3  # not the pinned seed, so the seed-independent checks carry the run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    records = {}
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            record = run.run_workload(name, SEED, 0.1, trace, size="tiny")
            records[name, trace] = record
            got = {key: m["unit"] for key, m in record["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {wanted[trace]}")
            if record["failed"]:
                problems.append(f"{name} trace={trace}: failures {record['failures']}")

    wrong = run.OUT / "selftest-expected"
    shutil.rmtree(wrong, ignore_errors=True)
    shutil.copytree(HERE / "expected", wrong)
    with open(wrong / "demo_regret.csv", "a", encoding="utf-8") as fh:
        fh.write("4097,0,0,0,0\n")
    record = run.run_workload("sweep-k10", SEED + 1, 0.1, False, size="tiny",
                              expected=wrong)
    if not record["failed"] or record["correct"]:
        problems.append("a wrong pinned regret.csv did not make error_rate > 0")

    other = run.run_workload("certify", SEED + 1, 0.1, False, size="tiny")
    if not compare.comparable(records["certify", False], other):
        problems.append("compare accepted records of different seeds")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
