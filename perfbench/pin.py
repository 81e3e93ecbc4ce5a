"""Write the pinned outputs in expected/ from the program as it stands.

Usage: python3 perfbench/pin.py

Run this only when a change is meant to alter the demo's regret.csv and
bounds.txt or the sweep CSV lines at seed 42, and say so in CHANGES.md.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import PINNED_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    expected = HERE / "expected"
    expected.mkdir(exist_ok=True)
    workload = WORKLOADS["sweep-k10"]
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        workload.make_inputs(PINNED_SEED, "full", tmp)
        state = workload.setup(tmp, tmp)
        for label, fn in workload.operations(state):
            value = fn()
            if label.startswith("sweep:"):
                _, lines = value
                policy = label.split(":", 1)[1]
                (expected / f"sweep_{policy}.csv").write_text(
                    "\n".join(lines) + "\n", encoding="utf-8"
                )
        shutil.copyfile(tmp / "demo" / "regret.csv", expected / "demo_regret.csv")
        shutil.copyfile(tmp / "demo" / "bounds.txt", expected / "demo_bounds.txt")
    print(f"wrote pinned outputs to {expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
