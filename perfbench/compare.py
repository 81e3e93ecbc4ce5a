"""Compare two result records written by run.py.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Records live under .perfbench-out/results/. Two records are comparable
only when they measured the same workload, seed, trace mode and kernel
backend; otherwise this refuses with exit code 2. It prints each metric's
base value, new value and new/base ratio.
"""
from __future__ import annotations

import json
import sys

MUST_MATCH = (
    ("workload", lambda r: r["workload"]),
    ("seed", lambda r: r["provenance"]["seed"]),
    ("trace", lambda r: r["trace"]),
    ("size", lambda r: r["size"]),
    ("backend", lambda r: r["provenance"]["backend"]),
)


def comparable(base: dict, new: dict) -> list[str]:
    """Reasons the two records may not be compared (empty when they may)."""
    return [
        f"{name} differs: {get(base)!r} vs {get(new)!r}"
        for name, get in MUST_MATCH
        if get(base) != get(new)
    ]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        new = json.load(fh)
    reasons = comparable(base, new)
    if reasons:
        for reason in reasons:
            print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    print(f"{base['workload']} seed={base['provenance']['seed']}: "
          f"{base['provenance']['git_sha'][:12]} -> {new['provenance']['git_sha'][:12]}")
    for key, metric in base["metrics"].items():
        if key not in new["metrics"]:
            print(f"  {key:<42} {metric['value']:.6g} -> absent")
            continue
        after = new["metrics"][key]["value"]
        ratio = f"{after / metric['value']:.4f}x" if metric["value"] else "n/a"
        print(f"  {key:<42} {metric['value']:.6g} -> {after:.6g} {metric['unit']} ({ratio})")
    for key in new["metrics"].keys() - base["metrics"].keys():
        print(f"  {key:<42} absent -> {new['metrics'][key]['value']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
