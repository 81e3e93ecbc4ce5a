"""Run the graphbandits benchmark.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (``worker.py``): a pass
is one batch job, so set-up is paid every time and nothing cached in one
pass helps the next. Passes repeat until ``--seconds`` of measuring are
used; the first pass is followed by the correctness checks, which are not
timed and do not count against ``--seconds``.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the passes: setup_s (process start to ready: import, config load, instance
and graph construction), wall_ref (the timed work list, in units of the
reference computation of ``reference.py`` timed around each operation) and
peak_rss_mb (the pass process's peak resident memory, read before the
checks). wall_s, the work list's plain wall time, is printed above the
result line but is not one of its metrics. With ``--trace 1`` traced and
untraced passes alternate; the result holds the per-layer metrics, medians
over the traced passes, and trace.overhead_frac, the traced median
wall_ref over the untraced one, minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with provenance and every pass, is written under ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from spans import UNITS as LAYER_UNITS  # noqa: E402
from spans import median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PASS_TIMEOUT_S = 150.0


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def run_pass(job: dict) -> dict:
    """Start one worker, time its set-up, and return its result line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(
            f"worker for {job['workload']} exited with code {proc.returncode}"
        )
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["traced"] = job["trace"]
    # time the pass took, less the untimed checks that follow the first one
    result["cost_s"] = time.perf_counter() - start - result.get("check_s", 0.0)
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return "unknown"
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    expected: Path = HERE / "expected",
) -> dict:
    """Run one workload; returns the full result record."""
    workload = WORKLOADS[name]
    base = OUT / f"{name}-s{seed}-{size}"
    inputs, out = base / "inputs", base / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    # run seeds must be nonnegative; this keeps every seed usable
    workload.make_inputs(seed % 2**32, size, inputs)

    def job(traced: bool, check: bool) -> dict:
        return {
            "workload": name,
            "src": str(ROOT / "src"),
            "inputs": str(inputs),
            "out": str(out),
            "expected": str(expected),
            "spans": str(base / "spans.json"),
            "trace": traced,
            "check": check,
        }

    start = time.perf_counter()
    passes = [run_pass(job(traced=False, check=True))]
    deadline = start + seconds + passes[0]["check_s"]
    while True:
        traced_count = sum(p["traced"] for p in passes)
        want_traced = trace and 2 * traced_count < len(passes)
        enough = traced_count > 0 or not trace
        if enough and time.perf_counter() + passes[-1]["cost_s"] > deadline:
            break
        passes.append(run_pass(job(want_traced, False)))

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)
    wall_ref = statistics.median(p["wall_ref"] for p in plain)
    if trace:
        metrics = median_metrics([p["layers"] for p in traced])
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_ref"] for p in traced) / wall_ref - 1.0
        )
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_ref": wall_ref,
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END_UNITS
    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "provenance": {
            **passes[0]["provenance"],
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "seed": seed,
        },
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "wall_s": wall,
        "run_rounds_per_pass": workload.run_rounds(size),
        "absent": sorted({a for p in traced for a in p.get("absent", [])}),
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
        "passes": passes,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-s{seed}-{size}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def summary_lines(record: dict) -> list[str]:
    """Human-readable report of one result record."""
    traced = sum(p["traced"] for p in record["passes"])
    plain = len(record["passes"]) - traced
    lines = [
        f"{record['workload']} seed={record['seed']}: {plain} untraced and "
        f"{traced} traced passes",
        f"  provenance {json.dumps(record['provenance'], sort_keys=True)}",
    ]
    metrics = record["metrics"]
    for key, metric in metrics.items():
        lines.append(f"  {key:<42} {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        lines.append(f"  {'wall_s':<42} {record['wall_s']:.6g} s")
    if not record["trace"] and record["run_rounds_per_pass"]:
        rate = record["run_rounds_per_pass"] / record["wall_s"]
        lines.append(
            f"  {'run_rounds_per_s':<42} {rate:.6g} 1/s "
            f"({record['run_rounds_per_pass']} run-rounds per pass)"
        )
    lines.append(
        f"  {'error_rate':<42} {record['failed'] / record['attempted']:.6g} "
        f"({record['failed']} of {record['attempted']} operations failed)"
    )
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    for target in record["absent"]:
        lines.append(f"  absent: {target} (its per-layer metrics are left out)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphbandits benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary_lines(record)), flush=True)
            records.append(record)
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{key}" if prefix else key): metric
            for r in records
            for key, metric in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
