"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job json>'

The job names the workload, the input and output directories, whether the
pass is traced and whether the correctness checks follow it. The worker
imports the package and sets up (prints ``ready`` when done, so the parent
can time set-up from process start), runs the timed operations with a reference
probe (``reference.py``) before the first and after each one, reads its
peak RSS, then runs the checks, and prints one JSON line with the results.
"""
from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _attempt(label, fn, failures):
    # A failed operation or check is counted and reported, not fatal.
    try:
        return True, fn()
    except Exception as exc:
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return False, None


def _backend(package) -> str:
    # Without a backend switch numpy is the only kernel backend.
    active = getattr(package.kernels, "active_backend", None)
    return active() if active is not None else "numpy"


def main(argv) -> int:
    job = json.loads(argv[1])
    sys.path.insert(0, job["src"])
    from reference import probe
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    import graphbandits
    import numpy

    out = Path(job["out"])
    state = workload.setup(Path(job["inputs"]), out)
    print("ready", flush=True)
    probe()  # warm-up, untimed

    failures: list[str] = []
    outputs = {}
    attempted = 0
    op_s = {}
    # each operation is measured against the mean of the probes around it
    op_ref = {}
    ref_s = [probe()]
    for label, fn in workload.operations(state):
        attempted += 1
        op_start = time.perf_counter()
        if tracer is None:
            ok, value = _attempt(label, fn, failures)
        else:
            with tracer.op(label):
                ok, value = _attempt(label, fn, failures)
        op_s[label] = time.perf_counter() - op_start
        ref_s.append(probe())
        op_ref[label] = op_s[label] / ((ref_s[-2] + ref_s[-1]) / 2)
        if ok:
            outputs[label] = value
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "wall_s": sum(op_s.values()),
        "wall_ref": sum(op_ref.values()),
        "peak_rss_mb": peak_rss_mb,
        "op_s": op_s,
        "ref_s": ref_s,
    }
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        spans = json.dumps(tracer.dump(), default=repr)
        Path(job["spans"]).write_text(spans, encoding="utf-8")
    if job["check"]:
        check_start = time.perf_counter()
        ok, checks = _attempt(
            "checks", lambda: workload.checks(state, outputs, Path(job["expected"])),
            failures,
        )
        if not ok:  # a check list that cannot be built counts as one failure
            attempted += 1
            checks = []
        for label, fn in checks:
            attempted += 1
            _attempt(label, fn, failures)
        result["check_s"] = time.perf_counter() - check_start
        result["provenance"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "graphbandits": graphbandits.__version__,
            "backend": _backend(graphbandits),
        }
    result["attempted"] = attempted
    result["failures"] = failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
