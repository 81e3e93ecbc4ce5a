"""A fixed reference computation that gauges how fast the machine runs now.

On a shared 2 vCPU Xeon host the sweep-k10 work list, repeated in one
process, took anywhere from 1.8 s to 3.1 s within a minute, and CPU time
moved with wall time (no steal time was charged): neighbours on the
physical cores set the pace. A pass's wall time is therefore a property of
the moment as much as of the program. ``probe`` times a small computation
that never touches the package, between the operations of a pass; the
pass's time in units of that computation (``wall_ref``) holds still while
the machine's speed moves.

The computation mixes the three kinds of work the workloads do: a Python
loop of small numpy vector steps (episode kernels), pure Python set and
dict work (MIS, lemma bookkeeping) and passes over 16k-element arrays (the
O(T) episode arrays, the lemma scan's chunks). It must stay exactly as it
is: a change to it changes every ``wall_ref`` reading.
"""
from __future__ import annotations

import time

import numpy as np


def _vector_steps():
    rng = np.random.default_rng(0)
    totals = np.zeros(10)
    acc = 0.0
    for _ in range(2000):
        draws = rng.random(10)
        totals += draws
        acc += totals[int(np.argmax(totals + draws))]
    return acc


def _set_work():
    adjacency = {v: {(v * 7 + j) % 200 for j in range(1, 6)} for v in range(200)}
    size = 0
    for r in range(60):
        chosen = set()
        for v in sorted(adjacency, key=lambda v: (v * (r + 3)) % 17):
            if not adjacency[v] & chosen:
                chosen.add(v)
        size += len(chosen)
    return size


def _array_passes():
    values = np.random.default_rng(1).random(16384)
    for _ in range(50):
        running = np.cumsum(values * 0.5)
        values = np.sort(running / running[-1])[::-1].copy()
    return float(values[0])


def reference():
    """The reference computation itself (about 30 ms on a 2 vCPU Xeon)."""
    return _vector_steps(), _set_work(), _array_passes()


def probe() -> float:
    """Wall seconds one reference computation takes right now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
