"""Correctness checks on the workloads' outputs.

Each check raises ``CheckFailed`` (or any other exception) when an output
is wrong and returns ``None`` when it is right. The references here are
independent of the code under test where that is cheap: the step-by-step
``policies`` path for episodes, a direct enumeration for the lemma box and
the graph's own neighbourhoods for independent sets.
"""
from __future__ import annotations

import math

import numpy as np

from graphbandits import env, policies, sim
from graphbandits.lemma import RATIO_SLACK


class CheckFailed(Exception):
    pass


def expect_equal(actual, expected, what: str):
    if actual != expected:
        raise CheckFailed(f"{what}: got {actual!r}, expected {expected!r}")


def replay_regret(cfg) -> float:
    """Final regret of run 0 replayed round by round through ``policies``."""
    instance = cfg.instance
    stream = sim.episode_stream(cfg.base_seed, 0)
    policy = policies.make_policy(cfg.policy, instance.num_arms, cfg.horizon, cfg.delta)
    pulls = np.empty(cfg.horizon, dtype=np.int64)
    for t in range(cfg.horizon):
        rewards = env.sample_round(instance, stream)
        arm = policy.select(stream)
        policy.update(env.observe(instance, rewards, arm), pulled=arm, rng=stream)
        pulls[t] = arm
    return float(np.cumsum(env.gaps(instance).gaps[pulls])[-1])


def replay_matches(cfg, report):
    expect_equal(float(report.final_per_run[0]), replay_regret(cfg),
                 f"{cfg.policy} run 0 final regret vs step-by-step replay")


def pinned_demo(cfg, out_dir, expected):
    """The demo config at its own seed must write the pinned bytes."""
    report = sim.run_experiment(cfg)
    csv_path, sidecar_path = sim.write_report(report, out_dir)
    for written, pinned in ((csv_path, "demo_regret.csv"), (sidecar_path, "demo_bounds.txt")):
        got, want = written.read_bytes(), (expected / pinned).read_bytes()
        if got != want:
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                      min(len(got), len(want)))
            raise CheckFailed(f"{written.name} differs from pinned {pinned} at byte {at}")


def independent_set(graph, result):
    """No two chosen vertices are adjacent and the value is their count."""
    for a in result.vertices:
        if not 0 <= a < graph.num_arms:
            raise CheckFailed(f"vertex {a} outside the graph")
        clash = (graph.neighborhood(a) - {a}) & result.vertices
        if clash:
            raise CheckFailed(f"vertices {a} and {min(clash)} are adjacent")
    expect_equal(result.value, len(result.vertices), "independent set size")


def analysis_consistent(instance, report, decomp, budget, mass):
    """bound_report, decompose, verify_decomposition and regret_mass agree."""
    expect_equal(report.alpha, decomp.alpha, "alpha in bound_report vs decompose")
    gaps = env.gaps(instance).gaps
    for band in decomp.bands:
        if not band.witness <= set(band.arms):
            raise CheckFailed(f"band {band.phase} witness leaves the band")
        for a in band.witness:
            clash = (instance.graph.neighborhood(a) - {a}) & band.witness
            if clash:
                raise CheckFailed(f"band {band.phase}: arms {a}, {min(clash)} adjacent")
        expect_equal(len(band.witness), band.independent_size, f"band {band.phase} size")
        if band.independent_size > decomp.alpha:
            raise CheckFailed(f"band {band.phase} exceeds alpha {decomp.alpha}")
    if not budget.all_hold:
        raise CheckFailed(f"band budgets fail on a concrete instance: {budget}")
    if not mass.value <= mass.cap * (1.0 + 1e-9):
        raise CheckFailed(f"regret mass {mass.value} above its cap {mass.cap}")
    single = max(1.0 / g for g in gaps if g > 0.0)
    if report.hardness < single * (1.0 - 1e-12):
        raise CheckFailed(f"H={report.hardness} below one arm's 1/gap {single}")


def box_passed(report, alpha: int, num_phases: int):
    expect_equal(report.exhaustive, True, "exhaustive enumeration")
    expect_equal(report.instances_checked, (alpha + 1) ** num_phases, "box size")
    expect_equal(report.violation_count, 0, "violations")


def box_matches_enumeration(report, alpha: int, num_phases: int):
    """Recount the box sequence by sequence in the scan's mixed-radix order."""
    threshold = math.log2(alpha) + 3.0
    base = alpha + 1
    nonzero = violations = 0
    best_ratio, witness = -1.0, None
    for index in range(base ** num_phases):
        counts = []
        for _ in range(num_phases):
            counts.append(index % base)
            index //= base
        terms = [c << (p + 1) for p, c in enumerate(counts)]
        peak = max(terms)
        if peak == 0:
            continue
        total = sum(terms)
        nonzero += 1
        if total / peak > best_ratio:
            best_ratio, witness = total / peak, tuple(counts)
        if total > threshold * peak + RATIO_SLACK:
            violations += 1
    expect_equal(report.instances_checked, base ** num_phases, "sequences checked")
    expect_equal(report.nonzero_checked, nonzero, "nonzero sequences")
    expect_equal(report.violation_count, violations, "violations")
    expect_equal(report.tightest_ratio, best_ratio, "tightest ratio")
    expect_equal(report.tight_witness, witness, "tightest witness")
