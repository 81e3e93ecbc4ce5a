"""Monte Carlo harness: seeded episodes, checkpoint aggregation, CSV output.

Each run gets an independent generator derived from (base_seed, run index).
Within a round the episode loop draws one uniform per arm for the reward
vector and, for Thompson sampling, one Beta sample per arm, so trajectories
are fully determined by the stream. ``kernels`` draws those Beta samples
as the pairs of gammas ``Generator.beta`` would draw, in one generator call
per episode and round, and keeps ``beta`` itself while an episode has an
arm it has never observed: the same bits either way.

``run_experiment`` advances all its runs together in one batched loop
(``kernels.run_episode_batch``), and ``sweep_alpha`` advances every
(graph, run) pair of the sweep in one such loop. Each run keeps its own
generator: the UCB policies read its uniforms in blocks shared by every
graph, and Thompson sampling keeps its per-round interleave of uniforms and
Beta draws, so every run follows the trajectory it has when run alone.
Only the regret at the checkpoints is kept, so memory does not grow with
horizon x runs; ``run_episode`` alone returns a whole trajectory. A large
Thompson-sampling batch runs its runs in shares across the usable CPUs, in
forked children, with the same generators and the same output.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .bounds import BoundReport, bound_report
from .env import BanditInstance, gaps
from .errors import InputError
from .graph import DEFAULT_EXACT_LIMIT, FeedbackGraph
from .policies import POLICY_NAMES, exploration_bonus

__all__ = [
    "EpisodeResult",
    "ExperimentConfig",
    "RegretReport",
    "SweepRow",
    "default_checkpoints",
    "episode_stream",
    "regret_csv_lines",
    "run_episode",
    "run_experiment",
    "sidecar_lines",
    "sweep_alpha",
    "sweep_csv_lines",
    "write_report",
]


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Powers of two up to the horizon, plus the horizon itself."""
    horizon = int(horizon)
    if horizon < 1:
        raise InputError(f"horizon must be positive, got {horizon}")
    points = []
    p = 1
    while p <= horizon:
        points.append(p)
        p *= 2
    if points[-1] != horizon:
        points.append(horizon)
    return tuple(points)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    instance: BanditInstance
    policy: str
    horizon: int
    num_runs: int = 1
    base_seed: int = 0
    delta: float | None = None
    checkpoints: tuple[int, ...] | None = None
    mis_exact_limit: int = DEFAULT_EXACT_LIMIT
    allow_approximate_mis: bool = False

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise InputError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{', '.join(POLICY_NAMES)}"
            )
        horizon = int(self.horizon)
        if horizon < 1:
            raise InputError(f"horizon must be positive, got {horizon}")
        if horizon == 1 and self.delta is None:
            raise InputError(
                "run.horizon must be at least 2 when no delta is given: the "
                "default delta 1/horizon would be 1.0, outside (0, 1)"
            )
        num_runs = int(self.num_runs)
        if num_runs < 1:
            raise InputError(f"num_runs must be positive, got {num_runs}")
        base_seed = int(self.base_seed)
        if base_seed < 0:
            raise InputError(f"seed must be nonnegative, got {base_seed}")
        if self.policy == "ts-n" and self.delta is not None:
            raise InputError("ts-n does not take a delta parameter")
        if self.checkpoints is None:
            checkpoints = default_checkpoints(horizon)
        else:
            checkpoints = tuple(int(c) for c in self.checkpoints)
            if not checkpoints:
                raise InputError("checkpoints must be nonempty when given")
            if sorted(set(checkpoints)) != list(checkpoints):
                raise InputError("checkpoints must be strictly increasing")
            if checkpoints[0] < 1 or checkpoints[-1] > horizon:
                raise InputError(
                    f"checkpoints must lie in [1, {horizon}], got {checkpoints}"
                )
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "num_runs", num_runs)
        object.__setattr__(self, "base_seed", base_seed)
        object.__setattr__(self, "checkpoints", checkpoints)
        object.__setattr__(self, "mis_exact_limit", int(self.mis_exact_limit))


def episode_stream(base_seed: int, run_index: int) -> np.random.Generator:
    """Independent generator for one run, derived from (base_seed, run index)."""
    return np.random.default_rng([int(base_seed), int(run_index)])


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    """Pull sequence and cumulative pseudo-regret of one episode."""

    pulls: np.ndarray
    regret: np.ndarray


def run_episode(
    instance: BanditInstance,
    policy: str,
    horizon: int,
    stream: np.random.Generator,
    delta: float | None = None,
) -> EpisodeResult:
    """Run one seeded episode and accumulate true gaps of the pulled arms.

    Pseudo-regret uses the instance's gaps, not realized rewards, so the
    trajectory is noise-free given the pull sequence.
    """
    if policy not in POLICY_NAMES:
        raise InputError(
            f"unknown policy {policy!r}; expected one of {', '.join(POLICY_NAMES)}"
        )
    horizon = int(horizon)
    if policy == "ts-n":
        if delta is not None:
            raise InputError("ts-n does not take a delta parameter")
        bonus = 0.0
    else:
        bonus = exploration_bonus(instance.num_arms, horizon, delta)
    pulls, _, _ = kernels.run_episode_arrays(
        policy,
        instance.means,
        instance.graph.adjacency_matrix(),
        horizon,
        stream,
        bonus=bonus,
    )
    profile = gaps(instance)
    regret = np.cumsum(profile.gaps[pulls])
    return EpisodeResult(pulls=pulls, regret=regret)


@dataclass(frozen=True, eq=False)
class RegretReport:
    """Checkpoint aggregates across runs plus the bound overlays."""

    config: ExperimentConfig
    checkpoints: tuple[int, ...]
    mean: np.ndarray
    stderr: np.ndarray
    low: np.ndarray
    high: np.ndarray
    final_per_run: np.ndarray
    bounds: BoundReport

    @property
    def mean_final_regret(self) -> float:
        return float(self.final_per_run.mean())

    @property
    def stderr_final_regret(self) -> float:
        n = self.final_per_run.size
        if n < 2:
            return 0.0
        return float(self.final_per_run.std(ddof=1) / math.sqrt(n))


def _run_batch(config: ExperimentConfig, graphs) -> kernels.EpisodeBatch:
    """Run every run of ``config`` on every graph, with matched seeds."""
    instance = config.instance
    if config.policy == "ts-n":
        bonus = 0.0
    else:
        bonus = exploration_bonus(instance.num_arms, config.horizon, config.delta)
    matrices = [graph.adjacency_matrix() for graph in graphs]
    # a single matrix is viewed, not copied: at the arm limit it is 256 MiB
    adj = matrices[0][None] if len(matrices) == 1 else np.stack(matrices)
    return kernels.run_episode_batch(
        config.policy,
        instance.means,
        adj,
        config.horizon,
        lambda run: episode_stream(config.base_seed, run),
        config.num_runs,
        bonus=bonus,
        gaps=gaps(instance).gaps,
        marks=[c - 1 for c in config.checkpoints],
    )


def _bounds(config: ExperimentConfig, instance: BanditInstance) -> BoundReport:
    return bound_report(
        instance,
        config.horizon,
        config.delta,
        exact_limit=config.mis_exact_limit,
        allow_approximate=config.allow_approximate_mis,
    )


def _report(config, matrix, finals, overlay) -> RegretReport:
    """Aggregate per-run checkpoint regret (runs x checkpoints)."""
    mean = matrix.mean(axis=0)
    if config.num_runs > 1:
        stderr = matrix.std(axis=0, ddof=1) / math.sqrt(config.num_runs)
    else:
        stderr = np.zeros(matrix.shape[1], dtype=np.float64)
    return RegretReport(
        config=config,
        checkpoints=config.checkpoints,
        mean=mean,
        stderr=stderr,
        low=matrix.min(axis=0),
        high=matrix.max(axis=0),
        final_per_run=finals,
        bounds=overlay,
    )


def run_experiment(config: ExperimentConfig) -> RegretReport:
    """Run ``num_runs`` independent episodes and aggregate at checkpoints.

    Any failing run aborts the whole experiment; identical configs produce
    identical reports.
    """
    overlay = _bounds(config, config.instance)
    batch = _run_batch(config, [config.instance.graph])
    return _report(config, batch.marked[0], batch.final[0], overlay)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def regret_csv_lines(report: RegretReport) -> list[str]:
    lines = ["checkpoint,mean_regret,stderr,min,max"]
    for i, checkpoint in enumerate(report.checkpoints):
        lines.append(
            f"{checkpoint},{_fmt(report.mean[i])},{_fmt(report.stderr[i])},"
            f"{_fmt(report.low[i])},{_fmt(report.high[i])}"
        )
    return lines


def sidecar_lines(report: RegretReport) -> list[str]:
    """Key-value lines echoing the config and every bound overlay."""
    b = report.bounds
    pairs = [
        ("policy", report.config.policy),
        ("family", report.config.instance.family),
        ("runs", report.config.num_runs),
        ("seed", report.config.base_seed),
        ("T", b.horizon),
        ("K", b.num_arms),
        ("delta", _fmt(b.delta)),
        ("alpha", b.alpha),
        ("H", _fmt(b.hardness)),
        ("L", _fmt(b.scale)),
        ("lemma_original", _fmt(b.log_horizon_value)),
        ("lemma_improved", _fmt(b.log_alpha_value)),
        ("theorem", _fmt(b.ucbn_bound)),
        ("corollary", _fmt(b.gap_free_bound)),
        ("mean_final_regret", _fmt(report.mean_final_regret)),
        ("stderr_final_regret", _fmt(report.stderr_final_regret)),
    ]
    return [f"{key}={value}" for key, value in pairs]


def write_report(report: RegretReport, out_dir) -> tuple[Path, Path]:
    """Write regret.csv and bounds.txt under ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "regret.csv"
    sidecar_path = out / "bounds.txt"
    csv_path.write_text("\n".join(regret_csv_lines(report)) + "\n", encoding="utf-8")
    sidecar_path.write_text("\n".join(sidecar_lines(report)) + "\n", encoding="utf-8")
    return csv_path, sidecar_path


@dataclass(frozen=True)
class SweepRow:
    """One graph's outcome in an independence sweep."""

    label: str
    alpha: int
    mean_final_regret: float
    stderr_final_regret: float
    ucbn_bound: float
    gap_free_bound: float


def sweep_alpha(config: ExperimentConfig, labeled_graphs) -> list[SweepRow]:
    """Rerun the experiment with the graph swapped, means and seeds fixed.

    Matched seeds mean matched reward draws, so differences across rows
    isolate the information structure. Every graph is checked, and its
    bounds computed, before any episode runs.
    """
    labeled = list(labeled_graphs)
    instances = []
    for label, graph in labeled:
        if not isinstance(graph, FeedbackGraph):
            raise InputError(f"{label!r}: expected a FeedbackGraph")
        if graph.num_arms != config.instance.num_arms:
            raise InputError(
                f"{label!r}: graph has {graph.num_arms} arms but the instance "
                f"has {config.instance.num_arms}"
            )
        instances.append(
            BanditInstance(config.instance.means, graph, config.instance.family)
        )
    if not labeled:
        return []
    overlays = [_bounds(config, instance) for instance in instances]
    batch = _run_batch(config, [graph for _, graph in labeled])
    rows = []
    for g, (label, _) in enumerate(labeled):
        report = _report(
            dataclasses.replace(config, instance=instances[g]),
            batch.marked[g],
            batch.final[g],
            overlays[g],
        )
        rows.append(
            SweepRow(
                label=str(label),
                alpha=report.bounds.alpha,
                mean_final_regret=report.mean_final_regret,
                stderr_final_regret=report.stderr_final_regret,
                ucbn_bound=report.bounds.ucbn_bound,
                gap_free_bound=report.bounds.gap_free_bound,
            )
        )
    return rows


def sweep_csv_lines(rows) -> list[str]:
    lines = ["graph,alpha,mean_final_regret,stderr,theorem,corollary"]
    for row in rows:
        lines.append(
            f"{row.label},{row.alpha},{_fmt(row.mean_final_regret)},"
            f"{_fmt(row.stderr_final_regret)},{_fmt(row.ucbn_bound)},"
            f"{_fmt(row.gap_free_bound)}"
        )
    return lines
