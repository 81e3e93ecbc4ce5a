"""Monte Carlo harness: seeded episodes, checkpoint aggregation, CSV output.

Each run gets an independent generator derived from (base_seed, run index).
Within a round the episode loop draws one uniform per arm for the reward
vector and, for Thompson sampling, one Beta sample per arm, so trajectories
are fully determined by the stream. ``kernels`` draws those Beta samples
as the pairs of gammas ``Generator.beta`` would draw, in one generator call
per episode and round, and keeps ``beta`` itself while an episode has an
arm it has never observed: the same bits either way.

``run_experiment`` is the one-graph case of ``sweep_alpha``: both build
their reports on one path, which computes every graph's bounds first and
then advances every (graph, run) pair in one batched loop
(``kernels.run_episode_batch``). Each run keeps its own generator: the UCB
policies read its uniforms in blocks shared by every graph, and Thompson
sampling keeps its per-round interleave of uniforms and Beta draws, so
every run follows the trajectory it has when run alone.
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
from .bounds import BoundReport, bound_report, default_delta, format_value, report_pairs
from .env import BanditInstance, gaps
from .errors import InputError, at_least, integer
from .graph import DEFAULT_EXACT_LIMIT
from .policies import check_policy, episode_bonus

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
    horizon = at_least("horizon", horizon)
    points = []
    p = 1
    while p <= horizon:
        points.append(p)
        p *= 2
    if points[-1] != horizon:
        points.append(horizon)
    return tuple(points)


class _DefaultCheckpoints(tuple):
    """``default_checkpoints``, marked so that a new horizon redraws them."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Checkpoints left out follow the horizon, also through
    ``dataclasses.replace``; given ones must lie within it.
    """

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
        policy = check_policy(self.policy, self.delta)
        horizon = at_least("horizon", self.horizon)
        default_delta(horizon, self.delta)  # refuses horizon 1 without a delta
        num_runs = at_least("num_runs", self.num_runs)
        base_seed = integer("base_seed", self.base_seed)
        if base_seed < 0:
            raise InputError(f"seed must be nonnegative, got {base_seed}")
        if self.checkpoints is None or type(self.checkpoints) is _DefaultCheckpoints:
            checkpoints = _DefaultCheckpoints(default_checkpoints(horizon))
        else:
            checkpoints = tuple(integer("checkpoints", c) for c in self.checkpoints)
            if not checkpoints:
                raise InputError("checkpoints must be nonempty when given")
            if sorted(set(checkpoints)) != list(checkpoints):
                raise InputError("checkpoints must be strictly increasing")
            if checkpoints[0] < 1 or checkpoints[-1] > horizon:
                raise InputError(
                    f"checkpoints must lie in [1, {horizon}], got {checkpoints}"
                )
        limit = self.mis_exact_limit
        if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)) or limit < 0:
            raise InputError(
                "mis_exact_limit (mis.exact_limit, --mis-limit) must be a "
                f"nonnegative integer, got {limit!r}"
            )
        if not isinstance(self.allow_approximate_mis, bool):
            raise InputError(
                "allow_approximate_mis (mis.allow_approximate) must be true or "
                f"false, got {self.allow_approximate_mis!r}"
            )
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "num_runs", num_runs)
        object.__setattr__(self, "base_seed", base_seed)
        object.__setattr__(self, "checkpoints", checkpoints)
        object.__setattr__(self, "mis_exact_limit", int(limit))


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
    bonus = episode_bonus(policy, instance.num_arms, horizon, delta)
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


def _reports(config: ExperimentConfig, instances) -> list[RegretReport]:
    """One report per instance: ``config`` with the graph swapped, seeds matched.

    Every instance's bounds are computed before any episode runs; then every
    (graph, run) pair advances in one ``kernels.run_episode_batch``.
    """
    overlays = [
        bound_report(
            instance,
            config.horizon,
            config.delta,
            exact_limit=config.mis_exact_limit,
            allow_approximate=config.allow_approximate_mis,
        )
        for instance in instances
    ]
    matrices = [instance.graph.adjacency_matrix() for instance in instances]
    # a single matrix is viewed, not copied: at the arm limit it is 256 MiB
    adj = matrices[0][None] if len(matrices) == 1 else np.stack(matrices)
    means, runs = config.instance.means, config.num_runs
    batch = kernels.run_episode_batch(
        config.policy,
        means,
        adj,
        config.horizon,
        lambda run: episode_stream(config.base_seed, run),
        runs,
        bonus=episode_bonus(config.policy, means.size, config.horizon, config.delta),
        gaps=gaps(config.instance).gaps,
        marks=[c - 1 for c in config.checkpoints],
    )
    reports = []
    for g, instance in enumerate(instances):
        matrix = batch.marked[g]  # runs x checkpoints
        reports.append(
            RegretReport(
                config=config if instance is config.instance
                else dataclasses.replace(config, instance=instance),
                checkpoints=config.checkpoints,
                mean=matrix.mean(axis=0),
                stderr=matrix.std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1
                else np.zeros(matrix.shape[1], dtype=np.float64),
                low=matrix.min(axis=0),
                high=matrix.max(axis=0),
                final_per_run=batch.final[g],
                bounds=overlays[g],
            )
        )
    return reports


def run_experiment(config: ExperimentConfig) -> RegretReport:
    """Run ``num_runs`` independent episodes and aggregate at checkpoints.

    Any failing run aborts the whole experiment; identical configs produce
    identical reports.
    """
    return _reports(config, [config.instance])[0]


def regret_csv_lines(report: RegretReport) -> list[str]:
    lines = ["checkpoint,mean_regret,stderr,min,max"]
    for i, checkpoint in enumerate(report.checkpoints):
        lines.append(
            f"{checkpoint},{format_value(report.mean[i])},"
            f"{format_value(report.stderr[i])},{format_value(report.low[i])},"
            f"{format_value(report.high[i])}"
        )
    return lines


def sidecar_lines(report: RegretReport) -> list[str]:
    """Key-value lines echoing the config and every bound overlay."""
    config = report.config
    pairs = [
        ("policy", config.policy),
        ("family", config.instance.family),
        ("runs", config.num_runs),
        ("seed", config.base_seed),
        *report_pairs(report.bounds),
        ("mean_final_regret", format_value(report.mean_final_regret)),
        ("stderr_final_regret", format_value(report.stderr_final_regret)),
    ]
    return [f"{key}={value}" for key, value in pairs]


def write_report(report: RegretReport, out_dir) -> tuple[Path, Path]:
    """Write regret.csv and bounds.txt under ``out_dir``; returns the paths.

    An ``out_dir`` that cannot be created or written to raises InputError.
    """
    out = Path(out_dir)
    csv_path = out / "regret.csv"
    sidecar_path = out / "bounds.txt"
    csv_text = "\n".join(regret_csv_lines(report)) + "\n"
    sidecar_text = "\n".join(sidecar_lines(report)) + "\n"
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(csv_text, encoding="utf-8")
        sidecar_path.write_text(sidecar_text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write output to {out}: {exc}") from None
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

    Each row is ``run_experiment`` on that graph, with the same reward
    draws, so differences across rows isolate the information structure.
    Every graph is checked, and its bounds computed, before any episode runs.
    """
    labeled = list(labeled_graphs)
    instances = []
    for label, graph in labeled:
        try:
            instances.append(
                BanditInstance(config.instance.means, graph, config.instance.family)
            )
        except InputError as exc:
            raise InputError(f"{label!r}: {exc}") from None
    if not labeled:
        return []
    return [
        SweepRow(
            label=str(label),
            alpha=report.bounds.alpha,
            mean_final_regret=report.mean_final_regret,
            stderr_final_regret=report.stderr_final_regret,
            ucbn_bound=report.bounds.ucbn_bound,
            gap_free_bound=report.bounds.gap_free_bound,
        )
        for (label, _), report in zip(labeled, _reports(config, instances))
    ]


def sweep_csv_lines(rows) -> list[str]:
    lines = ["graph,alpha,mean_final_regret,stderr,theorem,corollary"]
    for row in rows:
        lines.append(
            f"{row.label},{row.alpha},{format_value(row.mean_final_regret)},"
            f"{format_value(row.stderr_final_regret)},"
            f"{format_value(row.ucbn_bound)},{format_value(row.gap_free_bound)}"
        )
    return lines
