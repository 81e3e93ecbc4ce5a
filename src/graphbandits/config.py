"""Experiment configuration files.

Configs are YAML mappings with three blocks:

    instance:
      means: [0.9, 0.6, 0.6]
      graph: "cliques:2,1"        # spec string, or {edges: [...], num_arms: N}
      family: bernoulli           # optional
    policy:
      name: ucb-n                 # ucb-n | ucb1 | ts-n
      delta: 0.001                # optional
    run:
      horizon: 10000
      runs: 50                    # optional, default 1
      seed: 7                     # optional, default 0
      checkpoints: [10, 100]      # optional, default powers of two
    mis:                          # optional block
      exact_limit: 30
      allow_approximate: false

Integer fields (``run.horizon``, ``run.runs``, ``run.seed``, each
checkpoint, a graph mapping's ``num_arms`` and edge ids, and
``mis.exact_limit``) must be YAML integers: ``1.5`` or ``true`` is refused,
not truncated or read as 1. Means must be reals, not ``true``/``false``.
A key not shown above, at any level, is refused with its dotted name
(``run.run``), so a misspelt field cannot fall back to its default.
"""
from __future__ import annotations

from pathlib import Path

import yaml

from .env import BanditInstance
from .errors import ConfigError, InputError
from .graph import DEFAULT_EXACT_LIMIT, FeedbackGraph, parse_graph_spec
from .sim import ExperimentConfig

__all__ = ["experiment_config_from_dict", "load_experiment_config"]


def _fields(mapping, label: str, known: tuple):
    """``mapping``, after checking that it is a mapping with no key outside
    ``known``; ``label`` is its dotted name, empty at the top level."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{label} must be a mapping")
    for key in mapping:
        if key not in known:
            name = f"{label}.{key}" if label else str(key)
            raise ConfigError(
                f"unknown field: {name} ({label or 'the top level'} takes "
                f"{', '.join(known)})"
            )
    return mapping


def _require(mapping, key: str, label: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{label.rsplit('.', 1)[0]} must be a mapping")
    if key not in mapping:
        raise ConfigError(f"missing required field: {label}")
    return mapping[key]


def _integer(value, label: str) -> int:
    # bool is an int subclass, so `true` would otherwise read as 1
    if type(value) is not int:
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def _graph_from_value(value, label: str) -> FeedbackGraph:
    if isinstance(value, str):
        try:
            return parse_graph_spec(value)
        except InputError as exc:
            raise ConfigError(f"{label}: {exc}") from exc
    if isinstance(value, dict):
        _fields(value, label, ("edges", "num_arms"))
        raw_edges = value.get("edges", [])
        if not isinstance(raw_edges, list):
            raise ConfigError(f"{label}.edges must be a list")
        edges = []
        top = -1
        for item in raw_edges:
            if isinstance(item, str) and "-" in item:
                left, _, right = item.partition("-")
                try:
                    pair = (int(left), int(right))
                except ValueError:
                    raise ConfigError(
                        f"{label}.edges: expected 'a-b', got {item!r}"
                    ) from None
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                pair = tuple(_integer(v, f"{label}.edges vertex id") for v in item)
            else:
                raise ConfigError(
                    f"{label}.edges: expected 'a-b' or [a, b], got {item!r}"
                )
            edges.append(pair)
            top = max(top, pair[0], pair[1])
        num_arms = _integer(value.get("num_arms", top + 1), f"{label}.num_arms")
        try:
            return FeedbackGraph(num_arms, edges)
        except InputError as exc:
            raise ConfigError(f"{label}: {exc}") from exc
    raise ConfigError(f"{label} must be a graph spec string or a mapping")


def experiment_config_from_dict(data: dict, source: str = "<config>") -> ExperimentConfig:
    """Validate a parsed config mapping; errors name the offending field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    _fields(data, "", ("instance", "policy", "run", "mis"))
    instance_block = _fields(
        _require(data, "instance", "instance"), "instance", ("means", "graph", "family")
    )
    means = _require(instance_block, "means", "instance.means")
    if not isinstance(means, list) or not means:
        raise ConfigError("instance.means must be a nonempty list of reals")
    for mean in means:
        if isinstance(mean, bool):
            raise ConfigError(f"instance.means must be reals, got {mean!r}")
    graph = _graph_from_value(
        _require(instance_block, "graph", "instance.graph"), "instance.graph"
    )
    family = instance_block.get("family", "bernoulli")

    policy_block = _fields(_require(data, "policy", "policy"), "policy", ("name", "delta"))
    policy_name = _require(policy_block, "name", "policy.name")
    delta = policy_block.get("delta")
    if delta is not None:
        try:
            delta = float(delta)
        except (TypeError, ValueError):
            raise ConfigError(f"policy.delta must be a real, got {delta!r}") from None

    run_block = _fields(
        _require(data, "run", "run"), "run", ("horizon", "runs", "seed", "checkpoints")
    )
    horizon = _integer(_require(run_block, "horizon", "run.horizon"), "run.horizon")
    runs = _integer(run_block.get("runs", 1), "run.runs")
    seed = _integer(run_block.get("seed", 0), "run.seed")
    checkpoints = run_block.get("checkpoints")
    if checkpoints is not None:
        if not isinstance(checkpoints, list):
            raise ConfigError("run.checkpoints must be a list of round indices")
        checkpoints = tuple(_integer(c, "run.checkpoints") for c in checkpoints)

    mis_block = _fields(data.get("mis", {}), "mis", ("exact_limit", "allow_approximate"))
    exact_limit = _integer(
        mis_block.get("exact_limit", DEFAULT_EXACT_LIMIT), "mis.exact_limit"
    )

    # InputError is a ValueError, so domain violations surface as config
    # errors here; capability errors pass through untouched.
    try:
        instance = BanditInstance(means, graph, str(family))
        return ExperimentConfig(
            instance=instance,
            policy=str(policy_name),
            horizon=horizon,
            num_runs=runs,
            base_seed=seed,
            delta=delta,
            checkpoints=checkpoints,
            mis_exact_limit=exact_limit,
            allow_approximate_mis=mis_block.get("allow_approximate", False),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _yaml_problem(exc: yaml.YAMLError, text: str) -> str:
    """yaml's error on one line: the problem and where it was found in
    ``text`` (line and column, 1-based), or, with neither a mark nor a
    character offset, the error's own text with its lines joined."""
    if isinstance(exc, yaml.reader.ReaderError):
        problem = f"unacceptable character #x{exc.character:04x}: {exc.reason}"
        line = text.count("\n", 0, exc.position)
        column = exc.position - text.rfind("\n", 0, exc.position) - 1
        return f"{problem} at line {line + 1}, column {column + 1}"
    problem = getattr(exc, "problem", None)
    mark = getattr(exc, "problem_mark", None)
    if problem is None or mark is None:
        problem, mark = str(exc), None
    text = " ".join(line.strip() for line in problem.splitlines() if line.strip())
    if mark is None:
        return text
    return f"{text} at line {mark.line + 1}, column {mark.column + 1}"


def load_experiment_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment config."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {_yaml_problem(exc, text)}") from exc
    except ValueError as exc:  # e.g. an integer past str()'s digit limit, a bad date
        raise ConfigError(f"{path}: unreadable value: {exc}") from None
    if data is None:
        raise ConfigError(f"{path}: config file is empty")
    return experiment_config_from_dict(data, source=str(path))
