"""Spans around calls into the package's layers, recorded from outside it.

A traced pass wraps public functions at the module attribute their callers
look them up by (``kernels.run_episode_arrays`` as seen by ``sim``,
``max_independent_set`` as seen by ``graph``, ``bounds`` and ``phases``)
and restores the originals afterwards. Nothing under ``src/`` changes.
Spans stay in memory; the caller writes them out when the pass ends.

A hook whose target no longer exists is recorded as absent, and the
metrics that depend on it are left out rather than reported as zero.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time

# (module, attribute, span name). One span name may cover several
# attributes when callers in different modules hold their own reference.
HOOKS = (
    ("graphbandits.config", "load_experiment_config", "config.load"),
    ("graphbandits.kernels", "run_episode_arrays", "kernels.episode"),
    ("graphbandits.kernels", "scan_sequences_range", "kernels.scan"),
    ("graphbandits.sim", "run_experiment", "sim.run_experiment"),
    ("graphbandits.sim", "sweep_alpha", "sim.sweep_alpha"),
    ("graphbandits.sim", "write_report", "sim.write_report"),
    ("graphbandits.sim", "bound_report", "bounds.bound_report"),
    ("graphbandits.bounds", "bound_report", "bounds.bound_report"),
    ("graphbandits.graph", "max_independent_set", "graph.mis"),
    ("graphbandits.bounds", "max_independent_set", "graph.mis"),
    ("graphbandits.phases", "max_independent_set", "graph.mis"),
    ("graphbandits.phases", "decompose", "phases.decompose"),
    ("graphbandits.phases", "regret_mass", "phases.regret_mass"),
    ("graphbandits.lemma", "exhaustive_verify", "lemma.exhaustive_verify"),
    ("graphbandits.lemma", "verify_decomposition", "lemma.verify_decomposition"),
)

# Wrapped only to read the episode arrays it returns; it gets no span, so
# that sim.self_s keeps the per-episode bookkeeping done inside it.
EPISODE_RESULT_HOOK = ("graphbandits.sim", "run_episode")

POLICIES = ("ucb-n", "ucb1", "ts-n")
MIS_LABELS = ("cycle-30", "er-60")

UNITS = {
    "config.load_s": "s",
    "kernels.episode_s": "s",
    "kernels.episode_calls": "count",
    **{f"kernels.episode_ns_per_run_round.{p}": "ns" for p in POLICIES},
    "kernels.rng_draws": "count",
    "kernels.scan_s": "s",
    "kernels.sequences_scanned": "count",
    "kernels.scan_ns_per_sequence": "ns",
    "sim.run_experiment_s": "s",
    "sim.sweep_alpha_s": "s",
    "sim.self_s": "s",
    "sim.write_report_s": "s",
    "sim.episode_array_bytes": "bytes",
    "graph.mis_s": "s",
    "graph.mis_calls": "count",
    "graph.mis_distinct_ratio": "ratio",
    **{f"graph.mis_ms.{label}": "ms" for label in MIS_LABELS},
    "bounds.bound_report_s": "s",
    "bounds.bound_report_calls": "count",
    "phases.decompose_s": "s",
    "phases.regret_mass_s": "s",
    "lemma.exhaustive_verify_s": "s",
    "lemma.verify_decomposition_s": "s",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start, attrs):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with parent links; ``op`` spans are the roots."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.episode_bytes: list[int] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name, attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, label):
        """One benchmark operation: a root span."""
        index = self._open("op", {"label": label})
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, original):
        attrs_of = _ATTRS.get(name)
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = None
            if attrs_of is not None and signature is not None:
                # a changed signature drops the attributes, and with them
                # the counts derived from them, rather than failing the call
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = attrs_of(bound.arguments)
                except (KeyError, TypeError, ValueError):
                    attrs = None
            index = tracer._open(name, attrs)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def _wrap_episode_result(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            pulls = getattr(result, "pulls", None)
            regret = getattr(result, "regret", None)
            if pulls is not None and regret is not None:
                tracer.episode_bytes.append(int(pulls.nbytes + regret.nbytes))
            return result

        return wrapper

    def install(self):
        for module_name, attr, name in HOOKS:
            self._patch(module_name, attr, lambda orig, n=name: self._wrap(n, orig))
        module_name, attr = EPISODE_RESULT_HOOK
        self._patch(module_name, attr, self._wrap_episode_result)

    def _patch(self, module_name, attr, make):
        target = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            self.absent.append(target)
            return
        setattr(module, attr, make(original))
        self._installed.append((module, attr, original))

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of this pass; absent hooks leave gaps."""
        missing = set(self.absent)
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def have(*targets):
            return not any(t in missing for t in targets)

        def total(name):
            return sum(s.duration for s in by_name.get(name, ()))

        out: dict[str, float] = {}
        if have("graphbandits.config.load_experiment_config"):
            out["config.load_s"] = total("config.load")

        if have("graphbandits.kernels.run_episode_arrays"):
            episodes = by_name.get("kernels.episode", [])
            out["kernels.episode_s"] = total("kernels.episode")
            out["kernels.episode_calls"] = len(episodes)
            if all(s.attrs is not None for s in episodes):
                for policy in POLICIES:
                    mine = [s for s in episodes if s.attrs["policy"] == policy]
                    rounds = sum(s.attrs["rounds"] for s in mine)
                    busy = sum(s.duration for s in mine)
                    out[f"kernels.episode_ns_per_run_round.{policy}"] = (
                        busy / rounds * 1e9 if rounds else 0.0
                    )
                # per round: one uniform per arm, and for ts-n one Beta per arm
                out["kernels.rng_draws"] = sum(
                    (2 if s.attrs["policy"] == "ts-n" else 1) * s.attrs["rounds"] * s.attrs["arms"]
                    for s in episodes
                )

        if have("graphbandits.kernels.scan_sequences_range"):
            scans = by_name.get("kernels.scan", [])
            out["kernels.scan_s"] = total("kernels.scan")
            if all(s.attrs is not None for s in scans):
                sequences = sum(s.attrs["sequences"] for s in scans)
                out["kernels.sequences_scanned"] = sequences
                out["kernels.scan_ns_per_sequence"] = (
                    out["kernels.scan_s"] / sequences * 1e9 if sequences else 0.0
                )

        if have("graphbandits.sim.run_experiment"):
            out["sim.run_experiment_s"] = total("sim.run_experiment")
            children: dict[int, float] = {}
            for span in self.spans:
                if span.parent >= 0:
                    children[span.parent] = (
                        children.get(span.parent, 0.0) + span.duration
                    )
            out["sim.self_s"] = sum(
                s.duration - children.get(i, 0.0)
                for i, s in enumerate(self.spans)
                if s.name == "sim.run_experiment"
            )
        if have("graphbandits.sim.sweep_alpha"):
            out["sim.sweep_alpha_s"] = total("sim.sweep_alpha")
        if have("graphbandits.sim.write_report"):
            out["sim.write_report_s"] = total("sim.write_report")
        if have(".".join(EPISODE_RESULT_HOOK)):
            out["sim.episode_array_bytes"] = max(self.episode_bytes, default=0)

        if have("graphbandits.graph.max_independent_set"):
            mis = by_name.get("graph.mis", [])
            out["graph.mis_s"] = total("graph.mis")
            out["graph.mis_calls"] = len(mis)
            keys = [s.attrs["key"] for s in mis if s.attrs is not None]
            if len(keys) == len(mis):
                out["graph.mis_distinct_ratio"] = (
                    len(set(keys)) / len(keys) if keys else 0.0
                )
            for label in MIS_LABELS:
                out[f"graph.mis_ms.{label}"] = 1e3 * sum(
                    s.duration for s in mis if self._root_label(s) == f"mis:{label}"
                )

        if have("graphbandits.bounds.bound_report", "graphbandits.sim.bound_report"):
            out["bounds.bound_report_s"] = total("bounds.bound_report")
            out["bounds.bound_report_calls"] = len(by_name.get("bounds.bound_report", ()))
        if have("graphbandits.phases.decompose"):
            out["phases.decompose_s"] = total("phases.decompose")
        if have("graphbandits.phases.regret_mass"):
            out["phases.regret_mass_s"] = total("phases.regret_mass")
        if have("graphbandits.lemma.exhaustive_verify"):
            out["lemma.exhaustive_verify_s"] = total("lemma.exhaustive_verify")
        if have("graphbandits.lemma.verify_decomposition"):
            out["lemma.verify_decomposition_s"] = total("lemma.verify_decomposition")
        return out

    def _root_label(self, span):
        while span.parent >= 0:
            span = self.spans[span.parent]
        return span.attrs["label"] if span.name == "op" else None


def _episode_attrs(args):
    return {
        "policy": args["policy"],
        "rounds": int(args["horizon"]),
        "arms": len(args["means"]),
    }


def _scan_attrs(args):
    return {"sequences": int(args["stop"]) - int(args["start"])}


def _mis_attrs(args):
    weights = args.get("weights")
    key = (args["graph"], None if weights is None else tuple(float(w) for w in weights))
    return {"key": key}


# Attribute extractors by span name, fed the bound call arguments.
_ATTRS = {
    "kernels.episode": _episode_attrs,
    "kernels.scan": _scan_attrs,
    "graph.mis": _mis_attrs,
}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the passes that reported it."""
    names = sorted({name for metrics in per_pass for name in metrics})
    return {
        name: statistics.median(m[name] for m in per_pass if name in m)
        for name in names
    }
