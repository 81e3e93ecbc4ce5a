"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 config or input error,
3 capability error (a request beyond the exact-computation limits).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .bounds import (
    alpha_log_factor,
    bound_report,
    format_value,
    report_csv_header,
    report_csv_row,
    report_pairs,
)
from .config import load_experiment_config
from .errors import CapabilityError, ConfigError, InputError, int_text
from .graph import DEFAULT_EXACT_LIMIT, max_independent_set, parse_graph_spec
from .lemma import exhaustive_verify
from .phases import decompose
from .sim import run_experiment, sweep_alpha, sweep_csv_lines, write_report

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_CAPABILITY = 3

# default --out directory for simulate when the flag is omitted
ENV_OUT_DIR = "GRAPHBANDITS_OUT"

__all__ = ["main"]


def _add_mis_flags(parser):
    # both default to None, so that only a flag actually passed overrides
    # the config's mis block
    parser.add_argument(
        "--mis-limit",
        type=int,
        default=None,
        help="largest graph solved exactly (default: the config's "
        f"mis.exact_limit, else {DEFAULT_EXACT_LIMIT})",
    )
    parser.add_argument(
        "--approx-mis",
        action="store_true",
        default=None,
        help="fall back to a greedy independent set above the limit "
        "(default: the config's mis.allow_approximate, else refuse)",
    )


def _load_config(args):
    """The config of ``args.config``, with any MIS flag that was passed."""
    config = load_experiment_config(args.config)
    if args.mis_limit is not None:
        config = dataclasses.replace(config, mis_exact_limit=args.mis_limit)
    if args.approx_mis is not None:
        config = dataclasses.replace(config, allow_approximate_mis=args.approx_mis)
    return config


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    out_dir = args.out or os.environ.get(ENV_OUT_DIR) or "."
    report = run_experiment(config)
    csv_path, sidecar_path = write_report(report, out_dir)
    print(
        f"wrote {csv_path} and {sidecar_path}; "
        f"mean final regret {format_value(report.mean_final_regret)} "
        f"over {config.num_runs} run(s)"
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    config = _load_config(args)
    horizon = args.horizon if args.horizon is not None else config.horizon
    delta = args.delta if args.delta is not None else config.delta
    report = bound_report(
        config.instance,
        horizon,
        delta,
        exact_limit=config.mis_exact_limit,
        allow_approximate=config.allow_approximate_mis,
    )
    pairs = report_pairs(report)
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")
    if args.csv:
        print(report_csv_header())
        print(report_csv_row(report))
    return EXIT_OK


def _cmd_phases(args) -> int:
    config = _load_config(args)
    horizon = args.horizon if args.horizon is not None else config.horizon
    decomp = decompose(
        config.instance,
        horizon,
        exact_limit=config.mis_exact_limit,
        allow_approximate=config.allow_approximate_mis,
    )
    print(f"alpha={decomp.alpha} max_phase={decomp.max_phase}")
    if decomp.is_empty:
        print("empty decomposition: no suboptimal arm within the horizon's bands")
        return EXIT_OK
    print("phase  arms  indep  term  peak")
    for band in decomp.bands:
        marker = "*" if band.phase == decomp.peak_phase else ""
        print(
            f"{band.phase:>5}  {len(band.arms):>4}  {band.independent_size:>5}  "
            f"{band.term:>4}  {marker:>4}"
        )
    print(
        f"peak_phase={decomp.peak_phase} "
        f"log2_peak_size={decomp.log2_peak_size} "
        f"log2_alpha_ratio={decomp.log2_alpha_ratio} "
        f"weighted_total={decomp.weighted_total}"
    )
    return EXIT_OK


def _cmd_mis(args) -> int:
    graph = parse_graph_spec(args.graph)
    weights = args.weights if args.weights else None
    result = max_independent_set(
        graph,
        weights,
        exact_limit=DEFAULT_EXACT_LIMIT if args.mis_limit is None else args.mis_limit,
        allow_approximate=bool(args.approx_mis),
    )
    if weights is None:
        print(f"alpha={int(result.value)}")
    else:
        print(f"value={format_value(result.value)}")
    print(f"vertices={','.join(str(v) for v in sorted(result.vertices))}")
    if result.approximate:
        print("approximate=true")
    return EXIT_OK


def _cmd_verify_lemma(args) -> int:
    report = exhaustive_verify(args.alpha, args.phases)
    # past the digits str() converts, the box's size as (alpha + 1)^P
    size = int_text(
        report.instances_checked, None, f"{report.alpha + 1}^{report.num_phases}"
    )
    print(f"{size} sequences, {report.violation_count} violations")
    counts = ",".join(str(c) for c in report.tight_witness)
    threshold = alpha_log_factor(report.alpha)
    print(
        f"tightest ratio {format_value(report.tightest_ratio)} at counts=({counts}); "
        f"threshold {format_value(threshold)}"
    )
    for counts in report.violations:
        print(f"violation: counts=({','.join(str(c) for c in counts)})")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_sweep_alpha(args) -> int:
    config = _load_config(args)
    labeled = [(spec, parse_graph_spec(spec)) for spec in args.graphs]
    rows = sweep_alpha(config, labeled)
    lines = sweep_csv_lines(rows)
    if args.out:
        try:
            Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write output to {args.out}: {exc}") from None
        print(f"wrote {args.out}")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbandits",
        description="Simulate bandit policies under graph feedback and "
        "evaluate the matching regret bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", help="run a seeded experiment and write regret.csv + bounds.txt"
    )
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${ENV_OUT_DIR} or .)",
    )
    _add_mis_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("bounds", help="print every closed-form bound for a config")
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--horizon", type=int, default=None, help="override run.horizon")
    p.add_argument("--delta", type=float, default=None, help="override policy.delta")
    p.add_argument("--csv", action="store_true", help="also print a CSV header+row")
    _add_mis_flags(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("phases", help="print the gap-band decomposition table")
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--horizon", type=int, default=None, help="override run.horizon")
    _add_mis_flags(p)
    p.set_defaults(handler=_cmd_phases)

    p = sub.add_parser("mis", help="solve one maximum independent set")
    p.add_argument(
        "--graph",
        required=True,
        help="graph spec, e.g. cycle:5, cliques:2,3, er:8,0.3,7, file:edges.txt",
    )
    p.add_argument(
        "--weights",
        type=float,
        nargs="*",
        default=None,
        help="per-vertex weights (default: unweighted)",
    )
    _add_mis_flags(p)
    p.set_defaults(handler=_cmd_mis)

    p = sub.add_parser(
        "verify-lemma",
        help="certify the budget inequality over every band sequence",
    )
    p.add_argument("--alpha", type=int, required=True, help="independence cap")
    p.add_argument("--phases", type=int, required=True, help="number of bands")
    p.set_defaults(handler=_cmd_verify_lemma)

    p = sub.add_parser(
        "sweep-alpha", help="rerun one config across graphs with matched seeds"
    )
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument(
        "--graphs", required=True, nargs="+", help="graph specs to sweep over"
    )
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    _add_mis_flags(p)
    p.set_defaults(handler=_cmd_sweep_alpha)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy's allocation failure names the size it asked for
        print(f"capability error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
