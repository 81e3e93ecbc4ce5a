"""The program still writes the outputs pinned in ``perfbench/expected/``.

The benchmark compares its outputs with these files only on a full run at
seed 42; this checks the same bytes at tier 1. The files are read, never
written: ``perfbench/pin.py`` is what re-pins them.
"""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphbandits
from graphbandits.config import load_experiment_config
from graphbandits.graph import parse_graph_spec
from graphbandits.sim import sweep_alpha, sweep_csv_lines

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "perfbench" / "expected"
SWEEP_GRAPHS = ("complete:10", "cliques:5,5", "edgeless:10", "cycle:10")
# the CLI subprocess imports the same package as the tests, installed or not
_SRC = str(Path(graphbandits.__file__).resolve().parents[1])
_CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


def test_demo_simulate_writes_the_pinned_files(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "graphbandits.cli", "simulate",
         "--config", str(ROOT / "configs" / "demo.yaml"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_CLI_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    for written, pinned in (("regret.csv", "demo_regret.csv"),
                            ("bounds.txt", "demo_bounds.txt")):
        assert (tmp_path / written).read_bytes() == (EXPECTED / pinned).read_bytes()


@pytest.mark.parametrize("policy", ["ucb-n", "ucb1", "ts-n"])
def test_sweep_writes_the_pinned_csv(policy):
    demo = load_experiment_config(ROOT / "configs" / "demo.yaml")
    config = dataclasses.replace(
        demo, policy=policy, horizon=2048, num_runs=4, checkpoints=None
    )
    rows = sweep_alpha(config, [(spec, parse_graph_spec(spec)) for spec in SWEEP_GRAPHS])
    text = "\n".join(sweep_csv_lines(rows)) + "\n"
    assert text == (EXPECTED / f"sweep_{policy}.csv").read_text(encoding="utf-8")
