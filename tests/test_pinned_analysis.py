"""The analysis functions still give the answers pinned here.

``bounds --csv`` and ``phases`` on the demo config are pinned inline; the
reprs of ``bound_report``, ``decompose``, ``verify_decomposition`` and
``regret_mass`` on three seeded 30-arm ``er`` instances are pinned in
``pinned_analysis.txt``, one line per call, as ``analysis_lines`` writes
them (``python tests/test_pinned_analysis.py`` prints them). So are
``decompose`` and ``regret_mass`` at horizons where bands appear and
vanish, with the default exact search and with a limit of 5 arms that
sends alpha and the larger bands to the greedy path.
"""
from pathlib import Path

import numpy as np

from graphbandits import (
    BanditInstance,
    bound_report,
    decompose,
    parse_graph_spec,
    regret_mass,
    verify_decomposition,
)
from graphbandits.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("pinned_analysis.txt")
HORIZON = 10**5
HORIZONS = (10, 10**3, 10**5)
SETTINGS = ({}, {"exact_limit": 5, "allow_approximate": True})

DEMO_BOUNDS = """\
T               4096
K               10
delta           0.000244140625
alpha           2
H               6.66666666667
L               157.050116856
lemma_original  34835.8306257
lemma_improved  16753.0124646
theorem         4190.00311616
corollary       4539.05553377
T,K,delta,alpha,H,L,lemma_original,lemma_improved,theorem,corollary
4096,10,0.000244140625,2,6.66666666667,157.050116856,34835.8306257,16753.0124646,4190.00311616,4539.05553377
"""

DEMO_PHASES = "\n".join([
    "alpha=2 max_phase=2",
    "phase  arms  indep  term  peak",
    "    1     0      0     0" + " " * 6,  # a blank peak column
    "    2     9      2     8     *",
    "peak_phase=2 log2_peak_size=1 log2_alpha_ratio=0 weighted_total=8",
    "",
])


def seeded_instance(seed: int) -> BanditInstance:
    """30 arms on ``er:30``: arm 0 best at 0.9, every other gap 2^-u, u in [0.2, 7.5]."""
    rng = np.random.default_rng(seed)
    p = round(float(rng.uniform(0.1, 0.3)), 3)
    graph = parse_graph_spec(f"er:30,{p},{int(rng.integers(1, 10**6))}")
    means = 0.9 - 2.0 ** -rng.uniform(0.2, 7.5, size=30)
    means[0] = 0.9
    return BanditInstance(means, graph)


def analysis_lines() -> list[str]:
    lines = []
    for seed in (1, 2, 3):
        instance = seeded_instance(seed)
        report = bound_report(instance, HORIZON)
        decomp = decompose(instance, HORIZON)
        lines += [
            repr(report),
            repr(decomp),
            repr(verify_decomposition(decomp)),
            repr(regret_mass(instance, HORIZON, report.scale)),
        ]
    for seed in (1, 2, 3):
        instance = seeded_instance(seed)
        for settings in SETTINGS:
            for horizon in HORIZONS:
                lines += [
                    repr(decompose(instance, horizon, **settings)),
                    repr(regret_mass(instance, horizon, 2.5, **settings)),
                ]
    return lines


def test_demo_bounds_and_phases_stdout(capsys):
    config = str(ROOT / "configs" / "demo.yaml")
    for command, want in (("bounds", DEMO_BOUNDS), ("phases", DEMO_PHASES)):
        args = [command, "--config", config]
        assert main(args + ["--csv"] if command == "bounds" else args) == 0
        assert capsys.readouterr().out == want


def test_seeded_instances_give_the_pinned_reprs():
    assert analysis_lines() == PINNED.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    print("\n".join(analysis_lines()))
