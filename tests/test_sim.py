"""Monte Carlo harness: seeding, aggregation, files, and regret orderings.

The statistical comparisons here use matched reward streams (same seeds,
same per-round uniform draws), so policy and graph differences are the only
source of divergence; tolerances are two standard errors.
"""
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from graphbandits import (
    BanditInstance,
    ExperimentConfig,
    InputError,
    complete,
    default_checkpoints,
    disjoint_cliques,
    edgeless,
    episode_stream,
    gaps,
    run_episode,
    run_experiment,
    sweep_alpha,
)
from graphbandits.sim import (
    regret_csv_lines,
    sidecar_lines,
    sweep_csv_lines,
    write_report,
)

from oracles import episode_by_hand


def make_config(**overrides):
    base = dict(
        instance=BanditInstance(np.array([0.9, 0.6, 0.6]), edgeless(3)),
        policy="ucb-n",
        horizon=256,
        num_runs=4,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDefaultCheckpoints:
    def test_powers_of_two_plus_horizon(self):
        assert default_checkpoints(10) == (1, 2, 4, 8, 10)
        assert default_checkpoints(16) == (1, 2, 4, 8, 16)
        assert default_checkpoints(1) == (1,)

    def test_domain(self):
        with pytest.raises(InputError):
            default_checkpoints(0)


class TestExperimentConfig:
    def test_defaults(self):
        config = make_config()
        assert config.checkpoints == (1, 2, 4, 8, 16, 32, 64, 128, 256)
        assert config.delta is None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(policy="greedy"),
            dict(horizon=0),
            dict(horizon=1),
            dict(horizon=1, policy="ts-n"),
            dict(num_runs=0),
            dict(policy="ts-n", delta=0.1),
            dict(checkpoints=()),
            dict(checkpoints=(4, 2)),
            dict(checkpoints=(2, 2)),
            dict(checkpoints=(0, 4)),
            dict(checkpoints=(4, 4096)),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(InputError):
            make_config(**overrides)

    def test_default_checkpoints_follow_a_replaced_horizon(self):
        config = make_config(horizon=4096)
        shorter = dataclasses.replace(config, horizon=2048)
        assert shorter.checkpoints == default_checkpoints(2048)
        longer = dataclasses.replace(shorter, horizon=5000)
        assert longer.checkpoints == default_checkpoints(5000)
        # checkpoints given as a plain tuple are the caller's, and checked
        given = make_config(horizon=4096, checkpoints=default_checkpoints(4096))
        with pytest.raises(InputError, match="checkpoints must lie in"):
            dataclasses.replace(given, horizon=2048)
        assert dataclasses.replace(given, horizon=5000).checkpoints[-1] == 4096

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            (dict(mis_exact_limit=-1), "mis.exact_limit, --mis-limit"),
            (dict(mis_exact_limit=2.5), "mis.exact_limit, --mis-limit"),
            (dict(mis_exact_limit=True), "mis.exact_limit, --mis-limit"),
            (dict(mis_exact_limit="30"), "mis.exact_limit, --mis-limit"),
            # a truthy string must not allow greedy answers
            (dict(allow_approximate_mis="no"), "mis.allow_approximate"),
            (dict(allow_approximate_mis=1), "mis.allow_approximate"),
        ],
    )
    def test_mis_settings_are_checked(self, overrides, needle):
        with pytest.raises(InputError, match=re.escape(needle)):
            make_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            # int() would run 10 rounds, 2 runs, seed 4 and seed 1
            (dict(horizon=10.5), "horizon must be an integer, got 10.5"),
            (dict(horizon=True), "horizon must be an integer, got True"),
            (dict(horizon="256"), "horizon must be an integer, got '256'"),
            (dict(num_runs=2.5), "num_runs must be an integer, got 2.5"),
            (dict(base_seed=4.7), "base_seed must be an integer, got 4.7"),
            (dict(base_seed=True), "base_seed must be an integer, got True"),
            (dict(checkpoints=(1.5, 3)), "checkpoints must be an integer, got 1.5"),
            (dict(checkpoints=(1, np.float64(3.0))), "checkpoints must be an integer"),
        ],
    )
    def test_integer_fields_refuse_non_integers(self, overrides, needle):
        with pytest.raises(InputError, match=re.escape(needle)):
            make_config(**overrides)

    def test_integer_fields_take_numpy_integers(self):
        config = make_config(
            horizon=np.int64(64), num_runs=np.int32(2), base_seed=np.uint8(3),
            checkpoints=(np.int64(8), 64),
        )
        fields = (
            config.horizon, config.num_runs, config.base_seed, *config.checkpoints
        )
        assert fields == (64, 2, 3, 8, 64)
        assert all(type(v) is int for v in fields)

    def test_mis_limit_takes_numpy_integers(self):
        config = make_config(mis_exact_limit=np.int64(12), allow_approximate_mis=True)
        assert type(config.mis_exact_limit) is int and config.mis_exact_limit == 12

    def test_horizon_one_runs_with_explicit_delta(self):
        result = run_experiment(make_config(horizon=1, delta=0.5))
        assert result.bounds.delta == 0.5


class TestEpisodeStream:
    def test_distinct_runs_differ(self):
        a = episode_stream(5, 0).random(4)
        b = episode_stream(5, 1).random(4)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        assert np.array_equal(
            episode_stream(5, 3).random(4), episode_stream(5, 3).random(4)
        )


class TestRunEpisode:
    def test_single_arm(self):
        inst = BanditInstance(np.array([0.5]), edgeless(1))
        episode = run_episode(inst, "ucb-n", 16, episode_stream(0, 0))
        assert episode.pulls.tolist() == [0] * 16
        assert np.all(episode.regret == 0.0)

    def test_zero_gap_instance_has_zero_regret(self):
        inst = BanditInstance(np.array([0.7, 0.7]), complete(2))
        episode = run_episode(inst, "ts-n", 64, episode_stream(0, 0))
        assert np.all(episode.regret == 0.0)

    def test_regret_recounts_from_pulls(self):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        episode = run_episode(inst, "ucb-n", 512, episode_stream(3, 0))
        pulls_of_worse = int(np.count_nonzero(episode.pulls == 1))
        assert episode.regret[-1] == pytest.approx(0.4 * pulls_of_worse)

    def test_regret_nondecreasing_and_capped(self):
        inst = BanditInstance(np.array([0.9, 0.4, 0.2]), complete(3))
        profile = gaps(inst)
        for policy in ("ucb-n", "ucb1", "ts-n"):
            episode = run_episode(inst, policy, 200, episode_stream(1, 0))
            assert np.all(np.diff(episode.regret) >= -1e-12)
            t = np.arange(1, 201)
            assert np.all(episode.regret <= t * float(profile.gaps.max()) + 1e-9)

    def test_matches_by_hand_composition(self):
        inst = BanditInstance(np.array([0.8, 0.55, 0.3]), complete(3))
        _, want_regret, _ = episode_by_hand(
            inst, "ucb-n", 200, np.random.default_rng([7, 0])
        )
        episode = run_episode(inst, "ucb-n", 200, episode_stream(7, 0))
        assert np.allclose(episode.regret, want_regret)

    def test_policy_and_delta_validation(self):
        inst = BanditInstance(np.array([0.8, 0.5]), edgeless(2))
        with pytest.raises(InputError):
            run_episode(inst, "greedy", 10, episode_stream(0, 0))
        with pytest.raises(InputError):
            run_episode(inst, "ts-n", 10, episode_stream(0, 0), delta=0.1)


class TestRunExperiment:
    def test_deterministic(self):
        a = run_experiment(make_config())
        b = run_experiment(make_config())
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)
        assert np.array_equal(a.final_per_run, b.final_per_run)

    def test_aggregates_are_consistent(self):
        report = run_experiment(make_config(num_runs=8))
        assert report.mean.shape == (len(report.checkpoints),)
        assert np.all(report.low <= report.mean + 1e-12)
        assert np.all(report.mean <= report.high + 1e-12)
        assert np.all(np.diff(report.mean) >= -1e-12)
        assert report.final_per_run.size == 8
        assert report.mean_final_regret == pytest.approx(
            float(report.final_per_run.mean())
        )

    def test_single_run_has_zero_stderr(self):
        report = run_experiment(make_config(num_runs=1))
        assert np.all(report.stderr == 0.0)
        assert report.stderr_final_regret == 0.0

    def test_bound_overlay_delegates(self):
        from graphbandits import bound_report

        config = make_config()
        report = run_experiment(config)
        want = bound_report(config.instance, config.horizon, config.delta)
        assert report.bounds == want

    def test_mean_interpolates_runs(self):
        config = make_config(num_runs=6, policy="ts-n")
        report = run_experiment(config)
        finals = [
            run_episode(
                config.instance, "ts-n", config.horizon, episode_stream(11, run)
            ).regret[-1]
            for run in range(6)
        ]
        assert report.final_per_run.tolist() == pytest.approx(finals)

    def test_checkpoints_without_horizon_match_by_hand(self):
        config = make_config(num_runs=5, horizon=300, checkpoints=(1, 7, 100))
        report = run_experiment(config)
        regrets = np.array([
            episode_by_hand(config.instance, "ucb-n", 300, episode_stream(11, run))[1]
            for run in range(5)
        ])
        at = regrets[:, [0, 6, 99]]
        assert report.mean.tolist() == at.mean(axis=0).tolist()
        assert report.low.tolist() == at.min(axis=0).tolist()
        assert report.high.tolist() == at.max(axis=0).tolist()
        assert report.final_per_run.tolist() == regrets[:, -1].tolist()

    def test_memory_does_not_grow_with_horizon(self):
        # an engine keeping O(runs x horizon) would grow 8x from 2^12 to 2^15
        inst = BanditInstance(np.append([0.9], np.full(9, 0.6)), disjoint_cliques((5, 5)))
        # one untraced call first, so one-time allocations count in neither
        run_experiment(ExperimentConfig(inst, "ucb-n", 64, num_runs=32, base_seed=1))
        peaks = []
        for horizon in (2**12, 2**15):
            config = ExperimentConfig(inst, "ucb-n", horizon, num_runs=32, base_seed=1)
            tracemalloc.start()
            try:
                run_experiment(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestCsvOutput:
    def test_regret_csv_shape(self):
        report = run_experiment(make_config())
        lines = regret_csv_lines(report)
        assert lines[0] == "checkpoint,mean_regret,stderr,min,max"
        assert len(lines) == 1 + len(report.checkpoints)
        first = lines[1].split(",")
        assert first[0] == "1"
        assert len(first) == 5

    def test_sidecar_keys(self):
        report = run_experiment(make_config())
        keys = [line.split("=", 1)[0] for line in sidecar_lines(report)]
        assert keys == [
            "policy",
            "family",
            "runs",
            "seed",
            "T",
            "K",
            "delta",
            "alpha",
            "H",
            "L",
            "lemma_original",
            "lemma_improved",
            "theorem",
            "corollary",
            "mean_final_regret",
            "stderr_final_regret",
        ]

    def test_write_report_bytes_deterministic(self, tmp_path):
        report = run_experiment(make_config())
        csv_a, sidecar_a = write_report(report, tmp_path / "a")
        csv_b, sidecar_b = write_report(report, tmp_path / "b")
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert sidecar_a.read_bytes() == sidecar_b.read_bytes()
        assert csv_a.name == "regret.csv"
        assert sidecar_a.name == "bounds.txt"


class TestPolicyComparisons:
    def test_neighbor_updates_never_hurt_on_complete_graph(self):
        # identical reward streams, 100 runs: the policy that absorbs all
        # neighbor feedback should beat the pull-only variant (2 SE margin)
        means = np.append([0.9], np.full(9, 0.6))
        inst = BanditInstance(means, complete(10))
        config = ExperimentConfig(
            instance=inst, policy="ucb-n", horizon=10_000, num_runs=100, base_seed=17
        )
        full = run_experiment(config)
        solo = run_experiment(
            ExperimentConfig(
                instance=inst,
                policy="ucb1",
                horizon=10_000,
                num_runs=100,
                base_seed=17,
            )
        )
        margin = 2.0 * (full.stderr_final_regret + solo.stderr_final_regret)
        assert full.mean_final_regret <= solo.mean_final_regret + margin

    def test_policies_coincide_without_edges(self):
        # no neighbors means no extra information: the two index policies
        # must produce identical pull sequences run by run
        inst = BanditInstance(np.array([0.9, 0.7, 0.5, 0.3]), edgeless(4))
        for run in range(5):
            a = run_episode(inst, "ucb-n", 2000, episode_stream(23, run))
            b = run_episode(inst, "ucb1", 2000, episode_stream(23, run))
            assert np.array_equal(a.pulls, b.pulls)


class TestSweepAlpha:
    def test_alpha_column_and_delegated_bounds(self):
        means = np.append([0.9], np.full(9, 0.6))
        config = ExperimentConfig(
            instance=BanditInstance(means, complete(10)),
            policy="ucb-n",
            horizon=512,
            num_runs=3,
            base_seed=5,
        )
        graphs = [
            ("cliques:10", disjoint_cliques((10,))),
            ("cliques:5,5", disjoint_cliques((5, 5))),
            ("cliques:2x5", disjoint_cliques((2,) * 5)),
            ("edgeless:10", edgeless(10)),
        ]
        rows = sweep_alpha(config, graphs)
        assert [row.alpha for row in rows] == [1, 2, 5, 10]
        assert [row.label for row in rows] == [label for label, _ in graphs]

        from graphbandits import bound_report

        for row, (_, graph) in zip(rows, graphs):
            want = bound_report(BanditInstance(means, graph), 512)
            assert row.ucbn_bound == pytest.approx(want.ucbn_bound)
            assert row.gap_free_bound == pytest.approx(want.gap_free_bound)

    def test_denser_feedback_means_less_regret(self):
        # same arms, same streams; only the graph changes. 50 matched runs,
        # orderings asserted within two standard errors
        means = np.append([0.9], np.full(9, 0.6))
        config = ExperimentConfig(
            instance=BanditInstance(means, complete(10)),
            policy="ucb-n",
            horizon=4096,
            num_runs=50,
            base_seed=29,
        )
        rows = sweep_alpha(
            config,
            [
                ("complete", complete(10)),
                ("cliques", disjoint_cliques((5, 5))),
                ("edgeless", edgeless(10)),
            ],
        )
        by_label = {row.label: row for row in rows}
        for denser, sparser in (("complete", "cliques"), ("cliques", "edgeless")):
            a, b = by_label[denser], by_label[sparser]
            margin = 2.0 * (a.stderr_final_regret + b.stderr_final_regret)
            assert a.mean_final_regret <= b.mean_final_regret + margin

    @pytest.mark.parametrize("policy", ["ucb-n", "ucb1", "ts-n"])
    def test_rows_match_by_hand_runs(self, policy):
        means = np.array([0.9, 0.7, 0.6, 0.6, 0.4, 0.2])
        graphs = [
            ("complete", complete(6)),
            ("cliques", disjoint_cliques((3, 3))),
            ("edgeless", edgeless(6)),
        ]
        config = ExperimentConfig(
            BanditInstance(means, complete(6)), policy, 300, num_runs=4, base_seed=13
        )
        rows = sweep_alpha(config, graphs)
        for row, (_, graph) in zip(rows, graphs):
            finals = np.array([
                episode_by_hand(
                    BanditInstance(means, graph), policy, 300, episode_stream(13, run)
                )[1][-1]
                for run in range(4)
            ])
            assert row.mean_final_regret == float(finals.mean())
            assert row.stderr_final_regret == float(finals.std(ddof=1) / math.sqrt(4))

    def test_arity_and_type_validation(self):
        config = make_config()
        with pytest.raises(InputError):
            sweep_alpha(config, [("bad", edgeless(5))])
        with pytest.raises(InputError):
            sweep_alpha(config, [("bad", "edgeless:3")])
        # a bad graph after a good one is refused before anything runs
        with pytest.raises(InputError):
            sweep_alpha(config, [("good", edgeless(3)), ("bad", edgeless(5))])

    def test_empty_sweep(self):
        assert sweep_alpha(make_config(), []) == []

    @pytest.mark.parametrize("policy", ["ucb-n", "ucb1", "ts-n"])
    def test_one_graph_sweep_is_run_experiment(self, policy):
        graph = disjoint_cliques((3, 3))
        config = ExperimentConfig(
            BanditInstance(np.array([0.9, 0.7, 0.6, 0.6, 0.4, 0.2]), graph),
            policy,
            300,
            num_runs=4,
            base_seed=13,
        )
        report = run_experiment(config)
        [row] = sweep_alpha(config, [("cliques:3,3", graph)])
        assert report.config is config
        assert row.mean_final_regret == report.mean_final_regret
        assert row.stderr_final_regret == report.stderr_final_regret
        assert row.ucbn_bound == report.bounds.ucbn_bound
        assert row.gap_free_bound == report.bounds.gap_free_bound

    def test_failing_bounds_stop_the_sweep_before_any_episode(self, monkeypatch):
        from graphbandits import kernels, sim

        second = edgeless(3)
        real_bound_report = sim.bound_report

        def bound_report(instance, *args, **kwargs):
            if instance.graph is second:
                raise InputError("no bound for this graph")
            return real_bound_report(instance, *args, **kwargs)

        batches = []
        monkeypatch.setattr(sim, "bound_report", bound_report)
        monkeypatch.setattr(
            kernels, "run_episode_batch", lambda *a, **k: batches.append(a)
        )
        with pytest.raises(InputError, match="no bound for this graph"):
            sweep_alpha(make_config(), [("first", complete(3)), ("second", second)])
        assert batches == []

    def test_csv_lines(self):
        config = make_config(num_runs=2)
        rows = sweep_alpha(config, [("edgeless:3", edgeless(3))])
        lines = sweep_csv_lines(rows)
        assert lines[0] == "graph,alpha,mean_final_regret,stderr,theorem,corollary"
        assert lines[1].startswith("edgeless:3,3,")
