"""Batched episode loops and the reference sequence scan.

The episode loops are checked against the step-by-step policy objects
composed by hand, one episode per run, which must give bit-identical pulls,
regret and final state. A Thompson-sampling batch split across forked
workers must equal the same batch run in one process bit for bit, and its
gamma-pair Beta draws must equal numpy's own ``Generator.beta``.
"""
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphbandits
from graphbandits import (
    BanditInstance,
    ExperimentConfig,
    FeedbackGraph,
    InputError,
    complete,
    cycle,
    disjoint_cliques,
    edgeless,
    episode_stream,
    exploration_bonus,
    gaps,
    run_experiment,
    sweep_alpha,
)
from graphbandits import kernels, workers
from graphbandits.kernels import (
    run_episode_arrays,
    run_episode_batch,
    scan_sequences_range,
)

from oracles import episode_by_hand, random_edges


class TestEpisodeAgainstByHand:
    @pytest.mark.parametrize("policy", ["ucb-n", "ucb1", "ts-n"])
    def test_same_trajectory_and_state(self, policy):
        means = np.array([0.85, 0.6, 0.6, 0.3, 0.15])
        graph = cycle(5)
        inst = BanditInstance(means, graph)
        horizon = 300

        rng = np.random.default_rng(12345)
        want_pulls, _, policy_obj = episode_by_hand(inst, policy, horizon, rng)

        gen = np.random.default_rng(12345)
        bonus = policy_obj.bonus if policy != "ts-n" else 0.0
        pulls, state_a, state_b = run_episode_arrays(
            policy, means, graph.adjacency_matrix(), horizon, gen, bonus=bonus
        )
        assert np.array_equal(pulls, want_pulls)
        if policy == "ts-n":
            assert np.array_equal(state_a, policy_obj.successes)
            assert np.array_equal(state_b, policy_obj.failures)
        else:
            assert np.array_equal(state_a, policy_obj.counts)
            assert np.array_equal(state_b, policy_obj.sums)

    def test_ucb1_ignores_neighbors_ucbn_uses_them(self):
        means = np.array([0.8, 0.5, 0.5])
        adj = complete(3).adjacency_matrix()
        _, counts_n, _ = run_episode_arrays(
            "ucb-n", means, adj, 120, np.random.default_rng(5), bonus=3.0
        )
        _, counts_1, _ = run_episode_arrays(
            "ucb1", means, adj, 120, np.random.default_rng(5), bonus=3.0
        )
        assert counts_n.sum() == 3 * 120  # every pull feeds all three arms
        assert counts_1.sum() == 120

    def test_input_validation(self):
        means = np.array([0.5, 0.5])
        adj = edgeless(2).adjacency_matrix()
        gen = np.random.default_rng(0)
        with pytest.raises(InputError):
            run_episode_arrays("exp3", means, adj, 10, gen)
        with pytest.raises(InputError):
            run_episode_arrays("ucb-n", means, adj, 0, gen)


# delta is fixed so that a horizon of 1 still has a valid exploration bonus
DELTA = 1.0 / 64


def _batch(policy, instance, graphs, horizon, num_runs, seed, marks):
    if policy == "ts-n":
        bonus = 0.0
    else:
        bonus = exploration_bonus(instance.num_arms, horizon, DELTA)
    return run_episode_batch(
        policy,
        instance.means,
        np.stack([g.adjacency_matrix() for g in graphs]),
        horizon,
        lambda run: episode_stream(seed, run),
        num_runs,
        bonus=bonus,
        gaps=gaps(instance).gaps,
        marks=marks,
    ), bonus


def _check_against_by_hand(policy, instance, graphs, horizon, num_runs, seed, marks):
    batch, bonus = _batch(policy, instance, graphs, horizon, num_runs, seed, marks)
    assert batch.marked.shape == (len(graphs), num_runs, len(marks))
    for g, graph in enumerate(graphs):
        inst = BanditInstance(instance.means, graph)
        for run in range(num_runs):
            _, regret, obj = episode_by_hand(
                inst, policy, horizon, episode_stream(seed, run),
                delta=None if policy == "ts-n" else DELTA,
            )
            if policy != "ts-n":
                assert obj.bonus == bonus
            assert batch.marked[g, run].tolist() == regret[list(marks)].tolist()
            assert batch.final[g, run] == regret[-1]
            if policy == "ts-n":
                state = (obj.successes, obj.failures)
            else:
                state = (obj.counts, obj.sums)
            assert np.array_equal(batch.state_a[g, run], state[0])
            assert np.array_equal(batch.state_b[g, run], state[1])
    return batch


POLICIES = ["ucb-n", "ucb1", "ts-n"]
MEANS = np.array([0.85, 0.6, 0.6, 0.5, 0.3, 0.15])


class TestBatchAgainstByHand:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_five_runs(self, policy):
        inst = BanditInstance(MEANS, cycle(6))
        _check_against_by_hand(policy, inst, [cycle(6)], 300, 5, 8, [0, 9, 127, 299])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_graphs_of_a_sweep(self, policy):
        graphs = [complete(6), disjoint_cliques((3, 3)), edgeless(6)]
        inst = BanditInstance(MEANS, graphs[0])
        _check_against_by_hand(policy, inst, graphs, 200, 3, 4, [1, 63, 199])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_marks_leave_out_the_horizon(self, policy):
        inst = BanditInstance(MEANS, cycle(6))
        _check_against_by_hand(policy, inst, [cycle(6)], 150, 2, 6, [2, 40])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_marks(self, policy):
        inst = BanditInstance(MEANS, cycle(6))
        _check_against_by_hand(policy, inst, [cycle(6)], 40, 2, 6, [])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_horizons_around_the_block_length(self, monkeypatch, policy):
        # 2 graphs x 2 runs x 6 arms in a 192-flag budget make blocks of 8 rounds
        monkeypatch.setattr("graphbandits.kernels._BLOCK_DOUBLES", 192)
        inst = BanditInstance(MEANS, edgeless(6))
        graphs = [edgeless(6), complete(6)]
        for horizon in (1, 7, 8, 17):
            marks = sorted({0, horizon - 1})
            _check_against_by_hand(policy, inst, graphs, horizon, 2, 5, marks)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_caller_stream_ends_where_by_hand_leaves_it(self, policy):
        # one round past the first block of uniforms
        inst = BanditInstance(np.linspace(0.2, 0.8, 16), cycle(16))
        horizon = kernels._BLOCK_DOUBLES // 16 + 1
        rng = np.random.default_rng(31)
        want, _, obj = episode_by_hand(inst, policy, horizon, rng)
        gen = np.random.default_rng(31)
        pulls, _, _ = run_episode_arrays(
            policy,
            inst.means,
            inst.graph.adjacency_matrix(),
            horizon,
            gen,
            bonus=0.0 if policy == "ts-n" else obj.bonus,
        )
        assert np.array_equal(pulls, want)
        assert gen.random() == rng.random()

    def test_ucb1_runs_one_graph_for_every_graph(self, monkeypatch):
        # ucb1 is ucb-n on the edgeless graph, whatever graphs it is given,
        # so the loops simulate that one graph's episodes
        adjs = []
        ucb_batch = kernels._ucb_batch

        def spy(means, adj, *args):
            adjs.append(adj)
            return ucb_batch(means, adj, *args)

        monkeypatch.setattr(kernels, "_ucb_batch", spy)
        graphs = [complete(6), disjoint_cliques((3, 3)), edgeless(6)]
        inst = BanditInstance(MEANS, graphs[0])
        _check_against_by_hand("ucb1", inst, graphs, 200, 3, 4, [1, 63, 199])
        assert [adj.shape for adj in adjs] == [(1, 6, 6)]
        # contiguous, so that taking its rows copies no more than the rows
        assert adjs[0].dtype == np.bool_ and adjs[0].flags.c_contiguous
        assert np.array_equal(adjs[0][0], np.eye(6, dtype=bool))

    def test_input_validation(self):
        inst = BanditInstance(MEANS, cycle(6))
        with pytest.raises(InputError):
            _batch("exp3", inst, [cycle(6)], 10, 2, 0, [])
        for marks in ([3, 3], [5, 2], [-1], [10]):
            with pytest.raises(InputError):
                _batch("ucb-n", inst, [cycle(6)], 10, 2, 0, marks)
        means, adj = np.array([0.5, 0.4, 0.3]), cycle(3).adjacency_matrix()
        for change, needle in [
            ({"num_runs": 0}, "num_runs"),
            ({"num_runs": -1}, "num_runs"),
            ({"means": np.full((3, 3), 0.5)}, "means"),
            ({"adj": cycle(4).adjacency_matrix()[None]}, "adj"),
            ({"adj": adj}, "adj"),
            ({"gaps": [0.2, 0.1, 0.0, 5.0, 7.0]}, "gaps"),
        ]:
            call = {"means": means, "adj": adj[None], "num_runs": 2, "gaps": [0.2, 0.1, 0.0]}
            call.update(change)
            with pytest.raises(InputError, match=needle):
                run_episode_batch("ucb-n", horizon=10, stream=episode_stream, **call)
        gen = np.random.default_rng(0)
        with pytest.raises(InputError, match="adj"):
            run_episode_arrays("ucb-n", means, cycle(4).adjacency_matrix(), 10, gen)
        # int() would run 10 rounds, 2 runs and mark round 1
        for change, needle in [
            ({"horizon": 10.5}, "horizon must be an integer"),
            ({"num_runs": 2.5}, "num_runs must be an integer"),
            ({"num_runs": True}, "num_runs must be an integer"),
            ({"marks": [1.5]}, "marks must be an integer"),
        ]:
            call = {"means": means, "adj": adj[None], "horizon": 10, "num_runs": 2}
            call.update(change)
            with pytest.raises(InputError, match=needle):
                run_episode_batch("ucb-n", stream=episode_stream, **call)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "change, needle",
        [
            # a negative bonus made every UCB index NaN and pulled arm 0
            ({"bonus": -1.0}, "bonus must be finite and at least 0, got -1.0"),
            ({"bonus": float("nan")}, "bonus must be finite and at least 0, got nan"),
            ({"bonus": float("inf")}, "bonus must be finite and at least 0, got inf"),
            ({"bonus": "x"}, "bonus must be numeric, got str"),
            # a negative gap made the regret negative
            ({"gaps": [0.2, -1.0, 0.0]}, "gaps must be finite and at least 0, got -1.0"),
            ({"gaps": [0.2, float("nan"), 0.0]}, "gaps must be finite and at least 0, got nan"),
            ({"means": [0.5, float("nan"), 0.3]}, r"means must lie in \[0, 1\], got nan"),
            ({"means": [0.5, 1.5, 0.3]}, r"means must lie in \[0, 1\], got 1.5"),
            ({"means": [0.5, -0.1, 0.3]}, r"means must lie in \[0, 1\], got -0.1"),
        ],
    )
    def test_bad_numbers_are_refused(self, policy, change, needle):
        call = {
            "means": [0.5, 0.4, 0.3],
            "adj": cycle(3).adjacency_matrix()[None],
            "horizon": 10,
            "num_runs": 2,
            "bonus": 1.0,
        }
        call.update(change)
        with pytest.raises(InputError, match=f"^{needle}$"):
            run_episode_batch(policy, stream=lambda run: episode_stream(0, run), **call)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "adj, needle",
        [
            # ts-n divided by zero graphs, the UCB loops returned empty arrays
            (
                np.ones((0, 3, 3), dtype=bool),
                r"adj must have shape \(G, 3, 3\) with G >= 1, got \(0, 3, 3\)",
            ),
            # an arm that does not observe itself: ucb-n divided 0 by 0 and
            # ts-n returned a regret
            (
                np.stack([cycle(3).adjacency_matrix(), ~np.eye(3, dtype=bool)]),
                "adj must be True on its diagonal: a pull observes its own arm",
            ),
            (
                np.zeros((1, 3, 3), dtype=bool),
                "adj must be True on its diagonal: a pull observes its own arm",
            ),
        ],
        ids=["no-graph", "one-graph-of-two", "empty-graph"],
    )
    def test_malformed_adjacency_is_refused(self, policy, adj, needle):
        with pytest.raises(InputError, match=f"^{needle}$"):
            run_episode_batch(
                policy, [0.5, 0.4, 0.3], adj, 10,
                lambda run: episode_stream(0, run), 2, bonus=1.0,
            )

    def test_edge_numbers_are_taken(self):
        # means at 0 and 1, a zero bonus and zero gaps are in the domain
        batch = run_episode_batch(
            "ucb-n", [0.0, 1.0, 0.5], cycle(3).adjacency_matrix()[None], 10,
            lambda run: episode_stream(0, run), 2, bonus=np.float32(0.0),
            gaps=np.zeros(3),
        )
        assert batch.final.tolist() == [[0.0, 0.0]]


class TestOneGraphPath:
    """A one-graph batch reads the pulled arms' adjacency rows directly, a
    batch of G graphs through each graph's row offset, and a ucb1 batch
    simulates one graph for all, the edgeless one; each gives the bits of G
    one-graph batches and of every episode by hand, and holds no copy of
    the adjacency."""

    @given(
        st.sampled_from(POLICIES),
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 40),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
    )
    def test_graphs_of_a_batch_equal_batches_of_one_graph(
        self, policy, k, num_graphs, num_runs, horizon, block_doubles, seed
    ):
        rng = np.random.default_rng(seed)
        graphs = [
            FeedbackGraph(k, random_edges(rng, k, rng.uniform()))
            for _ in range(num_graphs)
        ]
        inst = BanditInstance(rng.uniform(size=k), graphs[0])
        bonus = 0.0 if policy == "ts-n" else exploration_bonus(k, horizon, DELTA)

        def batch(part):
            return run_episode_batch(
                policy,
                inst.means,
                np.stack([g.adjacency_matrix() for g in part]),
                horizon,
                lambda run: episode_stream(seed, run),
                num_runs,
                bonus=bonus,
                gaps=gaps(inst).gaps,
                marks=range(horizon),
                keep_pulls=True,
            )

        # blocks of a few rounds, so that horizons cross block boundaries
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_BLOCK_DOUBLES", block_doubles)
            whole = batch(graphs)
            ones = [batch([g]) for g in graphs]
        for name, axis in [
            ("marked", 0), ("final", 0), ("state_a", 0), ("state_b", 0), ("pulls", 1)
        ]:
            want = np.concatenate([getattr(one, name) for one in ones], axis=axis)
            assert getattr(whole, name).tobytes() == want.tobytes(), name
        for g, graph in enumerate(graphs):
            for run in range(num_runs):
                pulls, regret, obj = episode_by_hand(
                    BanditInstance(inst.means, graph), policy, horizon,
                    episode_stream(seed, run),
                    delta=None if policy == "ts-n" else DELTA,
                )
                assert np.array_equal(whole.pulls[:, g, run], pulls)
                assert whole.marked[g, run].tolist() == regret.tolist()
                state = (
                    (obj.successes, obj.failures) if policy == "ts-n"
                    else (obj.counts, obj.sums)
                )
                assert np.array_equal(whole.state_a[g, run], state[0])
                assert np.array_equal(whole.state_b[g, run], state[1])

    @given(
        st.integers(1, 12),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 40),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
    )
    def test_ucb1_is_ucbn_on_the_edgeless_graph(
        self, k, num_graphs, num_runs, horizon, block_doubles, seed
    ):
        rng = np.random.default_rng(seed)
        adj = np.stack([
            FeedbackGraph(k, random_edges(rng, k, rng.uniform())).adjacency_matrix()
            for _ in range(num_graphs)
        ])
        means = rng.uniform(size=k)

        def batch(policy, adj):
            return run_episode_batch(
                policy,
                means,
                adj,
                horizon,
                lambda run: episode_stream(seed, run),
                num_runs,
                bonus=exploration_bonus(k, horizon, DELTA),
                gaps=means.max() - means,
                marks=range(horizon),
                keep_pulls=True,
            )

        # blocks of a few rounds, so that horizons cross block boundaries
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_BLOCK_DOUBLES", block_doubles)
            got = batch("ucb1", adj)
            want = batch("ucb-n", np.stack([edgeless(k).adjacency_matrix()] * num_graphs))
        for name in ("marked", "final", "pulls", "state_a", "state_b"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("policy", POLICIES)
    def test_loops_hold_no_copy_of_the_adjacency(self, policy):
        # a float copy of the K x K bool adjacency would take 8 K^2 bytes
        k = 1024
        adj = cycle(k).adjacency_matrix()[None]
        means = np.linspace(0.05, 0.95, k)
        tracemalloc.start()
        try:
            run_episode_batch(
                policy, means, adj, 64, lambda run: episode_stream(1, run), 1,
                bonus=3.0,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * k * k


class TestBatchMemory:
    """The loops' buffers are sized per block of rounds, and a block by
    graphs x runs x arms, so a batch's peak grows neither with the horizon
    nor when its per-round reward flags are repeated for every graph."""

    @staticmethod
    def _peak(monkeypatch, policy, adj, means, horizon, num_runs):
        # a split batch would allocate in children tracemalloc does not see
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)

        def call():
            run_episode_batch(
                policy, means, adj, horizon, lambda run: episode_stream(1, run),
                num_runs, bonus=3.0, marks=[horizon - 1],
            )

        call()  # numpy's one-time allocations are not the loops'
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_peak_does_not_grow_with_the_horizon(self, monkeypatch, policy):
        adj = np.stack([cycle(100).adjacency_matrix(), complete(100).adjacency_matrix()])
        means = np.linspace(0.05, 0.95, 100)
        short, long = (
            self._peak(monkeypatch, policy, adj, means, horizon, 3)
            for horizon in (64, 2048)
        )
        # one int64 per episode round would add 2048 x 2 x 3 x 8 bytes = 96 KiB
        assert long <= short + 16 * 1024

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sweep_shape_stays_within_the_3d_loops_buffers(self, monkeypatch, policy):
        # the perfbench sweep: four graphs on 10 arms, 4 runs, T = 2048
        graphs = [complete(10), disjoint_cliques((5, 5)), edgeless(10), cycle(10)]
        adj = np.stack([g.adjacency_matrix() for g in graphs])
        means = np.array([0.9] + [0.6] * 9)
        peak = self._peak(monkeypatch, policy, adj, means, 2048, 4)
        # Loops on (G, runs, K) state sized their blocks by runs x arms and
        # held, per block, the pulled arms and regret steps (16 bytes per
        # episode round) and, for UCB, the uniforms and reward flags
        # (9 bytes per run and arm).
        block = kernels._BLOCK_DOUBLES // (4 * 10)
        held = block * 4 * 4 * 16
        if policy != "ts-n":
            held += block * 4 * 10 * 9
        assert peak <= held


def _force_split(monkeypatch, cpus):
    """Split every ts-n batch of two or more runs over ``cpus`` processes.

    Returns the list that records the number of shares of each split.
    """
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(kernels, "_SPLIT_FLOOR", 0)
    splits = []
    run_shares = workers.run_shares

    def recording(shares):
        splits.append(len(shares))
        return run_shares(shares)

    monkeypatch.setattr(workers, "run_shares", recording)
    return splits


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_bits(got, want):
    assert got.pulls is None
    for name in ("marked", "final", "state_a", "state_b"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# the subprocess tests import the same package as the tests, installed or not
_SRC = str(Path(graphbandits.__file__).resolve().parents[1])


def _run_python(script, timeout=120):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [_SRC, os.environ.get("PYTHONPATH")])
        ),
    }
    # a pipe then block-buffers the script's stdout
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestSplitBatches:
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize(
        "num_runs, graphs, horizon, marks",
        [
            (2, [cycle(6)], 120, [0, 9, 63, 119]),
            (3, [cycle(6)], 120, [5, 119]),
            (5, [cycle(6)], 97, [0, 96]),
            (3, [complete(6), disjoint_cliques((3, 3)), edgeless(6)], 80, [1, 79]),
            (5, [cycle(6)], 150, [2, 40]),
            (3, [edgeless(6), complete(6)], 60, []),
        ],
    )
    def test_split_equals_one_process(
        self, monkeypatch, cpus, num_runs, graphs, horizon, marks
    ):
        inst = BanditInstance(MEANS, graphs[0])
        want, _ = _batch("ts-n", inst, graphs, horizon, num_runs, 9, marks)
        splits = _force_split(monkeypatch, cpus)
        got, _ = _batch("ts-n", inst, graphs, horizon, num_runs, 9, marks)
        assert splits == [min(cpus, num_runs)]
        _assert_same_bits(got, want)
        _assert_no_child_left()

    def test_shares_are_contiguous_larger_first(self):
        assert list(workers.split(5, 2)) == [range(0, 3), range(3, 5)]
        assert list(workers.split(5, 3)) == [range(0, 2), range(2, 4), range(4, 5)]
        assert list(workers.split(3, 3)) == [range(0, 1), range(1, 2), range(2, 3)]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_split_against_by_hand(self, monkeypatch, cpus):
        splits = _force_split(monkeypatch, cpus)
        graphs = [complete(6), disjoint_cliques((3, 3)), edgeless(6)]
        inst = BanditInstance(MEANS, graphs[0])
        _check_against_by_hand("ts-n", inst, graphs, 90, 5, 4, [0, 31, 89])
        assert splits == [cpus]

    def test_run_experiment_and_sweep_rows_against_by_hand(self, monkeypatch):
        splits = _force_split(monkeypatch, 2)
        graphs = [complete(6), cycle(6), edgeless(6)]
        config = ExperimentConfig(
            instance=BanditInstance(MEANS, graphs[1]),
            policy="ts-n",
            horizon=70,
            num_runs=3,
            base_seed=11,
            checkpoints=(1, 16, 50, 70),
        )
        rows = sweep_alpha(config, [(f"g{i}", g) for i, g in enumerate(graphs)])
        report = run_experiment(config)
        assert splits == [2, 2]
        for graph, row in zip(graphs, rows):
            by_hand = [
                episode_by_hand(
                    BanditInstance(MEANS, graph), "ts-n", 70, episode_stream(11, run)
                )[1]
                for run in range(3)
            ]
            finals = np.array([regret[-1] for regret in by_hand])
            assert row.mean_final_regret == float(finals.mean())
            if graph is graphs[1]:
                assert report.final_per_run.tolist() == finals.tolist()
                checkpoints = np.array([regret[[0, 15, 49, 69]] for regret in by_hand])
                assert report.mean.tolist() == checkpoints.mean(axis=0).tolist()
        _assert_no_child_left()

    def test_ucb_and_single_runs_stay_in_process(self, monkeypatch):
        splits = _force_split(monkeypatch, 3)
        inst = BanditInstance(MEANS, cycle(6))
        for policy in ("ucb-n", "ucb1"):
            _batch(policy, inst, [cycle(6)], 50, 4, 2, [49])
        _batch("ts-n", inst, [cycle(6)], 50, 1, 2, [49])
        run_episode_arrays(
            "ts-n", MEANS, cycle(6).adjacency_matrix(), 50, np.random.default_rng(2)
        )
        assert splits == []

    def test_small_batches_stay_in_process(self, monkeypatch):
        splits = _force_split(monkeypatch, 2)
        monkeypatch.setattr(kernels, "_SPLIT_FLOOR", 2 * 50)
        inst = BanditInstance(MEANS, cycle(6))
        _batch("ts-n", inst, [cycle(6)], 50, 2, 2, [49])
        assert splits == []
        _batch("ts-n", inst, [cycle(6)], 51, 2, 2, [50])
        assert splits == [2]

    @pytest.mark.parametrize("bad_run", [0, 2, 4])
    def test_worker_error_reaches_caller(self, monkeypatch, bad_run):
        # with three workers run 0 is this process's, 2 and 4 the children's
        _force_split(monkeypatch, 3)

        def stream(run):
            if run == bad_run:
                raise InputError(f"no stream for run {run}")
            return episode_stream(0, run)

        with pytest.raises(InputError, match=f"^no stream for run {bad_run}$"):
            run_episode_batch(
                "ts-n", MEANS, cycle(6).adjacency_matrix()[None], 40, stream, 5
            )
        _assert_no_child_left()

    def test_killed_worker_raises_without_hanging(self):
        proc = _run_python(
            """
            import os, signal
            import numpy as np
            from graphbandits import cycle, episode_stream, kernels, workers

            workers.usable_cpus = lambda: 2
            kernels._SPLIT_FLOOR = 0
            parent = os.getpid()

            def stream(run):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return episode_stream(0, run)

            try:
                kernels.run_episode_batch(
                    "ts-n", np.linspace(0.1, 0.9, 6),
                    cycle(6).adjacency_matrix()[None], 40, stream, 4,
                )
            except RuntimeError as exc:
                print("raised:", exc)
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
            """,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "was killed by signal 9 without an answer" in proc.stdout
        assert "no child left" in proc.stdout

    def test_buffered_stdout_is_printed_once(self):
        proc = _run_python(
            """
            import numpy as np
            from graphbandits import InputError, cycle, episode_stream, kernels, workers

            workers.usable_cpus = lambda: 3
            kernels._SPLIT_FLOOR = 0
            means = np.linspace(0.1, 0.9, 6)
            adj = cycle(6).adjacency_matrix()[None]
            print("before the batch")

            def stream(run):
                if run == 3:
                    raise InputError("run 3")
                return episode_stream(0, run)

            kernels.run_episode_batch(
                "ts-n", means, adj, 40, lambda run: episode_stream(0, run), 4
            )
            try:
                kernels.run_episode_batch("ts-n", means, adj, 40, stream, 4)
            except InputError:
                print("after the batches")
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before the batch\nafter the batches\n"

    def test_import_loads_no_pool_module(self):
        proc = _run_python(
            """
            import sys
            import graphbandits
            print(sorted(
                name for name in sys.modules
                if name.split(".")[0] in ("multiprocessing", "concurrent")
            ))
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


# Beta counts: the exponential branch (1), small shapes and large ones
_COUNTS = st.one_of(st.just(1), st.integers(2, 8), st.integers(1, 2**15))


class TestThompsonDraws:
    """The Thompson-sampling loop draws Beta samples as interleaved gammas
    and keeps ``Generator.beta`` for episodes with an arm never observed."""

    @given(
        st.lists(
            st.tuples(_COUNTS, _COUNTS).filter(lambda ab: ab != (1, 1)),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_interleaved_gammas_are_numpys_beta(self, pairs, seed):
        ab = np.array(pairs, dtype=np.float64)
        want_gen = np.random.default_rng(seed)
        want = want_gen.beta(ab[:, 0], ab[:, 1])
        gen = np.random.default_rng(seed)
        gammas = np.empty(ab.size)
        gen.standard_gamma(ab.reshape(-1), out=gammas)
        got = gammas[0::2] / (gammas[0::2] + gammas[1::2])
        cause = (
            "Generator.beta(a, b) no longer draws standard_gamma(a), then "
            "standard_gamma(b), per arm and returns Ga / (Ga + Gb); the "
            "Thompson-sampling loop in kernels relies on it"
        )
        assert got.tobytes() == want.tobytes(), cause
        assert gen.bit_generator.state == want_gen.bit_generator.state, cause

    @pytest.mark.parametrize("split", [False, True])
    def test_batch_mixing_beta_and_gamma_episodes(self, monkeypatch, split):
        # At a horizon below K, every edgeless episode keeps an arm it never
        # observes and draws through beta to the end; complete episodes
        # leave beta after round 0 and two-clique ones once both cliques
        # have been observed.
        graphs = [complete(40), disjoint_cliques((20, 20)), edgeless(40)]
        inst = BanditInstance(np.linspace(0.05, 0.95, 40), graphs[0])
        horizon = 30
        num_runs = 3
        splits = []
        if split:
            floor = kernels._SPLIT_FLOOR
            splits = _force_split(monkeypatch, 2)
            monkeypatch.setattr(kernels, "_SPLIT_FLOOR", floor)
            num_runs = floor // (len(graphs) * horizon) + 1
        batch = _check_against_by_hand(
            "ts-n", inst, graphs, horizon, num_runs, 3, [0, 1, 2, 7, 29]
        )
        assert splits == ([2] if split else [])
        unseen = (batch.state_a + batch.state_b == 0).any(axis=2)
        assert not unseen[0].any()
        assert unseen[2].all()
        _assert_no_child_left()


class TestSequenceScans:
    def test_small_box_by_direct_count(self):
        # alpha=1, two phases: sequences (c1, c2) with terms 2*c1 + 4*c2
        nonzero, n_viol, recorded, best_ratio, best_index = scan_sequences_range(
            1, 2, 0, 4, threshold=3.0, slack=1e-9
        )
        assert nonzero == 3
        assert n_viol == 0
        assert recorded == []
        # ratios: (1,0) -> 1, (0,1) -> 1, (1,1) -> 6/4; first max wins
        assert best_ratio == pytest.approx(1.5)
        assert best_index == 3

    def test_artificial_threshold_flags_violations(self):
        # with threshold 1.0 every multi-band sequence violates; for
        # alpha=1, phases=2 only (1,1) has two nonzero terms
        nonzero, n_viol, recorded, best_ratio, best_index = scan_sequences_range(
            1, 2, 0, 4, threshold=1.0, slack=1e-9
        )
        assert n_viol == 1
        assert recorded == [3]

    def test_range_splitting_merges_to_full_scan(self):
        alpha, phases = 3, 4
        total = (alpha + 1) ** phases
        threshold = float(np.log2(alpha)) + 3.0
        full = scan_sequences_range(alpha, phases, 0, total, threshold, 1e-9)
        cut = total // 3
        parts = [
            scan_sequences_range(alpha, phases, lo, hi, threshold, 1e-9)
            for lo, hi in ((0, cut), (cut, 2 * cut), (2 * cut, total))
        ]
        assert sum(p[0] for p in parts) == full[0]
        assert sum(p[1] for p in parts) == full[1]
        best = max(p[3] for p in parts)
        assert best == pytest.approx(full[3])

    def test_chunk_boundary_keeps_earliest_best(self):
        # ratios tie across chunks; the scan must keep the first index
        nonzero, _, _, best_ratio, best_index = scan_sequences_range(
            1, 17, 0, 2**17, threshold=10.0, slack=1e-9
        )
        # single-count sequences all have ratio 1 until a two-count index
        assert best_index >= 0
        again = scan_sequences_range(
            1, 17, 0, 2**17, threshold=10.0, slack=1e-9
        )
        assert again[4] == best_index

    @pytest.mark.parametrize("max_record", [0, 3, 100])
    def test_small_chunks_match_direct_enumeration(self, monkeypatch, max_record):
        # chunks of 7 put violations and ratio ties on every chunk boundary
        monkeypatch.setattr("graphbandits.kernels._CHUNK", 7)
        alpha, phases, start, stop, threshold = 2, 4, 5, 70, 2.0
        ratios, bad = {}, []
        for i in range(start, stop):
            counts = [(i // 3**p) % 3 for p in range(phases)]
            terms = [c * 2 ** (p + 1) for p, c in enumerate(counts)]
            if max(terms) > 0:
                ratios[i] = sum(terms) / max(terms)
                if sum(terms) > threshold * max(terms):
                    bad.append(i)
        best = max(ratios.values())
        got = scan_sequences_range(
            alpha, phases, start, stop, threshold, 0.0, max_record=max_record
        )
        assert got == (
            len(ratios),
            len(bad),
            bad[:max_record],
            best,
            min(i for i, r in ratios.items() if r == best),
        )

    def test_empty_range(self):
        got = scan_sequences_range(2, 3, 5, 5, 4.0, 1e-9)
        assert got == (0, 0, [], -1.0, -1)

    def test_range_validation(self):
        with pytest.raises(InputError):
            scan_sequences_range(2, 3, 0, 28, 4.0, 1e-9)  # 3^3 = 27 < 28
        with pytest.raises(InputError):
            scan_sequences_range(0, 3, 0, 1, 4.0, 1e-9)
        with pytest.raises(InputError):
            scan_sequences_range(2, 0, 0, 1, 4.0, 1e-9)

    def test_max_record_caps_list_not_count(self):
        # with threshold 1.0 every sequence of two or more nonzero counts
        # violates: 2^4 - 1 - 4 of the alpha=1, four-phase box
        nonzero, n_viol, recorded, _, _ = scan_sequences_range(
            1, 4, 0, 16, threshold=1.0, slack=0.0, max_record=4
        )
        assert nonzero == 15
        assert n_viol == 11
        assert recorded == [3, 5, 6, 7]
