"""Batched episode loops and the reference sequence scan.

The episode loops are checked against the step-by-step policy objects
composed by hand, one episode per run, which must give bit-identical pulls,
regret and final state.
"""
import numpy as np
import pytest

from graphbandits import (
    BanditInstance,
    InputError,
    complete,
    cycle,
    disjoint_cliques,
    edgeless,
    episode_stream,
    exploration_bonus,
    gaps,
)
from graphbandits import kernels
from graphbandits.kernels import (
    run_episode_arrays,
    run_episode_batch,
    scan_sequences_range,
)

from oracles import episode_by_hand


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
        # 2 runs x 6 arms in a 96-double budget make blocks of 8 rounds
        monkeypatch.setattr("graphbandits.kernels._BLOCK_DOUBLES", 96)
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

    def test_input_validation(self):
        inst = BanditInstance(MEANS, cycle(6))
        with pytest.raises(InputError):
            _batch("exp3", inst, [cycle(6)], 10, 2, 0, [])
        for marks in ([3, 3], [5, 2], [-1], [10]):
            with pytest.raises(InputError):
                _batch("ucb-n", inst, [cycle(6)], 10, 2, 0, marks)


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
