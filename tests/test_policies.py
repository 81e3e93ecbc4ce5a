"""Policy selection rules, index arithmetic, and update validation."""
import math

import numpy as np
import pytest

from graphbandits import (
    BanditInstance,
    InputError,
    TsNPolicy,
    Ucb1Policy,
    UcbNPolicy,
    edgeless,
    exploration_bonus,
    make_policy,
)

from graphbandits.policies import check_policy

from oracles import episode_by_hand


class TestExplorationBonus:
    def test_horizon_one_needs_a_delta(self):
        # the default 1/horizon would be 1.0; every caller says so the same way
        for build in (
            lambda: exploration_bonus(num_arms=3, horizon=1),
            lambda: UcbNPolicy(3, 1),
            lambda: make_policy("ucb1", 3, 1),
        ):
            with pytest.raises(InputError, match="at least 2 when no delta is given"):
                build()
        assert UcbNPolicy(3, 1, delta=0.5).delta == 0.5

    def test_default_delta_is_one_over_horizon(self):
        got = exploration_bonus(num_arms=10, horizon=1000)
        assert got == pytest.approx(2.0 * math.log(2.0 * 1000 * 10 * 1000))

    def test_explicit_delta(self):
        got = exploration_bonus(num_arms=4, horizon=100, delta=0.05)
        assert got == pytest.approx(2.0 * math.log(2.0 * 100 * 4 / 0.05))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_delta_domain(self, delta):
        with pytest.raises(InputError):
            exploration_bonus(4, 100, delta)

    def test_argument_domains(self):
        with pytest.raises(InputError):
            exploration_bonus(0, 100)
        with pytest.raises(InputError):
            exploration_bonus(4, 0)


class TestUcbN:
    def test_first_selection_is_arm_zero(self):
        assert UcbNPolicy(5, horizon=100).select() == 0

    def test_unobserved_arm_has_infinite_index(self):
        p = UcbNPolicy(3, horizon=100)
        p.update([(0, 1.0), (1, 0.0)])
        idx = p.indices()
        assert np.isfinite(idx[0]) and np.isfinite(idx[1])
        assert idx[2] == np.inf
        assert p.select() == 2

    def test_index_formula(self):
        p = UcbNPolicy(2, horizon=50, delta=0.1)
        p.update([(0, 1.0), (1, 0.0)])
        p.update([(0, 0.0)])
        bonus = 2.0 * math.log(2.0 * 50 * 2 / 0.1)
        want = [0.5 + math.sqrt(bonus / 2.0), 0.0 + math.sqrt(bonus / 1.0)]
        assert np.allclose(p.indices(), want)

    def test_tie_breaks_to_lowest_arm(self):
        p = UcbNPolicy(4, horizon=100)
        p.update([(a, 0.5) for a in range(4)])
        assert p.select() == 0
        # make arm 2 strictly better and the tie disappears
        p.update([(a, 0.5) for a in range(4)])
        p.sums[2] += 0.2
        assert p.select() == 2

    def test_update_accumulates(self):
        p = UcbNPolicy(3, horizon=10)
        p.update([(1, 1.0), (2, 0.25)])
        p.update([(1, 0.5)])
        assert p.counts.tolist() == [0.0, 2.0, 1.0]
        assert p.sums.tolist() == [0.0, 1.5, 0.25]

    def test_empty_update_is_noop(self):
        p = UcbNPolicy(3, horizon=10)
        p.update([])
        assert p.counts.sum() == 0.0

    def test_update_validation(self):
        p = UcbNPolicy(3, horizon=10)
        with pytest.raises(InputError):
            p.update([(3, 0.5)])
        with pytest.raises(InputError):
            p.update([(0, 0.5), (0, 0.5)])
        with pytest.raises(InputError):
            p.update([(0, 1.5)])
        with pytest.raises(InputError):
            p.update([(0, -0.5)])


class TestUcb1:
    def test_requires_pulled_arm(self):
        p = Ucb1Policy(3, horizon=10)
        with pytest.raises(InputError):
            p.update([(0, 1.0)])

    def test_ignores_neighbor_rewards(self):
        p = Ucb1Policy(3, horizon=10)
        p.update([(0, 1.0), (1, 1.0), (2, 1.0)], pulled=1)
        assert p.counts.tolist() == [0.0, 1.0, 0.0]
        assert p.sums.tolist() == [0.0, 1.0, 0.0]

    def test_neighbor_rewards_still_validated(self):
        p = Ucb1Policy(3, horizon=10)
        with pytest.raises(InputError):
            p.update([(0, 2.0), (1, 1.0)], pulled=1)

    def test_same_index_rule_as_ucbn(self):
        a = UcbNPolicy(3, horizon=100, delta=0.2)
        b = Ucb1Policy(3, horizon=100, delta=0.2)
        a.update([(0, 1.0)])
        b.update([(0, 1.0)], pulled=0)
        assert np.array_equal(a.indices(), b.indices())


class TestTsN:
    def test_select_needs_rng(self):
        with pytest.raises(InputError):
            TsNPolicy(3).select(None)

    def test_fresh_posterior_is_uniform(self):
        rng = np.random.default_rng(5)
        p = TsNPolicy(4)
        picks = np.bincount([p.select(rng) for _ in range(100_000)], minlength=4)
        assert np.allclose(picks / picks.sum(), 0.25, atol=0.02)

    def test_concentrated_posterior_dominates(self):
        rng = np.random.default_rng(6)
        p = TsNPolicy(2)
        p.successes[:] = [10_000.0, 0.0]
        p.failures[:] = [0.0, 10_000.0]
        picks = [p.select(rng) for _ in range(1000)]
        assert np.mean(np.asarray(picks) == 0) >= 0.999

    def test_binary_rewards_update_counts(self):
        p = TsNPolicy(2)
        p.update([(0, 1.0), (1, 0.0)])
        assert p.successes.tolist() == [1.0, 0.0]
        assert p.failures.tolist() == [0.0, 1.0]

    def test_fractional_reward_monte_carlo(self):
        rng = np.random.default_rng(7)
        p = TsNPolicy(1)
        n = 100_000
        for _ in range(n):
            p.update([(0, 0.7)], rng=rng)
        assert p.successes[0] / n == pytest.approx(0.7, abs=0.01)
        assert p.successes[0] + p.failures[0] == n

    def test_fractional_reward_needs_rng(self):
        with pytest.raises(InputError):
            TsNPolicy(1).update([(0, 0.5)])

    def test_posterior_means(self):
        p = TsNPolicy(2)
        p.update([(0, 1.0)])
        assert np.allclose(p.posterior_means(), [2.0 / 3.0, 0.5])

    def test_posterior_concentrates_on_best_arm(self):
        # two-arm instance with a 0.3 gap: after a long run the posterior
        # mean of the best arm should sit near its true mean
        inst = BanditInstance(np.array([0.8, 0.5]), edgeless(2))
        hits = 0
        for run in range(50):
            rng = np.random.default_rng([100, run])
            _, _, policy = episode_by_hand(inst, "ts-n", 10_000, rng)
            post = policy.posterior_means()
            if abs(post[0] - 0.8) <= 0.05:
                hits += 1
        assert hits >= 48


class TestMakePolicy:
    def test_names(self):
        assert isinstance(make_policy("ucb-n", 3, 10), UcbNPolicy)
        assert isinstance(make_policy("ucb1", 3, 10), Ucb1Policy)
        assert isinstance(make_policy("ts-n", 3, 10), TsNPolicy)
        assert not isinstance(make_policy("ucb1", 3, 10), TsNPolicy)

    def test_case_and_whitespace(self):
        assert isinstance(make_policy(" UCB-N ", 3, 10), UcbNPolicy)
        assert check_policy(" TS-N ") == "ts-n"

    def test_unknown_name(self):
        with pytest.raises(InputError):
            make_policy("exp3", 3, 10)

    def test_ts_rejects_delta(self):
        with pytest.raises(InputError):
            make_policy("ts-n", 3, 10, delta=0.1)


class TestEpisodeInvariants:
    @pytest.mark.parametrize("name", ["ucb-n", "ucb1", "ts-n"])
    def test_observation_counts_match_pull_counts(self, name):
        # on an edgeless graph each pull feeds exactly one observation, so
        # per-arm policy counts must equal per-arm pull counts
        inst = BanditInstance(np.array([0.8, 0.5, 0.3]), edgeless(3))
        rng = np.random.default_rng(3)
        pulls, regret, policy = episode_by_hand(inst, name, 400, rng)
        pull_counts = np.bincount(pulls, minlength=3)
        if name == "ts-n":
            totals = policy.successes + policy.failures
        else:
            totals = policy.counts
        assert np.array_equal(totals, pull_counts.astype(np.float64))
        assert regret[-1] == pytest.approx(
            pull_counts[1] * 0.3 + pull_counts[2] * 0.5
        )
