"""Dyadic gap bands, the peak band, and the band-weighted regret mass."""
import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbandits import (
    BanditInstance,
    CapabilityError,
    InputError,
    bound_report,
    complete,
    decompose,
    edgeless,
    gaps,
    hardness,
    independence_number,
    max_phase_index,
    parse_graph_spec,
    phase_of,
    regret_mass,
    verify_decomposition,
    verify_instance,
)
from graphbandits import bounds as bounds_module
from graphbandits import env as env_module
from graphbandits import graph as graph_module
from graphbandits import max_independent_set
from graphbandits import phases as phases_module

from oracles import brute_force_mis, random_instance


class TestPhaseOf:
    @pytest.mark.parametrize(
        "gap, phase",
        [
            (1.0, 1),
            (0.6, 1),
            (0.5, 2),
            (0.3, 2),
            (0.25, 3),
            (0.2, 3),
            (2.0**-10, 11),
            (2.0**-10 * 1.5, 10),
        ],
    )
    def test_known_values(self, gap, phase):
        assert phase_of(gap) == phase

    def test_powers_of_two_land_in_next_band(self):
        # 2^-k is the closed upper end of band k+1
        for k in range(0, 40):
            assert phase_of(2.0**-k) == k + 1

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0000001, 2.0, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(InputError):
            phase_of(bad)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False))
    def test_band_membership(self, gap):
        p = phase_of(gap)
        assert p >= 1
        assert 2.0 ** (-p) < gap <= 2.0 ** (-(p - 1))


class TestMaxPhaseIndex:
    def test_known_values(self):
        assert max_phase_index(10**6, 0.3) == 2
        assert max_phase_index(2, 0.001) == 0
        assert max_phase_index(10**6, 1.0) == 1

    def test_none_means_nothing_to_decompose(self):
        assert max_phase_index(10**6, None) == 0

    def test_horizon_domain(self):
        with pytest.raises(InputError):
            max_phase_index(0, 0.5)


class TestDecompose:
    def test_complete_three_arm_example(self):
        inst = BanditInstance(np.array([0.9, 0.5, 0.2]), complete(3))
        d = decompose(inst, 10**6)
        assert not d.is_empty
        assert d.alpha == 1
        assert d.band(1).arms == (2,)
        assert d.band(1).independent_size == 1
        assert d.band(2).arms == (1,)
        assert d.band(2).independent_size == 1
        assert d.peak_phase == 2
        assert d.log2_peak_size == 0
        assert d.log2_alpha_ratio == 0
        assert d.weighted_total == 6
        assert d.peak_term == 4

    def test_edgeless_four_arm_example(self):
        inst = BanditInstance(np.array([0.9, 0.6, 0.6, 0.6]), edgeless(4))
        d = decompose(inst, 10**6)
        assert d.alpha == 4
        assert d.band(2).arms == (1, 2, 3)
        assert d.band(2).independent_size == 3
        assert d.peak_phase == 2
        assert d.log2_peak_size == 1
        assert d.log2_alpha_ratio == 1

    def test_all_optimal_is_empty(self):
        inst = BanditInstance(np.array([0.7, 0.7, 0.7]), complete(3))
        d = decompose(inst, 10**6)
        assert d.is_empty
        assert d.bands == ()
        assert d.peak_phase is None
        assert d.log2_peak_size is None
        assert d.log2_alpha_ratio is None
        assert d.weighted_total == 0
        assert d.peak_term == 0

    def test_bands_beyond_horizon_resolution_are_dropped(self):
        # gap 2^-12 belongs to band 13, past floor(ln 100) = 4
        means = np.array([0.9, 0.5, 0.9 - 2.0**-12])
        inst = BanditInstance(means, edgeless(3))
        d = decompose(inst, 100)
        assert d.max_phase == 4
        assert all(2 not in band.arms for band in d.bands)
        assert d.band(2).arms == (1,)

    def test_tiny_horizon_has_no_bands(self):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        d = decompose(inst, 2)  # floor(ln 2) = 0
        assert d.is_empty
        assert d.max_phase == 0

    def test_peak_tie_breaks_to_smallest_phase(self):
        # band 1: two arms with gap 0.6, band 2: one arm with gap 0.3;
        # terms 2*2 and 1*4 tie at 4
        inst = BanditInstance(np.array([1.0, 0.4, 0.4, 0.7]), edgeless(4))
        d = decompose(inst, 1000)
        assert d.band(1).term == d.band(2).term == 4
        assert d.peak_phase == 1

    def test_unknown_band_lookup(self):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        with pytest.raises(InputError):
            decompose(inst, 100).band(17)

    def test_random_instances_satisfy_invariants(self):
        rng = np.random.default_rng(314)
        horizon = 10**5
        for _ in range(300):
            inst = random_instance(rng)
            d = decompose(inst, horizon)
            profile = gaps(inst)
            alpha = independence_number(inst.graph)
            assert d.alpha == alpha

            # partition: each in-range suboptimal arm in exactly one band
            expected = {}
            for arm in range(inst.num_arms):
                g = float(profile.gaps[arm])
                if g > 0.0 and phase_of(g) <= d.max_phase:
                    expected.setdefault(phase_of(g), set()).add(arm)
            got = {b.phase: set(b.arms) for b in d.bands if b.arms}
            assert got == expected

            for band in d.bands:
                for arm in band.arms:
                    g = float(profile.gaps[arm])
                    assert 2.0 ** (-band.phase) < g <= 2.0 ** (-(band.phase - 1))
                assert band.independent_size <= min(alpha, len(band.arms) or alpha)
                assert band.term == band.independent_size * 2**band.phase
                # witness is an independent set of the right size inside the band
                assert len(band.witness) == band.independent_size
                assert band.witness <= set(band.arms)
                for a in band.witness:
                    overlap = inst.graph.neighborhood(a) & band.witness
                    assert overlap == {a}

            if d.is_empty:
                continue
            peak = d.band(d.peak_phase)
            assert all(b.term <= peak.term for b in d.bands)
            # ties must have resolved to the smallest phase
            assert all(
                b.term < peak.term for b in d.bands if b.phase < d.peak_phase
            )
            k_m = peak.independent_size
            assert 2**d.log2_peak_size <= k_m < 2 ** (d.log2_peak_size + 1)
            j2 = d.log2_alpha_ratio
            assert k_m * 2**j2 >= alpha
            assert j2 == 0 or k_m * 2 ** (j2 - 1) < alpha
            assert d.log2_peak_size + j2 <= math.log2(alpha) + 1


class TestRegretMass:
    def test_single_arm_example(self):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        mass = regret_mass(inst, 100, scale=10.0)
        assert mass.value == 64.0
        assert mass.cap == 80.0

    def test_gap_far_below_one(self):
        # one arm in band 31: its gap is the whole optimum of its band
        inst = BanditInstance(np.array([0.9, 0.9 - 6e-10]), edgeless(2))
        mass = regret_mass(inst, 10**14, scale=1.0)
        assert mass.value == 4.0**31 * (0.9 - (0.9 - 6e-10)) == 2767011840.0

    def test_empty_decomposition(self):
        inst = BanditInstance(np.array([0.5, 0.5]), edgeless(2))
        mass = regret_mass(inst, 100, scale=10.0)
        assert mass.value == 0.0
        assert mass.cap == 0.0

    def test_boundary_gaps_meet_cap_exactly(self):
        # gaps exactly 2^-(p-1) make every band term hit its dyadic cap,
        # giving exact float equality
        inst = BanditInstance(np.array([1.0, 0.5, 0.5, 0.75]), edgeless(4))
        mass = regret_mass(inst, 1000, scale=10.0)
        assert mass.value == mass.cap == 320.0

    def test_value_never_exceeds_cap(self):
        rng = np.random.default_rng(271)
        for _ in range(50):
            inst = random_instance(rng)
            mass = regret_mass(inst, 10**4, scale=3.7)
            assert mass.value <= mass.cap * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
    def test_scale_domain(self, scale):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        with pytest.raises(InputError):
            regret_mass(inst, 100, scale=scale)


HORIZON = 10**5


def spread_instance(spec="er:12,0.3,5"):
    """Arm 0 best at 0.9; the others' gaps halve every two arms, bands 1..6."""
    graph = parse_graph_spec(spec)
    means = [0.9] + [0.9 - 0.7 * 2.0 ** -(a // 2) for a in range(graph.num_arms - 1)]
    return BanditInstance(np.array(means), graph)


@pytest.fixture
def solves(monkeypatch):
    """Records the candidate count and weights of every exact search."""
    calls = []
    real = graph_module._Labels.solve

    def spy(labels, positions, exact_limit, allow_approximate):
        found = real(labels, positions, exact_limit, allow_approximate)
        if not found.approximate:
            calls.append((len(positions), labels.weights))
        return found

    monkeypatch.setattr(graph_module._Labels, "solve", spy)
    return calls


class TestInstanceSets:
    """Each instance solves each of its independent sets once."""

    def test_every_function_shares_the_instance_sets(self, solves):
        inst = spread_instance()
        report = bound_report(inst, HORIZON)
        assert hardness(inst) == report.hardness
        decomp = decompose(inst, HORIZON)
        assert verify_decomposition(decomp).all_hold
        regret_mass(inst, HORIZON, report.scale)
        assert verify_instance(inst, HORIZON)
        bands = [band.arms for band in decomp.bands if band.arms]
        assert len(bands) >= 4
        # alpha, H, and each band unweighted and gap-weighted
        assert len(solves) == 2 + 2 * len(bands)
        assert solves[0] == (inst.num_arms, None)
        again = BanditInstance(inst.means, inst.graph)
        assert decompose(again, HORIZON) == decomp
        assert len(solves) == 3 + 3 * len(bands)  # alpha and the bands again

    def test_a_greedy_answer_serves_no_exact_request(self, solves):
        inst = spread_instance()
        greedy = decompose(inst, HORIZON, exact_limit=5, allow_approximate=True)
        assert (inst.num_arms, None) not in solves
        exact = decompose(inst, HORIZON)
        assert solves.count((inst.num_arms, None)) == 1
        assert exact.alpha >= greedy.alpha

    def test_a_refusal_is_raised_again(self, solves):
        inst = spread_instance()
        for _ in range(2):
            with pytest.raises(CapabilityError):
                hardness(inst, exact_limit=5)
        assert not inst._sets
        assert not solves

    @pytest.fixture
    def rows(self, monkeypatch):
        """Counts the neighbour masks built, per labelling and position."""
        built = Counter()
        real = graph_module._neighbor_masks

        def spy(adj, order=None, labels=None):
            labels = range(len(order)) if labels is None else labels
            built.update((id(order), order[i]) for i in labels)
            return real(adj, order, labels)

        monkeypatch.setattr(graph_module, "_neighbor_masks", spy)
        return built

    @staticmethod
    def positions_per_labelling(built):
        by_labelling = {}
        for labelling, position in built:
            by_labelling.setdefault(labelling, []).append(position)
        return sorted(sorted(positions) for positions in by_labelling.values())

    def test_one_mask_set_per_weighting_and_direction(self, rows):
        inst = spread_instance()
        for _ in range(2):
            report = bound_report(inst, HORIZON)
            decompose(inst, HORIZON)
            regret_mass(inst, HORIZON, report.scale)
            assert verify_instance(inst, HORIZON)
        # unit weights share one labelling; gaps and inverse gaps take two each
        assert set(rows.values()) == {1}
        assert self.positions_per_labelling(rows) == [list(range(inst.num_arms))] * 5

    def test_bands_past_the_limit_build_their_masks_only(self, rows):
        k = 3000
        means = np.full(k, 0.9)
        suboptimal = [1, 7, 20, 700, 900, 1500, 1800, 2000, 2700, 2999]
        means[suboptimal] = [0.3, 0.6, 0.7, 0.6, 0.7, 0.3, 0.7, 0.6, 0.7, 0.3]
        inst = BanditInstance(means, edgeless(k))
        for _ in range(2):
            decompose(inst, HORIZON, allow_approximate=True)
            regret_mass(inst, HORIZON, 1.0, allow_approximate=True)
        # unit weights, and gaps lightest and heaviest first
        assert set(rows.values()) == {1}
        assert self.positions_per_labelling(rows) == [suboptimal] * 3

    def test_analysis_reads_the_kept_gap_profile(self, monkeypatch):
        inst = spread_instance()
        profile = gaps(inst)

        def rebuilt(*args, **kwargs):
            raise AssertionError("recomputed")

        monkeypatch.setattr(env_module, "GapProfile", rebuilt)
        report = bound_report(inst, HORIZON)
        decompose(inst, HORIZON)
        regret_mass(inst, HORIZON, report.scale)
        assert verify_instance(inst, HORIZON)
        assert gaps(inst) is profile

    def test_graph_keeps_no_memo(self):
        assert not hasattr(graph_module, "_memo")

    def test_alpha_does_not_copy_the_graph(self):
        k = 3000
        inst = BanditInstance(np.full(k, 0.5), complete(k))  # alpha alone
        tracemalloc.start()
        try:
            assert decompose(inst, HORIZON, allow_approximate=True).alpha == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * k // 2

    def test_bands_past_the_limit_build_no_arm_wide_masks(self):
        k = 3000
        means = np.full(k, 0.9)
        means[[1, 1500, 2999]] = 0.3  # band 1
        means[[7, 700, 2000]] = 0.6  # band 2
        means[[20, 900, 1800, 2700]] = 0.7  # band 3
        inst = BanditInstance(means, edgeless(k))
        tracemalloc.start()
        try:
            decomp = decompose(inst, HORIZON, allow_approximate=True)
            mass = regret_mass(inst, HORIZON, 1.0, allow_approximate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decomp.alpha == k
        assert [b.independent_size for b in decomp.bands] == [3, 3, 4]
        assert mass.value == pytest.approx(4 * 3 * 0.6 + 16 * 3 * 0.3 + 64 * 4 * 0.2)
        assert peak < k * k // 8


def band_oracle(graph, arms, weights=None):
    """Brute-force (value, set in the original ids) on the arms' subgraph."""
    adj = graph.adjacency_matrix()
    edges = [
        (i, j)
        for i in range(len(arms))
        for j in range(i + 1, len(arms))
        if adj[arms[i], arms[j]]
    ]
    value, chosen = brute_force_mis(len(arms), edges, weights)
    return value, frozenset(arms[v] for v in chosen)


def subgraph_solve(instance, arms, weighting, exact_limit, allow_approximate, gap=None):
    """The arms' induced subgraph solved alone, its ids mapped back: an
    independent route to every answer and refusal that ``phases._solve``
    gives, with nothing kept on the instance."""
    sub, ids = instance.graph.induced_subgraph(arms)
    weights = None
    if weighting is not None:
        weights = [float(gap[a]) for a in ids]
        if weighting == "1/gap":
            weights = [1.0 / w for w in weights]  # every requested arm is suboptimal
    found = max_independent_set(
        sub, weights, exact_limit=exact_limit, allow_approximate=allow_approximate
    )
    return dataclasses.replace(found, vertices=frozenset(ids[v] for v in found.vertices))


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except (InputError, CapabilityError) as exc:
        return type(exc), str(exc)


class TestOnePath:
    """Every request of ``phases`` and ``bounds`` takes ``_Labels.solve``,
    whatever the instance's size against the limit."""

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([10, 10**3, 10**5]),
        st.booleans(),
        st.data(),
    )
    def test_answers_and_refusals_match_the_subgraph_oracle(
        self, seed, horizon, allow_approximate, data
    ):
        inst = random_instance(np.random.default_rng(seed), min_arms=1, max_arms=14)
        limits = {
            "exact_limit": data.draw(st.integers(0, inst.num_arms + 1)),
            "allow_approximate": allow_approximate,
        }
        calls = {
            "bound_report": lambda i: bound_report(i, horizon, **limits),
            "hardness": lambda i: hardness(i, **limits),
            "decompose": lambda i: decompose(i, horizon, **limits),
            "regret_mass": lambda i: regret_mass(i, horizon, 2.5, **limits),
        }
        for name, call in calls.items():
            got = outcome(lambda: call(BanditInstance(inst.means, inst.graph)))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(phases_module, "_solve", subgraph_solve)
                patch.setattr(bounds_module, "_solve", subgraph_solve)
                expected = outcome(lambda: call(BanditInstance(inst.means, inst.graph)))
            assert got == expected, name

    @pytest.mark.parametrize("allow_approximate", [False, True])
    def test_a_negative_limit_is_refused_as_input(self, allow_approximate):
        inst = spread_instance()
        limits = {"exact_limit": -1, "allow_approximate": allow_approximate}
        for call in (
            lambda: bound_report(inst, HORIZON, **limits),
            lambda: hardness(inst, **limits),
            lambda: decompose(inst, HORIZON, **limits),
            lambda: regret_mass(inst, HORIZON, 1.0, **limits),
            lambda: verify_instance(inst, HORIZON, **limits),
        ):
            with pytest.raises(InputError, match="--mis-limit"):
                call()
        assert not inst._sets


class TestAgainstBruteForce:
    @pytest.mark.parametrize("regret_mass_first", [True, False])
    def test_alpha_hardness_bands_and_mass(self, regret_mass_first):
        rng = np.random.default_rng(4242)
        for _ in range(60):
            inst = random_instance(rng, max_arms=12)
            scale = 2.5
            if regret_mass_first:
                mass = regret_mass(inst, HORIZON, scale)
                report = bound_report(inst, HORIZON)
            else:
                report = bound_report(inst, HORIZON)
                mass = regret_mass(inst, HORIZON, scale)
            decomp = decompose(inst, HORIZON)
            profile = gaps(inst)
            g = profile.gaps
            everyone = list(range(inst.num_arms))
            assert report.alpha == decomp.alpha == band_oracle(inst.graph, everyone)[0]
            suboptimal = profile.suboptimal_arms()
            want_h = band_oracle(inst.graph, suboptimal, [1.0 / g[a] for a in suboptimal])
            assert report.hardness == pytest.approx(want_h[0], rel=1e-9)
            want_mass = 0.0
            for band in decomp.bands:
                if band.arms:
                    size, witness = band_oracle(inst.graph, band.arms)
                    assert (band.independent_size, band.witness) == (size, witness)
                    weights = [g[a] for a in band.arms]
                    want_mass += scale * 4.0**band.phase * band_oracle(
                        inst.graph, band.arms, weights
                    )[0]
            assert mass.value == pytest.approx(want_mass, rel=1e-9)
