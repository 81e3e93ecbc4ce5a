"""Dyadic gap bands, the peak band, and the band-weighted regret mass."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphbandits import (
    BanditInstance,
    InputError,
    complete,
    decompose,
    edgeless,
    gaps,
    independence_number,
    max_phase_index,
    phase_of,
    regret_mass,
)

from oracles import random_instance


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
