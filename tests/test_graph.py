"""Graph type, generators, and exact independent-set search."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphbandits import (
    CapabilityError,
    FeedbackGraph,
    IndependentSetResult,
    InputError,
    complete,
    cycle,
    disjoint_cliques,
    edgeless,
    erdos_renyi,
    independence_number,
    max_independent_set,
    parse_graph_spec,
    star,
)
from graphbandits.config import experiment_config_from_dict
from graphbandits import graph as graph_module
from graphbandits.graph import (
    _best_value,
    _clique_cover_bound,
    _greedy_set,
    _lex_smallest_optimal,
    _neighbor_masks,
    _symmetrise,
)

from oracles import (
    brute_force_mis,
    family_edges,
    greedy_by_hand,
    neighbor_bits,
    neighbor_sets,
    random_edges,
)


class TestFeedbackGraph:
    def test_neighborhood_includes_self(self):
        g = cycle(5)
        assert g.neighborhood(0) == {4, 0, 1}
        assert g.neighborhood(3) == {2, 3, 4}

    def test_self_loop_edges_are_implicit(self):
        g = FeedbackGraph(3, [(0, 1), (1, 1)])
        assert g.edges() == [(0, 1)]
        assert g.neighborhood(1) == {0, 1}
        assert g.neighborhood(2) == {2}

    def test_duplicate_and_reversed_edges_collapse(self):
        g = FeedbackGraph(4, [(0, 2), (2, 0), (0, 2)])
        assert g.edges() == [(0, 2)]

    def test_edge_out_of_range(self):
        with pytest.raises(InputError):
            FeedbackGraph(3, [(0, 3)])
        with pytest.raises(InputError):
            FeedbackGraph(3, [(-1, 0)])

    def test_negative_arm_count(self):
        with pytest.raises(InputError):
            FeedbackGraph(-1)

    def test_vertex_range_check(self):
        g = edgeless(3)
        with pytest.raises(InputError):
            g.neighborhood(3)
        with pytest.raises(InputError):
            g.neighborhood(-1)

    def test_induced_subgraph_path_from_cycle(self):
        sub, relabel = cycle(5).induced_subgraph({0, 1, 2})
        assert relabel == (0, 1, 2)
        assert sub.num_arms == 3
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_induced_subgraph_relabels(self):
        sub, relabel = complete(4).induced_subgraph({0, 3})
        assert relabel == (0, 3)
        assert sub == complete(2)

    def test_induced_subgraph_empty(self):
        sub, relabel = cycle(5).induced_subgraph(())
        assert sub.num_arms == 0
        assert relabel == ()

    @pytest.mark.parametrize(
        "subset",
        [
            [0.9, 2.2], [True, 3], [1, 3.0], ["1", 2],
            [np.float64(2.0)], [np.bool_(True)],
        ],
    )
    def test_induced_subgraph_refuses_non_integer_ids(self, subset):
        # int() would truncate 0.9 to 0 and read True as 1
        with pytest.raises(InputError, match="vertex must be an integer, got"):
            cycle(6).induced_subgraph(subset)

    @pytest.mark.parametrize(
        "edge", [(0.5, 2.9), (True, 2), (0, 2.0), ("1", 2), (np.float64(1.0), 2)]
    )
    def test_edges_refuse_non_integer_ends(self, edge):
        # int() would join 0 and 2 for (0.5, 2.9) and read True as 1
        with pytest.raises(InputError, match="vertex must be an integer, got"):
            FeedbackGraph(3, [edge])

    def test_edges_take_numpy_integers(self):
        edges = [(np.int64(0), np.uint8(2))]
        assert FeedbackGraph(3, edges).edges() == [(0, 2)]

    def test_induced_subgraph_names_the_smallest_id_out_of_range(self):
        g = cycle(6)
        for subset, named in [([7, 9, -2, 1, -1], -2), ([9, 1, 7, 6], 6), ([9], 9)]:
            with pytest.raises(InputError, match=f"^vertex {named} is outside"):
                g.induced_subgraph(subset)

    def test_adjacency_matrix(self):
        g = cycle(4)
        m = g.adjacency_matrix()
        assert m.dtype == bool
        assert np.array_equal(m, m.T)
        assert m.diagonal().all()
        assert not m.flags.writeable
        assert m is g.adjacency_matrix()

    def test_equality_and_hash(self):
        assert cycle(5) == FeedbackGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert cycle(5) != cycle(4)
        assert hash(cycle(5)) == hash(cycle(5))
        assert cycle(5) != "cycle"
        assert cycle(4) != FeedbackGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert FeedbackGraph(0) == FeedbackGraph(0)
        assert len({cycle(5), cycle(5), star(5)}) == 2

    def test_immutable(self):
        g = cycle(5)
        with pytest.raises(AttributeError):
            g.num_arms = 7


class TestMaxIndependentSet:
    def test_complete_graph(self):
        result = max_independent_set(complete(5))
        assert result.value == 1
        assert result.vertices == {0}
        assert not result.approximate

    def test_edgeless_graph(self):
        result = max_independent_set(edgeless(5))
        assert result.value == 5
        assert result.vertices == {0, 1, 2, 3, 4}

    def test_five_cycle(self):
        result = max_independent_set(cycle(5))
        assert result.value == 2
        assert result.vertices == {0, 2}

    def test_five_cycle_weighted(self):
        result = max_independent_set(cycle(5), weights=[10, 1, 1, 1, 1])
        assert result.value == 11
        # {0, 2} and {0, 3} tie at 11; the lexicographically smaller set wins
        assert result.vertices == {0, 2}

    def test_weights_bias_away_from_cardinality(self):
        result = max_independent_set(cycle(5), weights=[1, 100, 1, 1, 1])
        assert result.value == pytest.approx(101.0)
        assert result.vertices in ({1, 3}, {1, 4})

    def test_zero_weights_allowed(self):
        result = max_independent_set(edgeless(3), weights=[0.0, 0.0, 0.0])
        assert result.value == 0.0

    def test_tiny_weights_keep_their_optimum(self):
        # the tie window is relative: below an optimum of 1 it shrinks too
        result = max_independent_set(cycle(5), weights=[5e-10] * 5)
        assert result.vertices == {0, 2}
        assert result.value == 1e-9

    def test_weight_validation(self):
        with pytest.raises(InputError):
            max_independent_set(cycle(5), weights=[1, 2, 3])
        with pytest.raises(InputError):
            max_independent_set(cycle(5), weights=[1, 1, 1, 1, -0.5])

    def test_overflowing_optimum_is_refused(self):
        # each weight is finite but the best set's total is not
        with pytest.raises(InputError, match="overflows"):
            max_independent_set(edgeless(2), weights=[1e308, 1e308])
        assert max_independent_set(complete(2), weights=[1e308, 1e308]).value == 1e308

    def test_exactness_limit(self):
        with pytest.raises(CapabilityError):
            max_independent_set(complete(31))
        # limit is configurable in both directions
        assert max_independent_set(complete(31), exact_limit=31).value == 1
        with pytest.raises(CapabilityError):
            max_independent_set(complete(10), exact_limit=9)

    def test_greedy_fallback_is_flagged(self):
        result = max_independent_set(
            disjoint_cliques([4] * 8), exact_limit=30, allow_approximate=True
        )
        assert result.approximate
        assert result.value == 8  # greedy is optimal on disjoint cliques
        got = max_independent_set(complete(40), allow_approximate=True)
        assert got.approximate and got.value == 1

    def test_exact_results_not_flagged(self):
        assert not max_independent_set(cycle(7), allow_approximate=True).approximate


class TestIndependenceNumber:
    @pytest.mark.parametrize(
        "graph, alpha",
        [
            (complete(7), 1),
            (edgeless(7), 7),
            (disjoint_cliques((3, 4, 5)), 3),
            (star(5), 4),
            (cycle(6), 3),
            (erdos_renyi(8, 0.0, seed=3), 8),
            (erdos_renyi(8, 1.0, seed=3), 1),
        ],
    )
    def test_known_values(self, graph, alpha):
        assert independence_number(graph) == alpha

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 13))
            g = FeedbackGraph(k, random_edges(rng, k, float(rng.uniform(0, 1))))
            assert 1 <= independence_number(g) <= k


class TestAgainstEnumeration:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 60:
            k = int(rng.integers(2, 13))
            p = float(rng.uniform(0.1, 0.9))
            edges = random_edges(rng, k, p)
            g = FeedbackGraph(k, edges)

            want_value, want_set = brute_force_mis(k, edges)
            got = max_independent_set(g)
            assert got.value == want_value
            assert tuple(sorted(got.vertices)) == want_set

            weights = rng.uniform(0.0, 5.0, size=k)
            want_value, want_set = brute_force_mis(k, edges, weights)
            got = max_independent_set(g, weights=weights)
            assert got.value == pytest.approx(want_value, rel=1e-12)
            assert tuple(sorted(got.vertices)) == want_set
            checked += 1

    @pytest.mark.parametrize(
        "palette",
        [
            # exact ties, including extensions by zero-weight vertices
            (0.0, 0.5, 1.0, 2.0),
            # near ties 1e-7 apart, which the 1e-9 tie tolerance keeps apart
            (1.0, 1.0 + 1e-7, 2.0, 2.0 - 1e-7),
            # equal weights that are not small dyadic rationals
            (0.9 - 0.6,),
            (1 / (0.9 - 0.6),),
            # integers over a denominator of about 2^1050
            (1e-300, 1e-5, 1.0, 3.0),
            (0.0,),
            # optima far below 1, where only a relative window tells sets apart
            (1e-12, 3e-12, 5e-10),
            (2.0**-30, 1.5 * 2.0**-31, 6e-10),
        ],
    )
    def test_tie_heavy_weights_match_brute_force(self, palette):
        # the exact set checks the lexicographic tie-break: the search that
        # stops at the first set reaching the optimum must find the smallest
        rng = np.random.default_rng(7)
        for _ in range(80):
            k = int(rng.integers(2, 15))
            edges = random_edges(rng, k, float(rng.uniform(0.05, 0.8)))
            weights = rng.choice(palette, size=k)
            want_value, want_set = brute_force_mis(k, edges, weights)
            got = max_independent_set(FeedbackGraph(k, edges), weights=weights)
            assert got.value == pytest.approx(want_value, rel=1e-15)
            assert tuple(sorted(got.vertices)) == want_set

    def test_lexicographic_tie_break(self):
        # equal weights make every maximum set tie; smallest ids must win
        got = max_independent_set(cycle(6), weights=[1.0] * 6)
        assert got.vertices == {0, 2, 4}
        got = max_independent_set(star(4), weights=[3.0, 1.0, 1.0, 1.0])
        assert got.vertices == {0}

    def test_edge_addition_monotonicity(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            k = int(rng.integers(3, 11))
            edges = random_edges(rng, k, 0.3)
            g = FeedbackGraph(k, edges)
            before = independence_number(g)
            candidates = [
                (a, b)
                for a in range(k)
                for b in range(a + 1, k)
                if (a, b) not in set(edges)
            ]
            if not candidates:
                continue
            extra = candidates[int(rng.integers(len(candidates)))]
            after = independence_number(FeedbackGraph(k, edges + [extra]))
            assert after <= before

    def test_subgraph_alpha_never_exceeds_parent(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            k = int(rng.integers(2, 11))
            g = FeedbackGraph(k, random_edges(rng, k, 0.4))
            parent = independence_number(g)
            subset = [v for v in range(k) if rng.random() < 0.6]
            sub, _ = g.induced_subgraph(subset)
            if sub.num_arms:
                assert independence_number(sub) <= parent


def _integer_weights(weights):
    """The weights over their common denominator, as the exact search scales them."""
    ratios = [x.as_integer_ratio() for x in weights]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios], scale


@st.composite
def _graph_weights_and_mask(draw):
    k = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.one_of(
        st.integers(0, 8).map(lambda n: n / 4),
        st.floats(0.0, 100.0, allow_nan=False),
    )
    weights = draw(st.none() | st.lists(weight, min_size=k, max_size=k))
    cand = draw(st.integers(0, (1 << k) - 1))
    return FeedbackGraph(k, edges), weights, cand


class TestCliqueCoverBound:
    @given(_graph_weights_and_mask())
    def test_bound_dominates_the_optimum_of_the_mask(self, case):
        graph, weights, cand = case
        w = [1.0] * graph.num_arms if weights is None else [float(x) for x in weights]
        # over the common denominator every weight and every sum is exact
        iw, _ = _integer_weights(w)
        bound = _clique_cover_bound(cand, _neighbor_masks(graph.adjacency_matrix()), iw)
        members = [v for v in range(graph.num_arms) if cand >> v & 1]
        sub, relabel = graph.induced_subgraph(members)
        want = max(
            sum(iw[v] for i, v in enumerate(relabel) if m >> i & 1)
            for m in range(1 << sub.num_arms)
            if not any(m >> a & 1 and m >> b & 1 for a, b in sub.edges())
        )
        assert bound >= want

    def test_cover_is_greedy_by_lowest_id(self):
        # cycle 0-1-2-3-4: cliques {0, 1}, {2, 3}, {4}
        masks = _neighbor_masks(cycle(5).adjacency_matrix())
        assert _clique_cover_bound(0b11111, masks, [1, 5, 2, 1, 3]) == 10
        assert _clique_cover_bound(0, masks, [1] * 5) == 0


_PALETTES = {
    "unit": st.just(1.0),
    "dyadic": st.integers(0, 8).map(lambda n: n / 4),
    "near-tie": st.sampled_from([1.0, 1.0 + 1e-7, 2.0, 2.0 - 1e-7]),
    "inverse-gap": st.floats(0.01, 0.9).map(lambda gap: 1 / gap),
}


@st.composite
def _weighted_graph_and_relabelling(draw, palettes=_PALETTES):
    k = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    # one bit per pair, so dense graphs come up as often as sparse ones
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pair for i, pair in enumerate(pairs) if bits >> i & 1]
    palette = palettes[draw(st.sampled_from(sorted(palettes)))]
    weights = draw(st.lists(palette, min_size=k, max_size=k))
    return k, edges, weights, draw(st.permutations(range(k)))


class TestBestValue:
    @given(_weighted_graph_and_relabelling())
    def test_optimum_matches_enumeration_under_any_labelling(self, case):
        k, edges, weights, perm = case
        iw, scale = _integer_weights(weights)
        adj = FeedbackGraph(k, edges).adjacency_matrix()
        got = _best_value(_neighbor_masks(adj), iw, (1 << k) - 1)
        want, _ = brute_force_mis(k, edges, weights)
        assert got / scale == pytest.approx(want, rel=1e-12)
        # vertex perm[i] becomes vertex i
        new = {v: i for i, v in enumerate(perm)}
        relabelled = FeedbackGraph(k, [(new[a], new[b]) for a, b in edges])
        masks = _neighbor_masks(relabelled.adjacency_matrix())
        assert _best_value(masks, [iw[v] for v in perm], (1 << k) - 1) == got


class TestLexSmallestOptimal:
    @given(
        _weighted_graph_and_relabelling(
            {
                "unit": st.just(1.0),
                "integer": st.integers(1, 4).map(float),
                "3-decimal": st.integers(500, 4000).map(lambda n: n / 1000),
                "near-tie": _PALETTES["near-tie"],
            }
        )
    )
    def test_set_does_not_depend_on_the_bound_labelling(self, case):
        k, edges, weights, perm = case
        graph = FeedbackGraph(k, edges)
        masks = _neighbor_masks(graph.adjacency_matrix())
        iw, scale = _integer_weights(weights)
        # the goal as the exact search derives it from the optimum
        target = _best_value(masks, iw, (1 << k) - 1) / scale
        n, d = (target - 1e-9 * target).as_integer_ratio()
        goal = -(-n * scale // d)
        plain = _lex_smallest_optimal(goal, masks, iw, [1 << v for v in range(k)])
        bit = [0] * k  # vertex perm[i] labelled i
        for i, v in enumerate(perm):
            bit[v] = 1 << i
        perm_masks = _neighbor_masks(graph.adjacency_matrix(), perm)
        relabelled = _lex_smallest_optimal(goal, perm_masks, [iw[v] for v in perm], bit)
        assert relabelled == plain
        assert tuple(relabelled) == brute_force_mis(k, edges, weights)[1]

    def test_heaviest_first_bound_prunes_er_60(self, monkeypatch):
        # the search in the original labels called the bound 556 times here
        calls = []
        real = graph_module._clique_cover_bound

        def spy(cand, masks, weights, classes=None):
            if classes is None:  # the lexicographic search's calls only
                calls.append(cand)
            return real(cand, masks, weights, classes)

        monkeypatch.setattr(graph_module, "_clique_cover_bound", spy)
        got = max_independent_set(parse_graph_spec("er:60,0.1,1"), exact_limit=60)
        assert got.value == 24
        assert len(calls) <= 150

    def test_equal_weights_build_no_extra_masks(self, search_spy, monkeypatch):
        built = []
        real = graph_module._neighbor_masks

        def spy(adj, order=None):
            built.append(order)
            return real(adj, order)

        monkeypatch.setattr(graph_module, "_neighbor_masks", spy)
        g = erdos_renyi(12, 0.3, 5)
        for weights, masks_built in [
            (None, 1),
            ([2.5] * 12, 1),
            ([1.0 + v / 8 for v in range(12)], 2),
        ]:
            built.clear()
            max_independent_set(g, weights)
            assert len(built) == masks_built, weights
            assert None not in built  # every set is relabelled
        assert len(search_spy) == 3


_SUBSET_PALETTES = {
    "dyadic": st.integers(0, 8).map(lambda n: n / 4),
    "3-decimal": st.integers(0, 4000).map(lambda n: n / 1000),
    "zeros": st.just(0.0),
    "near-tie": _PALETTES["near-tie"],
}


@st.composite
def _graph_weights_and_subset(draw):
    k = draw(st.integers(1, 14))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pair for i, pair in enumerate(pairs) if bits >> i & 1]
    palette = draw(st.sampled_from(["unit", "all equal", *sorted(_SUBSET_PALETTES)]))
    if palette == "unit":
        weights = None
    elif palette == "all equal":
        weights = [draw(st.floats(0.001, 100.0))] * k
    else:
        weights = draw(st.lists(_SUBSET_PALETTES[palette], min_size=k, max_size=k))
    subset = sorted(draw(st.sets(st.integers(0, k - 1))))
    return FeedbackGraph(k, edges), weights, subset


class TestCandidateSolve:
    @given(_graph_weights_and_subset(), st.booleans())
    def test_a_subset_solves_as_its_induced_subgraph(self, case, at_size):
        # the whole graph's labelling, the subset as its candidates; under a
        # limit of the subset's size a larger graph builds only its masks
        graph, weights, subset = case
        limit = len(subset) if at_size else graph_module.DEFAULT_EXACT_LIMIT
        labels = graph_module._Labels(graph.adjacency_matrix(), weights)
        got = labels.solve(subset, limit, False)
        sub, ids = graph.induced_subgraph(subset)
        sub_weights = None if weights is None else [weights[v] for v in ids]
        alone = max_independent_set(sub, sub_weights)
        assert got == IndependentSetResult(
            frozenset(ids[v] for v in alone.vertices), alone.value, alone.approximate
        )
        value, chosen = brute_force_mis(len(ids), sub.edges(), sub_weights)
        assert got.vertices == frozenset(ids[v] for v in chosen)
        assert got.value == pytest.approx(value, rel=1e-12)


class TestScaleInvariance:
    @given(_weighted_graph_and_relabelling(), st.integers(-80, 80))
    def test_power_of_two_scaling_keeps_the_set(self, case, shift):
        k, edges, weights, _ = case
        graph = FeedbackGraph(k, edges)
        base = max_independent_set(graph, weights)
        scaled = max_independent_set(graph, [math.ldexp(w, shift) for w in weights])
        assert scaled.vertices == base.vertices
        assert scaled.value == math.ldexp(base.value, shift)


@pytest.fixture
def search_spy(monkeypatch):
    """Counts optimum searches."""
    calls = []
    real = graph_module._best_value

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graph_module, "_best_value", spy)
    return calls


class TestPinnedAnswers:
    def test_er_60(self):
        got = max_independent_set(parse_graph_spec("er:60,0.1,1"), exact_limit=60)
        assert got.value == 24
        assert sorted(got.vertices) == [
            0, 1, 2, 6, 7, 8, 9, 11, 12, 13, 14, 15, 17, 20,
            22, 34, 39, 43, 47, 50, 52, 57, 58, 59,
        ]

    def test_cycle_30(self):
        got = max_independent_set(parse_graph_spec("cycle:30"))
        assert got.value == 15
        assert sorted(got.vertices) == list(range(0, 30, 2))

    # beyond brute-force size: the lexicographic rule on known optima
    def test_cycle_100(self):
        got = max_independent_set(parse_graph_spec("cycle:100"), exact_limit=100)
        assert got.value == 50
        assert sorted(got.vertices) == list(range(0, 100, 2))

    def test_star_200(self):
        g = parse_graph_spec("star:200")
        got = max_independent_set(g, exact_limit=200)
        assert got.value == 199
        assert sorted(got.vertices) == list(range(1, 200))
        # a hub worth exactly the leaves ties them, and (0,) sorts first
        got = max_independent_set(g, weights=[199.0] + [1.0] * 199, exact_limit=200)
        assert got.value == 199.0
        assert got.vertices == {0}

    def test_weighted_cliques_10x10(self):
        # weights 1..2.75 repeat every 8 ids, so some cliques hold two
        # heaviest vertices; the lower id wins each tie
        weights = [1 + (3 * v % 8) / 4 for v in range(100)]
        got = max_independent_set(
            parse_graph_spec("cliques:" + ",".join(["10"] * 10)),
            weights=weights,
            exact_limit=100,
        )
        assert got.value == 27.5
        assert sorted(got.vertices) == [5, 13, 21, 37, 45, 53, 61, 77, 85, 93]


class TestGenerators:
    def test_shapes(self):
        assert len(complete(6).edges()) == 15
        assert edgeless(6).edges() == []
        assert len(cycle(6).edges()) == 6
        assert star(5).edges() == [(0, 1), (0, 2), (0, 3), (0, 4)]
        assert disjoint_cliques((2, 2)).edges() == [(0, 1), (2, 3)]

    def test_cliques_alpha(self):
        assert independence_number(disjoint_cliques((2, 2))) == 2

    def test_zero_arms_rejected(self):
        for gen in (complete, edgeless, cycle, star):
            with pytest.raises(InputError):
                gen(0)
        with pytest.raises(InputError):
            disjoint_cliques(())
        with pytest.raises(InputError):
            disjoint_cliques((3, 0))

    @pytest.mark.parametrize(
        "family", ["complete", "edgeless", "cycle", "star", "cliques", "er", "file"]
    )
    def test_arm_limit(self, family, tmp_path):
        # one arm past the limit is refused before the matrix is allocated
        from graphbandits.graph import MAX_ARMS

        path = tmp_path / "edges.txt"
        path.write_text(f"{MAX_ARMS + 1}\n0-1\n")
        rest = {
            "file": str(path),
            "cliques": f"{MAX_ARMS},1",
            "er": f"{MAX_ARMS + 1},0.5,1",
        }.get(family, str(MAX_ARMS + 1))
        with pytest.raises(InputError, match=f"at most {MAX_ARMS}, got {MAX_ARMS + 1}"):
            parse_graph_spec(f"{family}:{rest}")
        assert FeedbackGraph(MAX_ARMS).num_arms == MAX_ARMS

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(10, 0.4, seed=5)
        b = erdos_renyi(10, 0.4, seed=5)
        c = erdos_renyi(10, 0.4, seed=6)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("sizes", [[2.5, True], [2, 2.0], [True], ["2"]])
    def test_clique_sizes_refuse_non_integers(self, sizes):
        # int() would build 3 arms from [2.5, True]
        with pytest.raises(InputError, match="clique size must be an integer, got"):
            disjoint_cliques(sizes)

    @pytest.mark.parametrize("seed", [1.7, True, 2.0, "3"])
    def test_erdos_renyi_seed_refuses_non_integers(self, seed):
        # int() would make 1.7 the same graph as seed 1
        with pytest.raises(InputError, match="seed must be an integer, got"):
            erdos_renyi(6, 0.3, seed)

    def test_erdos_renyi_seed_domain(self):
        with pytest.raises(InputError, match="seed must be at least 0, got -1"):
            erdos_renyi(6, 0.3, -1)
        assert erdos_renyi(6, 0.3, np.uint32(4)) == erdos_renyi(6, 0.3, 4)
        assert disjoint_cliques(np.array([2, 3])) == disjoint_cliques((2, 3))

    def test_erdos_renyi_probability_range(self):
        with pytest.raises(InputError):
            erdos_renyi(5, -0.1, seed=0)
        with pytest.raises(InputError):
            erdos_renyi(5, 1.5, seed=0)

    def test_generator_invariants(self):
        graphs = [
            complete(5),
            edgeless(4),
            cycle(7),
            star(6),
            disjoint_cliques((1, 2, 3)),
        ]
        graphs += [erdos_renyi(6, 0.5, seed=s) for s in range(100)]
        for g in graphs:
            m = g.adjacency_matrix()
            assert np.array_equal(m, m.T)
            assert m.diagonal().all()
            for a in range(g.num_arms):
                assert a in g.neighborhood(a)


class TestParseGraphSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("complete:4", complete(4)),
            ("edgeless:3", edgeless(3)),
            ("cycle:5", cycle(5)),
            ("star:5", star(5)),
            ("cliques:2,3", disjoint_cliques((2, 3))),
            ("er:6,0.5,11", erdos_renyi(6, 0.5, seed=11)),
        ],
    )
    def test_forms(self, spec, expected):
        assert parse_graph_spec(spec) == expected

    def test_file_form(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment line\n5\n0-1\n1-2\n")
        g = parse_graph_spec(f"file:{path}")
        assert g.num_arms == 5
        assert g.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0-1\nx-2\n", ":2: expected an 'a-b' edge, got 'x-2'"),
            ("3\nabc\n", ":2: expected an 'a-b' edge or an arm count, got 'abc'"),
            ("0-1-2\n", ":1: expected an 'a-b' edge, got '0-1-2'"),
            ("0-1\n3--1\n", ":2: negative vertex id"),
            ("# nothing\n0\n", ": no arms declared and no edges found"),
        ],
    )
    def test_file_form_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            parse_graph_spec(f"file:{path}")
        assert str(info.value) == f"{path}{message}"

    def test_file_form_infers_arm_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0-1\n2-3\n")
        g = parse_graph_spec(f"file:{path}")
        assert g.num_arms == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            parse_graph_spec(f"file:{tmp_path}/absent.txt")

    @pytest.mark.parametrize(
        "spec",
        [
            "complete",
            "complete:",
            "complete:x",
            "triangle:3",
            "er:6,0.5",
            "cliques:",
            "cycle:0",
            "",
        ],
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(InputError):
            parse_graph_spec(spec)


def _reference_corpus():
    """(label, graph, num_arms, reference edges): every family at several
    sizes, random clique lists and random edge lists with duplicates,
    reversed pairs and self-loops."""
    rng = np.random.default_rng(2024)
    specs = []
    for k in (1, 2, 3, 10, 30, 100, 300):
        specs += [f"{name}:{k}" for name in ("complete", "edgeless", "cycle", "star")]
        specs += [f"er:{k},{p},{seed}" for p in (0, 0.1, 0.5, 1) for seed in (1, 7)]
    for _ in range(20):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 7)))
        specs.append("cliques:" + ",".join(str(s) for s in sizes))
    corpus = [(spec, parse_graph_spec(spec), *family_edges(spec)) for spec in specs]
    for i in range(60):
        k = int(rng.integers(1, 40))
        edges = [tuple(int(v) for v in rng.integers(0, k, 2)) for _ in range(2 * k)]
        edges += [(b, a) for a, b in edges[: k // 2]] + [(a, a) for a, _ in edges[:3]]
        corpus.append((f"list-{i}", FeedbackGraph(k, edges), k, edges))
    return corpus


class TestMatrixStorage:
    """The adjacency matrix against graphs built pair by pair over sets."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _reference_corpus()

    def test_views_match_the_set_reference(self, corpus):
        for label, g, k, edges in corpus:
            sets = neighbor_sets(k, edges)
            want = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
            matrix = np.zeros((k, k), dtype=bool)
            for a, s in enumerate(sets):
                matrix[a, sorted(s)] = True
            assert g.num_arms == k, label
            assert g.edges() == want, label
            assert np.array_equal(g.adjacency_matrix(), matrix), label
            assert [g.neighborhood(a) for a in range(k)] == sets, label
            twin = FeedbackGraph(k, want[::-1])
            assert g == twin and hash(g) == hash(twin), label

    def test_file_and_mapping_edge_lists(self, corpus, tmp_path):
        for label, g, k, edges in corpus:
            if not label.startswith("list-"):
                continue
            path = tmp_path / f"{label}.txt"
            path.write_text(f"{k}\n" + "".join(f"{a}-{b}\n" for a, b in edges))
            data = {
                "instance": {
                    "means": [0.5] * k,
                    "graph": {"edges": [list(e) for e in edges], "num_arms": k},
                },
                "policy": {"name": "ucb1"},
                "run": {"horizon": 10},
            }
            mapped = experiment_config_from_dict(data).instance.graph
            for other in (parse_graph_spec(f"file:{path}"), mapped):
                assert other == g, label
                assert other.edges() == g.edges(), label
                assert np.array_equal(other.adjacency_matrix(), g.adjacency_matrix())

    def test_induced_subgraph_is_the_slice(self, corpus):
        rng = np.random.default_rng(5)
        for label, g, k, edges in corpus[::3]:
            keep = sorted(int(v) for v in np.flatnonzero(rng.random(k) < 0.5))
            sub, relabel = g.induced_subgraph(keep)
            pos = {v: i for i, v in enumerate(keep)}
            want = sorted(
                {(pos[a], pos[b]) for a, b in g.edges() if a in pos and b in pos}
            )
            assert relabel == tuple(keep)
            assert sub == FeedbackGraph(len(keep), want), label

    @pytest.mark.parametrize("tile", [None, 7])
    @pytest.mark.parametrize("k", [1, 2, 127, 128, 129, 300])
    def test_tiled_symmetrisation_is_or_with_transpose(self, monkeypatch, tile, k):
        if tile is not None:
            monkeypatch.setattr(graph_module, "_TILE", tile)
        m = np.random.default_rng(k).random((k, k)) < 0.3
        want = m | m.T
        _symmetrise(m)
        assert m.tobytes() == want.tobytes()

    def test_neighbor_masks_match_bit_loop(self, corpus):
        for label, g, k, edges in corpus:
            assert _neighbor_masks(g.adjacency_matrix()) == neighbor_bits(neighbor_sets(k, edges)), label

    def test_greedy_matches_vertex_by_vertex(self, corpus):
        rng = np.random.default_rng(11)
        for label, g, k, edges in corpus:
            sets = neighbor_sets(k, edges)
            for weights in (
                None,
                [float(x) for x in rng.integers(0, 3, k)],
                [float(x) for x in rng.random(k)],
            ):
                got = _greedy_set(g.adjacency_matrix(), weights, range(k))
                chosen, value = greedy_by_hand(sets, weights)
                assert sorted(got.vertices) == chosen, label
                assert repr(got.value) == repr(value), label
                assert got.approximate


@st.composite
def _graph_and_order(draw):
    k = draw(st.integers(0, 20))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pair for i, pair in enumerate(pairs) if bits >> i & 1]
    return k, edges, draw(st.permutations(range(k)))


class TestRelabelledViews:
    """Induced subgraphs and relabelled bitmasks against by-hand references."""

    @given(
        _graph_and_order(),
        st.lists(st.integers(0, 19), max_size=30),
        st.sampled_from([list, tuple, set, np.array]),
    )
    def test_induced_subgraph_is_the_ix_slice(self, case, ids, container):
        k, edges, _ = case
        graph = FeedbackGraph(k, edges)
        ids = [v % k for v in ids] if k else []  # unsorted, with duplicates
        sub, relabel = graph.induced_subgraph(container(ids))
        keep = sorted(set(ids))
        assert relabel == tuple(keep)
        assert all(type(v) is int for v in relabel)  # numpy ids come back as int
        want = graph.adjacency_matrix()[np.ix_(keep, keep)]
        assert np.array_equal(sub.adjacency_matrix(), want)

    @given(_graph_and_order())
    def test_neighbor_masks_under_an_order_match_bit_loop(self, case):
        k, edges, order = case
        # vertex order[i] becomes vertex i
        new = {v: i for i, v in enumerate(order)}
        sets = neighbor_sets(k, edges)
        relabelled = [frozenset(new[u] for u in sets[v]) for v in order]
        got = _neighbor_masks(FeedbackGraph(k, edges).adjacency_matrix(), order)
        assert got == neighbor_bits(relabelled)
