"""Graph type, generators, and exact independent-set search."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphbandits import (
    CapabilityError,
    FeedbackGraph,
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
    _clique_cover_bound,
    _greedy_set,
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
        ratios = [x.as_integer_ratio() for x in w]
        scale = max(d for _, d in ratios)
        iw = [n * (scale // d) for n, d in ratios]
        bound = _clique_cover_bound(cand, _neighbor_masks(graph), iw)
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
        masks = _neighbor_masks(cycle(5))
        assert _clique_cover_bound(0b11111, masks, [1, 5, 2, 1, 3]) == 10
        assert _clique_cover_bound(0, masks, [1] * 5) == 0


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
            assert _neighbor_masks(g) == neighbor_bits(neighbor_sets(k, edges)), label

    def test_greedy_matches_vertex_by_vertex(self, corpus):
        rng = np.random.default_rng(11)
        for label, g, k, edges in corpus:
            sets = neighbor_sets(k, edges)
            for weights in (
                None,
                [float(x) for x in rng.integers(0, 3, k)],
                [float(x) for x in rng.random(k)],
            ):
                got = _greedy_set(g, weights)
                chosen, value = greedy_by_hand(sets, weights)
                assert sorted(got.vertices) == chosen, label
                assert repr(got.value) == repr(value), label
                assert got.approximate
