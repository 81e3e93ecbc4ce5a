"""Undirected feedback graphs and exact maximum-independent-set search.

Vertices are arms 0..num_arms-1. Each carries a self-loop, since pulling an
arm reveals its own reward; its neighborhood is the arms whose rewards the
pull reveals. Independence computations ignore self-loops.

A graph is one read-only K x K boolean adjacency matrix, True on the
diagonal; every view of it, the search's bitmasks too, is read from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError, at_least, int_text, integer

DEFAULT_EXACT_LIMIT = 30

# Largest arm count a graph may have; its K x K bool matrix then takes 256 MiB.
MAX_ARMS = 2**14

__all__ = [
    "DEFAULT_EXACT_LIMIT", "MAX_ARMS", "FeedbackGraph", "IndependentSetResult",
    "complete", "cycle", "disjoint_cliques", "edgeless", "erdos_renyi",
    "independence_number", "max_independent_set", "parse_graph_spec", "star",
]


class FeedbackGraph:
    """Immutable undirected graph with mandatory self-loops."""

    __slots__ = ("num_arms", "_adj")

    def __init__(self, num_arms: int, edges=()):
        num_arms = _require_arms(num_arms, 0)
        adj = np.eye(num_arms, dtype=bool)
        for a, b in edges:
            a, b = integer("vertex", a), integer("vertex", b)
            if not (0 <= a < num_arms and 0 <= b < num_arms):
                raise InputError(
                    f"edge ({a}, {b}) is outside the vertex range 0..{num_arms - 1}"
                )
            adj[a, b] = adj[b, a] = True
        self._store(adj)

    @classmethod
    def _from_matrix(cls, adj: np.ndarray) -> "FeedbackGraph":
        """Wrap a symmetric bool matrix with a True diagonal, without copying."""
        graph = cls.__new__(cls)
        graph._store(adj)
        return graph

    def _store(self, adj):
        adj.setflags(write=False)
        object.__setattr__(self, "num_arms", len(adj))
        object.__setattr__(self, "_adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("FeedbackGraph is immutable")

    def neighborhood(self, a: int) -> frozenset:
        """Arms observed when pulling arm ``a``, including ``a`` itself."""
        self._check_vertex(a)
        return frozenset(np.flatnonzero(self._adj[a]).tolist())

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (a, b) pairs with a < b; self-loops omitted."""
        a, b = np.nonzero(np.triu(self._adj, 1))
        return list(zip(a.tolist(), b.tolist()))

    def induced_subgraph(self, subset) -> tuple["FeedbackGraph", tuple[int, ...]]:
        """Subgraph on ``subset`` and the sorted original ids of its vertices."""
        keep = sorted({v if type(v) is int else integer("vertex", v) for v in subset})
        if keep and not 0 <= keep[0] <= keep[-1] < self.num_arms:
            for v in keep:  # the smallest id out of range is named
                self._check_vertex(v)
        sub = self._adj.take(keep, 0).take(keep, 1)
        return FeedbackGraph._from_matrix(sub), tuple(keep)

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean num_arms x num_arms matrix; True on the diagonal."""
        return self._adj

    def _check_vertex(self, a):
        a = integer("vertex", a)
        if not 0 <= a < self.num_arms:
            raise InputError(
                f"vertex {int_text(a)} is outside the range 0..{self.num_arms - 1}"
            )

    def __eq__(self, other):
        if not isinstance(other, FeedbackGraph):
            return NotImplemented
        return np.array_equal(self._adj, other._adj)

    def __hash__(self):
        return hash((self.num_arms, np.packbits(self._adj).tobytes()))

    def __repr__(self):
        num_edges = (np.count_nonzero(self._adj) - self.num_arms) // 2
        return f"FeedbackGraph(num_arms={self.num_arms}, edges={num_edges})"


@dataclass(frozen=True)
class IndependentSetResult:
    """A maximum (or greedy) independent set and its total weight."""

    vertices: frozenset
    value: float
    approximate: bool = False


def _neighbor_masks(adj: np.ndarray, order=None) -> list[int]:
    # bit b of masks[a] is set when b != a is a neighbour of a (the XOR clears
    # the diagonal bit) in the bool matrix adj, vertex i standing for order[i]
    # if given: mask i is row order[i] with its columns taken in that order
    if order is None:
        order = range(len(adj))
    else:
        adj = adj.take(order, 1)
    packed = np.packbits(adj, axis=1, bitorder="little")
    n = packed.shape[1]
    rows = packed.tobytes()
    return [
        int.from_bytes(rows[v * n:v * n + n], "little") ^ 1 << i
        for i, v in enumerate(order)
    ]


def _clique_cover_bound(cand: int, masks, weights, classes=None) -> int:
    """Upper bound on the weight of an independent subset of ``cand``.

    Covers ``cand`` greedily with cliques, each grown from the lowest
    remaining vertex by the lowest vertex adjacent to all of it, and sums
    each clique's top weight: the colouring bound of maximum-clique search
    on the complement (Tomita & Seki 2003, Ostergard 2002). A ``classes``
    list gets each clique but lone vertices (no neighbour in ``cand``) as
    (members, top weight, the top weights and members of those before it).
    """
    total = free = covered = 0
    rest = cand
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        top = weights[v]
        rest ^= low
        if not cand & masks[v]:
            free += top
            continue
        members = low
        common = rest & masks[v]
        while common:
            low = common & -common
            v = low.bit_length() - 1
            if weights[v] > top:
                top = weights[v]
            rest ^= low
            members |= low
            common &= masks[v]
        if classes is not None:
            classes.append((members, top, total, covered))
            covered |= members
        total += top
    return total + free


def _best_value(masks, weights, cand: int) -> int:
    """Branch-and-bound maximum weight of an independent subset of ``cand``.

    Colour-ordered search (Tomita & Seki 2003) on the complement: a node
    takes its lone vertices (no weight is negative), then tries the others
    from the last clique of its cover back; taking ``v`` leaves the cliques
    before its own, which bound the branch. It recurses alpha + 1 deep.
    """
    best = 0

    def expand(cand, acc):
        nonlocal best
        classes = []
        acc += _clique_cover_bound(cand, masks, weights, classes)
        if classes:  # keep only the lone vertices' weight
            acc -= classes[-1][1] + classes[-1][2]
        if acc > best:
            best = acc
        for members, top, prefix, earlier in reversed(classes):
            base = acc + prefix
            if base + top <= best:
                return
            while members:
                v = members.bit_length() - 1
                members ^= 1 << v
                if base + weights[v] > best:
                    expand(earlier & ~masks[v], acc + weights[v])

    expand(cand, 0)
    return best


def _lex_smallest_optimal(goal, masks, weights, bit, cand) -> list:
    """Lexicographically smallest vertex set of integer weight at least ``goal``.

    ``masks`` and ``weights`` are in labels, ``bit[v]`` is vertex v's label
    bit and ``cand`` holds the candidates' bits. Depth-first over the lowest
    vertex left, taking it before leaving it out, so the first set that
    reaches the goal is the smallest sorted tuple; the bound prunes no
    branch that reaches it, so the answer does not depend on the labelling.
    """
    chosen: list[int] = []

    def dfs(v, cand, acc):
        if acc >= goal:
            return True
        if not cand or acc + _clique_cover_bound(cand, masks, weights) < goal:
            return False
        while not cand & bit[v]:
            v += 1
        i = bit[v].bit_length() - 1
        chosen.append(v)
        if dfs(v + 1, cand & ~(masks[i] | bit[v]), acc + weights[i]):
            return True
        chosen.pop()
        return dfs(v + 1, cand ^ bit[v], acc)

    dfs(0, cand, 0)
    return chosen


def _greedy_set(graph: FeedbackGraph, weights) -> IndependentSetResult:
    # heaviest first, then the smallest neighborhood, then (stable sort) lowest id
    adj = graph.adjacency_matrix()
    w = np.ones(graph.num_arms) if weights is None else np.array(weights)
    order = np.lexsort((adj.sum(axis=1), -w))
    chosen: list[int] = []
    blocked = np.zeros(graph.num_arms, dtype=bool)
    for v in order.tolist():
        if not blocked[v]:
            chosen.append(v)
            blocked |= adj[v]
    try:
        value = len(chosen) if weights is None else math.fsum(w[chosen].tolist())
    except OverflowError:
        raise InputError("the greedy independent-set weight overflows") from None
    return IndependentSetResult(frozenset(chosen), value, approximate=True)


def max_independent_set(
    graph: FeedbackGraph,
    weights=None,
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    allow_approximate: bool = False,
) -> IndependentSetResult:
    """Maximum-weight independent set of ``graph``.

    ``weights`` defaults to all ones (so the value is the independence
    number). Exact search scales the weights to integers, so every sum is
    exact; ties go to the lexicographically smallest sorted vertex tuple.
    A graph too deep for the interpreter's recursion is refused, as is one
    above ``exact_limit`` vertices unless ``allow_approximate`` asks for a
    greedy answer, flagged as such. Every call searches: nothing is kept
    between calls. This is the exact core's whole-graph call; ``phases``
    solves each instance's subsets as candidates of the same core and keeps
    its labellings and answers on the instance.
    """
    k = graph.num_arms
    if weights is not None:
        weights = [float(w) for w in weights]
        if len(weights) != k:
            raise InputError(f"expected {k} weights, got {len(weights)}")
        for w in weights:
            if not math.isfinite(w) or w < 0:
                raise InputError(f"weights must be finite and nonnegative, got {w}")
    if exact_limit < 0:
        raise InputError(
            "exact_limit (--mis-limit, mis.exact_limit) must be nonnegative, "
            f"got {exact_limit}"
        )
    if k == 0:
        return IndependentSetResult(frozenset(), 0 if weights is None else 0.0)
    if k > exact_limit:
        if not allow_approximate:
            raise CapabilityError(
                f"exact independent-set search is limited to {exact_limit} "
                f"vertices (graph has {k}); pass allow_approximate=True "
                "(--approx-mis, mis.allow_approximate) to accept a greedy answer"
            )
        return _greedy_set(graph, weights)
    return _Labels(graph.adjacency_matrix(), weights).solve(range(k))


class _Labels:
    """A graph under one weighting, as the exact search reads it.

    ``adj`` is a nonempty bool adjacency matrix, its positions the vertices.
    The weights (None for all ones, else finite and nonnegative floats, one
    per position) are held as integers over one scale, so every subset sum
    is exact. The search reads two labellings, lightest first for the
    optimum and heaviest first for the set, both then sparsest, then lowest
    position; each is built on first use and kept, and equal weights share
    one. ``solve`` reads any set of positions as candidates of them.
    """

    __slots__ = ("adj", "weights", "scale", "iw", "uneven", "_sparse", "_built")

    def __init__(self, adj: np.ndarray, weights=None):
        k = len(adj)
        self.adj, self.weights = adj, weights
        if weights is None:
            self.scale, self.iw = 1, [1] * k
        else:
            # Every float is a dyadic rational, so over the largest denominator
            # the weights are integers and every subset sum below is exact.
            ratios = [x.as_integer_ratio() for x in weights]
            self.scale = max(d for _, d in ratios)
            self.iw = [n * (self.scale // d) for n, d in ratios]
        self.uneven = min(self.iw) < max(self.iw)
        deg = adj.sum(axis=1).tolist()
        # sparsest first, then lowest position: the stable sorts of labelling
        # keep this order among equal weights, so its key is (weight, degree, id)
        self._sparse = sorted(range(k), key=deg.__getitem__)
        self._built = {}

    def labelling(self, heaviest: bool):
        """(masks, weights, bit): each position's neighbour mask and integer
        weight in labels, and ``bit[p]`` position p's label bit."""
        heaviest = heaviest and self.uneven
        if heaviest not in self._built:
            order = sorted(self._sparse, key=self.iw.__getitem__, reverse=heaviest)
            bit = [0] * len(order)
            for i, p in enumerate(order):
                bit[p] = 1 << i
            self._built[heaviest] = (
                _neighbor_masks(self.adj, order), [self.iw[p] for p in order], bit
            )
        return self._built[heaviest]

    def solve(self, positions) -> IndependentSetResult:
        """Maximum-weight independent set among the vertices at ``positions``.

        The optimum by ``_best_value`` in the lightest-first labelling, the
        set by ``_lex_smallest_optimal`` in the heaviest-first one. Over one
        scale, the optimum as a float and the sets that reach it are those of
        the subgraph of ``positions`` searched alone.
        """
        try:
            masks, lw, bit = self.labelling(False)
            target = _best_value(masks, lw, sum(bit[p] for p in positions)) / self.scale
            # sets within a relative 1e-9 of the optimum tie it
            n, d = (target - 1e-9 * target).as_integer_ratio()
            masks, lw, bit = self.labelling(True)
            chosen = _lex_smallest_optimal(
                -(-n * self.scale // d), masks, lw, bit, sum(bit[p] for p in positions)
            )
        except OverflowError:
            raise InputError("the maximum independent-set weight overflows") from None
        except RecursionError:
            raise CapabilityError(
                f"exact independent-set search on {len(positions)} vertices is "
                "deeper than the interpreter's recursion limit"
            ) from None
        if self.weights is None:
            value = len(chosen)
        else:
            value = math.fsum(self.weights[p] for p in chosen)
        return IndependentSetResult(frozenset(chosen), value)


def independence_number(graph: FeedbackGraph, **kwargs) -> int:
    """Size of a maximum independent set (unweighted)."""
    return int(max_independent_set(graph, None, **kwargs).value)


def _require_arms(k: int, low: int = 1) -> int:
    k = at_least("num_arms", k, low)
    if k > MAX_ARMS:
        raise InputError(f"num_arms must be at most {MAX_ARMS}, got {k}")
    return k


def complete(num_arms: int) -> FeedbackGraph:
    """Every pair of arms connected; pulling anything reveals everything."""
    k = _require_arms(num_arms)
    return FeedbackGraph._from_matrix(np.ones((k, k), dtype=bool))


def edgeless(num_arms: int) -> FeedbackGraph:
    """No edges beyond self-loops; the classic bandit feedback setting."""
    return FeedbackGraph(_require_arms(num_arms))


def cycle(num_arms: int) -> FeedbackGraph:
    k = _require_arms(num_arms)
    adj = np.eye(k, dtype=bool)
    a = np.arange(k)
    adj[a, (a + 1) % k] = adj[(a + 1) % k, a] = True
    return FeedbackGraph._from_matrix(adj)


def star(num_arms: int) -> FeedbackGraph:
    """Arm 0 is the hub, connected to every leaf."""
    adj = np.eye(_require_arms(num_arms), dtype=bool)
    adj[0, :] = adj[:, 0] = True
    return FeedbackGraph._from_matrix(adj)


def disjoint_cliques(sizes) -> FeedbackGraph:
    """Disjoint cliques of the given sizes, labeled block by block."""
    sizes = [integer("clique size", s) for s in sizes]
    if not sizes:
        raise InputError("need at least one clique size")
    for s in sizes:
        if s < 1:
            raise InputError(f"clique sizes must be positive, got {s}")
    _require_arms(sum(sizes))
    block = np.repeat(np.arange(len(sizes)), sizes)
    return FeedbackGraph._from_matrix(block[:, None] == block[None, :])


def erdos_renyi(num_arms: int, p: float, seed: int) -> FeedbackGraph:
    """Each pair joined independently with probability ``p`` (seeded)."""
    k = _require_arms(num_arms)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(at_least("seed", seed, 0))
    # one draw per pair a < b in row-major order, without 2 GiB of index arrays
    adj = np.eye(k, dtype=bool)
    for a in range(k - 1):
        adj[a, a + 1:] = rng.random(k - a - 1) < p
    _symmetrise(adj)
    return FeedbackGraph._from_matrix(adj)


# Side of the blocks ``_symmetrise`` pairs: at K = 16384 (2 vCPUs) 128 took
# 0.44 s, 64 0.61 s and 256 1.4 s.
_TILE = 128


def _symmetrise(adj):
    """``adj |= adj.T`` in place, one cache-sized block pair at a time."""
    k = adj.shape[0]
    for i in range(0, k, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, k, _TILE):
            cols = slice(j, j + _TILE)
            block = adj[rows, cols] | adj[cols, rows].T
            adj[rows, cols] = block
            adj[cols, rows] = block.T


def _read_edge_list(path: str) -> FeedbackGraph:
    declared, edges = 0, []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read graph file {path!r}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            left, dash, right = line.partition("-")
            try:
                if dash:
                    edges.append((int(left), int(right)))
                elif line:
                    declared = max(declared, int(line))
            except ValueError:
                want = "an 'a-b' edge" + ("" if dash else " or an arm count")
                raise InputError(
                    f"{path}:{lineno}: expected {want}, got {line!r}"
                ) from None
            if dash and min(edges[-1]) < 0:
                raise InputError(f"{path}:{lineno}: negative vertex id")
    num_arms = max([declared, *(max(e) + 1 for e in edges)])
    if num_arms < 1:
        raise InputError(f"{path}: no arms declared and no edges found")
    return FeedbackGraph(num_arms, edges)


_SIZED = {"complete": complete, "edgeless": edgeless, "cycle": cycle, "star": star}


def parse_graph_spec(spec: str) -> FeedbackGraph:
    """Build a graph from a compact text spec.

    Supported forms: ``complete:K``, ``edgeless:K``, ``cycle:K``, ``star:K``,
    ``cliques:a,b,c``, ``er:K,p,seed``, and ``file:path`` where the file
    holds ``a-b`` edge lines plus an optional bare integer arm count.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise InputError(f"empty graph spec {spec!r}")
    name, sep, rest = spec.strip().partition(":")
    name = name.lower()
    if not sep:
        raise InputError(f"graph spec {spec!r} is missing a ':' separator")
    try:
        if name in _SIZED:
            return _SIZED[name](int(rest))
        if name == "cliques":
            return disjoint_cliques(int(s) for s in rest.split(","))
        if name == "er":
            k, p, seed = rest.split(",")
            return erdos_renyi(int(k), float(p), int(seed))
        if name == "file":
            return _read_edge_list(rest)
    except InputError:
        raise
    except ValueError:
        raise InputError(f"malformed graph spec {spec!r}") from None
    families = ", ".join([*_SIZED, "cliques", "er", "file"])
    raise InputError(f"unknown graph family {name!r}; expected one of {families}")
