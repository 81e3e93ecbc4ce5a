"""Undirected feedback graphs and exact maximum-independent-set search.

Vertices are arms 0..num_arms-1. Every vertex carries a self-loop: pulling
an arm always reveals its own reward, and the neighborhood of an arm is the
set of arms whose rewards become visible when it is pulled. Self-loops are
ignored by all independence computations.

A graph is stored as one read-only K x K boolean adjacency matrix, True on
the diagonal. Neighborhoods, edge lists, induced subgraphs and the bitmasks
of the exact search are all read from it; the families build it with numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError

DEFAULT_EXACT_LIMIT = 30

# Largest arm count a graph may have. Its K x K boolean adjacency matrix
# takes 256 MiB at this limit.
MAX_ARMS = 2**14

__all__ = [
    "DEFAULT_EXACT_LIMIT",
    "MAX_ARMS",
    "FeedbackGraph",
    "IndependentSetResult",
    "complete",
    "cycle",
    "disjoint_cliques",
    "edgeless",
    "erdos_renyi",
    "independence_number",
    "max_independent_set",
    "parse_graph_spec",
    "star",
]


class FeedbackGraph:
    """Immutable undirected graph with mandatory self-loops.

    Holds ``num_arms`` and one read-only boolean adjacency matrix, True on
    the diagonal; every other view is derived from the matrix.
    """

    __slots__ = ("num_arms", "_adj")

    def __init__(self, num_arms: int, edges=()):
        if num_arms < 0:
            raise InputError(f"num_arms must be nonnegative, got {num_arms}")
        if num_arms > MAX_ARMS:
            raise InputError(f"num_arms must be at most {MAX_ARMS}, got {num_arms}")
        adj = np.eye(num_arms, dtype=bool)
        for a, b in edges:
            a, b = int(a), int(b)
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
        """Subgraph on ``subset``.

        Returns the relabeled graph together with the tuple mapping new
        vertex ids back to the original ones (sorted order).
        """
        keep = sorted(set(int(v) for v in subset))
        for v in keep:
            self._check_vertex(v)
        return FeedbackGraph._from_matrix(self._adj[np.ix_(keep, keep)]), tuple(keep)

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean num_arms x num_arms matrix; True on the diagonal."""
        return self._adj

    def _check_vertex(self, a):
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.num_arms:
            raise InputError(
                f"vertex {a!r} is outside the range 0..{self.num_arms - 1}"
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


def _neighbor_masks(graph: FeedbackGraph) -> list[int]:
    # bit b of masks[a] is set when b is a neighbour of a other than a itself
    adj = graph.adjacency_matrix() & ~np.eye(graph.num_arms, dtype=bool)
    rows = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _clique_cover_bound(cand: int, masks, weights) -> int:
    """Upper bound on the weight of an independent subset of ``cand``.

    Greedily covers ``cand`` with cliques (the lowest remaining vertex, then
    the lowest remaining vertex adjacent to the whole clique so far) and adds
    up the largest weight in each clique. An independent set holds at most
    one vertex per clique. On the complement graph this is the colouring
    bound of maximum-clique search (Tomita & Seki 2003, Ostergard 2002).
    """
    total = 0
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        top = weights[v]
        cand ^= low
        common = cand & masks[v]
        while common:
            low = common & -common
            v = low.bit_length() - 1
            if weights[v] > top:
                top = weights[v]
            cand ^= low
            common &= masks[v]
        total += top
    return total


def _branch_vertex(cand: int, masks) -> int:
    # branch on the highest-degree candidate; ties go to the lowest id
    best_v, best_d = -1, -1
    m = cand
    while m:
        v = (m & -m).bit_length() - 1
        d = (masks[v] & cand).bit_count()
        if d > best_d:
            best_v, best_d = v, d
        m &= m - 1
    return best_v


def _best_value(masks, weights, cand: int) -> int:
    """Branch-and-bound maximum weight of an independent subset of ``cand``.

    The weights are integers, so every sum is exact and a branch is pruned
    as soon as its bound cannot beat the best total found.
    """
    best = 0

    def dfs(cand, acc):
        nonlocal best
        if acc > best:
            best = acc
        if not cand or acc + _clique_cover_bound(cand, masks, weights) <= best:
            return
        v = _branch_vertex(cand, masks)
        dfs(cand & ~masks[v] & ~(1 << v), acc + weights[v])
        dfs(cand & ~(1 << v), acc)

    dfs(cand, 0)
    return best


def _lex_smallest_optimal(masks, weights, goal: int) -> list[int]:
    """Lexicographically smallest vertex set of integer weight at least ``goal``.

    Depth-first over the lowest remaining vertex, taking it before leaving
    it out, and stops at the first set that reaches the goal. A prefix is
    met before its extensions, so that set is the smallest sorted tuple.
    """
    chosen: list[int] = []

    def dfs(cand, acc):
        if acc >= goal:
            return True
        if not cand or acc + _clique_cover_bound(cand, masks, weights) < goal:
            return False
        low = cand & -cand
        v = low.bit_length() - 1
        chosen.append(v)
        if dfs(cand & ~masks[v] & ~low, acc + weights[v]):
            return True
        chosen.pop()
        return dfs(cand ^ low, acc)

    dfs((1 << len(masks)) - 1, 0)
    return chosen


def _greedy_set(graph: FeedbackGraph, weights) -> IndependentSetResult:
    # heaviest first, then the smallest neighborhood; the sort is stable, so
    # remaining ties go to the lowest id
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
    exact, and runs branch and bound over vertex bitmasks, pruned by a
    greedy clique-cover bound (the largest weight per clique). It is
    refused above ``exact_limit`` vertices unless ``allow_approximate`` is
    set, in which case a deterministic greedy answer is returned and flagged.
    Ties among maximizing sets resolve to the lexicographically smallest
    sorted vertex tuple: a second, lowest-vertex-first search stops at the
    first set that reaches the optimum. A graph whose search would recurse
    deeper than the interpreter allows is refused like one above the limit.
    """
    k = graph.num_arms
    if weights is not None:
        weights = [float(w) for w in weights]
        if len(weights) != k:
            raise InputError(
                f"expected {k} weights, got {len(weights)}"
            )
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
    masks = _neighbor_masks(graph)
    w = [1.0] * k if weights is None else weights
    # Every float is a dyadic rational, so over the largest denominator the
    # weights are integers and every subset sum below is exact.
    ratios = [x.as_integer_ratio() for x in w]
    scale = max(d for _, d in ratios)
    iw = [n * (scale // d) for n, d in ratios]
    try:
        target = _best_value(masks, iw, (1 << k) - 1) / scale
        # sets within 1e-9 of the optimum (relative, absolute below 1) tie it
        n, d = (target - 1e-9 * max(1.0, target)).as_integer_ratio()
        chosen = _lex_smallest_optimal(masks, iw, -(-n * scale // d))
    except OverflowError:
        raise InputError("the maximum independent-set weight overflows") from None
    except RecursionError:
        # both searches may recurse once per vertex
        raise CapabilityError(
            f"exact independent-set search on {k} vertices is deeper than the "
            "interpreter's recursion limit"
        ) from None
    if weights is None:
        value = len(chosen)
    else:
        value = math.fsum(w[v] for v in chosen)
    return IndependentSetResult(frozenset(chosen), value, approximate=False)


def independence_number(graph: FeedbackGraph, **kwargs) -> int:
    """Size of a maximum independent set (unweighted)."""
    return int(max_independent_set(graph, None, **kwargs).value)


def _require_arms(k: int) -> int:
    k = int(k)
    if k < 1:
        raise InputError(f"need at least one arm, got {k}")
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
    sizes = [int(s) for s in sizes]
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
    rng = np.random.default_rng(int(seed))
    # one draw per pair a < b in row-major order, without 2 GiB of index arrays
    adj = np.eye(k, dtype=bool)
    for a in range(k - 1):
        adj[a, a + 1:] = rng.random(k - a - 1) < p
    _symmetrise(adj)
    return FeedbackGraph._from_matrix(adj)


# Side of the square blocks ``_symmetrise`` pairs. The rows of a block lie a
# whole matrix row apart, so at a power-of-two K larger blocks contend for
# the same cache sets: at K = 16384 (2 vCPUs) 128 took 0.44 s, 64 0.61 s and
# 256 1.4 s.
_TILE = 128


def _symmetrise(adj):
    """``adj |= adj.T`` in place, one block and its mirror block at a time.

    The whole-matrix form reads the transpose a column at a time across the
    full matrix; a block pair is read and written in cache-sized pieces.
    """
    k = adj.shape[0]
    for i in range(0, k, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, k, _TILE):
            cols = slice(j, j + _TILE)
            block = adj[rows, cols] | adj[cols, rows].T
            adj[rows, cols] = block
            adj[cols, rows] = block.T


def _read_edge_list(path: str) -> FeedbackGraph:
    declared = 0
    edges = []
    max_seen = -1
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read graph file {path!r}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "-" in line:
                left, _, right = line.partition("-")
                try:
                    a, b = int(left), int(right)
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: expected an 'a-b' edge, got {line!r}"
                    ) from None
                if a < 0 or b < 0:
                    raise InputError(f"{path}:{lineno}: negative vertex id")
                edges.append((a, b))
                max_seen = max(max_seen, a, b)
            else:
                try:
                    declared = max(declared, int(line))
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: expected an 'a-b' edge or an arm "
                        f"count, got {line!r}"
                    ) from None
    num_arms = max(declared, max_seen + 1)
    if num_arms < 1:
        raise InputError(f"{path}: no arms declared and no edges found")
    return FeedbackGraph(num_arms, edges)


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
        if name == "complete":
            return complete(int(rest))
        if name == "edgeless":
            return edgeless(int(rest))
        if name == "cycle":
            return cycle(int(rest))
        if name == "star":
            return star(int(rest))
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
    raise InputError(
        f"unknown graph family {name!r}; expected one of complete, edgeless, "
        "cycle, star, cliques, er, file"
    )
