"""Undirected feedback graphs and exact maximum-independent-set search.

Vertices are arms 0..num_arms-1. Each carries a self-loop, since pulling an
arm reveals its own reward; its neighborhood is the arms whose rewards the
pull reveals. Independence computations ignore self-loops.

A graph is one read-only K x K boolean adjacency matrix, True on the
diagonal; every view of it, the search's bitmasks too, is read from it.
"""
from __future__ import annotations

import math
from array import array
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


def _neighbor_masks(adj: np.ndarray, order=None, labels=None) -> list[int]:
    # bit j of the mask of label i is set when j != i is a neighbour of i (the
    # XOR clears bit i) in the bool matrix adj, label j standing for vertex
    # order[j] if given; the masks of ``labels`` if given, else of every label
    if order is None:
        order = range(len(adj))
    if labels is None:  # every row, read in place
        labels, rows, sub = range(len(order)), order, adj.take(order, 1)
    else:
        rows, sub = range(len(labels)), adj.take(np.take(order, labels), 0).take(order, 1)
    packed = np.packbits(sub, axis=1, bitorder="little")
    n = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[v * n:v * n + n], "little") ^ 1 << i
        for i, v in zip(labels, rows)
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
    del expand  # the closure names itself: free it now, not at a collection
    return best


def _lex_smallest_optimal(goal, masks, weights, bits) -> list:
    """Lexicographically smallest candidate set of integer weight at least ``goal``.

    ``masks`` and ``weights`` are in labels, ``bits`` the candidates' label
    bits in vertex order; the set is returned as indices into ``bits``.
    Depth-first over the lowest candidate left, taking it before leaving it
    out, so the first set that reaches the goal is the smallest sorted tuple;
    the bound prunes no branch that reaches it, so no labelling changes it.
    """
    chosen: list[int] = []

    def dfs(j, cand, acc):
        if acc >= goal:
            return True
        if not cand or acc + _clique_cover_bound(cand, masks, weights) < goal:
            return False
        while not cand & bits[j]:
            j += 1
        i = bits[j].bit_length() - 1
        chosen.append(j)
        if dfs(j + 1, cand & ~(masks[i] | bits[j]), acc + weights[i]):
            return True
        chosen.pop()
        return dfs(j + 1, cand ^ bits[j], acc)

    dfs(0, sum(bits), 0)
    del dfs  # as in _best_value
    return chosen


def _greedy_set(adj: np.ndarray, weights, positions) -> IndependentSetResult:
    """Greedy set, flagged approximate, of the subgraph that the ascending
    ``positions`` of the bool matrix ``adj`` induce (copied unless whole):
    heaviest first, then fewest neighbours, then (stable) lowest position."""
    whole = len(positions) == len(adj)
    adj = adj if whole else adj.take(positions, 0).take(positions, 1)
    w = np.array([1.0 if weights is None else weights[p] for p in positions])
    chosen: list[int] = []  # the subgraph's ids, indices into positions
    blocked = np.zeros(len(adj), dtype=bool)
    for v in np.lexsort((adj.sum(axis=1), -w)).tolist():
        if not blocked[v]:
            chosen.append(v)
            blocked |= adj[v]
    try:
        value = len(chosen) if weights is None else math.fsum(w[chosen].tolist())
    except OverflowError:
        raise InputError("the greedy independent-set weight overflows") from None
    vertices = frozenset(chosen)
    if not whole:  # mapped back through the subgraph's own set: the same repr
        vertices = frozenset(positions[j] for j in vertices)
    return IndependentSetResult(vertices, value, approximate=True)


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
    between calls. The checked input goes to ``_Labels.solve``, the one
    path of every request (``phases`` sends it each instance's subsets).
    """
    if weights is not None:
        weights = [float(w) for w in weights]
        if len(weights) != graph.num_arms:
            raise InputError(f"expected {graph.num_arms} weights, got {len(weights)}")
        for w in weights:
            if not math.isfinite(w) or w < 0:
                raise InputError(f"weights must be finite and nonnegative, got {w}")
    labels = _Labels(graph.adjacency_matrix(), weights)
    return labels.solve(range(graph.num_arms), exact_limit, allow_approximate)


class _Labels:
    """A graph under one weighting, as every independent-set request reads it.

    ``adj`` is a bool adjacency matrix, its positions the vertices. The
    weights (None for all ones, else finite and nonnegative floats, one per
    position) are held as integers over one scale, so every subset sum is
    exact. The exact search reads two labellings, lightest first for the
    optimum and heaviest first for the set, both then sparsest, then lowest
    position; each is built on first use and kept, and equal weights share
    one.
    """

    __slots__ = ("adj", "weights", "scale", "iw", "uneven", "_deg", "_built")

    def __init__(self, adj: np.ndarray, weights=None):
        self.adj, self.weights = adj, weights
        if weights is None:
            self.scale, self.iw = 1, [1] * len(adj)
        else:
            # Every float is a dyadic rational, so over the largest denominator the
            # weights are integers and every subset sum below is exact. (Ratios are
            # read twice: K pairs at once would stay in the tuple free list.)
            self.scale = max((x.as_integer_ratio()[1] for x in weights), default=1)
            self.iw = [n * (self.scale // d) for n, d in map(float.as_integer_ratio, weights)]
        self.uneven = len(set(self.iw)) > 1
        self._deg, self._built = None, {}

    def labelling(self, heaviest: bool, exact_limit: int):
        """(masks, weights, order, label): each label's neighbour mask and
        integer weight, the positions in label order (None if every mask was
        built at once) and each position's label. A graph within ``exact_limit``
        may be asked for whole, so every mask is built now; a larger one is
        asked for a few positions at a time, so it keeps compact arrays and
        builds a mask when a request first holds its position."""
        heaviest = heaviest and self.uneven
        built = self._built.get(heaviest)
        if built is None:
            if self._deg is None:
                self._deg = self.adj.sum(axis=1).tolist()
            k = len(self._deg)
            # lightest (or heaviest) first, then sparsest, then lowest position
            order = sorted(range(k), key=self._deg.__getitem__)
            if self.uneven:
                order.sort(key=self.iw.__getitem__, reverse=heaviest)
            weights = [self.iw[p] for p in order]
            label = [0] * k if k <= exact_limit else array("q", bytes(8 * k))
            for i, p in enumerate(order):
                label[p] = i
            masks = _neighbor_masks(self.adj, order) if k <= exact_limit else [None] * k
            order = None if k <= exact_limit else np.array(order, dtype=np.intp)
            built = self._built[heaviest] = masks, weights, order, label
        return built

    def _bits(self, heaviest: bool, positions, exact_limit: int):
        """The labelling's masks and integer weights and the label bits of
        ``positions``, after building the masks they lack."""
        masks, weights, order, label = self.labelling(heaviest, exact_limit)
        if order is not None:
            missing = [label[p] for p in positions if masks[label[p]] is None]
            for i, mask in zip(missing, _neighbor_masks(self.adj, order, missing)):
                masks[i] = mask
        return masks, weights, [1 << label[p] for p in positions]

    def solve(self, positions, exact_limit, allow_approximate):
        """Maximum-weight independent set among the ascending ``positions``,
        under the rules of ``max_independent_set``, its limit counting the
        positions: the optimum by ``_best_value`` in the lightest-first
        labelling, the set by ``_lex_smallest_optimal`` in the heaviest-first
        one, as for the positions' subgraph searched alone."""
        if exact_limit < 0:
            raise InputError(
                "exact_limit (--mis-limit, mis.exact_limit) must be nonnegative, "
                f"got {exact_limit}"
            )
        if len(positions) > exact_limit:
            if not allow_approximate:
                raise CapabilityError(
                    f"exact independent-set search is limited to {exact_limit} "
                    f"vertices (graph has {len(positions)}); pass allow_approximate=True "
                    "(--approx-mis, mis.allow_approximate) to accept a greedy answer"
                )
            return _greedy_set(self.adj, self.weights, positions)
        try:
            masks, lw, bits = self._bits(False, positions, exact_limit)
            target = _best_value(masks, lw, sum(bits)) / self.scale
            # sets within a relative 1e-9 of the optimum tie it
            n, d = (target - 1e-9 * target).as_integer_ratio()
            if self.uneven:
                masks, lw, bits = self._bits(True, positions, exact_limit)
            found = _lex_smallest_optimal(-(-n * self.scale // d), masks, lw, bits)
        except OverflowError:
            raise InputError("the maximum independent-set weight overflows") from None
        except RecursionError:
            raise CapabilityError(
                f"exact independent-set search on {len(positions)} vertices is "
                "deeper than the interpreter's recursion limit"
            ) from None
        chosen = [positions[j] for j in found]
        w = self.weights
        value = len(chosen) if w is None else math.fsum(w[p] for p in chosen)
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
