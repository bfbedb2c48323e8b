"""Graphs, bipartite graphs, matchings, vertex orders, and exhaustive oracles.

Everything downstream (solvers, reductions, the verification suite) treats
the brute-force routines here as ground truth, so they favour clarity and
determinism over speed: witnesses are always the lexicographically least
among the optima, and every enumeration refuses inputs above its cap
instead of truncating.

Matching notions used throughout:

* induced matching: a matching M such that no graph edge joins endpoints of
  two distinct edges of M.
* order-respecting (semi-induced) matching for an order sigma: only edges
  "from earlier to later" are forbidden.  Each matching edge is anchored at
  its lower-ranked endpoint, and for two edges e, f whose anchors satisfy
  rank(anchor(e)) < rank(anchor(f)) the graph must contain no edge from
  anchor(e) to either endpoint of f.  Every induced matching qualifies
  under every sigma.

Both rules are written once, for general graphs.  A bipartite graph is read
as its flattening (bipartite_to_graph): right w is vertex left_count + w,
and an order of its lefts ranks every right after every left.  Each edge
is then anchored at its left end, so for matching edges uv, u'v' with
rank(u) < rank(u') the semi-induced rule forbids exactly the edge uv'.

Listed by anchor rank, a semi-induced matching is a sequence of edges in
which each anchor and its partner avoid the closed neighbourhood of every
earlier anchor; any such sequence is semi-induced for an order ranking its
anchors first, in turn.  One search (_sequence_search) therefore serves a
fixed order, taking anchors in rank order, and all orders, taking them in
any order, for both oracle modes and the expanding-sequence values.

A graph is stored once, as neighbour bitmasks, and its edge set is derived on
demand.  Edge lists are validated on input; derived graphs are built from masks.
"""

from __future__ import annotations

import heapq
import random
from functools import reduce
from itertools import combinations

from . import caps
from .errors import InputError, InvariantViolation, Record, is_int, load

ALL_ORDERS = "all"
_PAIR = (tuple, list)  # the edge types a constructor accepts, subclasses too


class Graph:
    """Undirected simple graph on vertices 0..n-1, stored as neighbour
    masks only; edges are read off them.  Immutable once built."""

    __slots__ = ("vertex_count", "_adj")

    def __init__(self, vertex_count: int, edges):
        if not (is_int(vertex_count) and vertex_count >= 0):
            raise InputError(f"vertex count n must be a nonnegative integer, got {vertex_count!r}")
        self.vertex_count = vertex_count
        adj = [0] * vertex_count
        for edge in edges:
            # class identity first: the isinstance tests run only for other types
            if not ((edge.__class__ in _PAIR or isinstance(edge, _PAIR)) and len(edge) == 2):
                raise InputError(f"edges: {_shown(edge)!r} is not a pair of vertices")
            u, w = edge
            if not ((u.__class__ is int or is_int(u)) and (w.__class__ is int or is_int(w))):
                raise InputError(f"edge {_shown(edge)} endpoints must be integers")
            if not (0 <= u < vertex_count and 0 <= w < vertex_count):
                raise InputError(f"edge {_shown(edge)} out of range for n={vertex_count}")
            if u == w:
                raise InputError(f"loop at vertex {u}")
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        self._adj = tuple(adj)

    @classmethod
    def _from_masks(cls, vertex_count: int, adj) -> "Graph":
        """The graph with neighbour masks adj, unchecked: the masks are
        symmetric, loop-free, in range and derived from validated objects
        (fglss_build, disperser_replace, bipartite_to_graph)."""
        g = cls.__new__(cls)
        g.vertex_count = vertex_count
        g._adj = tuple(adj)
        return g

    @property
    def edges(self) -> frozenset:
        return frozenset(self.sorted_edges())

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self._adj) // 2

    def has_edge(self, u: int, w: int) -> bool:
        return (self._adj[u] >> w) & 1 == 1

    def adjacency_mask(self, u: int) -> int:
        return self._adj[u]

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self._adj), default=0)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u, mask in enumerate(self._adj) for w in bit_indices(mask) if w > u]

    def __eq__(self, other):
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):
        return hash(self._adj)

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count()})"

    def to_json(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        return load("graph", obj, lambda n, edges: cls(n, _json_edges(edges)), "n", "edges")


def _json_edges(edges):
    """A json edge list as it is, or InputError naming the field; the
    constructor checks each entry."""
    if not isinstance(edges, _PAIR):
        raise InputError("edges must be a list of [u, w] pairs")
    return edges


def _shown(edge):
    """A refused edge as its message prints it: a json [u, w] entry as (u, w)."""
    return tuple(edge) if isinstance(edge, list) else edge


def bit_indices(mask: int) -> list[int]:
    """Indices of set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class BipartiteGraph:
    """Bipartite graph with sides 0..left-1 and 0..right-1; edges are (left, right).
    Stored as the neighbour masks of both sides; edges are read off the left."""

    __slots__ = ("left_count", "right_count", "_left_adj", "_right_adj", "_flat_graph")

    def __init__(self, left_count: int, right_count: int, edges):
        if not all(is_int(c) and c >= 0 for c in (left_count, right_count)):
            raise InputError(
                "left and right side sizes must be nonnegative integers, "
                f"got {left_count!r} and {right_count!r}"
            )
        left_adj = [0] * left_count
        right_adj = [0] * right_count
        for edge in edges:
            # the same checks and messages as Graph's, then both sides' masks at once
            if not ((edge.__class__ in _PAIR or isinstance(edge, _PAIR)) and len(edge) == 2):
                raise InputError(f"edges: {_shown(edge)!r} is not a pair of vertices")
            u, w = edge
            if not ((u.__class__ is int or is_int(u)) and (w.__class__ is int or is_int(w))):
                raise InputError(f"edge {_shown(edge)} endpoints must be integers")
            if not (0 <= u < left_count and 0 <= w < right_count):
                raise InputError(f"edge {_shown(edge)} out of range for sides {left_count}x{right_count}")
            left_adj[u] |= 1 << w
            right_adj[w] |= 1 << u
        self._set_masks(left_count, right_count, left_adj, right_adj)

    @classmethod
    def _from_masks(
        cls, left_count: int, right_count: int, left_adj, right_adj
    ) -> "BipartiteGraph":
        """The graph with left masks left_adj and right masks right_adj,
        unchecked: each left mask lies below 1 << right_count, derived from a
        validated graph or sampled in range, and right_adj is its transpose.
        Callers build both sides together; nothing transposes after the fact."""
        g = cls.__new__(cls)
        g._set_masks(left_count, right_count, left_adj, right_adj)
        return g

    def _set_masks(self, left_count: int, right_count: int, left_adj, right_adj) -> None:
        self.left_count = left_count
        self.right_count = right_count
        self._left_adj = tuple(left_adj)
        self._right_adj = tuple(right_adj)
        self._flat_graph = None

    @property
    def edges(self) -> frozenset:
        return frozenset(self.sorted_edges())

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self._left_adj)

    def has_edge(self, u: int, w: int) -> bool:
        return (self._left_adj[u] >> w) & 1 == 1

    def left_mask(self, u: int) -> int:
        """Bitmask of right neighbours of left vertex u."""
        return self._left_adj[u]

    def right_mask(self, w: int) -> int:
        """Bitmask of left neighbours of right vertex w."""
        return self._right_adj[w]

    def degree_right(self, w: int) -> int:
        return self._right_adj[w].bit_count()

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self._left_adj + self._right_adj), default=0)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u, mask in enumerate(self._left_adj) for w in bit_indices(mask)]

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteGraph)
            and (self.right_count, self._left_adj) == (other.right_count, other._left_adj)
        )

    def __hash__(self):
        return hash((self.right_count, self._left_adj))

    def __repr__(self):
        return f"BipartiteGraph({self.left_count}x{self.right_count}, m={self.edge_count()})"

    def to_json(self) -> dict:
        return {
            "left": self.left_count,
            "right": self.right_count,
            "edges": [list(e) for e in self.sorted_edges()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BipartiteGraph":
        return load("bipartite graph", obj, lambda left, right, edges:
                    cls(left, right, _json_edges(edges)), "left", "right", "edges")


def load_graph_json(obj: dict):
    """Dispatch on the json shape: {"n", ...} or {"left", "right", ...}."""
    if not isinstance(obj, dict):
        raise InputError("json object is neither a graph nor a bipartite graph")
    if "n" in obj:
        return Graph.from_json(obj)
    if "left" in obj:
        if "target_degree" in obj:
            from .disperser import DisperserGraph

            return DisperserGraph.from_json(obj)
        return BipartiteGraph.from_json(obj)
    raise InputError("json object is neither a graph nor a bipartite graph")


class Matching(Record):
    """A list of vertex pairs.  Validity is checked against a host graph."""

    __slots__ = ("edges",)

    def __init__(self, edges):
        edges = tuple(tuple(e) for e in edges)
        for e in edges:
            if len(e) != 2:
                raise InputError(f"matching edge {e} is not a pair")
        super().__init__(edges)

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __repr__(self):
        return f"Matching({list(self.edges)})"


class VertexOrder(Record):
    """Bijection vertex -> rank in [0, n).

    For a bipartite graph the order ranks the left side only; for a general
    graph it ranks every vertex.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks):
        ranks = tuple(ranks)
        if sorted(ranks) != list(range(len(ranks))):
            raise InputError("ranks must be a bijection onto [0, n)")
        super().__init__(ranks)

    @classmethod
    def from_sequence(cls, seq) -> "VertexOrder":
        """Build from a list of vertices in rank order."""
        seq = list(seq)
        if sorted(seq) != list(range(len(seq))):
            raise InputError("sequence must list each of the vertices 0..n-1 once")
        return cls(sorted(range(len(seq)), key=seq.__getitem__))

    def rank(self, v: int) -> int:
        return self.ranks[v]

    def sequence(self) -> list[int]:
        return sorted(range(len(self.ranks)), key=lambda v: self.ranks[v])

    def __len__(self):
        return len(self.ranks)

    def __repr__(self):
        return f"VertexOrder({list(self.ranks)})"


# ---------------------------------------------------------------------------
# matching validity


def _flat(g) -> Graph:
    """g itself, or the flattened Graph of a bipartite g."""
    return bipartite_to_graph(g) if isinstance(g, BipartiteGraph) else g


def _flat_pairs(g, m: Matching) -> tuple[Graph, list[tuple[int, int]]]:
    """Range-check m against g (raises InputError); the flat graph and m's
    pairs in its numbering."""
    if isinstance(g, BipartiteGraph):
        for u, w in m:
            if not (0 <= u < g.left_count and 0 <= w < g.right_count):
                raise InputError(f"matching edge ({u}, {w}) out of range")
        return bipartite_to_graph(g), [(u, g.left_count + w) for u, w in m]
    for u, w in m:
        if not (0 <= u < g.vertex_count and 0 <= w < g.vertex_count) or u == w:
            raise InputError(f"matching edge ({u}, {w}) out of range")
    return g, list(m)


def _flat_ranks(g, order: VertexOrder) -> tuple[int, ...]:
    """Shape-check the order against g (raises InputError); ranks of every
    flat vertex, the rights of a bipartite g after all of its lefts."""
    if isinstance(g, BipartiteGraph):
        if len(order) != g.left_count:
            raise InputError("order must rank the left side of a bipartite graph")
        return order.ranks + tuple(range(g.left_count, g.left_count + g.right_count))
    if len(order) != g.vertex_count:
        raise InputError("order must rank every vertex of a general graph")
    return order.ranks


def is_induced_matching(g, m: Matching) -> bool:
    """True iff m is a matching in g and no g-edge joins two distinct m-edges."""
    flat, pairs = _flat_pairs(g, m)
    # the conflict builders take g-edges only, so the edge test goes first
    return all(flat.has_edge(u, w) for u, w in pairs) and not any(
        _edge_conflicts_induced(flat, pairs)
    )


def is_semi_induced_matching(g, order: VertexOrder, m: Matching) -> bool:
    """True iff m is a matching in g respecting the order, per the module
    docstring."""
    flat, pairs = _flat_pairs(g, m)
    ranks = _flat_ranks(g, order)
    return all(flat.has_edge(u, w) for u, w in pairs) and not any(
        _edge_conflicts_semi(flat, pairs, ranks)
    )


# ---------------------------------------------------------------------------
# maximum independent set engine (bitmask depth-first search)


def _mis_lex_witness(adj, n: int) -> tuple[int, tuple[int, ...]]:
    """Size and the lexicographically least maximum independent set.

    One depth-first search branches on the least candidate, taking it
    before leaving it out, so sets are met in lexicographic order; a set is
    recorded only when strictly larger than the best so far, and a branch
    is cut once it cannot beat that.  A least candidate with no candidate
    neighbour is simply taken.  With exactly one, leaving it out is never
    needed: swapping that neighbour for it keeps any set independent, of
    the same size and lexicographically smaller."""
    chosen: list[int] = []
    best: list[int] = []

    def grow(cand: int) -> None:
        nonlocal best
        taken = len(chosen)
        while len(chosen) + cand.bit_count() > len(best):
            if not cand:
                best = chosen.copy()
                break
            low = cand & -cand
            v = low.bit_length() - 1
            chosen.append(v)
            near = adj[v] & cand
            if near:
                grow(cand & ~near & ~low)
                chosen.pop()
                if not near & (near - 1):
                    break
            cand ^= low
        del chosen[taken:]

    grow((1 << n) - 1)
    return len(best), tuple(best)


def max_independent_set_bruteforce(g) -> tuple[int, frozenset]:
    """Exact maximum independent set with a deterministic witness.

    Accepts a Graph or a BipartiteGraph (the latter is flattened first).
    Refuses graphs with more than caps.MAX_IS_VERTICES vertices.
    """
    g = _flat(g)
    caps.require("MAX_IS_VERTICES", g.vertex_count,
                 "independent-set oracle limited to {limit} vertices, got {used}")
    size, witness = _mis_lex_witness(g._adj, g.vertex_count)
    return size, frozenset(witness)


# ---------------------------------------------------------------------------
# induced / semi-induced matching oracles


def _edge_conflicts_induced(g: Graph, edge_list):
    """Conflict masks over indices of g-edges: edges conflict iff one meets
    the closed neighbourhood N(u) | N(w) of the other, which covers a shared
    endpoint as well as a joining g-edge."""
    adj = g._adj
    ends = [(1 << u) | (1 << w) for u, w in edge_list]
    reach = [adj[u] | adj[w] for u, w in edge_list]
    k = len(edge_list)
    masks = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if reach[i] & ends[j]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _edge_conflicts_semi(g: Graph, edge_list, ranks):
    """Conflict masks over indices of g-edges for fixed vertex ranks, per
    the module docstring: edges conflict iff the earlier anchor is adjacent
    to an end of the later edge.  A shared endpoint is such an adjacency."""
    adj = g._adj
    ends = [(1 << u) | (1 << w) for u, w in edge_list]
    anchors = [u if ranks[u] < ranks[w] else w for u, w in edge_list]
    anchor_ranks = [ranks[a] for a in anchors]
    k = len(edge_list)
    masks = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            early, late = (i, j) if anchor_ranks[i] < anchor_ranks[j] else (j, i)
            if adj[anchors[early]] & ends[late]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def max_induced_matching_bruteforce(g) -> tuple[int, Matching]:
    """Exact maximum induced matching with a lexicographically least witness."""
    flat = _flat(g)
    caps.require("MAX_IS_VERTICES", flat.vertex_count,
                 "induced-matching oracle limited to {limit} vertices, got {used}")
    edge_list = g.sorted_edges()
    caps.require("MAX_IM_EDGES", len(edge_list),
                 "edge-subset enumeration limited to {limit} edges, got {used}")
    masks = _edge_conflicts_induced(flat, flat.sorted_edges())
    size, witness = _mis_lex_witness(masks, len(edge_list))
    m = Matching(edge_list[i] for i in witness)
    if not is_induced_matching(g, m):
        raise InvariantViolation(f"max_induced_matching_bruteforce: {m} is not an induced matching")
    return size, m


def _order_for(g, pairs, bipartite, n):
    """The order of n vertices led by the Kahn order of the first anchoring
    of pairs (u, w), u < w, in canonical order whose precedence arcs are
    acyclic, or None.  Bit i of the code anchors pair i at w.  A bipartite g
    is flattened, lefts first, and ranks its n lefts only: it takes the one
    anchoring at the left ends (code 0), with no anchor-to-partner arcs."""
    for code in range(1 if bipartite else 1 << len(pairs)):
        anchored = [(w, u) if code >> i & 1 else (u, w) for i, (u, w) in enumerate(pairs)]
        arcs = set() if bipartite else set(anchored)
        for (m_i, o_i), (m_j, o_j) in combinations(anchored, 2):
            hit_ij = g.has_edge(m_i, m_j) or g.has_edge(m_i, o_j)
            hit_ji = g.has_edge(m_j, m_i) or g.has_edge(m_j, o_i)
            if hit_ij and hit_ji:
                break
            if hit_ij:
                arcs.add((m_j, m_i))
            if hit_ji:
                arcs.add((m_i, m_j))
        else:
            seq = _topo_order(arcs)
            if seq is not None:
                return VertexOrder.from_sequence(seq + [v for v in range(n) if v not in seq])
    return None


def _topo_order(arcs) -> list[int] | None:
    """Kahn with min-index tie break over the vertices of the arcs, or None
    if the arcs have a cycle."""
    nodes = {x for arc in arcs for x in arc}
    out = {v: set() for v in nodes}
    indeg = {v: 0 for v in nodes}
    for a, b in arcs:
        if b not in out[a]:
            out[a].add(b)
            indeg[b] += 1
    heap = [v for v in nodes if indeg[v] == 0]
    heapq.heapify(heap)
    seq = []
    while heap:
        v = heapq.heappop(heap)
        seq.append(v)
        for w in sorted(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return seq if len(seq) == len(nodes) else None


def max_semi_induced_matching_bruteforce(g, order) -> tuple[int, Matching, VertexOrder]:
    """Exact semi-induced matching oracle.

    With a VertexOrder, maximises over matchings for that fixed order.  With
    order=ALL_ORDERS ("all"), maximises over every order as well; this mode
    is capped at caps.MAX_ALL_ORDER_VERTICES vertices.  Returns
    (size, matching, order); in "all" mode the returned order is a witness
    achieving the maximum.  Both modes run the anchor-sequence search.
    """
    flat = _flat(g)
    flat_edges = flat.sorted_edges()
    if isinstance(order, VertexOrder):
        # Fixed-order mode searches edge sets, so only the edge cap
        # applies; vertex count is irrelevant to the search space.
        caps.require("MAX_IM_EDGES", len(flat_edges),
                     "edge-subset enumeration limited to {limit} edges, got {used}")
        ranks = _flat_ranks(g, order)
    elif order != ALL_ORDERS:
        raise InputError("order must be a VertexOrder or the string 'all'")
    else:
        caps.require("MAX_ALL_ORDER_VERTICES", flat.vertex_count,
                     "all-orders mode limited to {limit} vertices, got {used}")
        ranks = None
    bip = isinstance(g, BipartiteGraph)
    size = _longest(_anchor_search(flat, ranks, bip, flat_edges), len(flat_edges))
    # The lexicographically least maximum edge set: keep an edge when a
    # maximum set holds it and the kept edges, and otherwise only later ones.
    kept: list[tuple[int, int]] = []
    rest = flat_edges
    while rest and len(kept) < size:
        (u, w), *rest = rest
        later = [e for e in rest if u not in e and w not in e]
        if _anchor_search(flat, ranks, bip, later, kept + [(u, w)])(size):
            kept.append((u, w))
            rest = later
    m = Matching((u, w - g.left_count) if bip else (u, w) for u, w in kept)
    if ranks is None:
        order = _order_for(flat, kept, bip, g.left_count if bip else g.vertex_count)
    if len(m) != size or not is_semi_induced_matching(g, order, m):
        raise InvariantViolation(f"max_semi_induced_matching_bruteforce: bad witness {m} for size {size}")
    return size, m, order


def _anchor_search(flat: Graph, ranks, bip: bool, pairs, kept=()):
    """The sequence search for semi-induced matchings of flat holding every
    kept edge and any of pairs, for the flat ranks ranks or, if None, for
    some order.  An edge is anchored at its lower-ranked end, its left end
    if bip, or either end; an anchor's step ORs its partners together, and
    each kept edge has steps of its own and forced ends."""

    def anchorings(u, w):
        if ranks is None and not bip:
            return (u, w), (w, u)
        return ((w, u) if ranks is not None and ranks[w] < ranks[u] else (u, w),)

    partners: dict[int, int] = {}
    for u, w in pairs:
        for a, b in anchorings(u, w):
            partners[a] = partners.get(a, 0) | 1 << b
    anchored = list(partners.items())
    forced = 0
    for u, w in kept:
        anchored += [(a, 1 << b) for a, b in anchorings(u, w)]
        forced |= (0 if bip else 1 << u) | 1 << w  # a bipartite left is never a partner
    if ranks is not None:
        anchored.sort(key=lambda step: ranks[step[0]])
    steps = [(o, c, flat._adj[a] | o) for a, c in anchored for o in [0 if bip else 1 << a]]
    return _sequence_search(steps, forced, ordered=ranks is not None)


def _sequence_search(steps, forced: int, ordered: bool):
    """reaches(need): whether at least need of the steps (own, choose, kill)
    can be taken one after another, in list order if ordered, each forced
    bit removed by a step that owns or chooses it and by no other.  A step
    is legal while its own bits and a choose bit are free and it removes no
    other free forced bit; taking it removes its kill bits, which hold both.
    A state (first usable index, free bits) is cut when fewer free bits or
    steps with a free choose bit remain than needed: a step failing the
    other tests may pass them later.  A dict keeps per state the least need
    known to fail, as every larger one fails too."""
    own, choose, kill = ([step[i] for step in steps] for i in range(3))
    count = len(steps)
    blocks = [k & forced & ~(o | c) for o, c, k in steps]
    checked = forced or any(own)
    free = reduce(int.__or__, own + choose, 0)
    fails: dict[tuple[int, int], int] = {}

    def reaches(start: int, avail: int, need: int) -> bool:
        if need <= 0 and not avail & forced:
            return True
        key = (start, avail)
        if fails.get(key, need + 1) <= need:
            return False
        if avail.bit_count() >= need:
            usable = [j for j in range(start, count) if choose[j] & avail]
            if len(usable) >= need:
                # in order, the first pick must leave need - 1 usable steps after it
                picks = usable[: len(usable) - need + 1] if ordered else usable
                if checked:
                    picks = [j for j in picks if own[j] & avail == own[j] and not blocks[j] & avail]
                for j in picks:
                    if reaches(j + 1 if ordered else 0, avail & ~kill[j], need - 1):
                        return True
        fails[key] = need
        return False

    return lambda need: reaches(0, free, need)


def _longest(reaches, cutoff: int) -> int:
    """The largest need up to cutoff that reaches accepts, asked in turn."""
    best = 0
    while best < cutoff and reaches(best + 1):
        best += 1
    return best


def max_expanding_sequence(bg: BipartiteGraph, cutoff: int) -> int:
    """Largest k (capped at cutoff) such that bg has disjoint edges
    (u_1, v_1), ..., (u_k, v_k) with u_i nonadjacent to v_j whenever i < j.

    This equals the maximum over every left order of the semi-induced
    matching number, truncated at cutoff: ordering the matching by the rank
    of the left endpoints turns the order condition into exactly the
    sequence condition.  Decided by the sequence search on one step
    (0, N(u), N(u)) per left u, taken in any order.
    """
    return _longest(_sequence_search([(0, m, m) for m in bg._left_adj], 0, ordered=False), cutoff)


def max_expanding_sequence_fixed(bg: BipartiteGraph, order: VertexOrder, cutoff: int) -> int:
    """Semi-induced matching number of bg for one fixed left order,
    truncated at cutoff.

    Matches max_semi_induced_matching_bruteforce(bg, order)[0] (below the
    cutoff) without a witness: the search of max_expanding_sequence with
    the lefts' steps taken in rank order.
    """
    if len(order) != bg.left_count:
        raise InputError(
            f"order ranks {len(order)} vertices, graph has {bg.left_count} lefts"
        )
    steps = [(0, bg._left_adj[u], bg._left_adj[u]) for u in order.sequence()]
    return _longest(_sequence_search(steps, 0, ordered=True), cutoff)


# ---------------------------------------------------------------------------
# double covers and balanced independence


def bipartite_double_cover(g: Graph, include_same_vertex_edges: bool = False) -> BipartiteGraph:
    """Two copies of V(g); (u, 1)(w, 2) is an edge iff uw is an edge of g.

    With include_same_vertex_edges=True the pairs (u, 1)(u, 2) are added as
    well; they are what lets an independent set reappear as a matching of
    the cover.
    """
    adj = g._adj
    if include_same_vertex_edges:
        adj = tuple(mask | (1 << u) for u, mask in enumerate(adj))
    # g's masks are symmetric, so the cover's right masks equal its left ones
    return BipartiteGraph._from_masks(g.vertex_count, g.vertex_count, adj, adj)


def bipartite_to_graph(bg: BipartiteGraph) -> Graph:
    """Flatten: lefts keep their ids, right w becomes left_count + w.  Built
    once per bg and shared, as both graphs are immutable."""
    if bg._flat_graph is None:
        off = bg.left_count
        adj = [mask << off for mask in bg._left_adj] + list(bg._right_adj)
        bg._flat_graph = Graph._from_masks(off + bg.right_count, adj)
    return bg._flat_graph


def _sparse_left_set(bg: BipartiteGraph, k: int) -> tuple[tuple[int, ...], int] | None:
    """The first k-subset of lefts, in combinations order, leaving at least k
    rights uncovered, with the uncovered right mask; None if there is none.

    Searched depth first, smallest left first, so subsets are met in
    combinations order and the first hit is the same subset a full scan
    would return.  A prefix whose uncovered set already has fewer than k
    rights is cut, as adding lefts only shrinks that set; so is a prefix
    with too few lefts after it to reach k.  The search keeps its own stack,
    as k can exceed the recursion limit."""
    masks = bg._left_adj
    last_start = bg.left_count - k
    chosen: list[int] = []
    uncovered = [(1 << bg.right_count) - 1]  # uncovered[j]: rights chosen[:j] leave
    if uncovered[0].bit_count() < k:
        return None
    u = 0  # next left to try at depth len(chosen)
    while True:
        depth = len(chosen)
        if depth == k:
            return tuple(chosen), uncovered[k]
        if u <= last_start + depth:
            rest = uncovered[depth] & ~masks[u]
            if rest.bit_count() >= k:
                chosen.append(u)
                uncovered.append(rest)
            u += 1
        elif chosen:
            u = chosen.pop() + 1
            uncovered.pop()
        else:
            return None


def balanced_bipartite_independence_bruteforce(bg: BipartiteGraph) -> int:
    """Largest k with k lefts and k rights spanning no edge at all."""
    caps.require("MAX_BBIS_VERTICES", bg.left_count + bg.right_count,
                 "balanced-independence oracle limited to {limit} vertices, got {used}")
    for k in range(min(bg.left_count, bg.right_count), 0, -1):
        if _sparse_left_set(bg, k) is not None:
            return k
    return 0


# ---------------------------------------------------------------------------
# seeded generators (used by the CLI and the verification suite)


def _check_probability(edge_probability: float) -> None:
    if not 0 <= edge_probability <= 1:
        raise InputError(f"edge probability must lie in [0, 1], got {edge_probability}")


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    _check_probability(edge_probability)
    rng = random.Random(seed)
    edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    return Graph(n, edges)


def random_bipartite(left: int, right: int, edge_probability: float, seed: int) -> BipartiteGraph:
    _check_probability(edge_probability)
    rng = random.Random(seed)
    edges = [
        (u, w)
        for u in range(left)
        for w in range(right)
        if rng.random() < edge_probability
    ]
    return BipartiteGraph(left, right, edges)
