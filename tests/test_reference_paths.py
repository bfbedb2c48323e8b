"""The search engines against the straightforward searches they replaced.

Each reference below is the earlier implementation, kept verbatim in
behaviour: the depth-first "one incident edge or nothing" search for the
general r-approximation classes, the all-orders enumeration with its
per-kind feasibility tests, and the pair-by-pair re-derivation of the edges
disperser_replace keeps.  The engines must return the same values and the
same witnesses on every seeded input.
"""

import heapq
import random
from itertools import combinations

import pytest

from matchprice import caps
from matchprice.csp_fglss import (
    disperser_replace,
    fglss_build,
    gap_amplify,
    random_balanced_csp,
    variable_sides,
)
from matchprice.disperser import random_disperser
from matchprice.errors import CapExceeded
from matchprice.graphs import (
    ALL_ORDERS,
    BipartiteGraph,
    Graph,
    Matching,
    VertexOrder,
    max_semi_induced_matching_bruteforce,
    random_bipartite,
    random_graph,
)
from matchprice.matching_solvers import (
    approx_induced_matching_general,
    bit_indices,
    block_optima_general,
    round_robin_blocks,
)

# ---------------------------------------------------------------------------
# general r-approximation classes: depth-first search per class


def ref_pairwise_compatible(g, e, f):
    a, b = e
    c, d = f
    if len({a, b, c, d}) < 4:
        return False
    return not (
        g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, c) or g.has_edge(b, d)
    )


def ref_solve_block_general(g, block):
    in_block = set(block)
    choices = []
    work = 1
    for v in block:
        opts = []
        for w in bit_indices(g.adjacency_mask(v)):
            if w in in_block and w < v:
                continue
            opts.append((min(v, w), max(v, w)))
        opts.sort()
        choices.append(opts)
        work *= len(opts) + 1
    if work > caps.MAX_BLOCK_WORK:
        raise CapExceeded(
            f"class search space {work} exceeds {caps.MAX_BLOCK_WORK}",
            bound="MAX_BLOCK_WORK",
        )

    best_size = 0
    best_edges = []
    chosen = []

    def rec(idx):
        nonlocal best_size, best_edges
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_edges = list(chosen)
        if idx == len(choices) or len(chosen) + (len(choices) - idx) <= best_size:
            return
        for e in choices[idx]:
            if all(ref_pairwise_compatible(g, e, f) for f in chosen):
                chosen.append(e)
                rec(idx + 1)
                chosen.pop()
        rec(idx + 1)

    rec(0)
    return best_size, best_edges


def ref_block_optima_general(g, r):
    out = []
    for block in round_robin_blocks(g.vertex_count, r):
        size, edges = ref_solve_block_general(g, block)
        out.append((size, Matching(sorted(edges))))
    return out


def outcome(fn, *args):
    """Return value, or the refusal's message and bound."""
    try:
        return fn(*args)
    except CapExceeded as exc:
        return ("refused", str(exc), exc.bound)


def test_general_blocks_match_depth_first_reference():
    rng = random.Random(20130812)
    compared = 0
    for n in range(2, 11):
        for p in (0.2, 0.4, 0.6, 0.8):
            for _ in range(8):
                g = random_graph(n, p, seed=rng.randrange(10**6))
                for r in (1, 2, 3):
                    expected = outcome(ref_block_optima_general, g, r)
                    assert outcome(block_optima_general, g, r) == expected, (g.to_json(), r)
                    if expected[0] != "refused":
                        best = (0, Matching([]))
                        for size_and_matching in expected:
                            if size_and_matching[0] > best[0]:
                                best = size_and_matching
                        assert approx_induced_matching_general(g, r) == best
                    compared += 1
    assert compared == 9 * 4 * 8 * 3


def test_general_blocks_refuse_like_reference(monkeypatch):
    g = Graph(6, [(u, w) for u, w in combinations(range(6), 2)])
    monkeypatch.setattr(caps, "MAX_BLOCK_WORK", 100)
    expected = outcome(ref_block_optima_general, g, 1)
    assert expected[0] == "refused"
    assert outcome(block_optima_general, g, 1) == expected


# ---------------------------------------------------------------------------
# all-orders oracle: per-kind enumeration and feasibility


def ref_acyclic(arcs):
    nodes = {x for arc in arcs for x in arc}
    out = {v: set() for v in nodes}
    indeg = {v: 0 for v in nodes}
    for a, b in arcs:
        if b not in out[a]:
            out[a].add(b)
            indeg[b] += 1
    queue = sorted(v for v in nodes if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.pop(0)
        seen += 1
        for w in sorted(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(nodes)


def ref_topo_order(arcs, all_vertices):
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
    placed = set(seq)
    seq.extend(v for v in sorted(all_vertices) if v not in placed)
    return seq


def ref_order_exists_bipartite(g, chosen_pairs):
    arcs = set()
    for (u, v), (a, b) in combinations(chosen_pairs, 2):
        if g.has_edge(u, b):
            arcs.add((a, u))
        if g.has_edge(a, v):
            arcs.add((u, a))
    return arcs if ref_acyclic(arcs) else None


def ref_order_exists_general(g, chosen_pairs):
    k = len(chosen_pairs)
    for code in range(1 << k):
        anchored = []
        for idx, (x, y) in enumerate(chosen_pairs):
            lo, hi = (min(x, y), max(x, y))
            if (code >> idx) & 1:
                lo, hi = hi, lo
            anchored.append((lo, hi))
        arcs = set()
        ok = True
        for m_e, o_e in anchored:
            arcs.add((m_e, o_e))
        for i in range(k):
            for j in range(i + 1, k):
                m_i, o_i = anchored[i]
                m_j, o_j = anchored[j]
                hit_ij = g.has_edge(m_i, m_j) or g.has_edge(m_i, o_j)
                hit_ji = g.has_edge(m_j, m_i) or g.has_edge(m_j, o_i)
                if hit_ij and hit_ji:
                    ok = False
                    break
                if hit_ij:
                    arcs.add((m_j, m_i))
                if hit_ji:
                    arcs.add((m_i, m_j))
            if not ok:
                break
        if ok and ref_acyclic(arcs):
            return arcs, anchored
    return None


def ref_all_orders(g):
    edge_list = g.sorted_edges()
    bip = isinstance(g, BipartiteGraph)
    best_pairs = []

    def feasible(pairs):
        if bip:
            return ref_order_exists_bipartite(g, pairs) is not None
        return ref_order_exists_general(g, pairs) is not None

    def enumerate_from(start, pairs, used_left, used_right):
        nonlocal best_pairs
        if len(pairs) > len(best_pairs):
            best_pairs = list(pairs)
        for i in range(start, len(edge_list)):
            u, w = edge_list[i]
            if bip:
                if u in used_left or w in used_right:
                    continue
            elif u in used_left or w in used_left:
                continue
            pairs.append((u, w))
            if feasible(pairs):
                if bip:
                    used_left.add(u)
                    used_right.add(w)
                    enumerate_from(i + 1, pairs, used_left, used_right)
                    used_left.discard(u)
                    used_right.discard(w)
                else:
                    used_left.add(u)
                    used_left.add(w)
                    enumerate_from(i + 1, pairs, used_left, used_right)
                    used_left.discard(u)
                    used_left.discard(w)
            pairs.pop()

    enumerate_from(0, [], set(), set())
    if bip:
        arcs = ref_order_exists_bipartite(g, best_pairs)
        seq = ref_topo_order(arcs, range(g.left_count))
    else:
        arcs, _ = ref_order_exists_general(g, best_pairs)
        seq = ref_topo_order(arcs, range(g.vertex_count))
    return len(best_pairs), Matching(best_pairs), VertexOrder.from_sequence(seq)


def assert_same_all_orders(g):
    size, m, order = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
    ref_size, ref_m, ref_order = ref_all_orders(g)
    assert (size, m.edges, order.ranks) == (ref_size, ref_m.edges, ref_order.ranks), g


def test_all_orders_bipartite_matches_reference():
    rng = random.Random(52)
    for left in range(1, 6):
        for right in range(1, 6):
            for p in (0.3, 0.5, 0.7):
                for _ in range(6):
                    assert_same_all_orders(
                        random_bipartite(left, right, p, seed=rng.randrange(10**6))
                    )


def test_all_orders_general_matches_reference():
    rng = random.Random(53)
    for n in range(2, 8):
        for p in (0.3, 0.5, 0.7):
            for _ in range(12):
                assert_same_all_orders(random_graph(n, p, seed=rng.randrange(10**6)))


# ---------------------------------------------------------------------------
# disperser_replace: re-derive every kept disagreement edge pair by pair


def ref_disperser_replace(g, labels, instance, disperser_supplier):
    labels = tuple(labels)
    n = g.vertex_count
    edges = set()
    for u in range(n):
        for w in range(u + 1, n):
            if labels[u][0] == labels[w][0]:
                edges.add((u, w))
    kept_pairs = {}
    for variable in range(instance.num_vars):
        ones, zeros = variable_sides(labels, instance, variable)
        if not ones and not zeros:
            continue
        disp = disperser_supplier(len(ones))
        kept_pairs[variable] = {
            (min(ones[i], zeros[j]), max(ones[i], zeros[j])) for i, j in disp.edges
        }
    for u in range(n):
        cu, pu = labels[u]
        vars_u = instance.clauses[cu].variables
        for w in range(u + 1, n):
            cw, pw = labels[w]
            if cu == cw:
                continue
            vars_w = instance.clauses[cw].variables
            for i, v in enumerate(vars_u):
                if v not in vars_w:
                    continue
                if pu[i] == pw[vars_w.index(v)]:
                    continue
                if (u, w) in kept_pairs[v]:
                    edges.add((u, w))
                    break
    return Graph(n, sorted(edges))


def seeded_supplier(seed):
    rng = random.Random(seed)

    def supplier(size):
        return random_disperser(size, rng.randint(1, size), rng.randrange(10**6))

    return supplier


@pytest.mark.parametrize("amplified", [False, True])
def test_disperser_replace_matches_rederivation(amplified):
    rng = random.Random(1308 + amplified)
    for _ in range(150):
        num_vars = rng.randint(4, 7)
        arity = rng.choice((2, 4))
        inst = random_balanced_csp(num_vars, rng.randint(2, 5), arity, rng.randrange(10**6))
        if amplified:
            inst = gap_amplify(inst, 2, rng.randint(2, 4), rng.randrange(10**6))
        graph, labels = fglss_build(inst)
        seed = rng.randrange(10**6)
        got = disperser_replace(graph, labels, inst, seeded_supplier(seed))
        expected = ref_disperser_replace(graph, labels, inst, seeded_supplier(seed))
        assert got.sorted_edges() == expected.sorted_edges()
