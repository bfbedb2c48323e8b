"""Tests for graph containers, matching predicates, and exhaustive oracles.

Expected values for the fixed examples were worked out by hand on paper;
the randomised loops cross-check the specialised oracles against plain
subset enumeration, which is implemented independently here.
"""

import os
import random
import subprocess
import sys
import time
from itertools import combinations, permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchprice import caps, graphs, matching_solvers
from matchprice.disperser import DisperserGraph, random_disperser
from matchprice.errors import CapExceeded, InputError
from matchprice.graphs import (
    ALL_ORDERS,
    BipartiteGraph,
    Graph,
    Matching,
    VertexOrder,
    balanced_bipartite_independence_bruteforce,
    bipartite_double_cover,
    bipartite_to_graph,
    is_induced_matching,
    is_semi_induced_matching,
    load_graph_json,
    max_expanding_sequence,
    max_expanding_sequence_fixed,
    max_independent_set_bruteforce,
    max_induced_matching_bruteforce,
    max_semi_induced_matching_bruteforce,
    random_bipartite,
    random_graph,
)
from matchprice.matching_solvers import block_optima_bipartite, round_robin_blocks
from matchprice.reduction import Coloring, congestion_filter, congestion_threshold


def degree(g, v):
    return g.adjacency_mask(v).bit_count()


def degree_left(bg, u):
    return bg.left_mask(u).bit_count()


def identity_order(n):
    return VertexOrder(range(n))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def perfect_matching_bipartite(n):
    return BipartiteGraph(n, n, [(i, i) for i in range(n)])


def naive_independent_sets(g: Graph):
    """Reference enumeration, no pruning."""
    best = 0
    vertices = range(g.vertex_count)
    for k in range(g.vertex_count, -1, -1):
        for sub in combinations(vertices, k):
            if all(not g.has_edge(u, w) for u, w in combinations(sub, 2)):
                return k
    return best


def naive_induced_matching(g):
    edges = g.sorted_edges()
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for sub in combinations(edges, k):
            if is_induced_matching(g, Matching(sub)):
                best = k
                break
        if best:
            break
    return best


# ---------------------------------------------------------------------------
# containers


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        BipartiteGraph(2, 2, [(0, 2)])


def test_graph_dedupes_and_normalises():
    g = Graph(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert degree(g, 1) == 2
    assert g.max_degree() == 2


def test_json_round_trip():
    g = Graph(4, [(0, 1), (2, 3)])
    assert Graph.from_json(g.to_json()) == g
    bg = BipartiteGraph(2, 3, [(0, 2), (1, 0)])
    assert BipartiteGraph.from_json(bg.to_json()) == bg
    assert load_graph_json(g.to_json()) == g
    assert load_graph_json(bg.to_json()) == bg
    with pytest.raises(InputError):
        load_graph_json({"edges": []})


def test_vertex_order_round_trip():
    order = VertexOrder.from_sequence([2, 0, 1])
    assert order.ranks == (1, 2, 0)
    assert order.sequence() == [2, 0, 1]
    with pytest.raises(InputError):
        VertexOrder([0, 0, 1])


def test_vertex_order_from_sequence_needs_a_permutation():
    assert VertexOrder.from_sequence([]).ranks == ()
    for seq in ([0, 0], [1, 1, 0], [0, 2], [1]):
        with pytest.raises(InputError):
            VertexOrder.from_sequence(seq)


# ---------------------------------------------------------------------------
# matching predicates


def test_induced_matching_on_paths():
    g = path(4)  # edges 01 12 23
    assert is_induced_matching(g, Matching([(0, 1)]))
    # 01 and 23 are joined by the edge 12
    assert not is_induced_matching(g, Matching([(0, 1), (2, 3)]))
    g5 = path(5)
    assert is_induced_matching(g5, Matching([(0, 1), (3, 4)]))


def test_semi_induced_on_four_path():
    # vertices a=0 b=1 c=2 d=3, edges ab bc cd; matching {ab, cd}
    g = path(4)
    m = Matching([(0, 1), (2, 3)])
    assert is_semi_induced_matching(g, VertexOrder.from_sequence([0, 1, 2, 3]), m)
    assert not is_semi_induced_matching(g, VertexOrder.from_sequence([1, 0, 2, 3]), m)
    assert is_semi_induced_matching(g, VertexOrder.from_sequence([3, 1, 0, 2]), m)


def test_semi_induced_bipartite_direction():
    # lefts u0 u1, rights v0 v1; matching edges (u0,v0) (u1,v1); extra edge (u0,v1)
    bg = BipartiteGraph(2, 2, [(0, 0), (1, 1), (0, 1)])
    m = Matching([(0, 0), (1, 1)])
    # u0 earlier: the forbidden pattern u0-v1 is present
    assert not is_semi_induced_matching(bg, VertexOrder([0, 1]), m)
    # u1 earlier: only u1-v0 would hurt, and it is absent
    assert is_semi_induced_matching(bg, VertexOrder([1, 0]), m)


def test_semi_induced_validates_shapes():
    bg = perfect_matching_bipartite(2)
    with pytest.raises(InputError):
        is_semi_induced_matching(bg, VertexOrder([0, 1, 2]), Matching([(0, 0)]))
    g = path(3)
    with pytest.raises(InputError):
        is_semi_induced_matching(g, VertexOrder([0, 1]), Matching([(0, 1)]))
    with pytest.raises(InputError):
        is_induced_matching(g, Matching([(0, 9)]))


def test_non_matching_is_rejected_by_predicates():
    g = path(4)
    assert not is_induced_matching(g, Matching([(0, 1), (1, 2)]))
    assert not is_induced_matching(g, Matching([(0, 2)]))  # not an edge
    order = identity_order(4)
    assert not is_semi_induced_matching(g, order, Matching([(0, 1), (1, 2)]))


# ---------------------------------------------------------------------------
# independent set oracle


def test_mis_on_cycle_five():
    size, witness = max_independent_set_bruteforce(cycle(5))
    assert size == 2
    assert witness == frozenset({0, 2})  # lexicographically least optimum


def test_mis_lex_witness_prefers_small_indices():
    # star with centre 0: optimum is all leaves
    g = Graph(5, [(0, i) for i in range(1, 5)])
    size, witness = max_independent_set_bruteforce(g)
    assert size == 4
    assert witness == frozenset({1, 2, 3, 4})
    # 0 has one neighbour, so {0, 2} comes before any set that leaves 0 out
    assert max_independent_set_bruteforce(path(4)) == (2, frozenset({0, 2}))
    # an isolated 0 is taken beside the least vertex of the triangle
    g = Graph(4, [(1, 2), (1, 3), (2, 3)])
    assert max_independent_set_bruteforce(g) == (2, frozenset({0, 1}))


def test_mis_engine_takes_isolated_vertices_without_recursion():
    start = time.perf_counter()
    size, witness = graphs._mis_lex_witness([0] * 3000, 3000)
    assert time.perf_counter() - start < 0.1
    assert (size, witness) == (3000, tuple(range(3000)))


def test_mis_matches_naive_enumeration():
    rng = random.Random(1105)
    for trial in range(40):
        n = rng.randrange(1, 9)
        g = random_graph(n, rng.random(), seed=rng.randrange(10**6))
        size, witness = max_independent_set_bruteforce(g)
        assert size == naive_independent_sets(g)
        assert all(not g.has_edge(u, w) for u, w in combinations(sorted(witness), 2))
        assert len(witness) == size
        # the witness is the first maximum set in combinations order
        first = next(sub for sub in combinations(range(n), size)
                     if all(not g.has_edge(u, w) for u, w in combinations(sub, 2)))
        assert tuple(sorted(witness)) == first


def test_mis_cap():
    g = Graph(caps.MAX_IS_VERTICES + 1, [])
    with pytest.raises(CapExceeded) as err:
        max_independent_set_bruteforce(g)
    assert err.value.bound == "MAX_IS_VERTICES"


# ---------------------------------------------------------------------------
# induced matching oracle


def test_induced_matching_two_cliques_with_bridge_matching():
    # two K4 blocks joined by a perfect matching between them
    t = 4
    edges = []
    for u, w in combinations(range(t), 2):
        edges.append((u, w))
        edges.append((t + u, t + w))
    edges.extend((i, t + i) for i in range(t))
    h = Graph(2 * t, edges)
    size, m = max_induced_matching_bruteforce(h)
    assert size == 2
    assert is_induced_matching(h, m)

    cover = bipartite_double_cover(h)
    csize, cm = max_induced_matching_bruteforce(cover)
    assert csize >= t // 2
    assert is_induced_matching(cover, cm)


def test_double_cover_same_vertex_flag():
    # star K(1,3).  Every edge of the plain cover touches a copy of the
    # centre, so a matching there has at most 2 edges; with the same-vertex
    # pairs the leaves contribute one pair each.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    plain = bipartite_double_cover(g)
    flagged = bipartite_double_cover(g, include_same_vertex_edges=True)
    assert max_induced_matching_bruteforce(plain)[0] == 2
    assert max_induced_matching_bruteforce(flagged)[0] == 3
    assert (1, 1) in flagged.edges and (1, 1) not in plain.edges


def test_induced_matching_matches_naive():
    rng = random.Random(2211)
    for trial in range(30):
        n = rng.randrange(2, 8)
        g = random_graph(n, rng.random() * 0.7, seed=rng.randrange(10**6))
        size, m = max_induced_matching_bruteforce(g)
        assert size == naive_induced_matching(g)
    for trial in range(20):
        left = rng.randrange(1, 5)
        right = rng.randrange(1, 5)
        bg = random_bipartite(left, right, rng.random(), seed=rng.randrange(10**6))
        size, m = max_induced_matching_bruteforce(bg)
        assert size == naive_induced_matching(bg)
        assert is_induced_matching(bg, m)


def test_induced_matching_edge_cap():
    # complete graph on 24 vertices: inside the vertex cap, above the edge cap
    from itertools import combinations as combos

    g = Graph(24, list(combos(range(24), 2)))
    assert g.vertex_count <= caps.MAX_IS_VERTICES
    assert len(g.edges) > caps.MAX_IM_EDGES
    with pytest.raises(CapExceeded) as err:
        max_induced_matching_bruteforce(g)
    assert err.value.bound == "MAX_IM_EDGES"


def test_fixed_order_mode_is_capped_by_edges_only():
    # Sparse graph on 40 vertices: too many vertices for the induced oracle,
    # but fixed-order mode only enumerates edge subsets so it must accept it.
    n = 40
    g = Graph(n, [(i, i + 1) for i in range(0, n - 1, 2)])
    with pytest.raises(CapExceeded):
        max_induced_matching_bruteforce(g)
    size, m, _ = max_semi_induced_matching_bruteforce(g, identity_order(n))
    assert size == n // 2
    assert is_semi_induced_matching(g, identity_order(n), m)


def test_double_cover_size_and_degree():
    rng = random.Random(909)
    for trial in range(15):
        n = rng.randrange(2, 9)
        g = random_graph(n, rng.random() * 0.8, seed=rng.randrange(10**6))
        plain = bipartite_double_cover(g)
        flagged = bipartite_double_cover(g, include_same_vertex_edges=True)
        assert plain.left_count == plain.right_count == n
        for v in range(n):
            assert degree_left(plain, v) == degree(g, v)
            assert degree_left(flagged, v) == degree(g, v) + 1
        if g.edges:
            assert flagged.max_degree() == g.max_degree() + 1


def test_cover_induced_matching_at_most_doubled():
    rng = random.Random(910)
    for trial in range(12):
        left = rng.randrange(1, 5)
        right = rng.randrange(1, 5)
        bg = random_bipartite(left, right, rng.random(), seed=rng.randrange(10**6))
        base = max_induced_matching_bruteforce(bg)[0]
        cover = bipartite_double_cover(bipartite_to_graph(bg))
        assert max_induced_matching_bruteforce(cover)[0] <= 2 * base


# ---------------------------------------------------------------------------
# semi-induced oracle, fixed order and all orders


def test_semi_induced_fixed_order_on_four_path():
    g = path(4)
    size, m, _ = max_semi_induced_matching_bruteforce(g, identity_order(4))
    assert size == 2
    assert m == Matching([(0, 1), (2, 3)])
    # the bad order only admits one edge from {ab, cd}... but bc alone is
    # also an option; either way the maximum is 1 less than before only if
    # no 2-matching works.  For sigma = b,a,c,d the pair {ab, cd} fails but
    # {ab} extended by nothing else of size 2 exists; check exhaustively.
    size_bad, m_bad, _ = max_semi_induced_matching_bruteforce(
        g, VertexOrder.from_sequence([1, 0, 2, 3])
    )
    assert size_bad == 1


def test_semi_induced_all_orders_four_path():
    g = path(4)
    size, m, order = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
    assert size == 2
    assert is_semi_induced_matching(g, order, m)


def test_semi_induced_sandwich_random():
    # induced <= semi-induced(sigma) <= semi-induced(all) for every sigma
    rng = random.Random(3307)
    for trial in range(25):
        n = rng.randrange(2, 7)
        g = random_graph(n, rng.random() * 0.8, seed=rng.randrange(10**6))
        im, _ = max_induced_matching_bruteforce(g)
        all_size, _, _ = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
        assert im <= all_size
        perm = list(range(n))
        rng.shuffle(perm)
        fixed, _, _ = max_semi_induced_matching_bruteforce(g, VertexOrder.from_sequence(perm))
        assert im <= fixed <= all_size


def test_semi_induced_all_orders_equals_max_over_permutations():
    rng = random.Random(4409)
    for trial in range(12):
        n = rng.randrange(2, 6)
        g = random_graph(n, rng.random() * 0.8, seed=rng.randrange(10**6))
        all_size, _, _ = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
        best = 0
        for perm in permutations(range(n)):
            fixed, _, _ = max_semi_induced_matching_bruteforce(
                g, VertexOrder.from_sequence(perm)
            )
            best = max(best, fixed)
        assert all_size == best


def test_semi_induced_all_orders_bipartite_matches_permutations():
    rng = random.Random(5501)
    for trial in range(12):
        left = rng.randrange(1, 5)
        right = rng.randrange(1, 5)
        bg = random_bipartite(left, right, rng.random(), seed=rng.randrange(10**6))
        all_size, m, order = max_semi_induced_matching_bruteforce(bg, ALL_ORDERS)
        assert is_semi_induced_matching(bg, order, m)
        best = 0
        for perm in permutations(range(left)):
            fixed, _, _ = max_semi_induced_matching_bruteforce(
                bg, VertexOrder.from_sequence(perm)
            )
            best = max(best, fixed)
        assert all_size == best
        assert all_size == max_expanding_sequence(bg, cutoff=left + right + 1)


def test_semi_induced_all_orders_cap():
    g = Graph(caps.MAX_ALL_ORDER_VERTICES + 1, [])
    with pytest.raises(CapExceeded) as err:
        max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
    assert err.value.bound == "MAX_ALL_ORDER_VERTICES"


def test_expanding_sequence_cutoff():
    bg = perfect_matching_bipartite(6)
    assert max_expanding_sequence(bg, cutoff=3) == 3
    assert max_expanding_sequence(bg, cutoff=100) == 6
    assert max_expanding_sequence(bg, cutoff=0) == 0


def test_fixed_expanding_sequence_matches_subset_oracle():
    rng = random.Random(7718)
    for trial in range(50):
        left = rng.randrange(1, 6)
        right = rng.randrange(1, 6)
        bg = random_bipartite(left, right, rng.random(), seed=rng.randrange(10**6))
        perm = list(range(left))
        rng.shuffle(perm)
        order = VertexOrder.from_sequence(perm)
        want = max_semi_induced_matching_bruteforce(bg, order)[0]
        assert max_expanding_sequence_fixed(bg, order, cutoff=left + 1) == want
        assert max_expanding_sequence_fixed(bg, order, cutoff=1) == min(want, 1)
    assert max_expanding_sequence_fixed(perfect_matching_bipartite(3), identity_order(3), 0) == 0
    with pytest.raises(InputError):
        max_expanding_sequence_fixed(perfect_matching_bipartite(3), identity_order(2), 5)


def test_fixed_expanding_never_exceeds_all_order_maximum():
    rng = random.Random(7719)
    for trial in range(20):
        n = rng.randrange(2, 6)
        bg = random_bipartite(n, n, rng.random(), seed=rng.randrange(10**6))
        ceiling = max_expanding_sequence(bg, cutoff=n + 1)
        perm = list(range(n))
        rng.shuffle(perm)
        got = max_expanding_sequence_fixed(bg, VertexOrder.from_sequence(perm), cutoff=n + 1)
        assert got <= ceiling


# ---------------------------------------------------------------------------
# balanced independence


def test_balanced_independence_perfect_matching():
    # n disjoint edges: picking k lefts covers k rights, leaving n-k free;
    # need n-k >= k, so the answer is floor(n/2)
    assert balanced_bipartite_independence_bruteforce(perfect_matching_bipartite(4)) == 2
    assert balanced_bipartite_independence_bruteforce(perfect_matching_bipartite(5)) == 2
    assert balanced_bipartite_independence_bruteforce(perfect_matching_bipartite(6)) == 3


def test_balanced_independence_complete_and_empty():
    full = BipartiteGraph(3, 3, [(u, w) for u in range(3) for w in range(3)])
    assert balanced_bipartite_independence_bruteforce(full) == 0
    empty = BipartiteGraph(3, 4, [])
    assert balanced_bipartite_independence_bruteforce(empty) == 3


def test_balanced_independence_at_least_half_induced_matching():
    rng = random.Random(6603)
    for trial in range(25):
        left = rng.randrange(1, 6)
        right = rng.randrange(1, 6)
        bg = random_bipartite(left, right, rng.random() * 0.6, seed=rng.randrange(10**6))
        im, _ = max_induced_matching_bruteforce(bg)
        bbis = balanced_bipartite_independence_bruteforce(bg)
        assert bbis >= im // 2


def test_balanced_independence_cap():
    bg = BipartiteGraph(11, 10, [])
    with pytest.raises(CapExceeded):
        balanced_bipartite_independence_bruteforce(bg)


# ---------------------------------------------------------------------------
# generators


def test_random_generators_are_seeded():
    assert random_graph(8, 0.5, seed=7) == random_graph(8, 0.5, seed=7)
    assert random_bipartite(5, 6, 0.4, seed=9) == random_bipartite(5, 6, 0.4, seed=9)
    assert random_graph(8, 0.5, seed=7) != random_graph(8, 0.5, seed=8)


def test_bipartite_to_graph_offsets():
    bg = BipartiteGraph(2, 2, [(0, 1), (1, 0)])
    g = bipartite_to_graph(bg)
    assert g.vertex_count == 4
    assert g.edges == frozenset({(0, 3), (1, 2)})


def test_bipartite_to_graph_equals_validated_construction():
    rng = random.Random(4771)
    for left in range(0, 6):
        for right in range(0, 6):
            for p in (0.0, 0.3, 0.7, 1.0):
                bg = random_bipartite(left, right, p, seed=rng.randrange(10**6))
                want = Graph(left + right, [(u, left + w) for u, w in bg.edges])
                got = bipartite_to_graph(bg)
                assert got.vertex_count == want.vertex_count
                assert got.edges == want.edges
                assert got._adj == want._adj


# ---------------------------------------------------------------------------
# the mask representation against validated edge lists


@st.composite
def edge_lists(draw):
    """(n, pairs, left, right, bipartite pairs, colours, r): a general edge
    list on n vertices with repeats and both orientations; a bipartite one
    drawn as left rows of neighbour bits, so that dense rights occur, then
    shuffled with repeats; two-colour left colours and a class count."""
    n = draw(st.integers(0, 9))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=40))
    left = draw(st.integers(0, 12))
    right = draw(st.integers(0, 6))
    rows = draw(st.lists(st.integers(0, 2**right - 1), min_size=left, max_size=left))
    bip_pairs = [(u, w) for u, row in enumerate(rows) for w in range(right) if row >> w & 1]
    if bip_pairs:
        repeats = draw(st.lists(st.sampled_from(bip_pairs), max_size=10))
        bip_pairs = draw(st.permutations(bip_pairs + repeats))
    colours = draw(st.lists(st.integers(1, 2), min_size=left, max_size=left))
    return n, pairs, left, right, bip_pairs, colours, draw(st.integers(1, 4))


def transpose(bg):
    """The right masks of bg, read edge by edge off its left masks."""
    right = [0] * bg.right_count
    for u in range(bg.left_count):
        for w in range(bg.right_count):
            if bg.has_edge(u, w):
                right[w] |= 1 << u
    return tuple(right)


def assert_same_graph(got, want):
    """Equal, equal hashes, and (for bipartite graphs) right masks that are
    the transpose of the left masks on both sides."""
    assert got == want
    assert hash(got) == hash(want)
    if isinstance(want, BipartiteGraph):
        assert got._right_adj == transpose(got) == want._right_adj == transpose(want)


@settings(max_examples=80, deadline=2000)
@given(edge_lists())
@example(  # right 0 has 9 = T(16) neighbours of colour 1, so the filter drops it
    (3, [(0, 1), (1, 0), (2, 1)], 10, 3,
     [(u, 0) for u in range(10)] + [(u, 1) for u in range(0, 10, 2)] + [(0, 0)], [1] * 9 + [2], 3)
)
def test_masks_match_the_validated_edge_list(case):
    n, pairs, left, right, bip_pairs, colours, r = case

    g = Graph(n, pairs)
    assert g.edges == {(min(u, w), max(u, w)) for u, w in pairs}
    assert g.sorted_edges() == sorted(g.edges)
    assert g.edge_count() == len(g.edges)
    assert_same_graph(Graph.from_json(g.to_json()), g)
    assert_same_graph(Graph(n, [(w, u) for u, w in reversed(pairs)]), g)
    both_ways = [e for u, w in g.edges for e in ((u, w), (w, u))]
    assert_same_graph(bipartite_double_cover(g), BipartiteGraph(n, n, both_ways))
    assert_same_graph(
        bipartite_double_cover(g, include_same_vertex_edges=True),
        BipartiteGraph(n, n, both_ways + [(v, v) for v in range(n)]),
    )

    bg = BipartiteGraph(left, right, bip_pairs)
    assert bg.edges == set(bip_pairs)
    assert bg.sorted_edges() == sorted(bg.edges)
    assert bg.edge_count() == len(bg.edges)
    assert_same_graph(BipartiteGraph.from_json(bg.to_json()), bg)
    assert_same_graph(BipartiteGraph(left, right, reversed(bip_pairs)), bg)
    assert_same_graph(
        bipartite_to_graph(bg), Graph(left + right, [(u, left + w) for u, w in bip_pairs])
    )

    # congestion filter, with the crowded rights counted here edge by edge
    d = 16
    crowded = tuple(
        w for w in range(right)
        if max([sum(1 for u, x in bg.edges if x == w and colours[u] == c) for c in (1, 2)])
        >= congestion_threshold(d)
    )
    high, pruned = congestion_filter(bg, Coloring(colours, d), d)
    assert high == crowded
    assert_same_graph(
        pruned, BipartiteGraph(left, right, [(u, w) for u, w in bip_pairs if w not in crowded])
    )

    # the residue-class subgraphs the r-block approximation solves
    flipped = right < left
    work_edges = [(w, u) for u, w in bg.edges] if flipped else bg.edges
    classes = round_robin_blocks(right if flipped else left, r)
    with mock.patch.object(
        matching_solvers,
        "_side_maximum_pairs",
        wraps=matching_solvers._side_maximum_pairs,
    ) as solve:
        block_optima_bipartite(bg, r)
    assert len(solve.call_args_list) == len(classes)
    for lefts, call in zip(classes, solve.call_args_list):
        want = BipartiteGraph(
            len(lefts),
            left if flipped else right,
            [(i, w) for i, u in enumerate(lefts) for x, w in work_edges if x == u],
        )
        assert call.args[0] == [want.left_mask(i) for i in range(want.left_count)]


def test_graphs_are_built_in_one_pass():
    """Each constructor sets both sides' masks as it reads or samples the
    edges, so none reads a finished mask back bit by bit: graphs.bit_indices,
    which a transpose after the fact would call, is never called."""
    disp_json = random_disperser(9, 3, seed=4).to_json()
    # right 0 has 10 = T(16) + 1 neighbours of colour 1, so the filter drops it
    edges = [(u, 0) for u in range(10)] + [(u, 1) for u in range(0, 10, 3)] + [(2, 2)]
    with mock.patch.object(graphs, "bit_indices", wraps=graphs.bit_indices) as reads:
        bg = BipartiteGraph(10, 4, edges)
        high, pruned = congestion_filter(bg, Coloring([1] * 10, 16), 16)
        built = [bg, pruned, DisperserGraph.from_json(disp_json), random_disperser(9, 3, seed=4)]
    assert reads.call_count == 0
    assert high == (0,) and pruned.edge_count() == 5
    for g in built:
        assert g._right_adj == transpose(g)


def test_witness_check_survives_python_O():
    """Under python -O an assert would vanish; the post-condition still raises."""
    script = (
        "from matchprice import graphs\n"
        "from matchprice.errors import InvariantViolation\n"
        "graphs.is_induced_matching = lambda g, m: False\n"
        "try:\n"
        "    graphs.max_induced_matching_bruteforce(graphs.Graph(2, [(0, 1)]))\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    src = str(Path(graphs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False max_induced_matching_bruteforce: ")
