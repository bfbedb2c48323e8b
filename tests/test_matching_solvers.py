"""Exact bipartite solver vs. the generic oracle, and r-block guarantees."""

import math
import random
from itertools import combinations, product

import pytest

from matchprice import caps, matching_solvers
from matchprice.errors import CapExceeded, InputError
from matchprice.graphs import (
    BipartiteGraph,
    Graph,
    Matching,
    is_induced_matching,
    max_induced_matching_bruteforce,
    random_bipartite,
    random_graph,
)
from matchprice.matching_solvers import (
    approx_induced_matching_bipartite,
    approx_induced_matching_general,
    bit_indices,
    block_optima_bipartite,
    block_optima_general,
    exact_bipartite_induced_matching,
    round_robin_blocks,
)


def test_bit_indices():
    assert list(bit_indices(0)) == []
    assert list(bit_indices(0b101001)) == [0, 3, 5]


def test_round_robin_blocks():
    assert round_robin_blocks(7, 3) == [[0, 3, 6], [1, 4], [2, 5]]
    assert round_robin_blocks(4, 1) == [[0, 1, 2, 3]]
    assert round_robin_blocks(0, 2) == [[], []]
    with pytest.raises(InputError):
        round_robin_blocks(5, 0)


def test_exact_on_disjoint_edges():
    n = 20
    bg = BipartiteGraph(n, n, [(i, i) for i in range(n)])
    size, m = exact_bipartite_induced_matching(bg)
    assert size == n
    assert sorted(m) == [(i, i) for i in range(n)]


def test_exact_on_complete_bipartite():
    bg = BipartiteGraph(3, 3, [(u, w) for u in range(3) for w in range(3)])
    size, m = exact_bipartite_induced_matching(bg)
    assert size == 1
    assert sorted(m) == [(0, 0)]


def test_exact_matches_oracle_on_random_graphs():
    rng = random.Random(7701)
    done = 0
    while done < 60:
        left = rng.randrange(1, 9)
        right = rng.randrange(1, 9)
        bg = random_bipartite(left, right, rng.random(), seed=rng.randrange(10**6))
        if len(bg.edges) > caps.MAX_IM_EDGES:
            continue
        done += 1
        size, m = exact_bipartite_induced_matching(bg)
        oracle_size, _ = max_induced_matching_bruteforce(bg)
        assert size == oracle_size
        assert is_induced_matching(bg, m)
        assert len(m) == size


def test_exact_transposes_wide_graphs():
    # 25 lefts, 3 rights: the scan must run on the right side
    rng = random.Random(11)
    edges = [(u, w) for u in range(25) for w in range(3) if rng.random() < 0.3]
    wide = BipartiteGraph(25, 3, edges)
    tall = BipartiteGraph(3, 25, [(w, u) for u, w in edges])
    assert exact_bipartite_induced_matching(wide)[0] == exact_bipartite_induced_matching(tall)[0]
    size, m = exact_bipartite_induced_matching(wide)
    assert is_induced_matching(wide, m)


def brute_force_witness(bg):
    """Try every subset of the smaller side, largest first and each size in
    lexicographic order: the first whose members each keep a private
    neighbour, each paired with its least-index private neighbour."""
    flipped = bg.right_count < bg.left_count
    side = bg.right_count if flipped else bg.left_count
    nbrs = [bg.right_mask(v) if flipped else bg.left_mask(v) for v in range(side)]
    for size in range(side, -1, -1):
        for subset in combinations(range(side), size):
            pairs = []
            for i in subset:
                private = nbrs[i]
                for j in subset:
                    if j != i:
                        private &= ~nbrs[j]
                if not private:
                    break
                v = bit_indices(private)[0]
                pairs.append((v, i) if flipped else (i, v))
            else:
                return size, Matching(sorted(pairs))


def test_exact_returns_least_maximum_set_and_least_privates():
    rng = random.Random(2002)
    graphs = [
        BipartiteGraph(6, 5, []),
        # lefts 0, 2 and 5 are isolated: none of them may enter the witness
        BipartiteGraph(6, 7, [(1, 0), (1, 1), (3, 1), (3, 2), (4, 3)]),
        BipartiteGraph(8, 8, product(range(8), range(8))),
        # 13 lefts and 5 rights: the scan runs over the rights
        BipartiteGraph(13, 5, [(w, u) for u, w in random_bipartite(5, 13, 0.3, seed=6).edges]),
    ]
    for left in range(9):
        for right in range(9):
            for _ in range(3):
                density = [rng.choice((0, 0.2, 0.4, 0.7)) for _ in range(left)]
                graphs.append(BipartiteGraph(left, right, [
                    (u, w) for u in range(left) for w in range(right) if rng.random() < density[u]
                ]))
    for bg in graphs:
        assert exact_bipartite_induced_matching(bg) == brute_force_witness(bg), bg.to_json()
    assert exact_bipartite_induced_matching(graphs[0]) == (0, Matching([]))
    assert exact_bipartite_induced_matching(graphs[1]) == (3, Matching([(1, 0), (3, 2), (4, 3)]))


def test_exact_side_cap():
    n = caps.MAX_EXACT_SIDE + 1
    bg = BipartiteGraph(n, n, [])
    with pytest.raises(CapExceeded) as err:
        exact_bipartite_induced_matching(bg)
    assert err.value.bound == "MAX_EXACT_SIDE"


def test_approx_bipartite_guarantee_and_block_sum():
    rng = random.Random(8802)
    for trial in range(25):
        left = rng.randrange(1, 9)
        right = rng.randrange(1, 9)
        bg = random_bipartite(left, right, rng.random() * 0.7, seed=rng.randrange(10**6))
        opt, _ = exact_bipartite_induced_matching(bg)
        for r in (1, 2, 3):
            size, m = approx_induced_matching_bipartite(bg, r)
            assert size >= math.ceil(opt / r)
            assert size <= opt
            assert is_induced_matching(bg, m)
            assert sum(s for s, _ in block_optima_bipartite(bg, r)) >= opt
        assert approx_induced_matching_bipartite(bg, 1)[0] == opt


def test_approx_bipartite_single_vertex_blocks():
    bg = random_bipartite(5, 7, 0.5, seed=3)
    assert bg.edges
    size, m = approx_induced_matching_bipartite(bg, 5)
    assert size == 1
    assert len(m) == 1


def test_approx_general_guarantee_and_block_sum():
    rng = random.Random(9903)
    for trial in range(25):
        n = rng.randrange(2, 9)
        g = random_graph(n, rng.random() * 0.5, seed=rng.randrange(10**6))
        opt, _ = max_induced_matching_bruteforce(g)
        for r in (1, 2, 3):
            size, m = approx_induced_matching_general(g, r)
            assert size >= math.ceil(opt / r)
            assert size <= opt
            assert is_induced_matching(g, m)
            assert sum(s for s, _ in block_optima_general(g, r)) >= opt
        assert approx_induced_matching_general(g, 1)[0] == opt


def test_approx_general_triangle_and_singletons():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert approx_induced_matching_general(triangle, 1)[0] == 1
    assert approx_induced_matching_general(triangle, 3)[0] == 1


def test_approx_not_monotone_in_r():
    # r=2 classes {0,2} and {1,3} each trap a pair with no private
    # neighbours, while r=3 isolates the one compatible pair {0, 3}:
    # refining the partition can help, so only result(1) >= result(r) holds.
    bg = BipartiteGraph(
        4, 4, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1)]
    )
    assert exact_bipartite_induced_matching(bg)[0] == 2
    assert approx_induced_matching_bipartite(bg, 2)[0] == 1
    assert approx_induced_matching_bipartite(bg, 3)[0] == 2


def test_approx_general_work_cap():
    g = Graph(12, [(u, w) for u in range(12) for w in range(u + 1, 12)])
    with pytest.raises(CapExceeded) as err:
        approx_induced_matching_general(g, 1)
    assert err.value.bound == "MAX_BLOCK_WORK"


def test_approx_rejects_bad_r():
    bg = BipartiteGraph(2, 2, [(0, 0)])
    with pytest.raises(InputError):
        approx_induced_matching_bipartite(bg, 0)
    with pytest.raises(InputError):
        approx_induced_matching_general(Graph(2, [(0, 1)]), -1)


def test_exact_moderate_dense_instance():
    bg = random_bipartite(12, 12, 0.4, seed=424242)
    assert len(bg.edges) <= caps.MAX_IM_EDGES
    size, m = exact_bipartite_induced_matching(bg)
    oracle_size, _ = max_induced_matching_bruteforce(bg)
    assert size == oracle_size
    assert is_induced_matching(bg, m)


def test_approx_scans_no_class_past_the_side(monkeypatch):
    # r past the scanned side only adds empty classes; the answer is that of
    # the full length-r class list, from at most max(side, 1) classes
    scanned = []

    def recording_blocks(n, r):
        scanned.append(r)
        return round_robin_blocks(n, r)

    monkeypatch.setattr(matching_solvers, "round_robin_blocks", recording_blocks)
    rng = random.Random(6029)
    for _ in range(12):
        bg = random_bipartite(rng.randrange(0, 7), rng.randrange(0, 7), 0.5, rng.randrange(10**6))
        g = random_graph(rng.randrange(0, 7), 0.5, rng.randrange(10**6))
        for graph, side, approx, blocks in (
            (bg, min(bg.left_count, bg.right_count),
             approx_induced_matching_bipartite, block_optima_bipartite),
            (g, g.vertex_count, approx_induced_matching_general, block_optima_general),
        ):
            for r in (side, side + 3, 1000):
                if r < 1:
                    continue
                want = max(blocks(graph, r), key=lambda block: block[0])
                scanned.clear()
                assert approx(graph, r) == want
                assert scanned == [min(r, max(side, 1))]
