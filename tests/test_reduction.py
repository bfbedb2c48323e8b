"""Coloring, congestion filtering, the pricing construction, and extraction."""

import random
from fractions import Fraction

import pytest

from matchprice import verify
from matchprice.errors import InputError
from matchprice.graphs import (
    ALL_ORDERS,
    BipartiteGraph,
    Matching,
    is_semi_induced_matching,
    max_induced_matching_bruteforce,
    max_semi_induced_matching_bruteforce,
    random_bipartite,
)
from matchprice.pricing import (
    SMP,
    UDP,
    PriceFunction,
    evaluate_revenue,
    opt_smp_bruteforce,
    opt_udp_bruteforce,
)
from matchprice.rationals import INF
from matchprice.reduction import (
    Coloring,
    build_pricing_instance,
    color_left,
    congestion_filter,
    congestion_threshold,
    extract_semi_induced_matching,
    extract_with_stats,
    matching_to_prices,
    reduce_full,
)

F = Fraction


def bounded_random_bipartite(rng, max_side=6, max_degree=4):
    """Rejection-sample a bipartite graph with max degree <= max_degree."""
    while True:
        left = rng.randrange(1, max_side + 1)
        right = rng.randrange(1, max_side + 1)
        g = random_bipartite(left, right, rng.random() * 0.45, seed=rng.randrange(10**6))
        if g.edges and g.max_degree() <= max_degree:
            return g


# ---------------------------------------------------------------------------
# threshold and coloring


def test_congestion_threshold_values():
    assert congestion_threshold(3) == 36
    assert congestion_threshold(4) == 13
    assert congestion_threshold(16) == 9
    with pytest.raises(InputError):
        congestion_threshold(2)


def test_coloring_validation():
    Coloring([1, 3, 2], 3)
    with pytest.raises(InputError):
        Coloring([0, 1], 3)
    with pytest.raises(InputError):
        Coloring([1, 4], 3)


def test_color_left_deterministic_and_in_range():
    g = random_bipartite(8, 8, 0.3, seed=4)
    a = color_left(g, 5, seed=11)
    b = color_left(g, 5, seed=11)
    c = color_left(g, 5, seed=12)
    assert a == b and a != c
    assert len(a) == 8
    assert all(1 <= a[u] <= 5 for u in range(8))


def test_color_left_rejects_bad_input():
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(InputError):
        color_left(g, 2, seed=0)  # d below 3
    star = BipartiteGraph(1, 5, [(0, w) for w in range(5)])
    with pytest.raises(InputError):
        color_left(star, 4, seed=0)  # degree 5 > d


def test_color_marginals_roughly_uniform():
    g = BipartiteGraph(10000, 1, [])
    coloring = color_left(g, 3, seed=23)
    counts = [
        [u for u, c in enumerate(coloring.colors) if c == color] for color in (1, 2, 3)
    ]
    expected = 10000 / 3
    sigma = (10000 * (1 / 3) * (2 / 3)) ** 0.5
    for member_list in counts:
        assert abs(len(member_list) - expected) <= 3 * sigma


# ---------------------------------------------------------------------------
# congestion filter


def test_filter_keeps_low_degree_graphs():
    g = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
    coloring = Coloring([1, 1, 1], 4)
    high, pruned = congestion_filter(g, coloring, 4)
    assert high == ()
    assert pruned.edges == g.edges


def test_filter_removes_crowded_right_vertex():
    # d=16 has threshold 9: nine same-colored neighbors trip it, eight do not
    t = congestion_threshold(16)
    assert t == 9
    edges = [(u, 0) for u in range(9)] + [(u, 1) for u in range(8)]
    g = BipartiteGraph(9, 2, edges)
    coloring = Coloring([2] * 9, 16)
    high, pruned = congestion_filter(g, coloring, 16)
    assert high == (0,)
    assert pruned.right_count == 2
    assert all(v != 0 for _, v in pruned.edges)
    assert pruned.degree_right(1) == 8


def test_filter_mixed_colors_do_not_trip():
    edges = [(u, 0) for u in range(9)]
    g = BipartiteGraph(9, 1, edges)
    coloring = Coloring([1 + (u % 3) for u in range(9)], 16)  # three per color
    high, pruned = congestion_filter(g, coloring, 16)
    assert high == ()
    assert pruned.edges == g.edges


# ---------------------------------------------------------------------------
# instance construction


def test_build_single_edge_frozen():
    g = BipartiteGraph(1, 1, [(0, 0)])
    out = build_pricing_instance(g, Coloring([1], 3), 3)
    assert out.instance.item_count == 1
    assert len(out.instance.groups) == 1
    group = out.instance.groups[0]
    assert group.budget == F(1, 27)
    assert group.multiplicity == 27
    assert group.bundle == frozenset({0})
    assert out.right_of_item == (0,)
    assert out.group_of_left_vertex == {0: 0}


def test_build_drops_isolated_vertices():
    g = BipartiteGraph(3, 3, [(0, 1)])
    out = build_pricing_instance(g, Coloring([1, 2, 3], 3), 3)
    assert out.instance.item_count == 1
    assert out.right_of_item == (1,)
    assert sorted(out.group_of_left_vertex) == [0]


def test_build_budget_multiplicity_product():
    rng = random.Random(90)
    for trial in range(15):
        g = bounded_random_bipartite(rng)
        coloring = color_left(g, 4, seed=rng.randrange(10**6))
        out = build_pricing_instance(g, coloring, 4)
        for group in out.instance.groups:
            assert group.budget * group.multiplicity == 1
        assert out.instance.k <= 4


def test_build_refuses_edgeless_graph():
    g = BipartiteGraph(2, 2, [])
    with pytest.raises(InputError):
        build_pricing_instance(g, Coloring([1, 1], 3), 3)


# ---------------------------------------------------------------------------
# completeness: matching to prices


def test_prices_from_single_edge_matching():
    g = BipartiteGraph(1, 1, [(0, 0)])
    out = build_pricing_instance(g, Coloring([2], 3), 3)
    m = Matching([(0, 0)])
    for rule in (UDP, SMP):
        p = matching_to_prices(out, m, rule)
        assert evaluate_revenue(out.instance, rule, p).revenue >= 1


def test_prices_reject_non_induced_matching():
    # path u0-v0, u1-v0, u1-v1: edges (0,0) and (1,1) are a matching but
    # the host edge (1,0) joins them, so it is not induced
    g = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    out = build_pricing_instance(g, Coloring([1, 2], 3), 3)
    with pytest.raises(InputError):
        matching_to_prices(out, Matching([(0, 0), (1, 1)]), UDP)


def test_completeness_revenue_at_least_matching_size():
    rng = random.Random(91)
    for trial in range(25):
        g = bounded_random_bipartite(rng)
        coloring = color_left(g, 4, seed=rng.randrange(10**6))
        out = build_pricing_instance(g, coloring, 4)
        assert verify.completeness_revenue((g, out)) is None


# ---------------------------------------------------------------------------
# soundness: extraction


def test_extract_empty_on_all_inf():
    g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    out = build_pricing_instance(g, Coloring([1, 2], 3), 3)
    m, order = extract_semi_induced_matching(
        out, PriceFunction([INF] * out.instance.item_count), UDP
    )
    assert len(m) == 0
    assert len(order.ranks) == 2


def test_extract_from_structured_prices():
    rng = random.Random(92)
    for trial in range(20):
        g = bounded_random_bipartite(rng)
        coloring = color_left(g, 4, seed=rng.randrange(10**6))
        out = build_pricing_instance(g, coloring, 4)
        size, m = max_induced_matching_bruteforce(g)
        threshold = congestion_threshold(4)
        for rule in (UDP, SMP):
            p = matching_to_prices(out, m, rule)
            got, order, stats = extract_with_stats(out, p, rule)
            assert is_semi_induced_matching(g, order, got)
            assert F(len(got)) >= F(size, threshold)
            assert stats["max_removed_by_one"] <= threshold - 1
            assert stats["cleanup_removed"] == 0


def test_extract_from_oracle_prices():
    rng = random.Random(93)
    conditional_checked = 0
    for trial in range(12):
        g = bounded_random_bipartite(rng, max_side=5)
        coloring = color_left(g, 4, seed=rng.randrange(10**6))
        out = build_pricing_instance(g, coloring, 4)
        im_size, _ = max_induced_matching_bruteforce(g)
        groups = len(out.instance.groups)
        threshold = congestion_threshold(4)
        for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
            opt, prices = oracle(out.instance)
            got, order, stats = extract_with_stats(out, prices, rule)
            assert is_semi_induced_matching(g, order, got)
            assert stats["max_removed_by_one"] <= threshold - 1
            if stats["tight_count"]:
                assert F(len(got)) >= F(stats["tight_count"], threshold)
            if F(im_size) >= F(groups, 2 * 4):
                conditional_checked += 1
                assert 2 * stats["tight_revenue"] >= stats["revenue"]
    assert conditional_checked > 5


def test_sigma_orders_by_color():
    g = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
    out = build_pricing_instance(g, Coloring([3, 1, 2], 3), 3)
    p = PriceFunction([F(1, 27**1)] * 3)
    _, order_udp = extract_semi_induced_matching(out, p, UDP)
    assert order_udp.sequence() == [1, 2, 0]  # colors 1, 2, 3
    p0 = PriceFunction([F(0)] * 3)
    _, order_smp = extract_semi_induced_matching(out, p0, SMP)
    assert order_smp.sequence() == [0, 2, 1]  # colors 3, 2, 1


# ---------------------------------------------------------------------------
# full reduction and the sandwich


def test_reduce_full_single_edge():
    g = BipartiteGraph(1, 1, [(0, 0)])
    out = reduce_full(g, 4, seed=5, rule=UDP)
    assert out.instance.item_count == 1
    assert len(out.instance.groups) == 1
    assert out.removed_rights == ()
    assert out.seed == 5 and out.rule == UDP
    obj = out.to_json()
    assert obj["d"] == 4 and obj["instance"]["rule"] == UDP


def test_reduce_full_deterministic():
    g = bounded_random_bipartite(random.Random(77))
    a = reduce_full(g, 4, seed=3, rule=SMP)
    b = reduce_full(g, 4, seed=3, rule=SMP)
    assert a.instance == b.instance
    assert a.coloring == b.coloring


def test_sandwich_on_all_order_oracle_scale():
    rng = random.Random(94)
    checked = 0
    for trial in range(10):
        g = bounded_random_bipartite(rng, max_side=5, max_degree=3)
        if g.left_count + g.right_count > 10:
            continue
        out = reduce_full(g, 3, seed=rng.randrange(10**6), rule=UDP)
        im_size, _ = max_induced_matching_bruteforce(out.graph)
        sim_size, _, _ = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
        for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
            opt, _ = oracle(out.instance)
            assert opt >= im_size
            # 6 ln 3 / ln ln 3 is about 70; desk instances sit far under it
            assert float(opt) <= (6 * 1.0986 / 0.09405) * max(sim_size, 0) or sim_size == 0
        checked += 1
    assert checked >= 4