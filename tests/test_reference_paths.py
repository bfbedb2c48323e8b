"""The search engines against the straightforward searches they replaced.

Each reference below is the earlier implementation, kept verbatim in
behaviour: the depth-first "one incident edge or nothing" search for the
general r-approximation classes, the all-orders enumeration with its
per-kind feasibility tests, the matching checkers and conflict builders
with one branch per graph kind, the pair-by-pair re-derivation of the edges
disperser_replace keeps, the hand-written best-so-far loops of the
pricing algorithms, the r-approximations and the max-sat oracle, and the
Fraction revenue search that scored every candidate price vector with
evaluate_revenue.  The engines must return the same values and the same
witnesses on every seeded input, and refuse the same inputs.
"""

import heapq
import random
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter

import pytest

from matchprice import caps, pricing, ratlp
from matchprice.csp_fglss import (
    CspInstance,
    disperser_replace,
    fglss_build,
    gap_amplify,
    max_sat_bruteforce,
    random_balanced_csp,
    random_csp,
    variable_sides,
)
from matchprice.disperser import random_disperser
from matchprice.errors import CapExceeded, InputError
from matchprice.graphs import (
    ALL_ORDERS,
    BipartiteGraph,
    Graph,
    Matching,
    VertexOrder,
    _mis_lex_witness,
    is_induced_matching,
    is_semi_induced_matching,
    max_induced_matching_bruteforce,
    max_semi_induced_matching_bruteforce,
    random_bipartite,
    random_graph,
)
from matchprice.matching_solvers import (
    approx_induced_matching_bipartite,
    approx_induced_matching_general,
    bit_indices,
    block_optima_bipartite,
    block_optima_general,
    round_robin_blocks,
)
from matchprice.pricing import (
    RULES,
    SMP,
    UDP,
    ZERO,
    Group,
    PriceFunction,
    PricingInstance,
    approximation_scheme,
    check_rule,
    evaluate_revenue,
    extend_prices,
    geometric_enum_approx,
    geometric_price_set,
    opt_smp_bruteforce,
    opt_udp_bruteforce,
    partition_items,
    scheme_breakpoints,
    uniform_price_approx,
)
from matchprice.rationals import INF, is_infinite

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
# matching rules: one branch per graph kind in every checker and conflict
# builder


def ref_checked_pairs(g, m):
    """Range-check matching endpoints against g; raises InputError."""
    pairs = []
    if isinstance(g, BipartiteGraph):
        for u, w in m:
            if not (0 <= u < g.left_count and 0 <= w < g.right_count):
                raise InputError(f"matching edge ({u}, {w}) out of range")
            pairs.append((u, w))
    else:
        for u, w in m:
            if not (0 <= u < g.vertex_count and 0 <= w < g.vertex_count) or u == w:
                raise InputError(f"matching edge ({u}, {w}) out of range")
            pairs.append((u, w))
    return pairs


def ref_is_matching_in(g, pairs):
    used = set()
    for u, w in pairs:
        if not g.has_edge(u, w):
            return False
    if isinstance(g, BipartiteGraph):
        for u, w in pairs:
            if ("L", u) in used or ("R", w) in used:
                return False
            used.add(("L", u))
            used.add(("R", w))
    else:
        for u, w in pairs:
            if u in used or w in used:
                return False
            used.add(u)
            used.add(w)
    return True


def ref_is_induced_matching(g, m):
    """True iff m is a matching in g and no g-edge joins two distinct m-edges."""
    pairs = ref_checked_pairs(g, m)
    if not ref_is_matching_in(g, pairs):
        return False
    bip = isinstance(g, BipartiteGraph)
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            if i == j:
                continue
            u_i, w_i = pairs[i]
            u_j, w_j = pairs[j]
            if bip:
                if g.has_edge(u_i, w_j):
                    return False
            else:
                if g.has_edge(u_i, u_j) or g.has_edge(u_i, w_j) or g.has_edge(w_i, w_j):
                    return False
    return True


def ref_is_semi_induced_matching(g, order, m):
    """True iff m is a matching in g respecting the order."""
    pairs = ref_checked_pairs(g, m)
    if isinstance(g, BipartiteGraph):
        if len(order) != g.left_count:
            raise InputError("order must rank the left side of a bipartite graph")
        if not ref_is_matching_in(g, pairs):
            return False
        rank = order.ranks
        for (u, v), (a, b) in combinations(pairs, 2):
            if rank[u] < rank[a]:
                if g.has_edge(u, b):
                    return False
            else:
                if g.has_edge(a, v):
                    return False
        return True
    if len(order) != g.vertex_count:
        raise InputError("order must rank every vertex of a general graph")
    if not ref_is_matching_in(g, pairs):
        return False
    rank = order.ranks
    anchored = []
    for x, y in pairs:
        if rank[x] < rank[y]:
            anchored.append((x, y))
        else:
            anchored.append((y, x))
    for (m1, o1), (m2, o2) in combinations(anchored, 2):
        if rank[m1] < rank[m2]:
            lo, f_anchor, f_other = m1, m2, o2
        else:
            lo, f_anchor, f_other = m2, m1, o1
        if g.has_edge(lo, f_anchor) or g.has_edge(lo, f_other):
            return False
    return True



def ref_edge_conflicts_induced(g, edge_list):
    """Conflict masks over edge indices: shared endpoint or a joining g-edge."""
    k = len(edge_list)
    masks = [0] * k
    bip = isinstance(g, BipartiteGraph)
    for i in range(k):
        for j in range(i + 1, k):
            (u_i, w_i), (u_j, w_j) = edge_list[i], edge_list[j]
            if bip:
                clash = u_i == u_j or w_i == w_j or g.has_edge(u_i, w_j) or g.has_edge(u_j, w_i)
            else:
                shared = len({u_i, w_i} & {u_j, w_j}) > 0
                clash = shared or any(
                    g.has_edge(x, y) for x in (u_i, w_i) for y in (u_j, w_j)
                )
            if clash:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def ref_edge_conflicts_semi(g, edge_list, order):
    """Conflict masks for a fixed order."""
    k = len(edge_list)
    rank = order.ranks
    masks = [0] * k
    bip = isinstance(g, BipartiteGraph)
    for i in range(k):
        for j in range(i + 1, k):
            (u_i, w_i), (u_j, w_j) = edge_list[i], edge_list[j]
            if bip:
                if u_i == u_j or w_i == w_j:
                    clash = True
                elif rank[u_i] < rank[u_j]:
                    clash = g.has_edge(u_i, w_j)
                else:
                    clash = g.has_edge(u_j, w_i)
            else:
                if {u_i, w_i} & {u_j, w_j}:
                    clash = True
                else:
                    m_i = u_i if rank[u_i] < rank[w_i] else w_i
                    m_j = u_j if rank[u_j] < rank[w_j] else w_j
                    if rank[m_i] < rank[m_j]:
                        clash = g.has_edge(m_i, u_j) or g.has_edge(m_i, w_j)
                    else:
                        clash = g.has_edge(m_j, u_i) or g.has_edge(m_j, w_i)
            if clash:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def rule_outcome(fn, *args):
    """Return value, or the InputError's message."""
    try:
        return fn(*args)
    except InputError as exc:
        return str(exc)


def ref_induced_oracle(g):
    edge_list = g.sorted_edges()
    size, witness = _mis_lex_witness(ref_edge_conflicts_induced(g, edge_list), len(edge_list))
    return size, Matching(edge_list[i] for i in witness)


def ref_semi_oracle(g, order):
    edge_list = g.sorted_edges()
    size, witness = _mis_lex_witness(ref_edge_conflicts_semi(g, edge_list, order), len(edge_list))
    return size, Matching(edge_list[i] for i in witness), order


def random_order(rng, n):
    seq = list(range(n))
    rng.shuffle(seq)
    return VertexOrder.from_sequence(seq)


def random_pairs(rng, g, sides):
    """Up to five pairs mixing edges, reversed edges, non-edges, repeats,
    pairs sharing an endpoint with an earlier pair, and, rarely, an
    endpoint one past its side."""
    left, right = sides
    edges = g.sorted_edges()
    pairs = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if pairs and kind < 0.15:
            pairs.append(rng.choice(pairs))
        elif pairs and kind < 0.3:
            u, w = rng.choice(pairs)
            pairs.append((u, rng.randrange(right)) if rng.random() < 0.5 else (rng.randrange(left), w))
        elif kind < 0.4:
            pairs.append((rng.randrange(left), rng.randrange(right)))
        elif kind < 0.45:
            pairs.append((rng.randrange(left), right) if rng.random() < 0.5 else (-1, 0))
        elif edges:
            u, w = rng.choice(edges)
            pairs.append((w, u) if rng.random() < 0.2 else (u, w))
    return Matching(pairs)


def assert_same_rules(rng, g, verdicts):
    if isinstance(g, BipartiteGraph):
        sides, ranked = (g.left_count, g.right_count), g.left_count
    else:
        sides, ranked = (g.vertex_count, g.vertex_count), g.vertex_count
    for _ in range(12):
        m = random_pairs(rng, g, sides)
        expected = rule_outcome(ref_is_induced_matching, g, m)
        assert rule_outcome(is_induced_matching, g, m) == expected, (g.to_json(), m)
        verdicts.add(expected if isinstance(expected, bool) else expected.split()[0])
        order = random_order(rng, ranked + rng.choice((0, 0, 0, -1, 1)))
        expected = rule_outcome(ref_is_semi_induced_matching, g, order, m)
        assert rule_outcome(is_semi_induced_matching, g, order, m) == expected, (g.to_json(), order, m)
        verdicts.add(expected if isinstance(expected, bool) else expected.split()[0])

    assert max_induced_matching_bruteforce(g) == ref_induced_oracle(g), g.to_json()
    order = random_order(rng, ranked)
    assert max_semi_induced_matching_bruteforce(g, order) == ref_semi_oracle(g, order), g.to_json()
    size, m, witness_order = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
    assert ref_is_semi_induced_matching(g, witness_order, m)
    assert ref_semi_oracle(g, witness_order)[0] == size >= ref_semi_oracle(g, order)[0]


def test_matching_rules_match_per_kind_branches():
    rng = random.Random(54)
    verdicts = set()
    for n in range(2, 9):
        for p in (0.3, 0.5, 0.7):
            for _ in range(4):
                assert_same_rules(rng, random_graph(n, p, seed=rng.randrange(10**6)), verdicts)
    for left in range(1, 6):
        for right in range(1, 6):
            for p in (0.3, 0.5, 0.7):
                assert_same_rules(rng, random_bipartite(left, right, p, seed=rng.randrange(10**6)),
                                  verdicts)
    # valid and invalid pair lists, out-of-range pairs and misshapen orders
    assert verdicts == {True, False, "matching", "order"}


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


# ---------------------------------------------------------------------------
# pricing: one best-so-far loop per algorithm


def uniform_prices(item_count, value):
    return PriceFunction([value] * item_count)


def lex_key(p):
    """Sort key with INF greater than every finite price."""
    return tuple((1, ZERO) if is_infinite(x) else (0, x) for x in p.prices)


def ref_opt_udp_bruteforce(inst):
    if inst.item_count > caps.MAX_UDP_ITEMS:
        raise CapExceeded(
            f"UDP oracle limited to {caps.MAX_UDP_ITEMS} items, got {inst.item_count}",
            bound="MAX_UDP_ITEMS",
        )
    budgets = inst.distinct_budgets()
    if len(budgets) > caps.MAX_UDP_BUDGETS:
        raise CapExceeded(
            f"UDP oracle limited to {caps.MAX_UDP_BUDGETS} distinct budgets, got {len(budgets)}",
            bound="MAX_UDP_BUDGETS",
        )
    candidates = budgets + [INF]
    best_revenue = None
    best_prices = None
    for combo in product(candidates, repeat=inst.item_count):
        p = PriceFunction(combo)
        revenue = evaluate_revenue(inst, UDP, p).revenue
        if best_revenue is None or revenue > best_revenue:
            best_revenue = revenue
            best_prices = p
    return best_revenue, best_prices


def ref_opt_smp_bruteforce(inst):
    if len(inst.groups) > caps.MAX_SMP_GROUPS:
        raise CapExceeded(
            f"SMP oracle limited to {caps.MAX_SMP_GROUPS} groups, got {len(inst.groups)}",
            bound="MAX_SMP_GROUPS",
        )
    if inst.item_count > caps.MAX_SMP_ITEMS:
        raise CapExceeded(
            f"SMP oracle limited to {caps.MAX_SMP_ITEMS} items, got {inst.item_count}",
            bound="MAX_SMP_ITEMS",
        )
    n = inst.item_count
    best_prices = uniform_prices(n, ZERO)
    best_revenue = evaluate_revenue(inst, SMP, best_prices).revenue
    best_key = lex_key(best_prices)
    for mask in range(1, 1 << len(inst.groups)):
        winners = [g for j, g in enumerate(inst.groups) if (mask >> j) & 1]
        objective = [ZERO] * n
        for g in winners:
            for i in g.bundle:
                objective[i] += g.multiplicity
        rows = []
        bounds = []
        for g in winners:
            row = [ZERO] * n
            for i in g.bundle:
                row[i] = Fraction(1)
            rows.append(row)
            bounds.append(g.budget)
        _, x = ratlp.maximize(objective, rows, bounds)
        p = PriceFunction(x)
        revenue = evaluate_revenue(inst, SMP, p).revenue
        key = lex_key(p)
        if revenue > best_revenue or (revenue == best_revenue and key < best_key):
            best_revenue = revenue
            best_prices = p
            best_key = key
    return best_revenue, best_prices


def ref_uniform_price_approx(inst, rule):
    check_rule(rule)
    candidates = {g.budget for g in inst.groups}
    candidates.update(g.budget / len(g.bundle) for g in inst.groups)
    best_prices = uniform_prices(inst.item_count, ZERO)
    best_revenue = evaluate_revenue(inst, rule, best_prices).revenue
    for value in sorted(candidates):
        if value == 0:
            continue
        p = uniform_prices(inst.item_count, value)
        revenue = evaluate_revenue(inst, rule, p).revenue
        if revenue > best_revenue:
            best_revenue = revenue
            best_prices = p
    return best_revenue, best_prices


def ref_geometric_enum_approx(inst, rule, alpha):
    check_rule(rule)
    alpha = Fraction(alpha)
    ladder = geometric_price_set(inst, alpha)
    work = len(ladder) ** inst.item_count
    if work > caps.MAX_GEOMETRIC_WORK:
        raise CapExceeded(
            f"geometric enumeration needs {len(ladder)}^{inst.item_count} = {work} "
            f"evaluations, limit {caps.MAX_GEOMETRIC_WORK}; use a larger alpha or "
            f"approximation_scheme",
            bound="MAX_GEOMETRIC_WORK",
        )
    best_revenue = None
    best_prices = None
    for combo in product(ladder, repeat=inst.item_count):
        p = PriceFunction(combo)
        revenue = evaluate_revenue(inst, rule, p).revenue
        if best_revenue is None or revenue > best_revenue:
            best_revenue = revenue
            best_prices = p
    return best_revenue, best_prices


def ref_approximation_scheme(inst, rule, delta, alpha):
    check_rule(rule)
    delta = Fraction(delta)
    alpha = Fraction(alpha)
    q, uniform_branch = scheme_breakpoints(inst, delta)
    if uniform_branch:
        return ref_uniform_price_approx(inst, rule)
    best = None
    for sub in partition_items(inst, q):
        revenue, p_sub = ref_geometric_enum_approx(sub.instance, rule, alpha)
        if best is None or revenue > best[0]:
            best = (revenue, sub, p_sub)
    _, sub, p_sub = best
    extension = extend_prices(inst, sub.items, p_sub, rule)
    revenue = evaluate_revenue(inst, rule, extension).revenue
    return revenue, extension


def tie_prone_instance(rng):
    """At most 4 items and 6 groups; budgets from a small pool holding 0 and
    repeats, so many price vectors earn the same revenue."""
    n = rng.randint(1, 4)
    groups = []
    for _ in range(rng.randint(1, 6)):
        bundle = frozenset(rng.sample(range(n), rng.randint(1, min(n, 3))))
        budget = rng.choice((ZERO, ZERO, Fraction(1, 2), Fraction(1), Fraction(1), Fraction(3)))
        groups.append(Group(bundle, budget, rng.choice((1, 1, 2, 3, 7))))
    return PricingInstance(n, groups)


PRICING_CORPUS = [tie_prone_instance(random.Random(9000 + k)) for k in range(90)]


@pytest.mark.parametrize("rule", RULES)
def test_pricing_oracles_match_best_so_far_loops(rule, monkeypatch):
    monkeypatch.setattr(caps, "MAX_UDP_BUDGETS", 3)
    monkeypatch.setattr(caps, "MAX_SMP_GROUPS", 5)
    oracle, ref = {
        UDP: (opt_udp_bruteforce, ref_opt_udp_bruteforce),
        SMP: (opt_smp_bruteforce, ref_opt_smp_bruteforce),
    }[rule]
    refused = 0
    for inst in PRICING_CORPUS:
        expected = outcome(ref, inst)
        assert outcome(oracle, inst) == expected, inst.groups
        refused += expected[0] == "refused"
    assert 0 < refused < len(PRICING_CORPUS) // 2


@pytest.mark.parametrize("rule", RULES)
def test_pricing_heuristics_match_best_so_far_loops(rule, monkeypatch):
    monkeypatch.setattr(caps, "MAX_GEOMETRIC_WORK", 600)
    refused = 0
    block_branch = 0
    for inst in PRICING_CORPUS:
        assert uniform_price_approx(inst, rule) == ref_uniform_price_approx(inst, rule)
        for alpha in (Fraction(2), Fraction(3, 2)):
            expected = outcome(ref_geometric_enum_approx, inst, rule, alpha)
            assert outcome(geometric_enum_approx, inst, rule, alpha) == expected, inst.groups
            refused += expected[0] == "refused"
            for delta in (Fraction(1, 2), Fraction(1, 3)):
                expected = outcome(ref_approximation_scheme, inst, rule, delta, alpha)
                got = outcome(approximation_scheme, inst, rule, delta, alpha)
                assert got == expected, inst.groups
                block_branch += not scheme_breakpoints(inst, delta)[1]
    assert 0 < refused < len(PRICING_CORPUS)
    assert block_branch > 20


# ---------------------------------------------------------------------------
# pricing: the Fraction revenue search the integer kernel replaced


def ref_best_prices(inst, rule, vectors):
    scored = ((evaluate_revenue(inst, rule, p).revenue, p) for p in map(PriceFunction, vectors))
    return max(scored, key=itemgetter(0))


def ref_best_prices_over_values(inst, rule, values, vectors):
    """The reference search on the kernel's (values, index vectors) input."""
    return ref_best_prices(inst, rule, ([values[i] for i in v] for v in vectors))


def scaling_instance(rng):
    """At most 3 items and 5 groups with budgets 1/d^(3i), d in {3, 4}, as
    the reduction assigns them, plus zeros and repeats for ties;
    multiplicities up to 5.  Small bundles give UDP oracle candidates that
    price a group's whole bundle INF."""
    d = rng.choice((3, 4))
    pool = (ZERO, ZERO, Fraction(1), Fraction(1), Fraction(2, 3)) + tuple(
        Fraction(1, d ** (3 * i)) for i in range(1, 4)
    )
    n = rng.randint(1, 3)
    groups = []
    for _ in range(rng.randint(1, 5)):
        bundle = frozenset(rng.sample(range(n), rng.randint(1, n)))
        groups.append(Group(bundle, rng.choice(pool), rng.randint(1, 5)))
    return PricingInstance(n, groups)


SCALING_CORPUS = [scaling_instance(random.Random(7000 + k)) for k in range(60)]
ALPHAS = (Fraction(2), Fraction(3, 2), Fraction(5, 4))


def every_pricing_call(inst):
    """(rule, algorithm, args) for each pricing algorithm on inst."""
    yield UDP, opt_udp_bruteforce, (inst,)
    yield SMP, opt_smp_bruteforce, (inst,)
    for rule in RULES:
        yield rule, uniform_price_approx, (inst, rule)
        for alpha in ALPHAS:
            yield rule, geometric_enum_approx, (inst, rule, alpha)
            yield rule, approximation_scheme, (inst, rule, Fraction(1, 2), alpha)


def lower_pricing_caps(monkeypatch):
    monkeypatch.setattr(caps, "MAX_UDP_BUDGETS", 4)
    monkeypatch.setattr(caps, "MAX_SMP_GROUPS", 4)
    monkeypatch.setattr(caps, "MAX_GEOMETRIC_WORK", 400)


def test_integer_kernel_matches_fraction_search(monkeypatch):
    lower_pricing_caps(monkeypatch)
    expected = []
    with monkeypatch.context() as m:
        m.setattr(pricing, "_best_prices", ref_best_prices_over_values)
        for inst in SCALING_CORPUS:
            expected.append([outcome(fn, *args) for _, fn, args in every_pricing_call(inst)])
    refused = answered = 0
    for inst, want in zip(SCALING_CORPUS, expected):
        for (rule, fn, args), result in zip(every_pricing_call(inst), want):
            assert outcome(fn, *args) == result, (fn.__name__, rule, args[2:], inst.groups)
            refused += result[0] == "refused"
            answered += result[0] != "refused"
    assert 0 < refused < answered


def test_every_pricing_algorithm_returns_evaluated_revenue(monkeypatch):
    lower_pricing_caps(monkeypatch)
    for inst in SCALING_CORPUS:
        for rule, fn, args in every_pricing_call(inst):
            result = outcome(fn, *args)
            if result[0] != "refused":
                revenue, prices = result
                assert revenue == evaluate_revenue(inst, rule, prices).revenue, (fn.__name__, inst.groups)


# ---------------------------------------------------------------------------
# r-approximations and max-sat: best-so-far loops


def ref_approx_induced_matching_bipartite(bg, r):
    best_size = 0
    best_m = Matching([])
    for size, m in block_optima_bipartite(bg, r):
        if size > best_size:
            best_size, best_m = size, m
    return best_size, best_m


def ref_approx_induced_matching_general(g, r):
    best_size = 0
    best_m = Matching([])
    for size, m in block_optima_general(g, r):
        if size > best_size:
            best_size, best_m = size, m
    return best_size, best_m


def ref_max_sat_bruteforce(instance):
    if instance.num_vars > caps.MAX_SAT_VARS:
        raise CapExceeded(
            f"assignment enumeration limited to {caps.MAX_SAT_VARS} variables, "
            f"got {instance.num_vars}",
            bound="MAX_SAT_VARS",
        )
    best = -1
    best_assignment = ()
    for bits in product((0, 1), repeat=instance.num_vars):
        score = sum(1 for c in instance.clauses if c.is_satisfied_by(bits))
        if score > best:
            best = score
            best_assignment = bits
    return best, best_assignment


def test_approximations_match_best_so_far_loops(monkeypatch):
    monkeypatch.setattr(caps, "MAX_BLOCK_WORK", 5000)
    monkeypatch.setattr(caps, "MAX_EXACT_SIDE", 6)
    rng = random.Random(20131)
    refused = 0
    for r in (1, 2, 3, 12):
        for n in range(2, 11):
            for p in (0.2, 0.5, 0.8):
                g = random_graph(n, p, seed=rng.randrange(10**6))
                expected = outcome(ref_approx_induced_matching_general, g, r)
                got = outcome(approx_induced_matching_general, g, r)
                assert got == expected, (g.to_json(), r)
                refused += expected[0] == "refused"
        for left in range(1, 8):
            for right in range(1, 8):
                bg = random_bipartite(left, right, rng.choice((0.2, 0.5, 0.8)),
                                      seed=rng.randrange(10**6))
                expected = outcome(ref_approx_induced_matching_bipartite, bg, r)
                got = outcome(approx_induced_matching_bipartite, bg, r)
                assert got == expected, (bg.to_json(), r)
                refused += expected[0] == "refused"
    assert refused > 0


def test_max_sat_matches_best_so_far_loop(monkeypatch):
    monkeypatch.setattr(caps, "MAX_SAT_VARS", 7)
    rng = random.Random(20132)
    corpus = [CspInstance(0, [])]
    for num_vars in range(1, 9):
        for _ in range(12):
            arity = rng.randint(1, min(num_vars, 3))
            corpus.append(random_csp(num_vars, rng.randint(1, 6), arity, rng.randrange(10**6)))
    for instance in corpus:
        expected = outcome(ref_max_sat_bruteforce, instance)
        assert outcome(max_sat_bruteforce, instance) == expected, instance.to_json()
