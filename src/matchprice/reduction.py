"""Bounded-degree bipartite matching to hypergraph pricing, and back.

Forward direction: color the left side uniformly at random with d colors,
drop right vertices that see too many same-colored neighbors, then sell each
surviving right vertex as an item.  A left vertex of color i becomes a group
of d^{3i} consumers with budget d^{-3i}, wanting exactly its neighbor items;
the color-staggered budgets make distinct color classes almost invisible to
each other under any prices.

Backward direction: from any price function, the tight consumers (paying at
least a 1/(4d) fraction of budget) nominate one edge each; a per-color
greedy in reverse order plus a cross-class sweep turns the nominations into
a semi-induced matching for the color-based order.
"""

from collections import Counter
from fractions import Fraction
import math
import random

from .errors import InputError, InvariantViolation, Record
from .graphs import BipartiteGraph, Matching, VertexOrder, bit_indices
from .graphs import is_induced_matching, is_semi_induced_matching
from .pricing import (
    UDP,
    Group,
    PriceFunction,
    PricingInstance,
    check_rule,
    evaluate_revenue,
    extend_prices,
    instance_to_json,
)

ZERO = Fraction(0)


def congestion_threshold(d: int) -> int:
    """T(d) = max(2, ceil(3 ln d / ln ln d)); the same-color crowding cutoff."""
    if d < 3:
        raise InputError(f"degree parameter must be at least 3, got {d}")
    return max(2, math.ceil(3 * math.log(d) / math.log(math.log(d))))


class Coloring(Record):
    """Color in [1, d] for every left vertex."""

    __slots__ = ("colors", "d")

    def __init__(self, colors, d: int):
        colors = tuple(colors)
        if any(not 1 <= c <= d for c in colors):
            raise InputError(f"colors must lie in [1, {d}]")
        super().__init__(colors, d)

    def __len__(self):
        return len(self.colors)

    def __getitem__(self, u: int) -> int:
        return self.colors[u]

    def to_json(self) -> dict:
        return {"d": self.d, "colors": list(self.colors)}


def color_left(g: BipartiteGraph, d: int, seed: int) -> Coloring:
    """Independent uniform colors from [1, d] on the left side."""
    if d < 3:
        raise InputError(f"degree parameter must be at least 3, got {d}")
    if g.max_degree() > d:
        raise InputError(f"graph degree {g.max_degree()} exceeds d={d}")
    rng = random.Random(seed)
    return Coloring((rng.randint(1, d) for _ in range(g.left_count)), d)


def congestion_filter(g: BipartiteGraph, coloring: Coloring, d: int):
    """Remove right vertices crowded by one color class.

    Returns (V_high, G') where V_high lists rights with >= T(d) neighbors
    of a single color and G' is g with all edges at those rights dropped
    (vertex ids are preserved).
    """
    if len(coloring) != g.left_count:
        raise InputError(f"coloring covers {len(coloring)} vertices, graph has {g.left_count}")
    cutoff = congestion_threshold(d)
    high = []
    for v in range(g.right_count):
        counts = Counter(coloring[u] for u in bit_indices(g.right_mask(v)))
        if max(counts.values(), default=0) >= cutoff:
            high.append(v)
    kept = ~sum(1 << v for v in high)
    left_adj = [g.left_mask(u) & kept for u in range(g.left_count)]
    right_adj = [g.right_mask(v) if kept >> v & 1 else 0 for v in range(g.right_count)]
    return tuple(high), BipartiteGraph._from_masks(g.left_count, g.right_count, left_adj, right_adj)


class ReductionOutput(Record):
    """The pricing instance plus everything needed to map answers back.
    right_of_item maps item index -> right vertex of the reduced graph
    (graph, G'), item_of_right_vertex is its inverse, and
    group_of_left_vertex maps left vertex -> group index."""

    __slots__ = ("instance", "right_of_item", "item_of_right_vertex", "group_of_left_vertex",
                 "coloring", "d", "graph", "removed_rights", "seed", "rule")

    def __init__(self, instance, right_of_item, item_of_right_vertex, group_of_left_vertex,
                 coloring, d, graph, removed_rights=(), seed=None, rule=None):
        super().__init__(instance, right_of_item, item_of_right_vertex, group_of_left_vertex,
                         coloring, d, graph, removed_rights, seed, rule)

    def to_json(self) -> dict:
        if self.rule is None:
            raise InputError("serialization needs the rule; build via reduce_full")
        return {
            "instance": instance_to_json(self.instance, self.rule),
            "items": list(self.right_of_item),
            "groups_of": sorted(self.group_of_left_vertex.items()),
            "coloring": self.coloring.to_json(),
            "d": self.d,
            "graph": self.graph.to_json(),
            "removed_rights": list(self.removed_rights),
            "seed": self.seed,
        }


def build_pricing_instance(gprime: BipartiteGraph, coloring: Coloring, d: int,
                           removed_rights=(), seed=None, rule=None) -> ReductionOutput:
    """One item per non-isolated right vertex; one weighted group per left.

    A left vertex u of color i yields budget d^{-3i} and multiplicity
    d^{3i}, so budget * multiplicity = 1 for every group.  Isolated
    vertices (on either side) are dropped: they cannot trade.  reduce_full
    passes the last three arguments, its provenance.
    """
    if len(coloring) != gprime.left_count:
        raise InputError(
            f"coloring covers {len(coloring)} vertices, graph has {gprime.left_count}"
        )
    if d < 3:
        raise InputError(f"degree parameter must be at least 3, got {d}")
    rights = [v for v in range(gprime.right_count) if gprime.degree_right(v) > 0]
    if not rights:
        raise InputError("graph has no edges left to price")
    item_of = {v: idx for idx, v in enumerate(rights)}
    groups = []
    group_of = {}
    for u in range(gprime.left_count):
        mask = gprime.left_mask(u)
        if not mask:
            continue
        bundle = frozenset(item_of[v] for v in bit_indices(mask))
        i = coloring[u]
        scale = d ** (3 * i)
        group_of[u] = len(groups)
        groups.append(Group(bundle, Fraction(1, scale), scale))
    instance = PricingInstance(len(rights), groups)
    return ReductionOutput(instance, tuple(rights), item_of, group_of, coloring, d, gprime,
                           removed_rights, seed, rule)


def matching_to_prices(out: ReductionOutput, m: Matching, rule: str) -> PriceFunction:
    """Price matched items at their buyer's budget; extend_prices fills the rest.

    Requires an induced matching: then each matched group's cheapest bundle
    item is exactly its own matched item (everything else in the bundle is
    unmatched, hence INF under UDP or 0 under SMP), so each matched group
    pays budget * multiplicity = 1 and revenue is at least |m|.
    """
    check_rule(rule)
    if not is_induced_matching(out.graph, m):
        raise InputError("matching is not induced in the reduced graph")
    budgets = {out.item_of_right_vertex[v]: out.instance.groups[out.group_of_left_vertex[u]].budget
               for u, v in m}
    items = sorted(budgets)
    return extend_prices(out.instance, items, PriceFunction(budgets[i] for i in items), rule)


def _chosen_right(out: ReductionOutput, prices: PriceFunction, rule: str, u: int, sale) -> int:
    """The right vertex u's group nominates: bought item (UDP) or priciest (SMP)."""
    if rule == UDP:
        return out.right_of_item[sale.chosen_item]
    bundle = out.instance.groups[out.group_of_left_vertex[u]].sorted_bundle()
    best_item = max(bundle, key=lambda i: (prices[i], -i))
    return out.right_of_item[best_item]


def extract_with_stats(out: ReductionOutput, prices: PriceFunction, rule: str):
    """Extraction plus the per-class greedy accounting.

    Returns (matching, order, stats).  stats records tight counts, the
    per-class candidate/accepted numbers, the worst same-class removal
    count of a single acceptance, and how many edges the final cross-class
    sweep dropped (zero whenever prices respect the color-staggered budget
    structure, the case the construction is designed for).
    """
    check_rule(rule)
    report = evaluate_revenue(out.instance, rule, prices)
    d = out.d
    cutoff = congestion_threshold(d)

    tight = []
    tight_revenue = ZERO
    for u, idx in sorted(out.group_of_left_vertex.items()):
        sale = report.sales[idx]
        if not sale.bought:
            continue
        g = out.instance.groups[idx]
        per_consumer = sale.payment / g.multiplicity
        if per_consumer * 4 * d >= g.budget:
            tight.append(u)
            tight_revenue += sale.payment
    candidates = {
        u: _chosen_right(out, prices, rule, u, report.sales[out.group_of_left_vertex[u]])
        for u in tight
    }

    # Color-based order: classes ascending for UDP, descending for SMP;
    # ascending vertex index inside a class.
    def class_key(u):
        color = out.coloring[u]
        return (color if rule == UDP else -color, u)

    sequence = sorted(range(out.graph.left_count), key=class_key)
    order = VertexOrder.from_sequence(sequence)

    per_class = {}
    survivors = []
    for color in range(1, d + 1):
        members = sorted((u for u in candidates if out.coloring[u] == color), reverse=True)
        if not members:
            continue
        alive = sum(1 << u for u in members)
        accepted = []
        worst_removed = 0
        for u in members:
            if not (alive >> u) & 1:
                continue
            v = candidates[u]
            accepted.append((u, v))
            killed = out.graph.right_mask(v) & alive & ~(1 << u)
            alive &= ~killed
            worst_removed = max(worst_removed, killed.bit_count())
        per_class[color] = {
            "candidates": len(members),
            "accepted": len(accepted),
            "max_removed_by_one": worst_removed,
        }
        survivors.extend(accepted)

    # Cross-class sweep in reverse order of the full sigma: accept an edge
    # only if its left vertex avoids every previously accepted right.  The
    # semi-induced condition constrains exactly these (earlier left, later
    # right) adjacencies, so the surviving set is valid for `order`.
    survivors.sort(key=lambda e: order.rank(e[0]), reverse=True)
    accepted = []
    used_rights = 0
    cleanup_removed = 0
    for u, v in survivors:
        if out.graph.left_mask(u) & used_rights:
            cleanup_removed += 1
            continue
        accepted.append((u, v))
        used_rights |= 1 << v

    matching = Matching(sorted(accepted))
    if not is_semi_induced_matching(out.graph, order, matching):
        raise InvariantViolation(f"extract_with_stats: {matching} not semi-induced under {order}")
    stats = {
        "revenue": report.revenue,
        "tight_count": len(tight),
        "tight_revenue": tight_revenue,
        "per_class": per_class,
        "max_removed_by_one": max(
            (c["max_removed_by_one"] for c in per_class.values()), default=0
        ),
        "threshold": cutoff,
        "cleanup_removed": cleanup_removed,
    }
    return matching, order, stats


def extract_semi_induced_matching(out: ReductionOutput, prices: PriceFunction, rule: str):
    """The matching and order alone; see extract_with_stats for accounting."""
    matching, order, _ = extract_with_stats(out, prices, rule)
    return matching, order


def reduce_full(g: BipartiteGraph, d: int, seed: int, rule: str) -> ReductionOutput:
    """color_left, congestion_filter, build_pricing_instance, end to end."""
    check_rule(rule)
    coloring = color_left(g, d, seed)
    removed, gprime = congestion_filter(g, coloring, d)
    return build_pricing_instance(gprime, coloring, d, removed, seed, rule)
