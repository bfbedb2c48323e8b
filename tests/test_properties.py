"""The claims behind `verify all`, searched on inputs its draws never make.

`verify all` tests each claim on inputs drawn from a seed by a few fixed
shapes.  These tests call the same claim functions on inputs outside those
shapes: empty, one-sided and complete bipartite graphs and graphs with
isolated vertices; zero budgets, repeated bundles and budgets over prime
denominators; clauses of arity 1, duplicated clauses, clauses that no
pattern satisfies, and no clauses at all.  Every input stays inside its
claim's domain and under the exhaustive oracles' caps.  On the same graphs,
the semi-induced oracle's witness path is tied to the expanding-sequence
values.
"""

from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchprice.csp_fglss import Clause, CspInstance
from matchprice.graphs import (
    ALL_ORDERS,
    BipartiteGraph,
    VertexOrder,
    is_semi_induced_matching,
    max_expanding_sequence,
    max_expanding_sequence_fixed,
    max_semi_induced_matching_bruteforce,
)
from matchprice.pricing import Group, PricingInstance
from matchprice.reduction import Coloring, build_pricing_instance
from matchprice.verify import (
    approx_ratio_guarantee,
    balanced_independence_vs_matching,
    budget_multiplicity_product,
    completeness_revenue,
    duplicate_scales_optimum,
    exact_equals_oracle,
    extraction_validity,
    fglss_independence_equals_maxsat,
    geometric_quarter_bound,
    order_relaxation,
    oracle_dominates_heuristics,
)

PROPERTY = settings(max_examples=100, deadline=2000)


def counterexamples(claims, instance) -> dict:
    """Each claim's counterexample on instance, by claim name; {} when all hold."""
    found = {}
    for claim in claims:
        counterexample = claim(instance)
        if counterexample is not None:
            found[claim.__name__] = counterexample
    return found


def complete(left, right):
    return BipartiteGraph(left, right, product(range(left), range(right)))


@st.composite
def bipartite_graphs(draw, min_side=0, max_side=5):
    """Any edge set, or every edge, on sides of up to max_side vertices
    (10 in all, the all-orders oracle's cap)."""
    left = draw(st.integers(min_side, max_side))
    right = draw(st.integers(min_side, max_side))
    pairs = list(product(range(left), range(right)))
    if not pairs or draw(st.booleans()):
        return BipartiteGraph(left, right, pairs)
    return BipartiteGraph(left, right, draw(st.sets(st.sampled_from(pairs))))


@PROPERTY
@given(bipartite_graphs())
@example(BipartiteGraph(0, 0, []))
@example(BipartiteGraph(0, 4, []))
@example(BipartiteGraph(3, 3, [(0, 0)]))
@example(complete(5, 5))
def test_graph_claims_hold(g):
    claims = (balanced_independence_vs_matching, order_relaxation, exact_equals_oracle,
              approx_ratio_guarantee)
    assert counterexamples(claims, g) == {}


@PROPERTY
@given(bipartite_graphs().flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(range(g.left_count)))))
@example((complete(5, 5), [4, 0, 3, 1, 2]))
def test_semi_induced_witnesses_match_sequence_values(drawn):
    """Both oracle modes against the value-only searches, under a drawn
    left order and over all orders (ten vertices at most, the cap)."""
    g, perm = drawn
    order = VertexOrder.from_sequence(perm)
    size, m, _ = max_semi_induced_matching_bruteforce(g, order)
    assert len(m) == size == max_expanding_sequence_fixed(g, order, cutoff=g.left_count + 1)
    assert is_semi_induced_matching(g, order, m)
    size, m, witness_order = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
    assert len(m) == size == max_expanding_sequence(g, cutoff=g.left_count + 1)
    assert is_semi_induced_matching(g, witness_order, m)


BUDGETS = st.builds(Fraction, st.integers(0, 12), st.sampled_from((1, 2, 3, 5, 7, 11, 13)))


@st.composite
def pricing_instances(draw):
    """Up to 6 groups over up to 4 items, whose bundles come from a pool of
    at most 3, so bundles repeat; budgets may be 0 or over a prime."""
    items = draw(st.integers(1, 4))
    pool = draw(st.lists(st.frozensets(st.integers(0, items - 1), min_size=1),
                         min_size=1, max_size=3))
    groups = draw(st.lists(st.builds(Group, st.sampled_from(pool), BUDGETS, st.integers(1, 3)),
                           min_size=1, max_size=6))
    return PricingInstance(items, groups)


@PROPERTY
@given(pricing_instances())
@example(PricingInstance(1, [Group({0}, 0, 1)]))
@example(PricingInstance(3, [Group({0, 1}, Fraction(5, 13), 2), Group({0, 1}, Fraction(7, 11), 1),
                             Group({2}, 0, 3), Group({0, 1}, Fraction(5, 13), 1)]))
def test_pricing_claims_hold(inst):
    assert counterexamples((oracle_dominates_heuristics, geometric_quarter_bound), inst) == {}


@st.composite
def clauses(draw, num_vars):
    """Distinct variables in any order and at most 4 satisfying patterns,
    possibly none."""
    arity = draw(st.integers(1, min(3, num_vars)))
    variables = draw(st.permutations(range(num_vars)))[:arity]
    patterns = ["".join(bits) for bits in product("01", repeat=arity)]
    return Clause(variables, draw(st.sets(st.sampled_from(patterns), max_size=4)))


@st.composite
def csp_instances(draw):
    """Up to 3 clauses, then up to 3 copies of them: at most 6 clauses of at
    most 4 patterns each, so the FGLSS graph stays within the 24 vertices of
    the independent-set oracle."""
    num_vars = draw(st.integers(1, 5))
    base = draw(st.lists(clauses(num_vars), max_size=3))
    copies = draw(st.lists(st.sampled_from(base), max_size=3)) if base else []
    return CspInstance(num_vars, base + copies)


@PROPERTY
@given(csp_instances())
@example(CspInstance(2, []))
@example(CspInstance(2, [Clause((1,), ["1"]), Clause((1,), ["1"]), Clause((0,), ["0"]),
                         Clause((0, 1), [])]))
def test_csp_claims_hold(instance):
    claims = (fglss_independence_equals_maxsat, duplicate_scales_optimum)
    assert counterexamples(claims, instance) == {}


@st.composite
def reductions(draw):
    """A graph with an edge and degrees at most d = 4 (edges past that are
    dropped), under any coloring with 4 colors, and its reduction."""
    g = draw(bipartite_graphs(min_side=1).filter(lambda g: g.edge_count()))
    left_degree, right_degree = [0] * g.left_count, [0] * g.right_count
    edges = []
    for u, w in g.sorted_edges():
        if left_degree[u] < 4 and right_degree[w] < 4:
            edges.append((u, w))
            left_degree[u] += 1
            right_degree[w] += 1
    g = BipartiteGraph(g.left_count, g.right_count, edges)
    colors = draw(st.lists(st.integers(1, 4), min_size=g.left_count, max_size=g.left_count))
    return g, build_pricing_instance(g, Coloring(colors, 4), 4)


@PROPERTY
@given(reductions())
@example((complete(4, 4), build_pricing_instance(complete(4, 4), Coloring([1] * 4, 4), 4)))
def test_reduction_claims_hold(reduced):
    claims = (completeness_revenue, extraction_validity, budget_multiplicity_product)
    assert counterexamples(claims, reduced) == {}
