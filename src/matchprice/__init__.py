"""Exact and approximate solvers for constrained matchings, constraint-graph
constructions, and bundle-pricing reductions, with deterministic witnesses."""

__version__ = "0.1.0"

from .errors import CapExceeded, InputError, InvariantViolation
from .graphs import (
    ALL_ORDERS,
    BipartiteGraph,
    Graph,
    Matching,
    VertexOrder,
    balanced_bipartite_independence_bruteforce,
    bipartite_double_cover,
    is_induced_matching,
    is_semi_induced_matching,
    load_graph_json,
    max_independent_set_bruteforce,
    max_induced_matching_bruteforce,
    max_semi_induced_matching_bruteforce,
    random_bipartite,
    random_graph,
)
from .matching_solvers import (
    approx_induced_matching_bipartite,
    approx_induced_matching_general,
    exact_bipartite_induced_matching,
)
from .csp_fglss import (
    Clause,
    CspInstance,
    disperser_replace,
    duplicate_clauses,
    fglss_build,
    gap_amplify,
    max_sat_bruteforce,
    random_balanced_csp,
    random_csp,
)
from .disperser import DisperserGraph, check_disperser_lemma, random_disperser, verify_disperser
from .pricing import (
    SMP,
    UDP,
    Group,
    PriceFunction,
    PricingInstance,
    approximation_scheme,
    evaluate_revenue,
    geometric_enum_approx,
    opt_smp_bruteforce,
    opt_udp_bruteforce,
    uniform_price_approx,
)
from .rationals import INF
from .reduction import (
    ReductionOutput,
    build_pricing_instance,
    color_left,
    congestion_threshold,
    extract_semi_induced_matching,
    matching_to_prices,
    reduce_full,
)
from .verify import run_all

# every name the imports above bind, less the submodules they bind too
__all__ = sorted(
    name for name, value in globals().items()
    if name == "__version__" or not (name.startswith("_") or type(value) is type(errors))
)
