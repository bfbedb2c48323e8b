"""The paper's claims as checks: claims, draws, and one seeded driver.

A claim maps one input to a JSON-able counterexample, or to None when it
holds.  A draw makes one input from a random.Random (the two disperser
claims have a frozen input and ignore it).  Each row of CLAIMS names a
claim, a draw and a count; one driver makes it CHECKS[name], a function of
a seed that tests count drawn inputs and stops at the first counterexample.
run_all sorts its records by check name, so the report is byte-stable for a
fixed seed.  A check that trips a solver's post-condition
(InvariantViolation) fails with the message as its counterexample, and the
other checks still run.
"""

import hashlib
import math
import random
from fractions import Fraction
from functools import partial

from . import __version__, caps
from .csp_fglss import (
    duplicate_clauses,
    fglss_build,
    max_sat_bruteforce,
    random_csp,
)
from .disperser import check_disperser_lemma, random_disperser, verify_disperser
from .errors import InputError, InvariantViolation
from .graphs import (
    ALL_ORDERS,
    BipartiteGraph,
    balanced_bipartite_independence_bruteforce,
    max_independent_set_bruteforce,
    max_induced_matching_bruteforce,
    max_semi_induced_matching_bruteforce,
    random_bipartite,
)
from .matching_solvers import (
    approx_induced_matching_bipartite,
    exact_bipartite_induced_matching,
)
from .pricing import (
    SMP,
    UDP,
    Group,
    PricingInstance,
    approximation_scheme,
    evaluate_revenue,
    geometric_enum_approx,
    instance_to_json,
    opt_smp_bruteforce,
    opt_udp_bruteforce,
    uniform_price_approx,
)
from .rationals import format_rational
from .reduction import (
    build_pricing_instance,
    color_left,
    congestion_threshold,
    extract_with_stats,
    matching_to_prices,
)

DESK = "desk"
SCALES = (DESK,)

_MASK = (1 << 63) - 1


def derive_seed(seed: int, stage: str) -> int:
    """Per-stage seed: global seed XOR a stable hash of the stage name."""
    digest = hashlib.sha256(stage.encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "big")) & _MASK


def _bipartite(rng, max_side=6, max_degree=None):
    """Sides in [1, max_side], some edge, and degrees at most max_degree if given."""
    while True:
        left = rng.randrange(1, max_side + 1)
        right = rng.randrange(1, max_side + 1)
        g = random_bipartite(left, right, rng.random() * 0.5, seed=rng.randrange(10**6))
        if not g.edge_count():
            continue
        if max_degree is not None and g.max_degree() > max_degree:
            continue
        return g


def _pricing(rng, max_items=4, max_groups=4):
    items = rng.randrange(1, max_items + 1)
    groups = []
    for _ in range(rng.randrange(1, max_groups + 1)):
        size = rng.randrange(1, items + 1)
        bundle = frozenset(rng.sample(range(items), size))
        budget = Fraction(rng.randrange(1, 13), rng.randrange(1, 7))
        groups.append(Group(bundle, budget, rng.randrange(1, 4)))
    return PricingInstance(items, groups)


def _csp(rng):
    return random_csp(4, 3, 2, seed=rng.randrange(10**6))


def _reduction(rng, max_side=5):
    """(g, the reduction of g with d = 4 under a random left coloring)."""
    g = _bipartite(rng, max_side, max_degree=4)
    return g, build_pricing_instance(g, color_left(g, 4, seed=rng.randrange(10**6)), 4)


# ---------------------------------------------------------------------------
# claims: each returns None when it holds or a counterexample dict


def fglss_independence_equals_maxsat(instance):
    value, _ = max_sat_bruteforce(instance)
    graph, _labels = fglss_build(instance)
    alpha, _ = max_independent_set_bruteforce(graph)
    if alpha != value:
        return {"csp": instance.to_json(), "independence": alpha, "maxsat": value}
    return None


def duplicate_scales_optimum(instance):
    value, _ = max_sat_bruteforce(instance)
    value3, _ = max_sat_bruteforce(duplicate_clauses(instance, 3))
    if value3 != 3 * value:
        return {"csp": instance.to_json(), "value": value, "tripled_value": value3}
    return None


def perfect_matching_rejected(pm):
    ok, violation = verify_disperser(pm, Fraction(1, 3))
    expected = ((0, 1), (2, 3))
    if ok or violation != expected:
        return {"verified": ok, "violation": violation, "expected": expected}
    return None


def lemma_certificate(g):
    report = check_disperser_lemma(g, Fraction(1, 3))
    if not report["ok"]:
        return {key: str(value) for key, value in report.items()}
    return None


def balanced_independence_vs_matching(g):
    im, _ = max_induced_matching_bruteforce(g)
    bbis = balanced_bipartite_independence_bruteforce(g)
    if bbis < im // 2:
        return {"graph": g.to_json(), "bbis": bbis, "induced_matching": im}
    return None


def order_relaxation(g):
    im, _ = max_induced_matching_bruteforce(g)
    sim, _, _ = max_semi_induced_matching_bruteforce(g, ALL_ORDERS)
    if sim < im:
        return {"graph": g.to_json(), "semi_induced": sim, "induced": im}
    return None


def exact_equals_oracle(g):
    fast, witness = exact_bipartite_induced_matching(g)
    slow, _ = max_induced_matching_bruteforce(g)
    if fast != slow or len(witness) != fast:
        return {"graph": g.to_json(), "solver": fast, "oracle": slow}
    return None


def approx_ratio_guarantee(g):
    im, _ = max_induced_matching_bruteforce(g)
    for r in (2, 3):
        got, witness = approx_induced_matching_bipartite(g, r)
        if got < math.ceil(im / r) or len(witness) != got:
            return {"graph": g.to_json(), "r": r, "approx": got, "optimum": im}
    return None


def oracle_dominates_heuristics(inst):
    for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
        opt, _ = oracle(inst)
        for label, result in (
            ("uniform", uniform_price_approx(inst, rule)),
            ("geometric", geometric_enum_approx(inst, rule, 2)),
            ("scheme", approximation_scheme(inst, rule, Fraction(1, 2), 2)),
        ):
            value, _prices = result
            if value > opt:
                return {"instance": instance_to_json(inst, rule), "algorithm": label,
                        "value": format_rational(value), "optimum": format_rational(opt)}
    return None


def geometric_quarter_bound(inst):
    for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
        opt, _ = oracle(inst)
        value, _ = geometric_enum_approx(inst, rule, 2)
        if 4 * value < opt:
            return {"instance": instance_to_json(inst, rule),
                    "geometric": format_rational(value), "optimum": format_rational(opt)}
    return None


def completeness_revenue(reduced):
    g, out = reduced
    size, matching = max_induced_matching_bruteforce(g)
    for rule in (UDP, SMP):
        prices = matching_to_prices(out, matching, rule)
        revenue = evaluate_revenue(out.instance, rule, prices).revenue
        if revenue < size:
            return {"graph": g.to_json(), "rule": rule,
                    "revenue": format_rational(revenue), "matching_size": size}
    return None


def extraction_validity(reduced):
    g, out = reduced
    threshold = congestion_threshold(4)
    for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
        _, prices = oracle(out.instance)
        # extract_with_stats asserts semi-inducedness internally
        _, _, stats = extract_with_stats(out, prices, rule)
        if stats["max_removed_by_one"] > threshold - 1:
            return {"graph": g.to_json(), "rule": rule,
                    "max_removed_by_one": stats["max_removed_by_one"], "threshold": threshold}
    return None


def budget_multiplicity_product(reduced):
    g, out = reduced
    for index, group in enumerate(out.instance.groups):
        if group.budget * group.multiplicity != 1:
            return {"graph": g.to_json(), "group": index,
                    "budget": format_rational(group.budget),
                    "multiplicity": str(group.multiplicity)}
    return None


# name -> (claim, draw, count of inputs drawn per seed)
CLAIMS = {
    "csp.duplicate_scales_optimum": (duplicate_scales_optimum, _csp, 5),
    "csp.fglss_independence_equals_maxsat": (fglss_independence_equals_maxsat, _csp, 5),
    "disperser.lemma_certificate": (
        lemma_certificate, lambda rng: random_disperser(6, 6, seed=0), 1),
    "disperser.perfect_matching_rejected": (
        perfect_matching_rejected, lambda rng: BipartiteGraph(6, 6, [(v, v) for v in range(6)]), 1),
    "graphs.balanced_independence_vs_matching": (balanced_independence_vs_matching, _bipartite, 10),
    "graphs.order_relaxation": (order_relaxation, partial(_bipartite, max_side=4), 6),
    "pricing.geometric_quarter_bound": (geometric_quarter_bound, _pricing, 6),
    "pricing.oracle_dominates_heuristics": (oracle_dominates_heuristics, _pricing, 6),
    "reduction.budget_multiplicity_product": (
        budget_multiplicity_product, partial(_reduction, max_side=6), 8),
    "reduction.completeness_revenue": (completeness_revenue, _reduction, 8),
    "reduction.extraction_validity": (extraction_validity, _reduction, 6),
    "solvers.approx_ratio_guarantee": (approx_ratio_guarantee, _bipartite, 6),
    "solvers.exact_equals_oracle": (exact_equals_oracle, _bipartite, 8),
}


def _seeded(name: str):
    """CHECKS[name]: the row of CLAIMS, read when called, run from one seed."""
    def check(seed: int):
        claim, draw, count = CLAIMS[name]
        rng = random.Random(seed)
        for _ in range(count):
            counterexample = claim(draw(rng))
            if counterexample is not None:
                return counterexample
        return None
    return check


CHECKS = {name: _seeded(name) for name in CLAIMS}


def run_all(scale: str = DESK, seed: int = 0) -> dict:
    """Run every named check; the record list is sorted by check name."""
    if scale not in SCALES:
        raise InputError(f"unknown scale {scale!r}; supported: {', '.join(SCALES)}")
    records = []
    for name in sorted(CHECKS):
        try:
            counterexample = CHECKS[name](derive_seed(seed, name))
        except InvariantViolation as exc:
            counterexample = str(exc)
        record = {"check": name, "status": "pass" if counterexample is None else "fail"}
        if counterexample is not None:
            record["counterexample"] = counterexample
        records.append(record)
    return {
        "scale": scale,
        "seed": seed,
        "caps": caps.snapshot(),
        "versions": {"matchprice": __version__},
        "checks": records,
        "ok": all(r["status"] == "pass" for r in records),
    }
