"""The benchmark's workloads: seeded inputs, jobs and output checks.

Inputs are plain JSON in the package's documented shapes.  They are drawn
here from the workload seed with the benchmark's own random generator, so
the program under test only ever sees finished inputs, and they reach the
program through its public loaders (``instance_from_json``,
``load_graph_json``, ``CspInstance.from_json``).

A job is one call chain into the public API.  Its result is checked
against properties that do not depend on the code under test (revenue
recomputed here, matchings re-checked here, theorems of the paper) and is
reduced to a canonical JSON value whose sha256 is compared with the
reference table for the default seed.

Each workload is a fixed mix of job kinds, listed once per round.  Job
shapes are fixed (bundle sizes, multiplicities, graph sides), and only the
values are drawn from the seed, so the work per job barely varies by seed.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable

import matchprice as mp

ALPHA = Fraction(2)
DELTA = Fraction(1, 2)
GAMMA = Fraction(1, 3)
REDUCTION_D = 4


@dataclass
class Job:
    """One unit of closed-loop work.

    ``run`` returns the raw result; ``check`` maps it to a list of problems,
    a canonical JSON value and the caps the job touched as
    ``{cap: used}``.
    """

    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    """A job mix.

    ``mix`` counts each kind once per round; ``rounds`` input sets are drawn
    per run; the traced pass runs the first ``trace_jobs`` jobs.
    """

    name: str
    mix: dict
    rounds: int
    trace_jobs: int
    generate: Callable[[int], list]
    build: Callable[[list, object], list]
    inprocess_twin: Callable[[list], list] | None = None

    @property
    def round_len(self) -> int:
        return sum(self.mix.values())

    @property
    def runs_cli(self) -> bool:
        """Jobs are CLI subprocesses, with in-process twins for the traced pass."""
        return self.inprocess_twin is not None


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# independent reference checks


def _prices(p) -> list:
    """Prices as Fractions, None for the never-sold sentinel."""
    return [None if v is mp.INF else Fraction(v) for v in p.prices]


def groups_of(inst) -> list:
    """(sorted bundle, budget, multiplicity) per group."""
    return [(tuple(sorted(g.bundle)), Fraction(g.budget), int(g.multiplicity)) for g in inst.groups]


def ref_revenue(groups, rule: str, prices) -> Fraction:
    """Revenue under the buying rules of the paper, recomputed from scratch."""
    total = Fraction(0)
    for bundle, budget, multiplicity in groups:
        if rule == mp.UDP:
            finite = [prices[i] for i in bundle if prices[i] is not None]
            if finite and min(finite) <= budget:
                total += multiplicity * min(finite)
        else:
            cost = sum(prices[i] for i in bundle)
            if cost <= budget:
                total += multiplicity * cost
    return total


def ref_ladder(groups, item_count: int, alpha: Fraction) -> list:
    """{W, W/alpha, ..., W/alpha^L, 0} with alpha^L >= alpha * n * total multiplicity."""
    top = max((budget for _, budget, _ in groups), default=Fraction(0))
    if top == 0:
        return [Fraction(0)]
    target = alpha * item_count * sum(m for _, _, m in groups)
    rungs, power = 0, Fraction(1)
    while power < target:
        power *= alpha
        rungs += 1
    return sorted({Fraction(0)} | {top / alpha**i for i in range(rungs + 1)})


def _pricing_problems(label, groups, rule, result) -> list:
    revenue, p = result
    prices = _prices(p)
    problems = []
    if rule == mp.SMP and any(v is None for v in prices):
        problems.append(f"{label}: INF price under SMP")
    elif any(v is not None and v < 0 for v in prices):
        problems.append(f"{label}: negative price")
    elif ref_revenue(groups, rule, prices) != revenue:
        problems.append(f"{label}: revenue {revenue} != recomputed {ref_revenue(groups, rule, prices)}")
    return problems


def _pricing_output(result) -> dict:
    revenue, p = result
    return {"revenue": str(revenue), "prices": ["inf" if v is None else str(v) for v in _prices(p)]}


def _is_matching(edges: set, pairs) -> bool:
    lefts = [u for u, _ in pairs]
    rights = [w for _, w in pairs]
    return (
        all(e in edges for e in pairs)
        and len(set(lefts)) == len(lefts)
        and len(set(rights)) == len(rights)
    )


def is_induced(edges: set, pairs) -> bool:
    """Bipartite induced matching: no edge joins two distinct matched pairs."""
    pairs = list(pairs)
    return _is_matching(edges, pairs) and not any(
        (u, w) in edges for (u, _), (_, w) in permutations(pairs, 2)
    )


def is_semi_induced(edges: set, ranks, pairs) -> bool:
    """Bipartite semi-induced matching: an earlier-ranked left vertex sees no
    later pair's right vertex."""
    pairs = list(pairs)
    if not _is_matching(edges, pairs):
        return False
    for (u, v), (a, b) in combinations(pairs, 2):
        early, late_right = ((u, b) if ranks[u] < ranks[a] else (a, v))
        if (early, late_right) in edges:
            return False
    return True


def induced_matching_number(edges: set) -> int:
    """Maximum induced matching of a small bipartite edge set, by backtracking."""
    edge_list = sorted(edges)
    best = 0

    def grow(start: int, chosen: list) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(edge_list)):
            if len(chosen) + len(edge_list) - i <= best:
                return
            candidate = chosen + [edge_list[i]]
            if is_induced(edges, candidate):
                grow(i + 1, candidate)

    grow(0, [])
    return best


def _pairs(m) -> list:
    return [tuple(e) for e in m]


def _bip_edges(g) -> set:
    return {tuple(e) for e in g.edges}


def _clauses(csp_json) -> list:
    return [(tuple(c["vars"]), frozenset(c["satisfying"])) for c in csp_json["clauses"]]


def satisfied_count(clauses, assignment) -> int:
    return sum(
        "".join(str(assignment[v]) for v in variables) in satisfying
        for variables, satisfying in clauses
    )


def fglss_edges(clauses, labels) -> set:
    """Same-clause pairs plus pairs that disagree on a shared variable."""
    edges = set()
    for a, b in combinations(range(len(labels)), 2):
        (ca, pa), (cb, pb) = labels[a], labels[b]
        if ca == cb:
            edges.add((a, b))
            continue
        va, vb = clauses[ca][0], clauses[cb][0]
        if any(pa[i] != pb[vb.index(v)] for i, v in enumerate(va) if v in vb):
            edges.add((a, b))
    return edges


def uncovered_witness(left_masks, n: int, k: int):
    """First k left vertices (lexicographic) leaving >= k rights uncovered, or None."""
    full = (1 << n) - 1
    for lefts in combinations(range(len(left_masks)), k):
        covered = 0
        for u in lefts:
            covered |= left_masks[u]
        if (full & ~covered).bit_count() >= k:
            return lefts, full & ~covered
    return None


def _masks(n: int, edges) -> list:
    masks = [0] * n
    for u, w in edges:
        masks[u] |= 1 << w
    return masks


# ---------------------------------------------------------------------------
# input generators (JSON only)


def _instance_json(item_count: int, groups, rule: str = mp.UDP) -> dict:
    return {
        "items": item_count,
        "rule": rule,
        "groups": [
            {"bundle": sorted(b), "budget": str(budget), "multiplicity": str(m)}
            for b, budget, m in groups
        ],
    }


def _budget(rng) -> Fraction:
    return Fraction(rng.randrange(1, 13), rng.randrange(1, 7))


def _shaped_instance(rng, item_count: int, sizes, multiplicities, budgets=None) -> dict:
    sizes = list(sizes)
    rng.shuffle(sizes)
    if budgets is None:
        budgets = [_budget(rng) for _ in sizes]
    groups = [
        (rng.sample(range(item_count), size), budget, m)
        for size, budget, m in zip(sizes, budgets, multiplicities)
    ]
    return _instance_json(item_count, groups)


def _distinct_budgets(rng, count: int) -> list:
    values = set()
    while len(values) < count:
        values.add(_budget(rng))
    values = sorted(values)
    rng.shuffle(values)
    return values


def _bipartite_json(rng, left: int, right: int, p: float) -> dict:
    edges = [[u, w] for u in range(left) for w in range(right) if rng.random() < p]
    return {"left": left, "right": right, "edges": edges}


def _readme_graph(rng) -> dict:
    """6x6, p=0.4, max degree <= 4, no isolated vertex (so 6 items, 6 groups)."""
    while True:
        g = _bipartite_json(rng, 6, 6, 0.4)
        left = [0] * 6
        right = [0] * 6
        for u, w in g["edges"]:
            left[u] += 1
            right[w] += 1
        if min(left + right) >= 1 and max(left + right) <= REDUCTION_D:
            return g


def _disperser_json(rng, n: int, d: int) -> dict:
    """Union of d random perfect matchings, in the DisperserGraph shape."""
    edges = set()
    for _ in range(d):
        partner = list(range(n))
        rng.shuffle(partner)
        edges.update((u, partner[u]) for u in range(n))
    return {"left": n, "right": n, "edges": sorted(list(e) for e in edges), "target_degree": d}


def _random_csp_json(rng, num_vars: int, num_clauses: int, arity: int) -> dict:
    patterns = _bit_strings(arity)
    clauses = []
    for _ in range(num_clauses):
        variables = sorted(rng.sample(range(num_vars), arity))
        while True:
            chosen = [p for p in patterns if rng.random() < 0.5]
            if chosen:
                break
        clauses.append({"vars": variables, "satisfying": chosen})
    return {"num_vars": num_vars, "clauses": clauses}


def _parity_csp_json(rng, num_vars: int, num_clauses: int, arity: int) -> dict:
    """Even-arity parity clauses: balanced, and stay balanced when amplified."""
    clauses = []
    for _ in range(num_clauses):
        variables = sorted(rng.sample(range(num_vars), arity))
        target = rng.randrange(2)
        satisfying = [p for p in _bit_strings(arity) if p.count("1") % 2 == target]
        clauses.append({"vars": variables, "satisfying": satisfying})
    return {"num_vars": num_vars, "clauses": clauses}


def _bit_strings(width: int) -> list:
    return [format(i, f"0{width}b") for i in range(1 << width)]


# ---------------------------------------------------------------------------
# verify-desk: the CLI's invariant suite as a subprocess


# One `verify all` seed costs anywhere from 0.1 s to 2.3 s, so a run of a few
# dozen seeds drawn afresh would spread by more than 10% from seed to seed.
# The CLI seeds are therefore one fixed pool; the workload seed sets the
# order in which a run visits them, and every run covers the whole pool.
VERIFY_POOL = tuple(random.Random("verify-desk/pool").sample(range(1 << 31), 16))


def verify_generate(seed: int) -> list:
    order = list(VERIFY_POOL)
    _rng("verify-desk", seed, 0).shuffle(order)
    return order


def verify_argv(verify_seed: int) -> list:
    return [sys.executable, "-m", "matchprice.cli", "verify", "all", "--scale", "desk",
            "--seed", str(verify_seed)]


def _verify_report_check(body: str, verify_seed: int) -> list:
    try:
        report = json.loads(body)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("ok") is not True:
        problems.append("report ok is not true")
    if report.get("seed") != verify_seed:
        problems.append(f"report seed {report.get('seed')} != {verify_seed}")
    checks = report.get("checks", [])
    if not checks or any(c.get("status") != "pass" for c in checks):
        problems.append("not every check passed")
    return problems


def verify_build(seeds: list, ctx) -> list:
    def job(verify_seed: int) -> Job:
        def run():
            return subprocess.run(
                verify_argv(verify_seed), cwd=ctx.root, env=ctx.env,
                capture_output=True, timeout=120, check=False,
            )

        def check(proc):
            problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
            body = proc.stdout.decode("utf-8", "replace")
            problems += _verify_report_check(body, verify_seed)
            return problems, {"sha256_stdout": hashlib.sha256(proc.stdout).hexdigest()}, {}

        return Job(f"seed-{verify_seed}", f"verify-all.{verify_seed}", run, check)

    return [job(s) for s in seeds]


def verify_inprocess(seeds: list) -> list:
    """The same reports produced in-process, byte for byte as the CLI prints them."""
    from matchprice import cli

    def job(verify_seed: int) -> Job:
        def run():
            return mp.run_all("desk", verify_seed)

        def check(report):
            body = cli.dumps(cli.jsonify(report))
            problems = _verify_report_check(body, verify_seed)
            sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
            return problems, {"sha256_stdout": sha}, {}

        return Job(f"seed-{verify_seed}", f"verify-all.{verify_seed}", run, check)

    return [job(s) for s in seeds]


# ---------------------------------------------------------------------------
# pricing-cap: pricing oracles and enumeration at their largest shapes


G5_SIZES = (1, 2, 3, 3, 4, 5)  # criterion-12 shape: 5 items, 6 groups
G5_MULTIPLICITIES = (1, 2, 1, 2, 1, 2)  # total 9, so the alpha=2 ladder has 9 rungs
U4_SIZES = (1, 1, 2, 2, 2, 3, 3, 4)  # 4 items, 8 distinct budgets (the budget cap)
U4_MULTIPLICITIES = (1, 2) * 4  # total 12: ladder of 9, scheme takes the block branch
S10_SIZES = (1, 1, 2, 2, 2, 3, 3, 3, 4, 4)  # 6 items, 10 groups (both SMP caps)
S10_MULTIPLICITIES = (1, 2) * 5  # total 15: scheme takes the block branch
S10_COUNT = 4  # per round: job_s.p50 falls in this kind, so a run needs several instances


def pricing_generate(seed: int) -> list:
    rounds = []
    for r in range(PRICING.rounds):
        rng = _rng("pricing-cap", seed, r)
        rounds.append({
            "g5": _shaped_instance(rng, 5, G5_SIZES, G5_MULTIPLICITIES),
            "u4": _shaped_instance(rng, 4, U4_SIZES, U4_MULTIPLICITIES,
                                   _distinct_budgets(rng, len(U4_SIZES))),
            "s10": [_shaped_instance(rng, 6, S10_SIZES, S10_MULTIPLICITIES)
                    for _ in range(S10_COUNT)],
            "chain": _chain_input(rng),
        })
    return rounds


def _chain_input(rng) -> dict:
    """A README-shaped graph and a reduction seed whose coloring uses all d colors.

    The UDP oracle then always enumerates (d+1)^6 price vectors over the same
    d budget levels, instead of anywhere from 2^6 to 5^6 vectors.
    """
    graph = _readme_graph(rng)
    loaded = mp.load_graph_json(graph)
    while True:
        seed = rng.randrange(1 << 31)
        out = mp.reduce_full(loaded, REDUCTION_D, seed, mp.UDP)
        if len({g.budget for g in out.instance.groups}) == REDUCTION_D:
            return {"graph": graph, "seed": seed}


def _geometric_job(jid, inst, rule) -> Job:
    groups = groups_of(inst)
    ladder = ref_ladder(groups, inst.item_count, ALPHA)
    work = len(ladder) ** inst.item_count

    def run():
        return mp.geometric_enum_approx(inst, rule, ALPHA)

    def check(result):
        problems = _pricing_problems("geometric", groups, rule, result)
        if any(v not in ladder for v in _prices(result[1])):
            problems.append("geometric: a price is off the ladder")
        return problems, _pricing_output(result), {"MAX_GEOMETRIC_WORK": work}

    return Job(jid, f"geometric-{rule}", run, check)


def _udp_suite_job(jid, inst) -> Job:
    """UDP oracle against the three heuristics on one instance at the budget cap."""
    groups = groups_of(inst)
    budgets = {budget for _, budget, _ in groups}
    caps_used = {
        "MAX_UDP_ITEMS": inst.item_count,
        "MAX_UDP_BUDGETS": len(budgets),
        "MAX_GEOMETRIC_WORK": len(ref_ladder(groups, inst.item_count, ALPHA)) ** inst.item_count,
    }

    def run():
        return {
            "oracle": mp.opt_udp_bruteforce(inst),
            "geometric": mp.geometric_enum_approx(inst, mp.UDP, ALPHA),
            "uniform": mp.uniform_price_approx(inst, mp.UDP),
            "scheme": mp.approximation_scheme(inst, mp.UDP, DELTA, ALPHA),
        }

    def check(results):
        problems = []
        for label, result in results.items():
            problems += _pricing_problems(label, groups, mp.UDP, result)
        opt = results["oracle"][0]
        if any(v is not None and v not in budgets for v in _prices(results["oracle"][1])):
            problems.append("oracle: a finite price is not a budget")
        for label in ("geometric", "uniform", "scheme"):
            if results[label][0] > opt:
                problems.append(f"{label} revenue exceeds the oracle")
        if 4 * results["geometric"][0] < opt:
            problems.append("geometric revenue below a quarter of the oracle")
        return problems, {k: _pricing_output(v) for k, v in results.items()}, caps_used

    return Job(jid, "udp-suite", run, check)


def _smp_suite_job(jid, inst) -> Job:
    """SMP oracle (one exact LP per winner subset) against two heuristics."""
    groups = groups_of(inst)
    caps_used = {"MAX_SMP_GROUPS": len(groups), "MAX_SMP_ITEMS": inst.item_count}

    def run():
        return {
            "oracle": mp.opt_smp_bruteforce(inst),
            "uniform": mp.uniform_price_approx(inst, mp.SMP),
            "scheme": mp.approximation_scheme(inst, mp.SMP, DELTA, ALPHA),
        }

    def check(results):
        problems = []
        for label, result in results.items():
            problems += _pricing_problems(label, groups, mp.SMP, result)
        for label in ("uniform", "scheme"):
            if results[label][0] > results["oracle"][0]:
                problems.append(f"{label} revenue exceeds the oracle")
        return problems, {k: _pricing_output(v) for k, v in results.items()}, caps_used

    return Job(jid, "smp-suite", run, check)


def _chain_job(jid, graph, reduce_seed: int, rule: str) -> Job:
    """reduce_full -> exact oracle -> extract_semi_induced_matching."""
    input_edges = _bip_edges(graph)

    def run():
        out = mp.reduce_full(graph, REDUCTION_D, reduce_seed, rule)
        oracle = mp.opt_udp_bruteforce if rule == mp.UDP else mp.opt_smp_bruteforce
        revenue, prices = oracle(out.instance)
        matching, order = mp.extract_semi_induced_matching(out, prices, rule)
        return out, (revenue, prices), matching, order

    def check(result):
        out, priced, matching, order = result
        inst = out.instance
        groups = groups_of(inst)
        reduced_edges = _bip_edges(out.graph)
        pairs = _pairs(matching)
        problems = _pricing_problems("oracle", groups, rule, priced)
        if not reduced_edges <= input_edges:
            problems.append("reduced graph has an edge the input lacks")
        if any(budget * m != 1 for _, budget, m in groups):
            problems.append("a group's budget times multiplicity is not 1")
        for u, index in out.group_of_left_vertex.items():
            want = {out.item_of_right_vertex[w] for (a, w) in reduced_edges if a == u}
            if set(groups[index][0]) != want:
                problems.append(f"group of left vertex {u} does not match its neighbourhood")
        if not is_semi_induced(reduced_edges, order.ranks, pairs):
            problems.append("extracted matching is not semi-induced for its order")
        if priced[0] < induced_matching_number(reduced_edges):
            problems.append("oracle revenue below the induced matching number")
        output = dict(_pricing_output(priced), matching=pairs, order=list(order.ranks),
                      items=inst.item_count, groups=len(groups))
        if rule == mp.UDP:
            caps_used = {"MAX_UDP_ITEMS": inst.item_count,
                         "MAX_UDP_BUDGETS": len({b for _, b, _ in groups})}
        else:
            caps_used = {"MAX_SMP_GROUPS": len(groups), "MAX_SMP_ITEMS": inst.item_count}
        return problems, output, caps_used

    return Job(jid, f"chain-{rule}", run, check)


def pricing_build(rounds: list, ctx=None) -> list:
    jobs = []
    for r, data in enumerate(rounds):
        g5, _ = mp.pricing.instance_from_json(data["g5"])
        u4, _ = mp.pricing.instance_from_json(data["u4"])
        s10 = [mp.pricing.instance_from_json(obj)[0] for obj in data["s10"]]
        chain = (mp.load_graph_json(data["chain"]["graph"]), data["chain"]["seed"])
        prefix = f"r{r}"
        jobs += [_chain_job(f"{prefix}.chain-udp", *chain, mp.UDP),
                 _smp_suite_job(f"{prefix}.smp-suite.0", s10[0]),
                 _chain_job(f"{prefix}.chain-smp", *chain, mp.SMP),
                 _smp_suite_job(f"{prefix}.smp-suite.1", s10[1]),
                 _geometric_job(f"{prefix}.geometric-udp", g5, mp.UDP),
                 _smp_suite_job(f"{prefix}.smp-suite.2", s10[2]),
                 _udp_suite_job(f"{prefix}.udp-suite", u4),
                 _smp_suite_job(f"{prefix}.smp-suite.3", s10[3]),
                 _geometric_job(f"{prefix}.geometric-smp", g5, mp.SMP)]
    return jobs


# ---------------------------------------------------------------------------
# csp-graph: the non-pricing kernels


def csp_generate(seed: int) -> list:
    rounds = []
    for r in range(CSP.rounds):
        rng = _rng("csp-graph", seed, r)
        rounds.append({
            "maxsat16": _random_csp_json(rng, 16, 30, 3),
            "maxsat14": [_random_csp_json(rng, 14, 30, 3) for _ in range(2)],
            "amplify": [_amplify_input(rng) for _ in range(3)],
            "fglss_mis": [_random_csp_json(rng, 5, 6, 2) for _ in range(4)],
            "dispersers": [_disperser_json(rng, 20, 10) for _ in range(10)],
            "lemma": [_lemma_disperser_json(rng) for _ in range(2)],
            "graphs": [_graph_suite_json(rng) for _ in range(6)],
        })
    return rounds


AMPLIFY_VERTICES = 240  # the most common FGLSS size of these inputs (166 to 266)


def _amplify_input(rng) -> dict:
    """An 8-var parity CSP and an amplification seed giving AMPLIFY_VERTICES FGLSS vertices.

    Drawn until the size is exactly that, so that the job's time and the
    workload's peak memory, which this job sets, do not move with the seed.
    """
    while True:
        csp = _parity_csp_json(rng, 8, 10, 2)
        seed = rng.randrange(1 << 31)
        amplified = mp.gap_amplify(mp.CspInstance.from_json(csp), 2, 80, seed)
        if sum(len(c.satisfying) for c in amplified.clauses) == AMPLIFY_VERTICES:
            return {"csp": csp, "seed": seed}


def _lemma_disperser_json(rng) -> dict:
    """An 8+8 disperser that passes the property (checked here, not by the program).

    Eight is the largest side the lemma checks exactly over all orders
    (MAX_LEMMA_EXACT_SIDE).  Above it the check samples orders, and its time
    and memory (67 MB to over 500 MB at 10+10) swing with the instance.
    """
    n = 8
    k = math.ceil(GAMMA * n)
    while True:
        obj = _disperser_json(rng, n, 4)
        if uncovered_witness(_masks(n, obj["edges"]), n, k) is None:
            return obj


def _graph_suite_json(rng) -> dict:
    return {
        "exact": _bipartite_json(rng, 20, 20, 0.2),
        "wide": _bipartite_json(rng, 20, 40, 0.1),
        "small": _bipartite_json(rng, 10, 10, 0.3),
        "tiny": _bipartite_json(rng, 5, 5, 0.4),
    }


def _maxsat_job(jid, kind, csp, csp_json) -> Job:
    clauses = _clauses(csp_json)

    def run():
        return mp.max_sat_bruteforce(csp)

    def check(result):
        value, assignment = result
        problems = []
        if len(assignment) != csp.num_vars or any(b not in (0, 1) for b in assignment):
            problems.append("witness is not a full 0/1 assignment")
        elif satisfied_count(clauses, assignment) != value:
            problems.append("max-sat value differs from the witness's satisfied count")
        return problems, {"value": value, "assignment": list(assignment)}, {
            "MAX_SAT_VARS": csp.num_vars}

    return Job(jid, kind, run, check)


def _amplify_job(jid, csp, amplify_seed: int) -> Job:
    """gap_amplify -> fglss_build -> disperser_replace, as in the pipeline."""

    def run():
        amplified = mp.gap_amplify(csp, 2, 80, amplify_seed)
        graph, labels = mp.fglss_build(amplified)
        calls = []

        def supplier(size: int):
            calls.append(size)
            return mp.random_disperser(size, min(4, size), amplify_seed ^ len(calls))

        replaced = mp.disperser_replace(graph, labels, amplified, supplier)
        return amplified, graph, labels, replaced

    def check(result):
        amplified, graph, labels, replaced = result
        clauses = [(c.variables, c.satisfying) for c in amplified.clauses]
        problems = []
        if len(clauses) != 80:
            problems.append("amplified CSP does not have 80 clauses")
        want_labels = sorted((ci, p) for ci, (_, sat) in enumerate(clauses) for p in sat)
        if list(labels) != want_labels:
            problems.append("FGLSS labels are not the sorted (clause, pattern) pairs")
        full = fglss_edges(clauses, list(labels))
        if {tuple(e) for e in graph.edges} != full:
            problems.append("FGLSS edge set is wrong")
        kept = {tuple(e) for e in replaced.edges}
        same_clause = {e for e in full if labels[e[0]][0] == labels[e[1]][0]}
        if replaced.vertex_count != graph.vertex_count or not same_clause <= kept <= full:
            problems.append("replaced graph is not between the same-clause and FGLSS edges")
        output = {"clauses": sorted([list(v), sorted(s)] for v, s in clauses),
                  "fglss_edges": len(full), "replaced": sorted(kept)}
        caps_used = {"MAX_SAT_VARS": max(len(v) for v, _ in clauses),
                     "MAX_FGLSS_VERTICES": graph.vertex_count}
        return problems, output, caps_used

    return Job(jid, "amplify-fglss-replace", run, check)


def _fglss_mis_job(jid, csp, csp_json) -> Job:
    """FGLSS theorem: independence number of the conflict graph equals max-sat."""
    clauses = _clauses(csp_json)

    def run():
        value, assignment = mp.max_sat_bruteforce(csp)
        graph, labels = mp.fglss_build(csp)
        size, witness = mp.max_independent_set_bruteforce(graph)
        return value, assignment, graph, size, witness

    def check(result):
        value, assignment, graph, size, witness = result
        edges = {tuple(e) for e in graph.edges}
        problems = []
        if satisfied_count(clauses, assignment) != value:
            problems.append("max-sat value differs from the witness's satisfied count")
        if size != value:
            problems.append(f"independence number {size} != max-sat {value}")
        if len(witness) != size or any((a, b) in edges for a, b in combinations(sorted(witness), 2)):
            problems.append("independent-set witness is wrong")
        output = {"value": value, "assignment": list(assignment), "witness": sorted(witness)}
        return problems, output, {"MAX_SAT_VARS": csp.num_vars,
                                  "MAX_IS_VERTICES": graph.vertex_count,
                                  "MAX_FGLSS_VERTICES": graph.vertex_count}

    return Job(jid, "fglss-mis", run, check)


def _verify_disperser_job(jid, g) -> Job:
    n = g.left_count
    k = math.ceil(GAMMA * n)

    def run():
        return mp.verify_disperser(g, GAMMA)

    def check(result):
        ok, violation = result
        problems = []
        if not ok:
            lefts, rights = violation
            masks = _masks(n, g.edges)
            covered = 0
            for u in lefts:
                covered |= masks[u]
            if len(lefts) != k or len(rights) != k or any((covered >> w) & 1 for w in rights):
                problems.append("reported violation is not one")
        output = {"ok": ok, "violation": None if ok else [list(x) for x in violation]}
        return problems, output, {"MAX_VERIFY_SUBSETS": math.comb(n, k)}

    return Job(jid, "verify-disperser", run, check)


def _lemma_job(jid, g) -> Job:
    n = g.left_count
    masks = _masks(n, g.edges)

    def run():
        return mp.check_disperser_lemma(g, GAMMA)

    def check(report):
        problems = []
        if report["ok"] is not True:
            problems.append("lemma check failed on a verified disperser")
        bbis = report["balanced_independence"]
        if uncovered_witness(masks, n, bbis + 1) is not None or (
            bbis and uncovered_witness(masks, n, bbis) is None
        ):
            problems.append("balanced independence number is wrong")
        output = {key: str(value) for key, value in sorted(report.items())}
        return problems, output, {"MAX_LEMMA_VERTICES": 2 * n,
                                  "MAX_VERIFY_SUBSETS": math.comb(n, math.ceil(GAMMA * n)),
                                  "MAX_BBIS_VERTICES": 2 * n,
                                  "MAX_LEMMA_EXACT_SIDE": n}

    return Job(jid, "disperser-lemma", run, check)


def _graph_suite_job(jid, graphs) -> Job:
    """The matching oracles, each cross-checked against another engine or a theorem."""
    exact_g, wide_g, small_g, tiny_g = (graphs[k] for k in ("exact", "wide", "small", "tiny"))

    def run():
        return {
            "exact": mp.exact_bipartite_induced_matching(exact_g),
            "wide": mp.exact_bipartite_induced_matching(wide_g),
            "approx": mp.approx_induced_matching_bipartite(exact_g, 2),
            "small_exact": mp.exact_bipartite_induced_matching(small_g),
            "small_brute": mp.max_induced_matching_bruteforce(small_g),
            "small_bbis": mp.balanced_bipartite_independence_bruteforce(small_g),
            "tiny_brute": mp.max_induced_matching_bruteforce(tiny_g),
            "tiny_all_orders": mp.max_semi_induced_matching_bruteforce(tiny_g, mp.ALL_ORDERS),
        }

    def check(r):
        problems = []
        for label, graph in (("exact", exact_g), ("wide", wide_g), ("approx", exact_g),
                             ("small_exact", small_g), ("small_brute", small_g),
                             ("tiny_brute", tiny_g)):
            size, m = r[label]
            if size != len(m) or not is_induced(_bip_edges(graph), _pairs(m)):
                problems.append(f"{label}: not an induced matching of the stated size")
        if r["small_exact"][0] != r["small_brute"][0]:
            problems.append("exact solver and brute-force oracle disagree")
        if r["approx"][0] < math.ceil(r["exact"][0] / 2):
            problems.append("approximation below ceil(opt / 2)")
        if r["small_bbis"] < r["small_brute"][0] // 2:
            problems.append("balanced independence below half the induced matching number")
        size, m, order = r["tiny_all_orders"]
        if size != len(m) or not is_semi_induced(_bip_edges(tiny_g), order.ranks, _pairs(m)):
            problems.append("all-orders witness is not semi-induced for its order")
        if size < r["tiny_brute"][0]:
            problems.append("all-orders optimum below the induced matching number")
        output = {}
        for label, value in r.items():
            if label == "small_bbis":
                output[label] = value
            elif label == "tiny_all_orders":
                output[label] = [value[0], _pairs(value[1]), list(value[2].ranks)]
            else:
                output[label] = [value[0], _pairs(value[1])]
        caps_used = {
            "MAX_EXACT_SIDE": max(min(g.left_count, g.right_count) for g in (exact_g, wide_g)),
            "MAX_IS_VERTICES": small_g.left_count + small_g.right_count,
            "MAX_IM_EDGES": len(small_g.edges),
            "MAX_BBIS_VERTICES": small_g.left_count + small_g.right_count,
            "MAX_ALL_ORDER_VERTICES": tiny_g.left_count + tiny_g.right_count,
        }
        return problems, output, caps_used

    return Job(jid, "graph-suite", run, check)


def csp_build(rounds: list, ctx=None) -> list:
    jobs = []
    for r, data in enumerate(rounds):
        p = f"r{r}"
        load = mp.CspInstance.from_json
        maxsat14 = [(load(obj), obj) for obj in data["maxsat14"]]
        amplify = [(load(a["csp"]), a["seed"]) for a in data["amplify"]]
        small = [(load(obj), obj) for obj in data["fglss_mis"]]
        dispersers = [mp.load_graph_json(obj) for obj in data["dispersers"]]
        lemmas = [mp.load_graph_json(obj) for obj in data["lemma"]]
        suites = [{k: mp.load_graph_json(v) for k, v in g.items()} for g in data["graphs"]]
        jobs.append(_maxsat_job(f"{p}.maxsat-16", "maxsat-16", load(data["maxsat16"]),
                                data["maxsat16"]))
        for i, disperser in enumerate(dispersers):
            jobs.append(_verify_disperser_job(f"{p}.verify-disperser.{i}", disperser))
            if i < len(suites):
                jobs.append(_graph_suite_job(f"{p}.graph-suite.{i}", suites[i]))
            if i < len(small):
                jobs.append(_fglss_mis_job(f"{p}.fglss-mis.{i}", *small[i]))
            if i < len(amplify):
                jobs.append(_amplify_job(f"{p}.amplify.{i}", *amplify[i]))
            if i < len(maxsat14):
                jobs.append(_maxsat_job(f"{p}.maxsat-14.{i}", "maxsat-14", *maxsat14[i]))
            if i < len(lemmas):
                jobs.append(_lemma_job(f"{p}.lemma.{i}", lemmas[i]))
    return jobs


VERIFY = Workload(
    name="verify-desk",
    mix={f"verify-all.{s}": 1 for s in VERIFY_POOL},
    rounds=1,
    trace_jobs=6,
    generate=verify_generate,
    build=verify_build,
    inprocess_twin=verify_inprocess,
)

PRICING = Workload(
    name="pricing-cap",
    mix={"geometric-udp": 1, "geometric-smp": 1, "udp-suite": 1, "smp-suite": S10_COUNT,
         "chain-udp": 1, "chain-smp": 1},
    rounds=3,
    trace_jobs=9,
    generate=pricing_generate,
    build=pricing_build,
)

CSP = Workload(
    name="csp-graph",
    mix={"maxsat-16": 1, "maxsat-14": 2, "amplify-fglss-replace": 3, "fglss-mis": 4,
         "verify-disperser": 10, "disperser-lemma": 2, "graph-suite": 6},
    rounds=8,
    trace_jobs=56,
    generate=csp_generate,
    build=csp_build,
)

WORKLOADS = {w.name: w for w in (VERIFY, PRICING, CSP)}
