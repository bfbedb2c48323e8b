"""Command-line surface: JSON I/O, seeded runners, and the invariant driver.

Conventions shared by every subcommand:

- each handler returns (exit code, artifact, report) and writes nothing;
  ``main`` passes them to ``emit``, the one output path. The artifact (a
  graph, CSP, instance, price vector or witness, in its documented bare
  JSON shape) goes to ``--out``; commands that make none (``disperser
  verify``, ``disperser check-lemma``, ``pipeline run``, ``verify all``)
  send their report there instead. ``-`` or no ``--out`` means stdout, and
  the report goes to stdout unless stdout already holds the artifact, so
  ``--out -`` leaves one JSON document there. Only ``reduce --provenance``,
  a second artifact, is written by its handler;
- a report embeds the command name, the seed (null for unseeded
  commands), the active caps, and package versions;
- exit codes: 0 success, 1 a checked property does not hold, 2 bad input or
  usage, 3 a resource cap refused the computation, 4 an internal invariant
  failed (a fault in the package, reported on an ``error:`` line);
- stage seeds derive from the global ``--seed`` as seed XOR sha256(stage),
  so pipeline stages are individually reproducible.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, caps
from .csp_fglss import (
    CspInstance,
    disperser_replace,
    duplicate_clauses,
    fglss_build,
    gap_amplify,
    max_sat_bruteforce,
    random_balanced_csp,
    random_csp,
)
from .disperser import check_disperser_lemma, random_disperser, verify_disperser
from .errors import CapExceeded, InputError, InvariantViolation
from .graphs import (
    BipartiteGraph,
    Graph,
    bipartite_double_cover,
    load_graph_json,
    max_independent_set_bruteforce,
    max_induced_matching_bruteforce,
    random_bipartite,
    random_graph,
)
from .matching_solvers import (
    approx_induced_matching_bipartite,
    approx_induced_matching_general,
    exact_bipartite_induced_matching,
)
from .pricing import (
    approximation_scheme,
    check_rule,
    geometric_enum_approx,
    instance_from_json,
    instance_to_json,
    opt_smp_bruteforce,
    opt_udp_bruteforce,
    uniform_price_approx,
)
from .rationals import format_rational, parse_rational
from .reduction import extract_with_stats, reduce_full
from .verify import DESK, SCALES, derive_seed, run_all


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def jsonify(value):
    """Recursively map Fractions to exact strings and tuples to lists."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {key: jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    return value


def read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad json or utf-8, or an int past the digit limit
        raise InputError(f"{path} is not valid json: {exc}") from exc


def write_json(path, obj) -> None:
    """Write obj as JSON to the file at path; None or "-" means stdout."""
    body = dumps(jsonify(obj))
    if path is None or path == "-":
        sys.stdout.write(body)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def emit(out, artifact, report) -> None:
    """Write the artifact to out and the report to stdout, or the report to
    out when there is no artifact; None or "-" means stdout, which then
    holds the artifact alone."""
    if artifact is None:
        write_json(out, report)
        return
    write_json(out, artifact)
    if out not in (None, "-"):
        write_json(None, report)


def report_for(args, **payload) -> dict:
    """The run report of the parsed command: its words, its --seed (None
    where it takes none), the caps and the package version."""
    return {
        "command": f"{args.command} {args.subcommand}",
        "seed": getattr(args, "seed", None),
        "caps": caps.snapshot(),
        "versions": {"matchprice": __version__},
        **payload,
    }


def load_csp(path: str) -> CspInstance:
    return CspInstance.from_json(read_json(path))


def load_conflict_graph(path: str):
    """Read the {"graph": ..., "labels": ...} artifact written by csp fglss."""
    obj = read_json(path)
    if not isinstance(obj, dict) or "graph" not in obj or "labels" not in obj:
        raise InputError(f"{path} does not hold a labeled conflict graph")
    graph = Graph.from_json(obj["graph"])
    labels = obj["labels"]
    if not isinstance(labels, list) or not all(
        isinstance(label, list) and len(label) == 2
        and type(label[0]) is int and type(label[1]) is str
        for label in labels
    ):
        raise InputError(f"{path}: labels must be [clause index, pattern] pairs")
    return graph, tuple(tuple(label) for label in labels)


# ---------------------------------------------------------------------------
# csp


def cmd_csp_gen(args):
    maker = random_balanced_csp if args.balanced else random_csp
    instance = maker(args.num_vars, args.num_clauses, args.arity, args.seed)
    return 0, instance.to_json(), report_for(
        args,
        num_vars=instance.num_vars,
        num_clauses=len(instance.clauses),
        arity=args.arity,
        balanced=bool(args.balanced),
    )


def cmd_csp_amplify(args):
    amplified = gap_amplify(load_csp(args.input), args.t, args.m_out, args.seed)
    return 0, amplified.to_json(), report_for(
        args, t=args.t, m_out=args.m_out, num_clauses=len(amplified.clauses)
    )


def cmd_csp_duplicate(args):
    duplicated = duplicate_clauses(load_csp(args.input), args.copies)
    return 0, duplicated.to_json(), report_for(
        args, copies=args.copies, num_clauses=len(duplicated.clauses)
    )


def cmd_csp_fglss(args):
    graph, labels = fglss_build(load_csp(args.input))
    artifact = {"graph": graph.to_json(), "labels": [list(label) for label in labels]}
    return 0, artifact, report_for(args, vertices=graph.vertex_count, edges=graph.edge_count())


def make_disperser_supplier(degree: int, seed: int):
    """One random construction per call, seeded by call index; degree is
    clamped to the side size (a disperser cannot exceed it)."""
    counter = {"next": 0}

    def supplier(size: int) -> BipartiteGraph:
        index = counter["next"]
        counter["next"] += 1
        return random_disperser(size, min(degree, size), derive_seed(seed, f"disperser-{index}"))

    return supplier


def cmd_csp_replace(args):
    instance = load_csp(args.input)
    graph, labels = load_conflict_graph(args.graph)
    supplier = make_disperser_supplier(args.d, args.seed)
    replaced = disperser_replace(graph, labels, instance, supplier)
    artifact = {"graph": replaced.to_json(), "labels": [list(label) for label in labels]}
    return 0, artifact, report_for(
        args,
        gamma=args.gamma,
        d=args.d,
        edges_before=graph.edge_count(),
        edges_after=replaced.edge_count(),
    )


# ---------------------------------------------------------------------------
# disperser


def cmd_disperser_gen(args):
    graph = random_disperser(args.n, args.d, args.seed)
    verified, violation = verify_disperser(graph, args.gamma)
    return int(not verified), graph.to_json(), report_for(
        args, n=args.n, d=args.d, gamma=args.gamma, verified=verified, violation=violation
    )


def cmd_disperser_verify(args):
    graph = load_graph_json(read_json(args.input))
    if not isinstance(graph, BipartiteGraph):
        raise InputError("disperser verification needs a bipartite graph")
    verified, violation = verify_disperser(graph, args.gamma)
    return int(not verified), None, report_for(
        args, gamma=args.gamma, verified=verified, violation=violation
    )


def cmd_disperser_check_lemma(args):
    graph = load_graph_json(read_json(args.input))
    if not isinstance(graph, BipartiteGraph):
        raise InputError("the lemma check needs a bipartite graph")
    result = check_disperser_lemma(graph, args.gamma, seed=args.seed, samples=args.samples)
    return int(not result["ok"]), None, report_for(args, **result)


# ---------------------------------------------------------------------------
# graph


def cmd_graph_gen(args):
    bipartite = args.left is not None or args.right is not None
    if bipartite and args.n is not None:
        raise InputError("give either --n or --left/--right, not both")
    if bipartite:
        if args.left is None or args.right is None:
            raise InputError("--left and --right must be given together")
        graph = random_bipartite(args.left, args.right, args.p, args.seed)
    elif args.n is not None:
        graph = random_graph(args.n, args.p, args.seed)
    else:
        raise InputError("give --n for a graph or --left/--right for a bipartite one")
    return 0, graph.to_json(), report_for(args, bipartite=bipartite, edges=graph.edge_count())


def cmd_graph_cover(args):
    graph = load_graph_json(read_json(args.input))
    if not isinstance(graph, Graph):
        raise InputError("the double cover takes a general graph")
    cover = bipartite_double_cover(graph, include_same_vertex_edges=args.same_vertex_edges)
    return 0, cover.to_json(), report_for(
        args,
        same_vertex_edges=bool(args.same_vertex_edges),
        left=cover.left_count,
        right=cover.right_count,
        edges=cover.edge_count(),
    )


# ---------------------------------------------------------------------------
# solve


def cmd_solve_matching(args):
    graph = load_graph_json(read_json(args.input))
    if args.algo == "exact":
        if isinstance(graph, BipartiteGraph):
            size, matching = exact_bipartite_induced_matching(graph)
        else:
            size, matching = max_induced_matching_bruteforce(graph)
    else:
        if isinstance(graph, BipartiteGraph):
            size, matching = approx_induced_matching_bipartite(graph, args.r)
        else:
            size, matching = approx_induced_matching_general(graph, args.r)
    artifact = {"size": size, "pairs": [list(pair) for pair in matching]}
    return 0, artifact, report_for(args, algo=args.algo, r=args.r, size=size)


def solve_pricing_instance(instance, rule: str, algo: str, alpha, delta):
    if algo == "oracle":
        oracle = opt_udp_bruteforce if rule == "udp" else opt_smp_bruteforce
        return oracle(instance)
    if algo == "uniform":
        return uniform_price_approx(instance, rule)
    if algo == "geometric":
        return geometric_enum_approx(instance, rule, alpha)
    return approximation_scheme(instance, rule, delta, alpha)


def cmd_solve_pricing(args):
    instance, stored_rule = instance_from_json(read_json(args.input))
    rule = check_rule(args.rule) if args.rule else stored_rule
    revenue, prices = solve_pricing_instance(instance, rule, args.algo, args.alpha, args.delta)
    return 0, prices.to_json(), report_for(
        args,
        algo=args.algo,
        rule=rule,
        revenue=revenue,
        alpha=args.alpha if args.algo in ("geometric", "scheme") else None,
        delta=args.delta if args.algo == "scheme" else None,
    )


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args):
    graph = load_graph_json(read_json(args.input))
    if not isinstance(graph, BipartiteGraph):
        raise InputError("the reduction takes a bipartite graph")
    out = reduce_full(graph, args.d, args.seed, args.rule)
    if args.provenance is not None:
        write_json(args.provenance, out.to_json())
    return 0, instance_to_json(out.instance, args.rule), report_for(
        args,
        d=args.d,
        rule=args.rule,
        items=out.instance.item_count,
        groups=len(out.instance.groups),
        removed_rights=list(out.removed_rights),
    )


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args):
    stages = {}
    instance = load_csp(args.csp)
    if not instance.clauses:
        raise InputError("the pipeline needs a CSP with at least one clause")
    stage = {"num_vars": instance.num_vars, "num_clauses": len(instance.clauses)}
    if instance.num_vars <= caps.MAX_SAT_VARS:
        value, _ = max_sat_bruteforce(instance)
        stage["maxsat"] = value
        stage["value_fraction"] = Fraction(value, len(instance.clauses))
    stages["csp"] = stage

    m_out = args.m_out if args.m_out is not None else len(instance.clauses)
    amplified = gap_amplify(instance, args.t, m_out, derive_seed(args.seed, "amplify"))
    stages["amplified"] = {"t": args.t, "num_clauses": len(amplified.clauses)}

    graph, labels = fglss_build(amplified)
    stage = {"vertices": graph.vertex_count, "edges": graph.edge_count()}
    if graph.vertex_count <= caps.MAX_IS_VERTICES:
        alpha, _ = max_independent_set_bruteforce(graph)
        stage["independence"] = alpha
    stages["fglss"] = stage

    supplier = make_disperser_supplier(args.d, args.seed)
    replaced = disperser_replace(graph, labels, amplified, supplier)
    stage = {"vertices": replaced.vertex_count, "edges": replaced.edge_count()}
    if replaced.vertex_count <= caps.MAX_IS_VERTICES:
        alpha, _ = max_independent_set_bruteforce(replaced)
        stage["independence"] = alpha
    stages["replaced"] = stage

    cover = bipartite_double_cover(replaced)
    stages["double_cover"] = {
        "left": cover.left_count,
        "right": cover.right_count,
        "edges": cover.edge_count(),
    }

    degree_bound = max(3, cover.max_degree())
    reduced = reduce_full(cover, degree_bound, derive_seed(args.seed, "reduce"), args.rule)
    stages["reduction"] = {
        "d": degree_bound,
        "items": reduced.instance.item_count,
        "groups": len(reduced.instance.groups),
        "removed_rights": list(reduced.removed_rights),
    }

    try:
        revenue, prices = solve_pricing_instance(
            reduced.instance, args.rule, "oracle", None, None
        )
        algo = "oracle"
    except CapExceeded:
        revenue, prices = solve_pricing_instance(
            reduced.instance, args.rule, "geometric", Fraction(2), None
        )
        algo = "geometric"
    stages["pricing"] = {"rule": args.rule, "algo": algo, "revenue": revenue}

    matching, _, stats = extract_with_stats(reduced, prices, args.rule)
    stages["extraction"] = {
        "matching_size": len(matching),
        "tight_count": stats["tight_count"],
        "cleanup_removed": stats["cleanup_removed"],
    }

    gap = Fraction(revenue) / max(1, len(matching)) if revenue else Fraction(0)
    return 0, None, report_for(args, gamma=args.gamma, stages=stages, gap=gap)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    report = run_all(args.scale, args.seed)
    return int(not report["ok"]), None, report


# ---------------------------------------------------------------------------
# parser


def _fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchprice",
        description="Constrained-matching and bundle-pricing toolkit",
    )
    parser.add_argument("--version", action="version", version=f"matchprice {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    csp = top.add_parser("csp", help="constraint-satisfaction instances").add_subparsers(
        dest="subcommand", required=True
    )
    gen = csp.add_parser("gen", help="sample a random CSP")
    gen.add_argument("--num-vars", type=int, required=True)
    gen.add_argument("--num-clauses", type=int, required=True)
    gen.add_argument("--arity", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--balanced", action="store_true")
    gen.add_argument("--out", default="-")
    gen.set_defaults(handler=cmd_csp_gen)

    amp = csp.add_parser("amplify", help="t-fold gap amplification")
    amp.add_argument("--input", required=True)
    amp.add_argument("--t", type=int, required=True)
    amp.add_argument("--m-out", type=int, required=True)
    amp.add_argument("--seed", type=int, default=0)
    amp.add_argument("--out", default="-")
    amp.set_defaults(handler=cmd_csp_amplify)

    dup = csp.add_parser("duplicate", help="copy every clause")
    dup.add_argument("--input", required=True)
    dup.add_argument("--copies", type=int, required=True)
    dup.add_argument("--out", default="-")
    dup.set_defaults(handler=cmd_csp_duplicate)

    fgl = csp.add_parser("fglss", help="build the conflict graph")
    fgl.add_argument("--input", required=True)
    fgl.add_argument("--out", default="-")
    fgl.set_defaults(handler=cmd_csp_fglss)

    rep = csp.add_parser("replace", help="sparsify disagreement edges with dispersers")
    rep.add_argument("--input", required=True, help="the CSP the graph was built from")
    rep.add_argument("--graph", required=True, help="labeled conflict graph json")
    rep.add_argument("--gamma", type=_fraction, required=True)
    rep.add_argument("--d", type=int, required=True)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--out", default="-")
    rep.set_defaults(handler=cmd_csp_replace)

    disp = top.add_parser("disperser", help="bipartite dispersers").add_subparsers(
        dest="subcommand", required=True
    )
    dgen = disp.add_parser("gen", help="sample a union of random perfect matchings")
    dgen.add_argument("--n", type=int, required=True)
    dgen.add_argument("--d", type=int, required=True)
    dgen.add_argument("--gamma", type=_fraction, required=True)
    dgen.add_argument("--seed", type=int, default=0)
    dgen.add_argument("--out", default="-")
    dgen.set_defaults(handler=cmd_disperser_gen)

    dver = disp.add_parser("verify", help="check the dispersion property")
    dver.add_argument("--input", required=True)
    dver.add_argument("--gamma", type=_fraction, required=True)
    dver.set_defaults(handler=cmd_disperser_verify)

    dlem = disp.add_parser("check-lemma", help="independence and order-expansion bounds")
    dlem.add_argument("--input", required=True)
    dlem.add_argument("--gamma", type=_fraction, required=True)
    dlem.add_argument("--seed", type=int, default=0)
    dlem.add_argument("--samples", type=int, default=50)
    dlem.set_defaults(handler=cmd_disperser_check_lemma)

    graph = top.add_parser("graph", help="graph constructions").add_subparsers(
        dest="subcommand", required=True
    )
    ggen = graph.add_parser("gen", help="sample a random (bipartite) graph")
    ggen.add_argument("--n", type=int)
    ggen.add_argument("--left", type=int)
    ggen.add_argument("--right", type=int)
    ggen.add_argument("--p", type=float, required=True)
    ggen.add_argument("--seed", type=int, default=0)
    ggen.add_argument("--out", default="-")
    ggen.set_defaults(handler=cmd_graph_gen)

    gcov = graph.add_parser("cover", help="bipartite double cover")
    gcov.add_argument("--input", required=True)
    gcov.add_argument("--same-vertex-edges", action="store_true")
    gcov.add_argument("--out", default="-")
    gcov.set_defaults(handler=cmd_graph_cover)

    solve = top.add_parser("solve", help="matching and pricing solvers").add_subparsers(
        dest="subcommand", required=True
    )
    smat = solve.add_parser("matching", help="maximum induced matching")
    smat.add_argument("--algo", choices=("exact", "approx"), required=True)
    smat.add_argument("--r", type=int, default=2, help="approximation parameter")
    smat.add_argument("--input", required=True)
    smat.add_argument("--out", default="-")
    smat.set_defaults(handler=cmd_solve_matching)

    spri = solve.add_parser("pricing", help="revenue maximization")
    spri.add_argument(
        "--algo", choices=("uniform", "geometric", "scheme", "oracle"), required=True
    )
    spri.add_argument("--rule", choices=("udp", "smp"))
    spri.add_argument("--alpha", type=_fraction, default=Fraction(2))
    spri.add_argument("--delta", type=_fraction, default=Fraction(1, 2))
    spri.add_argument("--input", required=True)
    spri.add_argument("--out", default="-")
    spri.set_defaults(handler=cmd_solve_pricing)

    red = top.add_parser("reduce", help="matching-to-pricing reduction").add_subparsers(
        dest="subcommand", required=True
    )
    rmat = red.add_parser("matching-to-pricing", help="two-phase reduction")
    rmat.add_argument("--d", type=int, required=True)
    rmat.add_argument("--seed", type=int, default=0)
    rmat.add_argument("--rule", choices=("udp", "smp"), default="udp")
    rmat.add_argument("--input", required=True)
    rmat.add_argument("--out", default="-")
    rmat.add_argument("--provenance")
    rmat.set_defaults(handler=cmd_reduce)

    pipe = top.add_parser("pipeline", help="end-to-end hardness pipeline").add_subparsers(
        dest="subcommand", required=True
    )
    prun = pipe.add_parser("run", help="CSP to pricing, reporting the gap")
    prun.add_argument("--csp", required=True)
    prun.add_argument("--t", type=int, required=True)
    prun.add_argument("--m-out", type=int)
    prun.add_argument("--gamma", type=_fraction, required=True)
    prun.add_argument("--d", type=int, required=True)
    prun.add_argument("--rule", choices=("udp", "smp"), default="udp")
    prun.add_argument("--seed", type=int, default=0)
    prun.add_argument("--out")
    prun.set_defaults(handler=cmd_pipeline)

    ver = top.add_parser("verify", help="invariant suite").add_subparsers(
        dest="subcommand", required=True
    )
    vall = ver.add_parser("all", help="run every named check")
    vall.add_argument("--scale", choices=SCALES, default=DESK)
    vall.add_argument("--seed", type=int, default=0)
    vall.add_argument("--out")
    vall.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps.snapshot()  # reads every cap override, so a bad one stops the command up front
        code, artifact, report = args.handler(args)
        emit(getattr(args, "out", None), artifact, report)
        return code
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
