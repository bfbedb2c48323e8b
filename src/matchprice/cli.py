"""Command-line surface: JSON I/O, seeded runners, and the invariant driver.

Conventions shared by every subcommand:

- each handler returns (exit code, artifact, report) and writes nothing;
  ``main`` passes them to ``emit``, the one output path. The artifact (a
  graph, CSP, instance, price vector or witness, in its documented bare
  JSON shape) goes to ``--out``. ``pipeline run`` and ``verify all`` make
  none and send their report there instead; ``disperser verify`` and
  ``disperser check-lemma`` make none and take no ``--out``, so their
  report goes to stdout. ``-`` or no ``--out`` means stdout, and the
  report goes to stdout unless stdout already holds the artifact, so
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
from .errors import CapExceeded, InputError, InvariantViolation, is_int, json_list, load
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
    RULES,
    UDP,
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
    except (ValueError, RecursionError) as exc:  # bad or too deep json, bad utf-8, a huge int
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
    graph, labels = load("conflict graph", read_json(path), _labeled, "graph", "labels")
    return Graph.from_json(graph), labels


def _labeled(graph, labels):
    if not all(
        isinstance(label, list) and len(label) == 2 and is_int(label[0]) and type(label[1]) is str
        for label in json_list(labels, "labels")
    ):
        raise InputError("labels must be [clause index, pattern] pairs")
    return graph, tuple(map(tuple, labels))


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
        args, d=args.d, edges_before=graph.edge_count(), edges_after=replaced.edge_count()
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
    return 0, None, report_for(args, stages=stages, gap=gap)


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


def _required(flag: str, kind=None):
    return flag, {"type": kind, "required": True}


# The flags several commands share.
SEED = ("--seed", {"type": int, "default": 0})
OUT = ("--out", {"default": "-"})
REPORT_OUT = ("--out", {})
INPUT = _required("--input")
GAMMA = _required("--gamma", _fraction)
RULE = ("--rule", {"choices": RULES, "default": UDP})
DEGREE = _required("--d", int)

# {group: (help, {leaf: (help, handler, [(flag, add_argument keywords)])})},
# each in --help order.
COMMANDS = {
    "csp": ("constraint-satisfaction instances", {
        "gen": ("sample a random CSP", cmd_csp_gen, [
            _required("--num-vars", int), _required("--num-clauses", int),
            _required("--arity", int), SEED, ("--balanced", {"action": "store_true"}), OUT]),
        "amplify": ("t-fold gap amplification", cmd_csp_amplify, [
            INPUT, _required("--t", int), _required("--m-out", int), SEED, OUT]),
        "duplicate": ("copy every clause", cmd_csp_duplicate,
                      [INPUT, _required("--copies", int), OUT]),
        "fglss": ("build the conflict graph", cmd_csp_fglss, [INPUT, OUT]),
        "replace": ("sparsify disagreement edges with dispersers", cmd_csp_replace, [
            ("--input", {"required": True, "help": "the CSP the graph was built from"}),
            ("--graph", {"required": True, "help": "labeled conflict graph json"}),
            DEGREE, SEED, OUT]),
    }),
    "disperser": ("bipartite dispersers", {
        "gen": ("sample a union of random perfect matchings", cmd_disperser_gen,
                [_required("--n", int), DEGREE, GAMMA, SEED, OUT]),
        "verify": ("check the dispersion property", cmd_disperser_verify, [INPUT, GAMMA]),
        "check-lemma": ("independence and order-expansion bounds", cmd_disperser_check_lemma,
                        [INPUT, GAMMA, SEED, ("--samples", {"type": int, "default": 50})]),
    }),
    "graph": ("graph constructions", {
        "gen": ("sample a random (bipartite) graph", cmd_graph_gen, [
            ("--n", {"type": int}), ("--left", {"type": int}), ("--right", {"type": int}),
            _required("--p", float), SEED, OUT]),
        "cover": ("bipartite double cover", cmd_graph_cover,
                  [INPUT, ("--same-vertex-edges", {"action": "store_true"}), OUT]),
    }),
    "solve": ("matching and pricing solvers", {
        "matching": ("maximum induced matching", cmd_solve_matching, [
            ("--algo", {"choices": ("exact", "approx"), "required": True}),
            ("--r", {"type": int, "default": 2, "help": "approximation parameter"}), INPUT, OUT]),
        "pricing": ("revenue maximization", cmd_solve_pricing, [
            ("--algo", {"choices": ("uniform", "geometric", "scheme", "oracle"),
                        "required": True}),
            ("--rule", {"choices": RULES}),
            ("--alpha", {"type": _fraction, "default": Fraction(2)}),
            ("--delta", {"type": _fraction, "default": Fraction(1, 2)}), INPUT, OUT]),
    }),
    "reduce": ("matching-to-pricing reduction", {
        "matching-to-pricing": ("two-phase reduction", cmd_reduce,
                                [DEGREE, SEED, RULE, INPUT, OUT, ("--provenance", {})]),
    }),
    "pipeline": ("end-to-end hardness pipeline", {
        "run": ("CSP to pricing, reporting the gap", cmd_pipeline, [
            _required("--csp"), _required("--t", int), ("--m-out", {"type": int}), DEGREE, RULE,
            SEED, REPORT_OUT]),
    }),
    "verify": ("invariant suite", {
        "all": ("run every named check", cmd_verify,
                [("--scale", {"choices": SCALES, "default": DESK}), SEED, REPORT_OUT]),
    }),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every command or, when argv starts with a group and one
    of its leaves, of that leaf alone; either prints the same for argv."""
    first, second = (*argv[:2], None, None)[:2]
    narrow = second in COMMANDS.get(first, ("", {}))[1]
    parser = argparse.ArgumentParser(
        prog="matchprice",
        description="Constrained-matching and bundle-pricing toolkit",
    )
    parser.add_argument("--version", action="version", version=f"matchprice {__version__}")
    top = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}")
    for group in [first] if narrow else COMMANDS:
        group_help, leaves = COMMANDS[group]
        subparsers = top.add_parser(group, help=group_help).add_subparsers(
            dest="subcommand", required=True
        )
        for leaf in [second] if narrow else leaves:
            leaf_help, handler, arguments = leaves[leaf]
            command = subparsers.add_parser(leaf, help=leaf_help)
            for flag, keywords in arguments:
                command.add_argument(flag, **keywords)
            command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
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
