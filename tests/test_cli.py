"""Command-line surface: exit codes, artifacts, reports, determinism."""

import argparse
import ast
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import matchprice
from matchprice import caps, cli, graphs
from matchprice.cli import COMMANDS, build_parser, dumps, main
from matchprice.csp_fglss import CspInstance
from matchprice.graphs import load_graph_json, max_induced_matching_bruteforce

from test_verify import fail_on_third_input


def run_main(capsys, *argv):
    """main in this process, reported as subprocess.run reports a child: a
    SystemExit from argparse becomes the exit code, and any other exception
    escapes and fails the test, where a child would print a traceback."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return subprocess.CompletedProcess(list(argv), code, captured.out, captured.err)


def run(capsys, *argv):
    proc = run_main(capsys, *argv)
    return proc.returncode, proc.stdout


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_csp_gen_writes_instance_and_report(tmp_path, capsys):
    out = tmp_path / "csp.json"
    code, stdout = run(
        capsys,
        "csp", "gen", "--num-vars", "4", "--num-clauses", "3", "--arity", "2",
        "--seed", "5", "--balanced", "--out", str(out),
    )
    assert code == 0
    instance = CspInstance.from_json(read(out))
    assert instance.num_vars == 4 and len(instance.clauses) == 3
    report = json.loads(stdout)
    assert report["command"] == "csp gen"
    assert report["seed"] == 5
    assert "caps" in report and "versions" in report


def test_artifact_streams_to_stdout_without_report(capsys):
    code, stdout = run(
        capsys,
        "csp", "gen", "--num-vars", "3", "--num-clauses", "2", "--arity", "2",
        "--seed", "1", "--out", "-",
    )
    assert code == 0
    artifact = json.loads(stdout)  # a single document: the artifact itself
    assert "command" not in artifact
    CspInstance.from_json(artifact)


def test_csp_chain_through_replacement(tmp_path, capsys):
    csp = tmp_path / "csp.json"
    fglss = tmp_path / "fglss.json"
    replaced = tmp_path / "replaced.json"
    for argv in (
        ["csp", "gen", "--num-vars", "4", "--num-clauses", "3", "--arity", "2",
         "--seed", "5", "--balanced", "--out", str(csp)],
        ["csp", "fglss", "--input", str(csp), "--out", str(fglss)],
        ["csp", "replace", "--input", str(csp), "--graph", str(fglss),
         "--d", "3", "--seed", "1", "--out", str(replaced)],
    ):
        assert run(capsys, *argv)[0] == 0
    before = read(fglss)
    after = read(replaced)
    assert after["labels"] == before["labels"]
    assert len(after["graph"]["edges"]) <= len(before["graph"]["edges"])


def test_disperser_commands(tmp_path, capsys):
    disp = tmp_path / "disp.json"
    code, _ = run(
        capsys,
        "disperser", "gen", "--n", "6", "--d", "6", "--gamma", "1/3",
        "--seed", "0", "--out", str(disp),
    )
    assert code == 0
    assert run(capsys, "disperser", "verify", "--input", str(disp), "--gamma", "1/3")[0] == 0
    code, stdout = run(
        capsys, "disperser", "check-lemma", "--input", str(disp), "--gamma", "1/3"
    )
    assert code == 0
    assert json.loads(stdout)["ok"] is True


def test_disperser_verify_failure_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "pm.json"
    bad.write_text(json.dumps({"left": 6, "right": 6, "edges": [[v, v] for v in range(6)]}))
    code, stdout = run(capsys, "disperser", "verify", "--input", str(bad), "--gamma", "1/3")
    assert code == 1
    report = json.loads(stdout)
    assert report["verified"] is False
    assert report["violation"] == [[0, 1], [2, 3]]


def test_graph_gen_shapes_and_conflicting_flags(tmp_path, capsys):
    bg = tmp_path / "bg.json"
    g = tmp_path / "g.json"
    assert run(capsys, "graph", "gen", "--left", "4", "--right", "4", "--p", "0.5",
               "--seed", "3", "--out", str(bg))[0] == 0
    assert run(capsys, "graph", "gen", "--n", "5", "--p", "0.5",
               "--seed", "3", "--out", str(g))[0] == 0
    assert "left" in read(bg) and "n" in read(g)
    assert run(capsys, "graph", "gen", "--n", "5", "--left", "4", "--right", "4",
               "--p", "0.5", "--out", str(g))[0] == 2


def test_graph_cover(tmp_path, capsys):
    g = tmp_path / "g.json"
    cover = tmp_path / "cover.json"
    g.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert run(capsys, "graph", "cover", "--input", str(g), "--out", str(cover))[0] == 0
    obj = read(cover)
    assert obj["left"] == 3 and obj["right"] == 3 and len(obj["edges"]) == 4


def test_solve_matching_exact_matches_oracle(tmp_path, capsys):
    bg = tmp_path / "bg.json"
    wit = tmp_path / "wit.json"
    assert run(capsys, "graph", "gen", "--left", "5", "--right", "5", "--p", "0.4",
               "--seed", "3", "--out", str(bg))[0] == 0
    assert run(capsys, "solve", "matching", "--algo", "exact",
               "--input", str(bg), "--out", str(wit))[0] == 0
    graph = load_graph_json(read(bg))
    optimum, _ = max_induced_matching_bruteforce(graph)
    witness = read(wit)
    assert witness["size"] == optimum == len(witness["pairs"])


def test_solve_pricing_bundled_example_revenue_four(tmp_path, capsys):
    bundled = resources.files("matchprice").joinpath("data/two_consumer_smp.json")
    prices = tmp_path / "prices.json"
    code, stdout = run(
        capsys,
        "solve", "pricing", "--algo", "oracle",
        "--input", str(bundled), "--out", str(prices),
    )
    assert code == 0
    assert json.loads(stdout)["revenue"] == "4"
    assert read(prices)["prices"] == ["2"]


def test_reduce_writes_instance_and_provenance(tmp_path, capsys):
    bg = tmp_path / "bg.json"
    inst = tmp_path / "inst.json"
    prov = tmp_path / "prov.json"
    bg.write_text(json.dumps({"left": 3, "right": 3, "edges": [[0, 0], [1, 1], [2, 2]]}))
    code, _ = run(
        capsys,
        "reduce", "matching-to-pricing", "--d", "4", "--seed", "2", "--rule", "udp",
        "--input", str(bg), "--out", str(inst), "--provenance", str(prov),
    )
    assert code == 0
    obj = read(inst)
    assert obj["rule"] == "udp" and obj["items"] == 3 and len(obj["groups"]) == 3
    for group in obj["groups"]:
        assert "/" in group["budget"] or group["budget"].isdigit()
    provenance = read(prov)
    assert provenance["d"] == 4 and provenance["seed"] == 2


def test_pipeline_runs_end_to_end(tmp_path, capsys):
    csp = tmp_path / "csp.json"
    out = tmp_path / "pipe.json"
    assert run(capsys, "csp", "gen", "--num-vars", "4", "--num-clauses", "3",
               "--arity", "2", "--seed", "5", "--balanced", "--out", str(csp))[0] == 0
    code, _ = run(
        capsys,
        "pipeline", "run", "--csp", str(csp), "--t", "2", "--m-out", "3",
        "--d", "3", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    report = read(out)
    expected = {"csp", "amplified", "fglss", "replaced", "double_cover",
                "reduction", "pricing", "extraction"}
    assert expected <= set(report["stages"])
    assert "gap" in report and report["seed"] == 4


# sha256 of the pipeline run report on the README's CSP, recorded before the
# pipeline asked each oracle for its cap instead of comparing sizes itself.
# Caps set low drop the stage key their oracle fills, or send pricing to the
# geometric fallback.
README_RUN = ["--t", "2", "--d", "4", "--seed", "5"]
ONE_ROUND = ["--t", "1", "--d", "4", "--seed", "5"]
LOW = {"MAX_SAT_VARS": 2, "MAX_IS_VERTICES": 3}
PIPELINE_DIGESTS = [
    ({}, README_RUN, "udp", "05e02f4048d634e56e9856ce84f6239376616170d7b04c938bc183cfe8ddd1b9"),
    ({}, README_RUN, "smp", "243267c2fabb04c704fbb16c30472c8501b974e58f7f3514cd1154d9ee66d096"),
    ({"MAX_SAT_VARS": 2}, ONE_ROUND, "udp",
     "03f2d92e97e7255eb6514bab02cd1b8a24c59e26bdc2e4d443c66f164e65d007"),
    ({"MAX_SAT_VARS": 2}, ONE_ROUND, "smp",
     "2b03471fd3a6a16bd2560687460c1c49465fbdfe90ad47cce82b61b70f843482"),
    ({"MAX_IS_VERTICES": 3}, README_RUN, "udp",
     "44e79f1c622765e012554d030bd1986332ea500765dbffd4c267b5383643c4b7"),
    ({"MAX_IS_VERTICES": 3}, README_RUN, "smp",
     "cbc0fe08d5a8b639f097104fc28d225a5c9e9d5f654b606151f67f71149b5d45"),
    ({"MAX_UDP_ITEMS": 1}, README_RUN, "udp",
     "e1a58c0c436c521582b22a035a49b478b38d3c512cf9c2ec62343264ae02ee6f"),
    ({"MAX_SMP_GROUPS": 1}, README_RUN, "smp",
     "8c2faedb81c12384aa468eb9284a691ba80e9fbb6a3515302dd8d18f84c22dc4"),
    ({**LOW, "MAX_UDP_ITEMS": 1}, README_RUN, "udp",
     "81f32fb15efbadd510aeff83e8e0dbe5d7563bac17c0c98a3343fd567a78858b"),
    ({**LOW, "MAX_SMP_GROUPS": 1}, README_RUN, "smp",
     "ab94458980ed786bb208c0ffdd69e0c6e068f115485877369a157e7da31ae275"),
]


@pytest.mark.parametrize("low_caps, argv, rule, digest", PIPELINE_DIGESTS)
def test_pipeline_report_bytes_are_pinned(low_caps, argv, rule, digest, tmp_path, capsys,
                                          monkeypatch):
    csp = tmp_path / "csp.json"
    assert run(capsys, "csp", "gen", "--num-vars", "3", "--num-clauses", "3", "--arity", "2",
               "--balanced", "--seed", "5", "--out", str(csp))[0] == 0
    for name, value in low_caps.items():
        monkeypatch.setattr(caps, name, value)
    code, stdout = run(capsys, "pipeline", "run", "--csp", str(csp), "--rule", rule, *argv)
    assert code == 0
    stages = json.loads(stdout)["stages"]
    assert ("maxsat" in stages["csp"]) == ("MAX_SAT_VARS" not in low_caps)
    for stage in ("fglss", "replaced"):
        assert ("independence" in stages[stage]) == ("MAX_IS_VERTICES" not in low_caps)
    fallback = {"MAX_UDP_ITEMS", "MAX_SMP_GROUPS"} & low_caps.keys()
    assert stages["pricing"]["algo"] == ("geometric" if fallback else "oracle")
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_verify_all_deterministic_bytes(tmp_path, capsys):
    first = tmp_path / "v1.json"
    second = tmp_path / "v2.json"
    for path in (first, second):
        code, _ = run(capsys, "verify", "all", "--scale", "desk", "--seed", "7",
                      "--out", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["ok"] is True and report["seed"] == 7



def test_verify_all_exits_one_on_a_counterexample(monkeypatch, capsys):
    """A claim that fails on its third input fails its check: exit 1, and
    the report carries that record and its counterexample."""
    name = "graphs.order_relaxation"
    drawn = fail_on_third_input(monkeypatch, name)
    proc = run_main(capsys, "verify", "all", "--seed", "0")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["ok"] is False
    failed = [record for record in report["checks"] if record["status"] == "fail"]
    assert failed == [{"check": name, "status": "fail", "counterexample": {"input": 3}}]
    assert len(drawn) == 3


def test_cap_refusal_exits_three(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"left": 30, "right": 30, "edges": [[u, u] for u in range(30)]}
    ))
    code, _ = run(capsys, "solve", "matching", "--algo", "exact", "--input", str(big))
    assert code == 3


def test_unknown_subcommand_exits_two(capsys):
    assert run_main(capsys, "frobnicate").returncode == 2


def test_run_main_lets_an_unmapped_exception_escape(monkeypatch, capsys):
    """An exception main does not map to an exit code fails the test, as a
    traceback on a child's stderr would."""
    def broken(path):
        raise KeyError(path)

    monkeypatch.setattr(cli, "read_json", broken)
    with pytest.raises(KeyError):
        run_main(capsys, "graph", "cover", "--input", "g.json")


def test_run_main_reports_a_usage_error_as_exit_two(capsys):
    proc = run_main(capsys, "graph", "gen", "--p", "x")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: matchprice graph gen ")
    assert proc.stderr.endswith("error: argument --p: invalid float value: 'x'\n")


def test_missing_input_file_exits_two(tmp_path, capsys):
    code, _ = run(capsys, "solve", "matching", "--algo", "exact",
                  "--input", str(tmp_path / "absent.json"))
    assert code == 2


ROUTING_INPUTS = {
    "csp": {"num_vars": 2, "clauses": [{"vars": [0, 1], "satisfying": ["01", "10"]},
                                       {"vars": [0, 1], "satisfying": ["00", "11"]}]},
    "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
    "bipartite": {"left": 3, "right": 3, "edges": [[0, 0], [0, 1], [1, 1], [2, 2]]},
    "complete": {"left": 6, "right": 6, "edges": [[u, w] for u in range(6) for w in range(6)]},
}


# (argv, --seed given, what --out receives: "artifact", "report" or None for no --out)
ROUTING_CASES = [
    (["csp", "gen", "--num-vars", "3", "--num-clauses", "2", "--arity", "2", "--seed", "3"],
     3, "artifact"),
    (["csp", "amplify", "--input", "{csp}", "--t", "2", "--m-out", "2", "--seed", "3"],
     3, "artifact"),
    (["csp", "duplicate", "--input", "{csp}", "--copies", "2"], None, "artifact"),
    (["csp", "fglss", "--input", "{csp}"], None, "artifact"),
    (["csp", "replace", "--input", "{csp}", "--graph", "{fglss}", "--d", "2", "--seed", "3"],
     3, "artifact"),
    (["disperser", "gen", "--n", "4", "--d", "4", "--gamma", "1/2", "--seed", "3"],
     3, "artifact"),
    (["disperser", "verify", "--input", "{complete}", "--gamma", "1/3"], None, None),
    (["disperser", "check-lemma", "--input", "{complete}", "--gamma", "1/3", "--seed", "3"],
     3, None),
    (["graph", "gen", "--n", "5", "--p", "0.5", "--seed", "3"], 3, "artifact"),
    (["graph", "cover", "--input", "{graph}"], None, "artifact"),
    (["solve", "matching", "--algo", "exact", "--input", "{bipartite}"], None, "artifact"),
    (["solve", "pricing", "--algo", "oracle", "--input", "{pricing}"], None, "artifact"),
    (["reduce", "matching-to-pricing", "--d", "3", "--seed", "3", "--input", "{bipartite}"],
     3, "artifact"),
    (["pipeline", "run", "--csp", "{csp}", "--t", "1", "--d", "2", "--seed", "3"], 3, "report"),
    (["verify", "all", "--seed", "3"], 3, "report"),
]


@pytest.mark.parametrize(
    "argv, seed, out", ROUTING_CASES, ids=["-".join(case[0][:2]) for case in ROUTING_CASES]
)
def test_every_command_reports_its_words_and_seed(tmp_path, capsys, argv, seed, out):
    paths = {"pricing": resources.files("matchprice") / "data" / "two_consumer_smp.json"}
    for name, obj in ROUTING_INPUTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    paths["fglss"] = tmp_path / "fglss.json"
    assert run(capsys, "csp", "fglss", "--input", str(paths["csp"]),
               "--out", str(paths["fglss"]))[0] == 0
    argv = [arg.format(**paths) for arg in argv]
    artifact = tmp_path / "artifact.json"

    code, stdout = run(capsys, *argv, *(["--out", str(artifact)] if out == "artifact" else []))
    assert code == 0
    report = json.loads(stdout)
    # verify all writes run_all's own report, which names no command
    assert report.get("command") == (None if argv[0] == "verify" else " ".join(argv[:2]))
    assert report["seed"] == seed

    if out is not None:
        code, stdout = run(capsys, *argv, "--out", "-")
        assert code == 0
        json.loads(stdout)  # exactly one document
        assert stdout == (artifact.read_text() if out == "artifact" else dumps(report))


TABLE_PAIRS = [(group, leaf) for group, (_, leaves) in COMMANDS.items() for leaf in leaves]


def test_routing_cases_cover_every_command():
    assert sorted(tuple(argv[:2]) for argv, _, _ in ROUTING_CASES) == sorted(TABLE_PAIRS)


def parser_tree(parser):
    """The parser and every parser below it, depth first in --help order."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from parser_tree(child)


def test_help_output_matches_golden_file(monkeypatch):
    """Every --help page, rendered 80 columns wide: the top level, the 7
    groups and the 15 leaves, each after a "$ <prog> --help" line."""
    monkeypatch.setenv("COLUMNS", "80")
    parsers = list(parser_tree(build_parser()))
    assert len(parsers) == 1 + len(COMMANDS) + len(TABLE_PAIRS) == 23
    rendered = "".join(f"$ {p.prog} --help\n{p.format_help()}" for p in parsers)
    golden = Path(__file__).parent / "data" / "cli_help.txt"
    assert rendered == golden.read_text(encoding="utf-8")


def golden_pages():
    """{prog: its --help page} from the golden file."""
    text = (Path(__file__).parent / "data" / "cli_help.txt").read_text(encoding="utf-8")
    parts = re.split(r"^\$ (.*) --help\n", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("group, leaf", TABLE_PAIRS)
def test_leaf_help_from_its_own_parser_matches_golden_file(monkeypatch, capsys, group, leaf):
    """main builds the top parser, one group and one leaf for a leaf's
    words, and prints the page the full tree prints."""
    monkeypatch.setenv("COLUMNS", "80")
    built = []

    def recorded(argv=()):
        parser = build_parser(argv)
        built.append([p.prog for p in parser_tree(parser)])
        return parser

    monkeypatch.setattr(cli, "build_parser", recorded)
    proc = run_main(capsys, group, leaf, "--help")
    assert proc.returncode == 0
    assert proc.stdout == golden_pages()[f"matchprice {group} {leaf}"]
    assert built == [["matchprice", f"matchprice {group}", f"matchprice {group} {leaf}"]]


BAD_USAGE = [[group, leaf] for group, leaf in TABLE_PAIRS
             if any(keywords.get("required") for _, keywords in COMMANDS[group][1][leaf][2])]
BAD_USAGE += [["verify", "all", "--bogus"], ["solve", "pricing", "--algo", "best"],
              ["graph", "gen", "--p", "x"], ["verify", "nothing"], ["nothing"], []]


@pytest.mark.parametrize("argv", BAD_USAGE, ids=lambda argv: " ".join(argv) or "no-words")
def test_usage_errors_match_the_full_tree(monkeypatch, capsys, argv):
    """A missing or bad flag reads the same on stderr, with exit 2, as
    when every parser is built."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    full = (stop.value.code, *capsys.readouterr())
    proc = run_main(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == full
    assert full[0] == 2 and "error:" in full[2]


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = str(Path(matchprice.__file__).resolve().parents[1])
    probe = "import sys, matchprice.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_readme_subcommands_name_every_command_and_flag():
    """The README "Subcommands" block lists exactly the table's leaves, each
    with exactly its flags; an entry may continue on indented lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Subcommands", 1)[1].split("```", 2)[1]
    listed = {}
    for line in block.splitlines():
        if line.startswith("matchprice "):
            flags = listed.setdefault(tuple(line.split()[1:3]), set())
        if line.strip():
            flags.update(re.findall(r"--[a-z][a-z-]*", line))
    assert listed == {
        (group, leaf): {flag for flag, _ in arguments}
        for group, (_, leaves) in COMMANDS.items()
        for leaf, (_, _, arguments) in leaves.items()
    }


def run_cli(*argv, module="matchprice.cli", preexec_fn=None, timeout=120, **environ):
    """The CLI as a subprocess, with extra environment variables."""
    src = str(Path(matchprice.__file__).resolve().parents[1])
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=preexec_fn,
    )


def unjustified_children(source: str) -> list[str]:
    """run_cli calls that pass no preexec_fn, module or environment
    variable: their exit codes read as well from run_main, in process."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli"
        and not {keyword.arg for keyword in node.keywords} - {"timeout", None}
    ]


def test_child_checker_sees_calls_without_a_reason():
    source = (
        'run_cli("verify", "all")\nrun_cli("csp", timeout=5)\nrun_cli("csp", preexec_fn=f)\n'
        'run_cli("--version", module="matchprice")\nrun_cli("verify", MATCHPRICE_X="1")\n'
        'run_main(capsys, "verify")\n'
    )
    assert unjustified_children(source) == ["line 1", "line 2"]


def test_children_start_only_where_the_process_is_under_test():
    assert unjustified_children(Path(__file__).read_text(encoding="utf-8")) == []


def limit_memory():
    """Cap the child's address space at 1 GiB, so an input that makes it
    grow without bound fails fast instead of filling the host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def labeled_pair(labels):
    return {"graph": {"n": 2, "edges": [[0, 1]]}, "labels": labels}


MALFORMED_FILES = {
    "graph_edge_triple": {"n": 3, "edges": [[0, 1, 2]]},
    "graph_edge_int": {"n": 3, "edges": [5]},
    "bipartite_edges_int": {"left": 2, "right": 2, "edges": 7},
    "bipartite_edge_single": {"left": 2, "right": 2, "edges": [[0]]},
    "disperser_edge_triple": {
        "left": 2, "right": 2, "edges": [[0, 1, 1]], "target_degree": 1,
    },
    "csp_satisfying_string": {
        "num_vars": 2, "clauses": [{"vars": [0, 1], "satisfying": "01"}],
    },
    "csp_xor": {
        "num_vars": 2, "clauses": [{"vars": [0, 1], "satisfying": ["01", "10"]}],
    },
    "labels_triple": labeled_pair([[0, "01", 5], [0, "10"]]),
    "labels_float_index": labeled_pair([[0.9, "01"], [0, "10"]]),
    "labels_clause_index": labeled_pair([[7, "01"], [0, "10"]]),
    "labels_short_pattern": labeled_pair([[0, "10"], [0, "0"]]),
    "graph_bool_endpoint": {"n": 3, "edges": [[0, True], [1, 2]]},
    "bipartite_bool_side": {"left": True, "right": 2, "edges": [[0, 1]]},
    "disperser_bool_endpoint": {
        "left": 2, "right": 2, "edges": [[0, True], [1, 0]], "target_degree": 1,
    },
    "csp_bool_variable": {
        "num_vars": 2, "clauses": [{"vars": [True, 0], "satisfying": ["01"]}],
    },
    "csp_bool_num_vars": {"num_vars": True, "clauses": []},
    "pricing_bool_items": {
        "items": True, "rule": "udp",
        "groups": [{"bundle": [0], "budget": "1", "multiplicity": "1"}],
    },
    "csp_float_num_vars": {"num_vars": 2.5, "clauses": []},
    "csp_whole_float_num_vars": {"num_vars": 3.0, "clauses": []},
    "csp_no_clauses": {"num_vars": 2, "clauses": []},
    "pricing_float_multiplicity": {
        "items": 1, "rule": "udp",
        "groups": [{"bundle": [0], "budget": "3", "multiplicity": 2.5}],
    },
    "pricing_bool_multiplicity": {
        "items": 1, "rule": "udp",
        "groups": [{"bundle": [0], "budget": "3", "multiplicity": True}],
    },
    "pricing_int_bundle": {
        "items": 1, "rule": "udp",
        "groups": [{"bundle": 5, "budget": "3", "multiplicity": "1"}],
    },
    "csp_int_vars": {"num_vars": 2, "clauses": [{"vars": 5, "satisfying": ["01"]}]},
    "csp_int_pattern": {"num_vars": 2, "clauses": [{"vars": [0, 1], "satisfying": [1]}]},
    "pricing_signed_multiplicity": {
        "items": 1, "rule": "udp",
        "groups": [{"bundle": [0], "budget": "3", "multiplicity": "+2"}],
    },
    "disperser_float_degree": {
        "left": 2, "right": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]], "target_degree": 2.9,
    },
    "disperser_negative_degree": {
        "left": 3, "right": 3, "edges": [[u, w] for u in range(3) for w in range(3)],
        "target_degree": -3,
    },
    "graph_int": 5,
    "graph_null": None,
    "graph_true": True,
    "graph_string": "n",
    "bipartite_float_side": {"left": 2.5, "right": 2, "edges": []},
    "graph_string_size": {"n": "3", "edges": []},
    "graph_no_edges_key": {"n": 2},
    "graph_float_endpoint": {"n": 2, "edges": [[0, 1.0]]},
    "csp_int": 5,
    "csp_list": [],
    "csp_int_clauses": {"num_vars": 2, "clauses": 5},
    "csp_int_clause": {"num_vars": 2, "clauses": [5]},
    "pricing_int": 5,
    "pricing_list": [],
    "pricing_int_groups": {"items": 1, "rule": "udp", "groups": 5},
    "pricing_int_group": {"items": 1, "rule": "udp", "groups": [5]},
    "pricing_string_items": {
        "items": "2", "rule": "udp",
        "groups": [{"bundle": [0], "budget": "1", "multiplicity": "1"}],
    },
    "conflict_list": [labeled_pair([[0, "01"], [0, "10"]])],
}

# Nesting deeper than the json decoder's recursion limit; json.dumps cannot write it.
MALFORMED_TEXTS = {
    "deep_list": "[" * 100000,
    "graph_deep_value": '{"n": 2, "edges": [[0, 1]], "unused": %s%s}' % ("[" * 5000, "]" * 5000),
}


@pytest.fixture(scope="module")
def malformed_paths(tmp_path_factory):
    """{name: path} of every malformed file, written once for all rows that
    read them, and of missing_dir, a directory never made."""
    root = tmp_path_factory.mktemp("malformed")
    paths = {"missing_dir": str(root / "missing")}
    texts = {name: json.dumps(obj) for name, obj in MALFORMED_FILES.items()}
    for name, text in {**texts, **MALFORMED_TEXTS}.items():
        path = root / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


REPLACE = ["csp", "replace", "--input", "{csp_xor}", "--d", "1", "--graph"]
PIPELINE = ["pipeline", "run", "--t", "1", "--d", "2", "--csp"]
ORACLE = ["solve", "pricing", "--algo", "oracle", "--input"]
NOT_A_GRAPH = "json object is neither a graph nor a bipartite graph"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "matching", "--algo", "exact", "--input", "{graph_edge_triple}"],
         "bad graph json"),
        (["graph", "cover", "--input", "{bipartite_edge_single}"],
         "bad bipartite graph json"),
        (["disperser", "verify", "--gamma", "1/2", "--input", "{disperser_edge_triple}"],
         "bad disperser json"),
        (["csp", "fglss", "--input", "{csp_satisfying_string}"], "is not a list"),
        (["graph", "gen", "--n", "5", "--p", "2"], "edge probability"),
        (["graph", "gen", "--left", "2", "--right", "3", "--p", "-0.5"], "edge probability"),
        (["graph", "gen", "--n", "5", "--p", "0.5", "--out", "{missing_dir}/x.json"],
         "cannot write"),
        (["verify", "all", "--out", "{missing_dir}/r.json"], "cannot write"),
        (REPLACE + ["{labels_triple}"], "[clause index, pattern] pairs"),
        (REPLACE + ["{labels_float_index}"], "[clause index, pattern] pairs"),
        (REPLACE + ["{labels_clause_index}"], "vertex 0: clause index 7 out of range"),
        (REPLACE + ["{labels_short_pattern}"], "vertex 1: '0' is not a satisfying pattern"),
        (["graph", "cover", "--input", "{graph_bool_endpoint}"],
         "edge (0, True) endpoints must be integers"),
        (["solve", "matching", "--algo", "exact", "--input", "{graph_bool_endpoint}"],
         "edge (0, True) endpoints must be integers"),
        (["solve", "matching", "--algo", "exact", "--input", "{bipartite_bool_side}"],
         "side sizes must be nonnegative integers, got True and 2"),
        (["disperser", "verify", "--gamma", "1/2", "--input", "{disperser_bool_endpoint}"],
         "edge (0, True) endpoints must be integers"),
        (["csp", "fglss", "--input", "{csp_bool_variable}"], "bad variable True"),
        (["csp", "fglss", "--input", "{csp_bool_num_vars}"],
         "num_vars must be a nonnegative integer, got True"),
        (["solve", "pricing", "--algo", "uniform", "--input", "{pricing_bool_items}"],
         "item_count must be a positive integer, got True"),
        (PIPELINE + ["{csp_float_num_vars}"], "num_vars must be a nonnegative integer, got 2.5"),
        (PIPELINE + ["{csp_whole_float_num_vars}"],
         "num_vars must be a nonnegative integer, got 3.0"),
        (PIPELINE + ["{csp_no_clauses}"], "the pipeline needs a CSP with at least one clause"),
        (ORACLE + ["{pricing_float_multiplicity}"],
         "multiplicity must be a positive integer, got 2.5"),
        (ORACLE + ["{pricing_bool_multiplicity}"],
         "multiplicity must be a positive integer, got True"),
        (ORACLE + ["{pricing_signed_multiplicity}"],
         "multiplicity must be a positive integer, got '+2'"),
        (["disperser", "check-lemma", "--gamma", "1/2", "--input", "{disperser_float_degree}"],
         "target_degree must be an integer, got 2.9"),
        (["disperser", "check-lemma", "--gamma", "1/3", "--input", "{disperser_negative_degree}"],
         "bad disperser json: target_degree must be at least 1, got -3"),
        (["graph", "cover", "--input", "{graph_int}"], NOT_A_GRAPH),
        (["solve", "matching", "--algo", "exact", "--input", "{graph_null}"], NOT_A_GRAPH),
        (["disperser", "verify", "--gamma", "1/2", "--input", "{graph_true}"], NOT_A_GRAPH),
        (["disperser", "check-lemma", "--gamma", "1/2", "--input", "{graph_string}"],
         NOT_A_GRAPH),
        (["reduce", "matching-to-pricing", "--d", "3", "--input", "{graph_int}"], NOT_A_GRAPH),
        (["solve", "matching", "--algo", "exact", "--input", "{bipartite_float_side}"],
         "left and right side sizes must be nonnegative integers, got 2.5 and 2"),
        (["graph", "cover", "--input", "{graph_string_size}"],
         "vertex count n must be a nonnegative integer, got '3'"),
        (["solve", "matching", "--algo", "exact", "--input", "{graph_no_edges_key}"],
         "bad graph json: missing key 'edges'"),
        (["solve", "matching", "--algo", "exact", "--input", "{graph_edge_triple}"],
         "edges: (0, 1, 2) is not a pair of vertices"),
        (["graph", "cover", "--input", "{graph_float_endpoint}"],
         "edge (0, 1.0) endpoints must be integers"),
        (["graph", "cover", "--input", "{graph_edge_int}"], "edges: 5 is not a pair of vertices"),
        (["solve", "matching", "--algo", "exact", "--input", "{bipartite_edges_int}"],
         "edges must be a list of [u, w] pairs"),
        (["graph", "cover", "--input", "{deep_list}"], "deep_list.json is not valid json"),
        (["graph", "cover", "--input", "{graph_deep_value}"],
         "graph_deep_value.json is not valid json"),
        (ORACLE + ["{pricing_int_bundle}"], "group bundle 5 is not a list of items"),
        (["csp", "fglss", "--input", "{csp_int_vars}"], "clause vars 5 is not a list"),
        (["csp", "fglss", "--input", "{csp_int_pattern}"],
         "satisfying pattern 1 does not fit arity 2"),
        (["csp", "fglss", "--input", "{csp_int}"], "bad csp json: expected an object, got int"),
        (["csp", "amplify", "--t", "1", "--m-out", "1", "--input", "{csp_list}"],
         "bad csp json: expected an object, got list"),
        (["csp", "fglss", "--input", "{csp_int_clauses}"], "bad csp json: clauses 5 is not a list"),
        (PIPELINE + ["{csp_int_clause}"], "bad csp json: expected an object, got int"),
        (ORACLE + ["{pricing_int}"], "bad pricing instance json: expected an object, got int"),
        (["solve", "pricing", "--algo", "uniform", "--input", "{pricing_list}"],
         "bad pricing instance json: expected an object, got list"),
        (ORACLE + ["{pricing_int_groups}"], "bad pricing instance json: groups 5 is not a list"),
        (ORACLE + ["{pricing_int_group}"],
         "bad pricing instance json: expected an object, got int"),
        (ORACLE + ["{pricing_string_items}"],
         "bad pricing instance json: item_count must be a positive integer, got '2'"),
        (REPLACE + ["{conflict_list}"], "bad conflict graph json: expected an object, got list"),
        (["csp", "gen", "--num-vars", "3", "--num-clauses", "-1", "--arity", "2"],
         "clause count must be nonnegative, got -1"),
    ],
    ids=["graph-edge", "bipartite-edge", "disperser-edge", "csp-satisfying", "p-above-one",
         "p-below-zero", "gen-out-unwritable", "verify-out-unwritable", "label-triple",
         "label-float-index", "label-clause-index", "label-short-pattern",
         "graph-bool-endpoint-cover", "graph-bool-endpoint-solve", "bipartite-bool-side",
         "disperser-bool-endpoint", "csp-bool-variable", "csp-bool-num-vars",
         "pricing-bool-items", "csp-float-num-vars", "csp-whole-float-num-vars",
         "csp-no-clauses", "pricing-float-multiplicity", "pricing-bool-multiplicity",
         "pricing-signed-multiplicity", "disperser-float-degree", "disperser-negative-degree",
         "graph-int-cover",
         "graph-null-solve", "graph-true-verify", "graph-string-lemma", "graph-int-reduce",
         "bipartite-float-side", "graph-string-size", "graph-missing-edges",
         "graph-edge-triple-named", "graph-float-endpoint", "graph-edge-int",
         "bipartite-edges-int", "deep-list", "graph-deep-value", "pricing-int-bundle",
         "csp-int-vars", "csp-int-pattern", "csp-int", "csp-list", "csp-int-clauses",
         "csp-int-clause", "pricing-int", "pricing-list", "pricing-int-groups",
         "pricing-int-group", "pricing-string-items", "conflict-graph-list",
         "csp-gen-negative-clauses"],
)
def test_malformed_input_exits_two_without_traceback(malformed_paths, capsys, argv, message):
    proc = run_main(capsys, *(arg.format(**malformed_paths) for arg in argv))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    for internal in ("not subscriptable", "not iterable", "list indices"):
        assert internal not in proc.stderr


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_lemma_without_samples_exits_two_without_traceback(tmp_path, capsys, samples):
    disp = tmp_path / "disp.json"
    disp.write_text(json.dumps(
        {"left": 10, "right": 10, "edges": [[u, w] for u in range(10) for w in range(10)]}
    ))
    proc = run_main(capsys, "disperser", "check-lemma", "--input", str(disp), "--gamma", "1/4",
                    "--samples", samples)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: samples must be at least 1")
    assert proc.stdout == ""


def test_non_integer_cap_override_exits_two_without_traceback():
    proc = run_cli("verify", "all", MATCHPRICE_MAX_IS_VERTICES="abc")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: MATCHPRICE_MAX_IS_VERTICES")
    assert proc.stdout == ""



@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "pricing", "--algo", "uniform", "--input", "{huge_budget}"],
        ["solve", "pricing", "--algo", "scheme", "--alpha", "1e-5000", "--input", "{smp_example}"],
        ["solve", "pricing", "--algo", "uniform", "--input", "{huge_int}"],
    ],
    ids=["budget-1e999999", "alpha-1e-5000", "budget-5001-digit-int"],
)
def test_oversized_rational_exits_two_without_traceback(tmp_path, capsys, argv):
    """A value whose numerator or denominator has more digits than Python
    prints is refused where it is parsed, not when its report is written."""
    paths = {"smp_example": resources.files("matchprice") / "data" / "two_consumer_smp.json"}
    for name, budget in (("huge_budget", '"1e999999"'), ("huge_int", "1" + "0" * 5000)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(
            '{"items": 1, "rule": "smp", "groups": [{"budget": %s, "bundle": [0], "multiplicity": 1}]}' % budget
        )
    proc = run_main(capsys, *(arg.format(**paths) for arg in argv))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "needs more than" in proc.stderr or "Exceeds the limit" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("extra", [[], ["--out", "-", "--provenance", "-"]],
                         ids=["report", "artifact-and-provenance"])
def test_unprintable_rational_result_exits_two_without_traceback(tmp_path, capsys, extra):
    """Budgets d^-3i and multiplicities d^3i of the reduction at d = 10000
    have more digits than Python prints: the command is refused before it
    writes anything."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"left": 2, "right": 2, "edges": [[0, 0], [1, 1]]}))
    proc = run_main(capsys, "reduce", "matching-to-pricing", "--d", "10000", "--input", str(path),
                    *extra)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    limit = sys.get_int_max_str_digits()
    assert proc.stderr == f"error: rational result needs more than {limit} digits\n"
    assert proc.stdout == ""


def test_undecodable_input_exits_two_without_traceback(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    proc = run_main(capsys, "solve", "pricing", "--algo", "uniform", "--input", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "is not valid json" in proc.stderr


def test_geometric_refuses_a_huge_item_count_in_bounded_time(tmp_path):
    """A ladder of two or more rungs over more items than the cap has bits
    is refused without computing len(ladder) ** items."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "items": 100000000000, "rule": "udp",
        "groups": [{"bundle": [0], "budget": "1", "multiplicity": "1"}],
    }))
    proc = run_cli("solve", "pricing", "--algo", "geometric", "--input", str(path),
                   preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("refused: ") and "MAX_GEOMETRIC_WORK" in proc.stderr
    assert "more than 2000000" in proc.stderr


def test_scheme_with_a_tiny_delta_runs_in_bounded_memory(tmp_path):
    """delta = 1/10^12 on two items: the block count needs no 10^12-th
    power, so the scheme answers under a 1 GiB address-space limit."""
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "items": 2, "rule": "smp",
        "groups": [{"bundle": [0, 1], "budget": "3", "multiplicity": "2"},
                   {"bundle": [1], "budget": "1", "multiplicity": "1"}],
    }))
    proc = run_cli("solve", "pricing", "--algo", "scheme", "--delta", "1/1000000000000",
                   "--input", str(path), preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_invariant_failure_exits_four(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "is_induced_matching", lambda g, m: False)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    proc = run_main(capsys, "solve", "matching", "--algo", "exact", "--input", str(path))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: invariant failed: max_induced_matching_bruteforce:")


def test_fglss_allocates_only_for_variables_in_some_label(tmp_path):
    """One clause over two of 10^11 variables builds its two-vertex graph:
    side masks exist only for variables that occur in some label."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "num_vars": 100000000000,
        "clauses": [{"vars": [0, 99999999999], "satisfying": ["01", "10"]}],
    }))
    proc = run_cli("csp", "fglss", "--input", str(path), preexec_fn=limit_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["graph"] == {"n": 2, "edges": [[0, 1]]}


def test_package_runs_as_a_module():
    proc = run_cli("--version", module="matchprice")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"matchprice {matchprice.__version__}\n"
