"""Smoke test of the benchmark itself, at the shortest run length.

Usage (from the repository root): python3 bench/smoke.py
It takes about three minutes and exits nonzero on the first failed check.

1. Every workload, untraced and traced, exits 0 and ends with a result line
   whose metrics are exactly BENCHMARK.json's end_to_end names (untraced)
   or per_layer names (traced), each with its unit, and no job fails; an
   untraced run covers at least one full round of its mix.  The
   traced runs also show that the workloads isolate their layers.
2. In a copy whose reference table has one corrupted digest, the same run
   counts that job as failed.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per workload: layers whose traced call count must be zero
ISOLATED = {
    "csp-graph": ("pricing.calls", "ratlp.calls"),
    "pricing-cap": ("csp_fglss.calls", "disperser.calls"),
}


def bench(root: Path, workload: str, trace: int):
    argv = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAIL {message}", file=sys.stderr)
        sys.exit(1)


def check_metrics() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            proc = bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace {trace} exit {proc.returncode}: "
                                         f"{proc.stderr[-2000:]}")
            result = result_of(proc)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace {trace}: result keys {sorted(result)}")
            rounds = workloads.WORKLOADS[workload].round_len if trace == 0 else 1
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= rounds,
                   f"{workload} trace {trace}: {result['attempted']} attempted, "
                   f"{result['failed']} failed; {proc.stderr[-2000:]}")
            metrics = result["metrics"]
            expect(set(metrics) == set(units),
                   f"{workload} trace {trace}: metric names differ: "
                   f"{sorted(set(metrics) ^ set(units))}")
            for name, entry in metrics.items():
                expect(entry["unit"] == units[name] and isinstance(entry["value"], (int, float)),
                       f"{workload} {name}: {entry}")
            if trace:
                for name in ISOLATED.get(workload, ()):
                    expect(metrics[name]["value"] == 0, f"{workload} records {name}")
            print(f"smoke: ok {workload} trace {trace}")


def copy_benchmark(target: Path, with_source: bool) -> None:
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    for path in SPEC["paths"] + (["src"] if with_source else []):
        shutil.copytree(ROOT / path, target / path,
                        ignore=shutil.ignore_patterns("__pycache__"))


def check_corrupted_digest() -> None:
    copy = SCRATCH / "corrupted"
    copy_benchmark(copy, with_source=True)
    table_path = copy / "bench" / "reference_digests.json"
    table = json.loads(table_path.read_text(encoding="utf-8"))
    table["csp-graph"]["r0.maxsat-16"] = "0" * 64
    table_path.write_text(json.dumps(table), encoding="utf-8")
    proc = bench(copy, "csp-graph", 0)
    result = result_of(proc)
    expect(proc.returncode == 0 and result.get("failed", 0) >= 1 and not result["correct"],
           f"corrupted digest not counted as a failure: {result}")
    print("smoke: ok corrupted digest counted as failed")


def check_without_source() -> None:
    bare = SCRATCH / "bare"
    copy_benchmark(bare, with_source=False)
    proc = bench(bare, "verify-desk", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run without the package: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: ok refuses to run without the package source")


def main() -> int:
    check_without_source()
    check_corrupted_digest()
    check_metrics()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
