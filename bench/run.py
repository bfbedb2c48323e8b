"""matchprice benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload {verify-desk,pricing-cap,csp-graph}
                         --seed N --seconds S --trace {0,1}

With --trace 0 the run is a closed loop with one client: jobs of the
workload's mix run one after another, in this process or (verify-desk) as
CLI subprocesses, until S seconds have passed and at least one full round
of the mix is done.  It reports the end-to-end metrics, with every time
rescaled to one fixed host speed (see HostSpeed).

With --trace 1 it runs each job of a fixed pass twice, untraced and with
every public layer function wrapped in a span recorder (alternating which
goes first), and reports the per-layer metrics.  The pass is fixed so that
its call and work counts repeat exactly for a seed.

Every job's output is checked; failures, refusals and digest mismatches
(the reference table covers seed 0) count as failed.  The last line of
standard output is the result as one JSON object.  A per-job record,
the environment and (traced) the spans are written under .bench_build/.
"""

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "matchprice-bench"
REFERENCE = BENCH / "reference_digests.json"
SETUP_SAMPLES = 15
# Between the kernel's fastest and median time on the 2-vCPU machine the
# benchmark was built on; it sets the scale of every time metric, nothing else.
REFERENCE_S = 0.001
REFERENCE_PERIOD_S = 0.02
REFERENCE_WINDOW_S = 0.25

END_TO_END = {"jobs_per_s": "1/s", "job_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

VERIFY_CHECKS = ("pricing.oracle_dominates_heuristics", "pricing.geometric_quarter_bound",
                 "reduction.extraction_validity")
CALL_COUNTED = ("pricing.evaluate_revenue", "pricing.geometric_enum_approx", "ratlp.maximize")
WORK_COUNTED = ("pricing.geometric_enum_approx.vectors", "pricing.opt_udp_bruteforce.vectors",
                "pricing.opt_smp_bruteforce.subsets", "csp_fglss.max_sat_bruteforce.assignments",
                "disperser.verify_disperser.subsets")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env() -> dict:
    """The environment for every subprocess: no cap overrides, no -O, src on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MATCHPRICE_") and k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Context:
    def __init__(self):
        self.root = str(ROOT)
        self.env = clean_env()


def environment() -> dict:
    from matchprice import caps

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "caps": caps.snapshot(),
        "git_commit": commit,
    }


def reference_kernel() -> int:
    """Fixed pure-Python work of the package's kind: fractions, tuples, dicts, sets."""
    total = Fraction(0)
    table = {}
    seen = set()
    for i in range(1, 101):
        f = Fraction(i, i % 7 + 1)
        total += f * f - Fraction(1, i)
        table[(i, i % 5)] = total.numerator % 97
        seen.add(tuple(sorted((i % 13, i % 11, i % 7))))
    return len(table) + len(seen)


class HostSpeed:
    """The host's speed through a run, sampled by a timer, to rescale wall times.

    The shared host this was built on ran the same code up to 2.6 times
    slower from one second to the next, and a run's figures with it.  While
    a ``with HostSpeed()`` block is open, a timer interrupts the process
    every REFERENCE_PERIOD_S and times one run of the reference kernel, also
    in the middle of a job.  An interval's time at one fixed host speed is
    its wall time, less the kernel runs inside it, times REFERENCE_S / r,
    where 1 / r is the mean of 1 / (kernel time) over the samples within
    REFERENCE_WINDOW_S of the interval: time weighted by the speed at each
    moment.
    """

    def __init__(self):
        self.starts, self.times = [], []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float, seconds: float | None = None) -> float:
        """``seconds`` (default: the wall time from start to end), measured
        within [start, end], at the reference host speed.  A part of the
        interval (a child's own timing) bears its share of the kernel runs."""
        inside = sum(self.times[bisect.bisect_left(self.starts, start):
                                bisect.bisect_left(self.starts, end)])
        near = self.times[bisect.bisect_left(self.starts, start - REFERENCE_WINDOW_S):
                          bisect.bisect_left(self.starts, end + REFERENCE_WINDOW_S)]
        if not near:
            raise AssertionError("no host speed sample near a timed interval")
        if seconds is not None:
            inside *= seconds / (end - start)
        else:
            seconds = end - start
        return (seconds - inside) * REFERENCE_S * statistics.fmean(1 / t for t in near)


def execute(job, reference: dict) -> dict:
    """Run one job (timed), then check it (untimed).

    A full collection first: the package's recursive search helpers leave
    reference cycles (memo tables included), and without it a job's time and
    the peak memory would depend on garbage left by earlier jobs.
    """
    from workloads import digest

    gc.collect()
    start = time.perf_counter()
    try:
        result = job.run()
        error = None
    except Exception as exc:  # any failure of the program is a failed job
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    record = {"id": job.id, "kind": job.kind, "seconds": end - start,
              "start": start, "end": end, "caps": {}}
    if error is not None:
        record["problems"] = [error]
        return record
    try:
        problems, output, caps_used = job.check(result)
    except Exception as exc:  # a malformed result is a failed job too
        record["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
        return record
    record["digest"] = digest(output)
    expected = reference.get(job.id)
    if expected is not None and expected != record["digest"]:
        problems = problems + [f"digest {record['digest'][:12]} != reference {expected[:12]}"]
    record["problems"] = problems
    record["caps"] = caps_used
    return record


def measure_setup(wl, inputs_path: Path, env: dict) -> list:
    """Set-up times of fresh interpreters, as (start, end, seconds or None for end - start)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        if wl.runs_cli:
            # captured output: the wait ends at the pipe's EOF, not at a polling step
            subprocess.run([sys.executable, "-c", "import matchprice.cli"], cwd=ROOT, env=env,
                           check=True, timeout=60, capture_output=True)
            seconds = None
        else:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), wl.name, str(inputs_path)],
                cwd=ROOT, env=env, check=True, timeout=60, capture_output=True, text=True)
            seconds = float(proc.stdout.strip().splitlines()[-1])
        samples.append((start, time.perf_counter(), seconds))
    return samples


def mix_median(values: dict, mix: dict) -> float:
    """Median job time at the stated mix: the per-kind medians weighted by their counts."""
    total = sum(mix.values())
    covered = 0
    for kind in sorted(mix, key=lambda k: values[k]):
        covered += mix[kind]
        if 2 * covered >= total:
            return values[kind]
    raise AssertionError("unreachable")


def timed_run(wl, jobs, reference, seconds, inputs_path, ctx):
    reference_kernel()  # warm-up
    records = []
    with HostSpeed() as speed:
        setup_intervals = measure_setup(wl, inputs_path, ctx.env)
        start = time.perf_counter()
        i = 0
        while i < wl.round_len or time.perf_counter() - start < seconds:
            records.append(execute(jobs[i % len(jobs)], reference))
            i += 1
            if i == wl.round_len:
                # peak memory over one full round: later rounds' inputs, and how
                # many of them the host speed lets a run reach, leave it alone
                who = resource.RUSAGE_CHILDREN if wl.runs_cli else resource.RUSAGE_SELF
                peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        wall = time.perf_counter() - start
    setup = [speed.scaled(*interval) for interval in setup_intervals]
    for record in records:
        record["scaled_s"] = speed.scaled(record["start"], record["end"])
    by_kind = {k: [r["scaled_s"] for r in records if r["kind"] == k] for k in wl.mix}
    wall_by_kind = {k: [r["seconds"] for r in records if r["kind"] == k] for k in wl.mix}
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    metrics = {
        "jobs_per_s": wl.round_len / sum(wl.mix[k] * medians[k] for k in wl.mix),
        "job_s.p50": mix_median(medians, wl.mix),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"wall_s": wall, "setup_samples": setup,
             "reference_s": {"median": statistics.median(speed.times),
                             "min": min(speed.times), "samples": len(speed.times)},
             "kinds": {
                 k: {"n": len(v), "median_s": medians[k], "wall_median_s": statistics.median(
                     wall_by_kind[k]), "mean_s": statistics.fmean(v),
                     "p90_s": statistics.quantiles(v, n=10)[-1] if len(v) >= 100 else None}
                 for k, v in by_kind.items()}}
    return records, metrics, extra


def trace_run(wl, jobs, reference, inputs, ctx):
    import tracing
    import workloads

    n = wl.trace_jobs
    cli_records = []
    pass_jobs = jobs[:n]
    if wl.runs_cli:
        cli_records = [execute(job, reference) for job in pass_jobs]
        pass_jobs = wl.inprocess_twin(inputs)[:n]
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for i, job in enumerate(pass_jobs):
        # alternate which side runs first, so drift and warm caches cancel
        for side in ((untraced, traced) if i % 2 == 0 else (traced, untraced)):
            if side is traced:
                with tracing.patched(tracer, [workloads]):
                    traced.append(execute(job, reference))
            else:
                untraced.append(execute(job, reference))
    records = cli_records + untraced + traced
    tracer.write(OUT / f"{wl.name}.spans.json")

    spans = tracer.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    metrics = {}
    if cli_records:
        metrics["cli.overhead_s"] = statistics.median(
            c["seconds"] - u["seconds"] for c, u in zip(cli_records, untraced))
    else:
        metrics["cli.overhead_s"] = 0.0
    metrics["verify.run_all.s"] = span("verify.run_all", "total_s")
    checks = {name[len("verify.check."):]: entry["total_s"]
              for name, entry in spans.items() if name.startswith("verify.check.")}
    for name in VERIFY_CHECKS:
        metrics[f"verify.check.{name}.s"] = checks.get(name, 0.0)
    metrics["verify.check.other.s"] = sum(v for k, v in checks.items() if k not in VERIFY_CHECKS)
    for layer, name in tracing.TARGETS:
        # run_all is reported as its total; random_disperser only supplies disperser_replace
        if name not in ("run_all", "random_disperser"):
            metrics[f"{layer}.{name}.self_s"] = span(f"{layer}.{name}", "self_s")
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = span(name, "calls")
    calls = span("pricing.evaluate_revenue", "calls")
    metrics["pricing.evaluate_revenue.us_per_call"] = (
        span("pricing.evaluate_revenue", "self_s") / calls * 1e6 if calls else 0.0)
    for name in WORK_COUNTED:
        metrics[name] = tracer.work.get(name, 0)
    for layer in tracing.LAYERS:
        if layer == "cli":
            metrics["cli.calls"] = len(cli_records)
            metrics["cli.refused"] = sum(
                any(p == "exit code 3" for p in r["problems"]) for r in cli_records)
            continue
        metrics[f"{layer}.calls"] = sum(
            e["calls"] for k, e in spans.items()
            if k.split(".")[0] == layer and not k.startswith("verify.check."))
        metrics[f"{layer}.refused"] = tracer.refused[layer]
    metrics["trace.overhead_ratio"] = (
        sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in untraced))
    extra = {"spans": spans, "work": tracer.work, "pass_jobs": n}
    return records, metrics, extra


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".us_per_call"):
        return "us"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def caps_headroom(records: list, limits: dict) -> dict:
    used = {}
    for record in records:
        for cap, value in record["caps"].items():
            used[cap] = max(used.get(cap, 0), value)
    return {cap: {"used_max": value, "limit": limits[cap]} for cap, value in sorted(used.items())}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="matchprice benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("verify-desk", "pricing-cap", "csp-graph"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> None:
    """Refuse -O and a checkout without the package; drop cap overrides; find src.

    The process (and so every subprocess) is pinned to one CPU, the one that
    runs a short calibration loop fastest: on the 2-vCPU machine the
    benchmark was built on, one vCPU was often a third slower than the other,
    and migrations between them added to the run-to-run spread.
    """
    if sys.flags.optimize:
        fail("refusing to run under -O: the package's assert post-conditions are measured too")
    if not (SRC / "matchprice" / "__init__.py").is_file():
        fail(f"package source not found at {SRC}; run from a full checkout")
    for key in [k for k in os.environ if k.startswith("MATCHPRICE_")]:
        del os.environ[key]  # caps are read at import time
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))[:4]
        os.sched_setaffinity(0, {min(cpus, key=calibration_s)})


def calibration_s(cpu: int) -> float:
    """Fastest of three short fixed loops on one CPU."""
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def run(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ctx = Context()
    OUT.mkdir(parents=True, exist_ok=True)
    inputs = wl.generate(args.seed)
    inputs_path = OUT / f"{wl.name}.inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    reference = {}
    if args.seed == 0:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[wl.name]
    jobs = wl.build(inputs, ctx)

    if args.trace:
        records, metrics, extra = trace_run(wl, jobs, reference, inputs, ctx)
    else:
        records, metrics, extra = timed_run(wl, jobs, reference, args.seconds, inputs_path, ctx)

    failed = sum(bool(r["problems"]) for r in records)
    env = environment()
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "mix": wl.mix, "attempted": len(records), "failed": failed,
        "metrics": metrics, "caps_headroom": caps_headroom(records, env["caps"]),
        "jobs": records, **extra,
    }
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str), encoding="utf-8")
    for record in records:
        if record["problems"]:
            print(f"bench: job {record['id']} failed: {record['problems']}", file=sys.stderr)
    if not args.trace:
        for kind, entry in extra["kinds"].items():
            p90 = "n<100" if entry["p90_s"] is None else f"{entry['p90_s']:.4f}s"
            print(f"bench: {wl.name} {kind:24s} n={entry['n']:4d} "
                  f"median={entry['median_s']:.4f}s wall median={entry['wall_median_s']:.4f}s "
                  f"mean={entry['mean_s']:.4f}s p90={p90}", file=sys.stderr)
        ref = extra["reference_s"]
        print(f"bench: reference kernel median={ref['median'] * 1e3:.3f}ms "
              f"min={ref['min'] * 1e3:.3f}ms over {ref['samples']} samples", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run())
