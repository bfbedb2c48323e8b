"""Rebuild bench/reference_digests.json for the default seed (0).

Usage (from the repository root): python3 bench/make_reference.py

Runs every job of every workload once, untimed, checks it, and records the
sha256 of its canonical output.  Writes nothing if any job fails its checks.
Rebuild the table only when a change is meant to alter outputs, and say so.
"""

import json
import sys

import run


def main() -> int:
    run.prepare()
    import workloads

    ctx = run.Context()
    table = {}
    failed = 0
    for wl in workloads.WORKLOADS.values():
        table[wl.name] = {}
        for job in wl.build(wl.generate(0), ctx):
            record = run.execute(job, {})
            if record["problems"]:
                print(f"{wl.name} {job.id}: {record['problems']}", file=sys.stderr)
                failed += 1
            table[wl.name][job.id] = record.get("digest")
    if failed:
        return 1
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
