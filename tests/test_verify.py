"""The named invariant suite, its driver and its report shape."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchprice
from matchprice.cli import dumps, jsonify
from matchprice.errors import InputError, InvariantViolation
from matchprice.verify import CHECKS, CLAIMS, derive_seed, run_all

# sha256 of the verify all report for seeds 0..15, as the CLI prints it
REPORT_DIGESTS = (
    "f4350cbba226dd2373158cdfee56e8523caaf4821ba822689cdbfa66434aefbb",
    "3e69637765fc22ae91391289390a83d4df94c27492f0e24ced2f620aa80243cc",
    "23f8dc6631f2d70d0436d5ee8b013c0d4586957ec6a0a6985c31c541e424e7a0",
    "3fbf4d5b3b54cb4042dd5c7c658fc75d8da1d5e504090d940c79731ba7da45f1",
    "adbe9a95ca11eb2c381fedf1a560563636aa9a8bfe1f13713b6344548bdc8dce",
    "142c703178b52d98581ab86a4a63c2eb9fddb799a9f6c5277b339991161573c6",
    "dc8acd6316f97994f39c1b37c4a720942b75511754bfc1f2a46f75f4aa6dc8f7",
    "258de97a070a2af8377d42e57fb6e224de7243645157487a1e3d7e4713f1c004",
    "6c12c33034e3b8a32c98b15f3fc9706b95f78b9bd90aa1d9ae0f3b22db9f059d",
    "a32365aee05ef7cfa077940d1baa090eb18efd5f63c1dbac0151f6dd66fadd6b",
    "17cd384a213e6a6f1e3db4b6b1dd3285eda869af9c91004ffbe5af2662250b32",
    "3dbbe1af4ede9e74eb719f88e672df8d36a4d1b5a06e370314dcc22914a46900",
    "31964ff4bb5ae6e9ac7962567a10f79ff99f68e259c2df67fdf7a37df3066134",
    "ba194e353f438589cc0aa3b168d8a777a4a6c999d1380e763b657d3939c9dc4d",
    "e6bebb7b49a37df9dfb9ecaa1fb72ab9a5ce601e6a4dc646948c62009b27d481",
    "f97f448c45f617a7a2a024ec84fe7b306dc3aefd10bf6455f8449a57ce236112",
)

DIGEST_PROBE = (
    "import hashlib, sys\n"
    "from matchprice.cli import dumps, jsonify\n"
    "from matchprice.verify import run_all\n"
    "for seed in map(int, sys.argv[1:]):\n"
    "    print(hashlib.sha256(dumps(jsonify(run_all('desk', seed))).encode()).hexdigest())\n"
)


def report_digest(seed):
    return hashlib.sha256(dumps(jsonify(run_all("desk", seed))).encode()).hexdigest()


def test_derive_seed_stable_and_separating():
    assert derive_seed(5, "amplify") == derive_seed(5, "amplify")
    assert derive_seed(5, "amplify") != derive_seed(6, "amplify")
    assert derive_seed(5, "amplify") != derive_seed(5, "reduce")
    assert 0 <= derive_seed(5, "amplify") < 1 << 63


def test_run_all_passes_and_is_sorted():
    report = run_all("desk", 7)
    assert report["ok"] is True
    names = [record["check"] for record in report["checks"]]
    assert names == sorted(names)
    assert set(names) == set(CHECKS)
    assert all(record["status"] == "pass" for record in report["checks"])
    assert "counterexample" not in report["checks"][0]


def test_run_all_deterministic():
    assert run_all("desk", 3) == run_all("desk", 3)


def test_report_embeds_provenance():
    report = run_all("desk", 0)
    assert report["seed"] == 0
    assert report["scale"] == "desk"
    assert "MAX_IS_VERTICES" in report["caps"]
    assert "matchprice" in report["versions"]


def test_unknown_scale_rejected():
    with pytest.raises(InputError):
        run_all("warehouse", 0)


def test_invariant_violation_fails_only_its_check(monkeypatch):
    def broken(seed):
        raise InvariantViolation("max_induced_matching_bruteforce: witness is not induced")

    monkeypatch.setitem(CHECKS, "graphs.order_relaxation", broken)
    report = run_all("desk", 0)
    assert report["ok"] is False
    records = {record["check"]: record for record in report["checks"]}
    assert set(records) == set(CHECKS)
    assert records.pop("graphs.order_relaxation") == {
        "check": "graphs.order_relaxation",
        "status": "fail",
        "counterexample": "max_induced_matching_bruteforce: witness is not induced",
    }
    assert all(record["status"] == "pass" for record in records.values())


def test_report_bytes_are_pinned():
    """The report of every seed 0..15 is byte for byte the one recorded
    before the checks became claims over shared draws."""
    assert tuple(report_digest(seed) for seed in range(16)) == REPORT_DIGESTS


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "12345"])
def test_report_bytes_do_not_depend_on_the_hash_seed(hash_seed):
    """No set or str-hash order reaches the report: one child per
    PYTHONHASHSEED prints the digests of seeds 0, 3 and 7."""
    src = str(Path(matchprice.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([sys.executable, "-c", DIGEST_PROBE, "0", "3", "7"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [REPORT_DIGESTS[seed] for seed in (0, 3, 7)]


def fail_on_third_input(monkeypatch, name):
    """Patch CLAIMS[name] so that its claim fails on the third input drawn,
    with {"input": 3}; return the list that each drawn input is appended to."""
    claim, draw, count = CLAIMS[name]
    drawn = []

    def counting_draw(rng):
        drawn.append(draw(rng))
        return drawn[-1]

    def third_fails(instance):
        return {"input": len(drawn)} if len(drawn) == 3 else claim(instance)

    assert count > 3
    monkeypatch.setitem(CLAIMS, name, (third_fails, counting_draw, count))
    return drawn


def test_driver_stops_at_the_first_counterexample(monkeypatch):
    """The check returns the third input's counterexample and draws no fourth."""
    name = "graphs.order_relaxation"
    drawn = fail_on_third_input(monkeypatch, name)
    assert CHECKS[name](derive_seed(0, name)) == {"input": 3}
    assert len(drawn) == 3
