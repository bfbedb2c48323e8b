"""The named invariant suite and its report shape."""

import pytest

from matchprice.errors import InputError, InvariantViolation
from matchprice.verify import CHECKS, derive_seed, run_all


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
