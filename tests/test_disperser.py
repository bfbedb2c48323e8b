"""Disperser construction, verification, and the structural property checks."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from matchprice import caps
from matchprice.disperser import (
    DisperserGraph,
    _as_gamma,
    check_disperser_lemma,
    random_disperser,
    verify_disperser,
)
from matchprice.errors import CapExceeded, InputError
from matchprice.graphs import BipartiteGraph, load_graph_json, random_bipartite


@dataclass(frozen=True)
class DisperserParams:
    """Side size n, degree d, and density parameter gamma in (0, 1)."""

    n: int
    d: int
    gamma: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"side size must be positive, got {self.n}")
        if not 1 <= self.d <= self.n:
            raise InputError(f"degree must satisfy 1 <= d <= n, got d={self.d}, n={self.n}")
        object.__setattr__(self, "gamma", _as_gamma(self.gamma))

    @property
    def subset_size(self) -> int:
        """ceil(gamma * n); the subset size the disperser property quantifies over."""
        return math.ceil(self.gamma * self.n)


def suggest_degree(gamma, base: float = math.e) -> int:
    """Degree ceil((3/gamma) * log(1/gamma)) for a target gamma.

    The logarithm base defaults to e; pass base=2 for the binary reading.
    """
    gamma = _as_gamma(gamma)
    return math.ceil((3 / gamma) * math.log(1 / gamma, base))


def degree_left(g, u):
    return g.left_mask(u).bit_count()


def complete_bipartite(n):
    return BipartiteGraph(n, n, [(u, w) for u in range(n) for w in range(n)])


def perfect_matching(n):
    return BipartiteGraph(n, n, [(i, i) for i in range(n)])


def naive_disperser_violation(g, k):
    """First lex pair of k-subsets spanning no edge, or None."""
    n = g.left_count
    for lefts in combinations(range(n), k):
        for rights in combinations(range(n), k):
            if not any(g.has_edge(u, w) for u in lefts for w in rights):
                return lefts, rights
    return None


# ---------------------------------------------------------------------------
# parameters and degree suggestion


def test_params_validation():
    p = DisperserParams(8, 5, Fraction(1, 4))
    assert p.subset_size == 2
    assert DisperserParams(10, 10, "1/4").subset_size == 3  # ceil(2.5)
    with pytest.raises(InputError):
        DisperserParams(8, 0, Fraction(1, 4))
    with pytest.raises(InputError):
        DisperserParams(8, 9, Fraction(1, 4))
    with pytest.raises(InputError):
        DisperserParams(0, 0, Fraction(1, 4))
    with pytest.raises(InputError):
        DisperserParams(8, 4, Fraction(2))
    with pytest.raises(InputError):
        DisperserParams(8, 4, 0)


def test_suggest_degree_values():
    assert suggest_degree(Fraction(1, 2)) == 5
    assert suggest_degree(Fraction(1, 4)) == 17
    assert suggest_degree(Fraction(3, 8)) == 8
    # binary-log reading, exposed via the base parameter
    assert suggest_degree(Fraction(1, 2), base=2) == 6
    assert suggest_degree(Fraction(1, 4), base=2) == 24


def test_suggest_degree_rejects_boundaries():
    for bad in (0, 1, Fraction(1), Fraction(5, 4), -1, "3/2"):
        with pytest.raises(InputError):
            suggest_degree(bad)


# ---------------------------------------------------------------------------
# random construction


def test_random_disperser_deterministic():
    a = random_disperser(12, 4, seed=99)
    b = random_disperser(12, 4, seed=99)
    c = random_disperser(12, 4, seed=100)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_random_disperser_degree_bounds():
    rng = random.Random(7)
    for trial in range(10):
        n = rng.randrange(2, 14)
        d = rng.randrange(1, n + 1)
        g = random_disperser(n, d, seed=rng.randrange(10**6))
        assert g.target_degree == d
        for u in range(n):
            assert degree_left(g, u) <= d
            assert g.degree_right(u) <= d


def test_random_disperser_single_matching():
    g = random_disperser(9, 1, seed=3)
    assert len(g.edges) == 9
    assert all(degree_left(g, u) == 1 for u in range(9))
    assert all(g.degree_right(w) == 1 for w in range(9))


def test_random_disperser_rejects_bad_degree():
    with pytest.raises(InputError):
        random_disperser(5, 6, seed=0)
    with pytest.raises(InputError):
        random_disperser(5, 0, seed=0)
    with pytest.raises(InputError):
        random_disperser(0, 1, seed=0)


def test_disperser_json_round_trip():
    g = random_disperser(8, 3, seed=11)
    obj = g.to_json()
    assert obj["target_degree"] == 3
    back = load_graph_json(obj)
    assert isinstance(back, DisperserGraph)
    assert back == g and back.target_degree == 3
    for degree in (2.9, True, "3"):
        with pytest.raises(InputError, match="target_degree must be an integer"):
            DisperserGraph(2, 2, [(0, 0)], degree)
    for degree in (0, -3):
        with pytest.raises(InputError, match=f"target_degree must be at least 1, got {degree}"):
            DisperserGraph(2, 2, [(0, 0)], degree)


# ---------------------------------------------------------------------------
# verification


def test_verify_perfect_matching_counterexample():
    ok, violation = verify_disperser(perfect_matching(4), Fraction(1, 4))
    assert ok is False
    assert violation == ((0,), (1,))


def test_verify_complete_graph():
    for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(5, 6)):
        ok, violation = verify_disperser(complete_bipartite(6), gamma)
        assert ok is True and violation is None


def test_verify_requires_square():
    with pytest.raises(InputError):
        verify_disperser(BipartiteGraph(3, 4, [(0, 0)]), Fraction(1, 2))


def test_verify_budget_cap():
    g = perfect_matching(40)
    with pytest.raises(CapExceeded) as err:
        verify_disperser(g, Fraction(1, 2))
    assert err.value.bound == "MAX_VERIFY_SUBSETS"


def test_verify_agrees_with_double_subset_enumeration():
    rng = random.Random(505)
    checked_violations = 0
    for trial in range(40):
        n = rng.randrange(2, 9)
        if rng.random() < 0.5:
            g = random_disperser(n, rng.randrange(1, n + 1), seed=rng.randrange(10**6))
        else:
            g = random_bipartite(n, n, rng.random(), seed=rng.randrange(10**6))
        gamma = Fraction(rng.randrange(1, n), n)  # k = gamma*n exactly
        k = gamma * n
        assert k.denominator == 1
        got_ok, got_violation = verify_disperser(g, gamma)
        want_violation = naive_disperser_violation(g, int(k))
        assert got_ok == (want_violation is None)
        if want_violation is not None:
            checked_violations += 1
            assert got_violation == want_violation
    assert checked_violations > 5


def test_verify_pass_rate_at_suggested_degree():
    # 50 seeds at n=16, gamma=3/8, d=suggest_degree(3/8)=8; report the rate.
    gamma = Fraction(3, 8)
    d = suggest_degree(gamma)
    passes = sum(
        1 for seed in range(50) if verify_disperser(random_disperser(16, d, seed), gamma)[0]
    )
    print(f"\nrandom_disperser(16, {d}) pass rate at gamma=3/8: {passes}/50")
    assert passes >= 40  # empirically 50/50; a collapse signals a generator bug


# ---------------------------------------------------------------------------
# lemma checks


def test_lemma_on_complete_graph_exact_mode():
    report = check_disperser_lemma(complete_bipartite(6), Fraction(1, 3))
    assert report["sim_mode"] == "exact"
    assert report["balanced_independence"] == 0
    assert report["independence_ok"] and report["sim_ok"] and report["ok"]
    assert report["independence_bound"] == 2
    assert report["sim_bound"] == 8


def test_lemma_sampled_mode():
    report = check_disperser_lemma(complete_bipartite(10), Fraction(1, 4), seed=1, samples=5)
    assert report["sim_mode"] == "sampled"
    assert report["sim_samples"] == 5
    assert report["ok"]


@pytest.mark.parametrize("samples", [0, -3])
def test_lemma_refuses_fewer_than_one_sample(samples):
    with pytest.raises(InputError, match="samples must be at least 1"):
        check_disperser_lemma(complete_bipartite(10), Fraction(1, 4), samples=samples)


def test_lemma_refuses_non_disperser():
    with pytest.raises(InputError):
        check_disperser_lemma(perfect_matching(4), Fraction(1, 4))


def test_lemma_vertex_cap():
    with pytest.raises(CapExceeded) as err:
        check_disperser_lemma(complete_bipartite(11), Fraction(1, 4))
    assert err.value.bound == "MAX_LEMMA_VERTICES"


def test_lemma_holds_on_verified_dispersers():
    # every verified output must satisfy both conclusions
    gamma = Fraction(1, 3)
    seen = 0
    for seed in range(12):
        g = random_disperser(6, 6, seed)
        if not verify_disperser(g, gamma)[0]:
            continue
        seen += 1
        report = check_disperser_lemma(g, gamma)
        assert report["ok"], report
        assert report["sim_mode"] == "exact"
    assert seen >= 3


def test_lemma_report_shape():
    report = check_disperser_lemma(random_disperser(6, 6, 0), Fraction(1, 3))
    for key in (
        "n",
        "gamma",
        "max_degree",
        "target_degree",
        "balanced_independence",
        "independence_bound",
        "independence_ok",
        "sim_value",
        "sim_bound",
        "sim_cutoff",
        "sim_mode",
        "sim_samples",
        "sim_ok",
        "ok",
    ):
        assert key in report
    assert report["target_degree"] == 6
