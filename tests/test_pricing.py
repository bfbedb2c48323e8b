"""Pricing semantics, exact oracles, and the approximation suite."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from matchprice import pricing, ratlp
from matchprice.errors import CapExceeded, InputError
from matchprice.pricing import (
    SMP,
    UDP,
    Group,
    PriceFunction,
    PricingInstance,
    _best_prices,
    _search_prices,
    approximation_scheme,
    evaluate_revenue,
    extend_prices,
    geometric_enum_approx,
    geometric_price_set,
    instance_from_json,
    instance_to_json,
    opt_smp_bruteforce,
    opt_udp_bruteforce,
    partition_items,
    scheme_breakpoints,
    uniform_price_approx,
)
from matchprice.rationals import INF, is_infinite

F = Fraction


def inst(items, *spec):
    return PricingInstance(items, [Group(frozenset(b), F(budget), mult) for b, budget, mult in spec])


def naive_revenue(instance, rule, prices):
    """Reference evaluator written from the buying rules, no shared code."""
    total = F(0)
    for g in instance.groups:
        if rule == UDP:
            finite = [prices[i] for i in g.bundle if not is_infinite(prices[i])]
            if finite and min(finite) <= g.budget:
                total += g.multiplicity * min(finite)
        else:
            owed = sum(prices[i] for i in g.bundle)
            if owed <= g.budget:
                total += g.multiplicity * owed
    return total


def random_instance(rng, max_items=4, max_groups=6):
    n = rng.randrange(1, max_items + 1)
    groups = []
    for _ in range(rng.randrange(1, max_groups + 1)):
        size = rng.randrange(1, min(n, 3) + 1)
        bundle = frozenset(rng.sample(range(n), size))
        budget = F(rng.randrange(0, 9), rng.choice((1, 2, 4)))
        groups.append(Group(bundle, budget, rng.randrange(1, 5)))
    return PricingInstance(n, groups)


def restrict(instance, items):
    """Independent restriction of an instance to an item subset."""
    items = sorted(items)
    position = {item: j for j, item in enumerate(items)}
    groups = []
    for g in instance.groups:
        kept = frozenset(position[i] for i in g.bundle if i in position)
        if kept:
            groups.append(Group(kept, g.budget, g.multiplicity))
    return PricingInstance(len(items), groups)


# ---------------------------------------------------------------------------
# containers


def test_group_validation():
    with pytest.raises(InputError):
        Group(frozenset(), F(1), 1)
    with pytest.raises(InputError):
        Group(frozenset({0}), F(-1), 1)
    with pytest.raises(InputError):
        Group(frozenset({0}), F(1), 0)
    for multiplicity in (True, 2.5, "2"):
        with pytest.raises(InputError, match="multiplicity must be a positive integer"):
            Group(frozenset({0}), F(1), multiplicity)
    with pytest.raises(InputError):
        PricingInstance(2, [Group(frozenset({5}), F(1), 1)])
    with pytest.raises(InputError):
        PricingInstance(0, [])


def test_instance_k_and_multiplicity():
    i = inst(3, ({0, 1, 2}, 1, 2), ({0}, 2, 5))
    assert i.k == 3
    assert i.total_multiplicity == 7
    assert i.distinct_budgets() == [F(1), F(2)]


def test_price_function_validation():
    p = PriceFunction([F(1, 2), INF, 0])
    assert len(p) == 3 and is_infinite(p[1])
    with pytest.raises(InputError):
        PriceFunction([F(-1)])


def test_json_round_trips():
    i = inst(3, ({0, 2}, F(3, 4), 125))
    obj = instance_to_json(i, SMP)
    assert obj["groups"][0]["multiplicity"] == "125"
    back, rule = instance_from_json(obj)
    assert back == i and rule == SMP

    p = PriceFunction([F(1, 8), INF, 0])
    assert p.to_json()["prices"] == ["1/8", "inf", "0"]


def test_json_refuses_values_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    too_long = f"needs more than {limit} digits"
    for big in (inst(1, ({0}, 1, 10**limit)), inst(1, ({0}, F(1, 10**limit), 1))):
        with pytest.raises(InputError, match=too_long):
            instance_to_json(big, UDP)
    with pytest.raises(InputError, match=too_long):
        PriceFunction([F(10**limit)]).to_json()


# ---------------------------------------------------------------------------
# revenue evaluation


def test_udp_min_rule():
    i = inst(2, ({0, 1}, 4, 1))
    report = evaluate_revenue(i, UDP, PriceFunction([3, 2]))
    assert report.revenue == 2
    assert report.sales[0].bought and report.sales[0].chosen_item == 1


def test_smp_sum_rule():
    i = inst(2, ({0, 1}, 4, 1))
    report = evaluate_revenue(i, SMP, PriceFunction([3, 2]))
    assert report.revenue == 0
    assert not report.sales[0].bought


def test_multiplicity_scales_payment():
    i = inst(1, ({0}, 1, 7))
    assert evaluate_revenue(i, UDP, PriceFunction([1])).revenue == 7


def test_udp_chooses_least_index_argmin():
    i = inst(3, ({0, 1, 2}, 5, 1))
    report = evaluate_revenue(i, UDP, PriceFunction([2, 1, 1]))
    assert report.sales[0].chosen_item == 1


def test_inf_prices():
    i = inst(2, ({0, 1}, 4, 1))
    assert evaluate_revenue(i, UDP, PriceFunction([INF, INF])).revenue == 0
    assert evaluate_revenue(i, UDP, PriceFunction([INF, 3])).revenue == 3
    with pytest.raises(InputError):
        evaluate_revenue(i, SMP, PriceFunction([INF, 3]))


def test_best_prices_scores_inf_as_never_sold():
    i = inst(2, ({0, 1}, 5, 1), ({0}, 5, 2))
    values = [INF, F(1)]
    assert _best_prices(i, UDP, values, [(0, 0)]) == (0, PriceFunction([INF, INF]))
    assert _best_prices(i, UDP, values, [(0, 0), (0, 1)]) == (1, PriceFunction([INF, 1]))


def test_best_prices_checks_the_value_list():
    i = inst(2, ({0, 1}, 5, 1))
    with pytest.raises(InputError, match="INF prices are not allowed under SMP"):
        _best_prices(i, SMP, [F(0), INF], [(0, 0)])
    with pytest.raises(InputError, match="prices must be nonnegative, got -1/2"):
        _best_prices(i, UDP, [F(-1, 2), F(0)], [(1, 1)])
    with pytest.raises(InputError, match="INF prices are not allowed under SMP"):
        _search_prices(i, SMP, [F(0), INF])
    with pytest.raises(InputError, match="prices must be nonnegative, got -1/2"):
        _search_prices(i, UDP, [F(-1, 2), F(0)])


def test_evaluate_validates_coverage():
    i = inst(2, ({0}, 1, 1))
    with pytest.raises(InputError):
        evaluate_revenue(i, UDP, PriceFunction([1]))
    with pytest.raises(InputError):
        evaluate_revenue(i, "both", PriceFunction([1, 1]))


def test_report_total_is_sum_of_payments():
    rng = random.Random(31)
    for trial in range(40):
        i = random_instance(rng)
        prices = PriceFunction([F(rng.randrange(0, 7), 2) for _ in range(i.item_count)])
        for rule in (UDP, SMP):
            report = evaluate_revenue(i, rule, prices)
            assert report.revenue == sum((s.payment for s in report.sales), F(0))


def test_evaluate_matches_naive():
    rng = random.Random(32)
    for trial in range(300):
        i = random_instance(rng)
        values = []
        for _ in range(i.item_count):
            values.append(INF if rng.random() < 0.2 else F(rng.randrange(0, 9), 2))
        p = PriceFunction(values)
        assert evaluate_revenue(i, UDP, p).revenue == naive_revenue(i, UDP, p)
        if not any(is_infinite(v) for v in values):
            assert evaluate_revenue(i, SMP, p).revenue == naive_revenue(i, SMP, p)


# ---------------------------------------------------------------------------
# linear programming


def test_lp_box():
    value, x = ratlp.maximize([1, 1], [[1, 0], [0, 1]], [3, 2])
    assert value == 5 and x == [3, 2]


def test_lp_shared_budget():
    value, x = ratlp.maximize([2, 1], [[1, 1]], [F(3, 2)])
    assert value == 3 and x == [F(3, 2), 0]


def test_lp_degenerate_and_zero():
    value, x = ratlp.maximize([1, 1], [[1, 1], [1, 0]], [1, 1])
    assert value == 1
    value, _ = ratlp.maximize([0, 0], [[1, 1]], [5])
    assert value == 0


def test_lp_ratio_ties_go_to_the_least_basis_index():
    # x0 enters first and takes row 1.  x2 enters next, and rows 0 and 1 tie
    # at ratio 1; Bland's rule takes row 1, whose basic x0 precedes row 0's
    # slack.  Taking the first tied row instead ends on the other optimum
    # (0, 1, 0, 1).  Halving row 0 must not break the tie.
    value, x = ratlp.maximize([1, 0, 2, 3], [[0, 1, 1, 0], [1, 0, 1, 1]], [1, 1])
    assert value == 3 and x == [0, 0, 0, 1]
    half = F(1, 2)
    value, x = ratlp.maximize([1, 0, 2, 3], [[0, half, half, 0], [1, 0, 1, 1]], [half, 1])
    assert value == 3 and x == [0, 0, 0, 1]


@pytest.mark.parametrize("number", [int, F])
def test_lp_returns_fractions(number):
    """Value and every vertex entry are Fractions, the nonbasic zeros too, so
    dividing them by an int scale stays exact."""
    for objective, rows, bounds, want in [
        ([1, 0, 1], [[1, 1, 0], [0, 1, 1]], [2, 3], (5, [2, 0, 3])),  # x1 nonbasic
        ([0, 0], [[1, 1]], [5], (0, [0, 0])),  # no pivot at all
        ([2, 1], [[1, 1]], [3], (6, [3, 0])),
    ]:
        rows = [list(map(number, row)) for row in rows]
        value, x = ratlp.maximize(list(map(number, objective)), rows, list(map(number, bounds)))
        assert (value, x) == want
        assert type(value) is F and all(type(v) is F and type(v / 3) is F for v in x), (value, x)


def test_lp_unbounded():
    with pytest.raises(InputError):
        ratlp.maximize([1], [], [])


def test_lp_rejects_negative_bounds():
    with pytest.raises(InputError):
        ratlp.maximize([1], [[1]], [-1])


@pytest.mark.parametrize("entry", [1.5, 1.0, True, False, "1"])
@pytest.mark.parametrize("where", ["objective", "row", "bound"])
def test_lp_rejects_entries_that_are_not_ints_or_fractions(entry, where):
    """A float would be read off .denominator and a bool as 0 or 1."""
    objective, rows, bounds = [1, 1], [[1, 0], [0, 1]], [3, 2]
    if where == "objective":
        objective[1] = entry
    elif where == "row":
        rows[1][0] = entry
    else:
        bounds[1] = entry
    with pytest.raises(InputError, match="must be ints or Fractions, got " + type(entry).__name__):
        ratlp.maximize(objective, rows, bounds)


# ---------------------------------------------------------------------------
# oracles


def test_udp_oracle_frozen_values():
    revenue, p = opt_udp_bruteforce(inst(1, ({0}, 5, 1)))
    assert revenue == 5 and p == PriceFunction([5])

    revenue, p = opt_udp_bruteforce(inst(1, ({0}, 1, 1), ({0}, 10, 1)))
    assert revenue == 10

    revenue, _ = opt_udp_bruteforce(inst(2, ({0}, 2, 1), ({1}, 3, 1)))
    assert revenue == 5


def test_udp_oracle_lex_tiebreak():
    revenue, p = opt_udp_bruteforce(inst(2, ({0, 1}, 5, 1)))
    assert revenue == 5
    assert p == PriceFunction([5, 5])


def test_udp_oracle_caps():
    with pytest.raises(CapExceeded):
        opt_udp_bruteforce(inst(7, *((({j}, 1, 1)) for j in range(7))))
    many_budgets = PricingInstance(1, [Group(frozenset({0}), F(j, 7), 1) for j in range(1, 10)])
    with pytest.raises(CapExceeded):
        opt_udp_bruteforce(many_budgets)


def test_smp_oracle_frozen_values():
    revenue, _ = opt_smp_bruteforce(inst(1, ({0}, F(7, 3), 1)))
    assert revenue == F(7, 3)

    revenue, p = opt_smp_bruteforce(inst(1, ({0}, 2, 1), ({0}, 3, 1)))
    assert revenue == 4 and p == PriceFunction([2])


def test_smp_oracle_beats_price_grid():
    rng = random.Random(77)
    for trial in range(12):
        i = random_instance(rng, max_items=3, max_groups=4)
        lp_value, _ = opt_smp_bruteforce(i)
        step = F(1, 4)
        top = max((g.budget for g in i.groups), default=F(0))
        grid = [step * j for j in range(int(top / step) + 2)]
        grid_best = max(
            naive_revenue(i, SMP, combo) for combo in product(grid, repeat=i.item_count)
        )
        assert lp_value >= grid_best
        assert lp_value - grid_best <= i.item_count * i.total_multiplicity * step


def test_smp_oracle_caps():
    with pytest.raises(CapExceeded):
        opt_smp_bruteforce(
            PricingInstance(1, [Group(frozenset({0}), F(j), 1) for j in range(11)])
        )
    with pytest.raises(CapExceeded):
        opt_smp_bruteforce(inst(7, ({0}, 1, 1)))


def test_oracles_dominate_every_algorithm():
    rng = random.Random(78)
    for trial in range(25):
        i = random_instance(rng, max_items=3, max_groups=4)
        for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
            opt, witness = oracle(i)
            assert evaluate_revenue(i, rule, witness).revenue == opt
            for revenue, p in (
                uniform_price_approx(i, rule),
                geometric_enum_approx(i, rule, F(2)),
                approximation_scheme(i, rule, F(1, 2), F(2)),
            ):
                assert evaluate_revenue(i, rule, p).revenue == revenue
                assert revenue <= opt


# ---------------------------------------------------------------------------
# uniform and geometric algorithms


def test_uniform_single_consumer_exact():
    revenue, p = uniform_price_approx(inst(2, ({0, 1}, 6, 1)), UDP)
    assert revenue == 6 and p == PriceFunction([6, 6])
    revenue, p = uniform_price_approx(inst(2, ({0, 1}, 6, 1)), SMP)
    assert revenue == 6 and p == PriceFunction([3, 3])


def test_geometric_ladder_contains_bounds():
    i = inst(2, ({0}, 8, 1), ({1}, 3, 2))
    ladder = geometric_price_set(i, F(2))
    assert F(0) in ladder and F(8) in ladder
    assert ladder == sorted(ladder)
    assert min(v for v in ladder if v > 0) * 2 * i.item_count * i.total_multiplicity <= F(8) * 2


def test_geometric_single_item_exact():
    revenue, p = geometric_enum_approx(inst(1, ({0}, 8, 1)), UDP, F(2))
    assert revenue == 8 and p == PriceFunction([8])


def test_geometric_ratio_guarantee():
    rng = random.Random(79)
    alpha = F(2)
    floor_factor = (alpha - 1) / alpha**2
    for trial in range(20):
        i = random_instance(rng, max_items=3, max_groups=4)
        for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
            opt, _ = oracle(i)
            revenue, _ = geometric_enum_approx(i, rule, alpha)
            assert revenue >= floor_factor * opt


def test_geometric_rejects_alpha_at_most_one():
    with pytest.raises(InputError):
        geometric_enum_approx(inst(1, ({0}, 1, 1)), UDP, F(1))


def test_geometric_work_refusal_names_alternatives():
    heavy = PricingInstance(
        6,
        [Group(frozenset({j}), F(2) ** j, 10**6) for j in range(6)],
    )
    with pytest.raises(CapExceeded) as err:
        geometric_enum_approx(heavy, UDP, F(33, 32))
    assert "alpha" in str(err.value) and "scheme" in str(err.value)


@pytest.mark.parametrize("rule", (UDP, SMP))
def test_single_rung_ladder_on_thousands_of_items(rule):
    # Zero budgets or no groups give the ladder [0]: one vector for any
    # item count, and the search must not recurse once per item.  With
    # delta 1/10 the scheme splits 3,000 items into 3 blocks of 1,000.
    n = 3000
    assert n // 3 >= sys.getrecursionlimit()
    zero = PricingInstance(n, [Group(frozenset(range(j, n, 7)), F(0), 5) for j in range(7)])
    for i in (zero, PricingInstance(n, [])):
        assert geometric_price_set(i, F(2)) == [0]
        assert geometric_enum_approx(i, rule, F(2)) == (0, PriceFunction([0] * n))
    assert scheme_breakpoints(zero, F(1, 10)) == (3, False)
    fill = INF if rule == UDP else F(0)
    assert approximation_scheme(zero, rule, F(1, 10), F(2)) == (
        0,
        PriceFunction([F(0)] * 1000 + [fill] * 2000),
    )


# ---------------------------------------------------------------------------
# partition, extension, scheme


def test_partition_identity_and_singletons():
    i = inst(4, ({0, 3}, 2, 1), ({1, 2}, 3, 2))
    whole = partition_items(i, 1)
    assert len(whole) == 1 and whole[0].items == (0, 1, 2, 3)
    assert whole[0].instance == i

    singles = partition_items(i, 4)
    assert [s.items for s in singles] == [(0,), (1,), (2,), (3,)]
    for s in singles:
        assert s.instance.item_count == 1
        assert all(g.bundle == frozenset({0}) for g in s.instance.groups)


def test_partition_blocks_near_equal():
    i = inst(5, ({0}, 1, 1))
    blocks = [s.items for s in partition_items(i, 2)]
    assert blocks == [(0, 1, 2), (3, 4)]
    with pytest.raises(InputError):
        partition_items(i, 0)
    with pytest.raises(InputError):
        partition_items(i, 6)


def test_decomposition_inequality():
    rng = random.Random(80)
    for trial in range(20):
        i = random_instance(rng, max_items=4, max_groups=4)
        for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
            whole, _ = oracle(i)
            for q in (1, 2, i.item_count):
                if q > i.item_count:
                    continue
                parts = sum(oracle(s.instance)[0] for s in partition_items(i, q))
                assert parts >= whole


def test_extension_identity_and_inequality():
    i = inst(3, ({0, 1}, 3, 1), ({2}, 1, 2))
    p = PriceFunction([1, 2, 1])
    assert extend_prices(i, range(3), p, UDP) == p

    rng = random.Random(81)
    for trial in range(60):
        full = random_instance(rng, max_items=4, max_groups=4)
        size = rng.randrange(1, full.item_count + 1)
        items = sorted(rng.sample(range(full.item_count), size))
        sub = restrict(full, items)
        for rule in (UDP, SMP):
            p_sub = PriceFunction([F(rng.randrange(0, 7), 2) for _ in items])
            extension = extend_prices(full, items, p_sub, rule)
            sub_revenue = evaluate_revenue(sub, rule, p_sub).revenue if sub.groups else F(0)
            assert evaluate_revenue(full, rule, extension).revenue >= sub_revenue


def test_extension_udp_buyers_unchanged():
    i = inst(3, ({0}, 2, 3))
    extension = extend_prices(i, [0], PriceFunction([2]), UDP)
    report = evaluate_revenue(i, UDP, extension)
    assert report.revenue == 6 and report.sales[0].chosen_item == 0


def test_scheme_breakpoints_exact_blocks():
    i5 = inst(5, ({0}, 1, 1))
    assert scheme_breakpoints(i5, F(1, 2))[0] == 3  # ceil(sqrt(5))
    i4 = inst(4, ({0}, 1, 1))
    assert scheme_breakpoints(i4, F(1, 2))[0] == 2
    assert scheme_breakpoints(i4, F(9, 10))[0] == 4  # ceil(4^0.9) = ceil(3.48)


def test_scheme_block_count_is_the_least_q_with_q_to_b_at_least_n_to_a():
    """ceil(n^(a/b)) equals the exact search over q for every n up to 64
    and every delta with denominator up to 12, perfect powers included,
    and for 22 deltas over 997 and 1000."""
    deltas = {F(a, b) for b in range(2, 13) for a in range(1, b)}
    deltas |= {F(a, b) for b in (997, 1000) for a in (1, 2, 332, 333, 334, 499, 500, 501, 666, 995, 996)}
    for n in range(1, 65):
        i = inst(n, ({0}, 1, 1))
        for delta in deltas:
            a, b = delta.numerator, delta.denominator
            assert scheme_breakpoints(i, delta)[0] == next(q for q in range(1, n + 1) if q**b >= n**a), (n, delta)


def test_scheme_block_count_at_perfect_powers_past_64_bits():
    """n = t^b: n^(a/b) = t^a exactly, where bounds on q^b and n^a cannot
    tell them apart; one off n, the count is the least q with q^b >= n^a."""
    for t, b in ((3, 41), (2, 67), (5, 30), (7, 25)):
        for a in (1, 2, b - 1):
            for n in (t**b - 1, t**b, t**b + 1):
                q = scheme_breakpoints(inst(n, ({0}, 1, 1)), F(a, b))[0]
                assert q**b >= n**a and (q - 1) ** b < n**a, (t, b, a, n)
            assert scheme_breakpoints(inst(t**b, ({0}, 1, 1)), F(a, b))[0] == t**a


def test_scheme_block_count_for_a_tiny_delta():
    """n^(1/10^12) is just above 1 for n >= 2, so the count is 2; no power
    with that exponent is built."""
    assert scheme_breakpoints(inst(2, ({0}, 1, 1)), F(1, 10**12))[0] == 2
    assert scheme_breakpoints(inst(1, ({0}, 1, 1)), F(1, 10**12))[0] == 1
    assert scheme_breakpoints(inst(64, ({0}, 1, 1)), F(10**12 - 1, 10**12))[0] == 64


def test_shifted_comparison_matches_the_built_powers():
    """pricing._below(x, s, y, t) is x * 2^s < y * 2^t, also for shifts far
    past the other side's bit length and for sides 0 and 1."""
    rng = random.Random(91)
    for _ in range(3000):
        x, y = (rng.choice((0, 1, 2, 3, rng.randint(0, 2**70))) for _ in range(2))
        s, t = rng.choice((0, rng.randint(0, 8), rng.randint(0, 90))), rng.choice((0, rng.randint(0, 90)))
        assert pricing._below(x, s, y, t) == (x << s < y << t), (x, s, y, t)


def test_scheme_uniform_branch_matches_uniform():
    # one consumer: m = 1, log m = 0 < n^delta, so the uniform branch runs
    i = inst(3, ({0, 1}, 4, 1))
    q, uniform_branch = scheme_breakpoints(i, F(1, 2))
    assert uniform_branch
    assert approximation_scheme(i, UDP, F(1, 2), F(2)) == uniform_price_approx(i, UDP)


def test_scheme_partition_branch_ratio():
    rng = random.Random(82)
    alpha = F(2)
    for trial in range(15):
        i = random_instance(rng, max_items=4, max_groups=5)
        for rule, oracle in ((UDP, opt_udp_bruteforce), (SMP, opt_smp_bruteforce)):
            opt, _ = oracle(i)
            for delta in (F(1, 2), F(9, 10)):
                q, _ = scheme_breakpoints(i, delta)
                revenue, p = approximation_scheme(i, rule, delta, alpha)
                assert revenue == evaluate_revenue(i, rule, p).revenue
                assert revenue * q * alpha**2 >= opt * (alpha - 1)


def test_scheme_rejects_bad_delta():
    i = inst(2, ({0}, 1, 1))
    for bad in (F(0), F(1), F(3, 2), F(-1, 2)):
        with pytest.raises(InputError):
            approximation_scheme(i, UDP, bad, F(2))
