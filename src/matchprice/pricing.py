"""Item pricing with weighted consumer groups: evaluation, oracles, algorithms.

Two buying rules share one instance model.  Under UDP a group buys the
cheapest item of its bundle when that price fits the budget; under SMP it
buys the whole bundle when the bundle sum fits.  A group stands for
`multiplicity` identical consumers, so payments scale by multiplicity; this
keeps instances small even when a construction wants astronomically many
duplicate consumers.

All money is fractions.Fraction at every API and JSON boundary.  The INF
sentinel ("never sold") is legal only under UDP.  Every algorithm returns
(revenue, PriceFunction) with the revenue exactly equal to evaluate_revenue
of the returned prices.  Internally every algorithm draws its prices from a
finite list of rationals and scores in scaled integers over one common
denominator, which is exact.  Candidate lists (the uniform price, the SMP
oracle's LP vertices) are scored one vector at a time; the full product of
a value list (geometric enumeration, the UDP oracle) is searched depth
first with branch-and-bound, which returns the same maximum and the same
first maximizer in product order as scoring every vector.
"""

from fractions import Fraction
import math
from operator import itemgetter

from . import caps, ratlp
from .errors import InputError, Record, fields, is_int, json_list, load
from .rationals import INF, format_price, format_rational, is_infinite, parse_rational

UDP = "udp"
SMP = "smp"
RULES = (UDP, SMP)

ZERO = Fraction(0)


def check_rule(rule) -> str:
    if rule not in RULES:
        raise InputError(f"rule must be one of {RULES}, got {rule!r}")
    return rule


class Group(Record):
    """A bundle of item indices, a budget, and a consumer multiplicity."""

    __slots__ = ("bundle", "budget", "multiplicity")

    def __init__(self, bundle, budget, multiplicity):
        try:
            items = frozenset(bundle)
        except TypeError:
            raise InputError(f"group bundle {bundle!r} is not a list of items") from None
        budget = budget if type(budget) is Fraction else Fraction(budget)
        if not items:
            raise InputError("group bundle must be nonempty")
        if not all(map(is_int, items)):
            raise InputError("bundle entries must be item indices")
        if budget < 0:
            raise InputError(f"budget must be nonnegative, got {budget}")
        if not is_int(multiplicity) or multiplicity < 1:
            raise InputError(f"multiplicity must be a positive integer, got {multiplicity!r}")
        super().__init__(items, budget, multiplicity)

    def sorted_bundle(self) -> list:
        return sorted(self.bundle)


class PricingInstance(Record):
    """Items 0..item_count-1 plus a tuple of weighted groups."""

    __slots__ = ("item_count", "groups")

    def __init__(self, item_count: int, groups):
        if not is_int(item_count) or item_count < 1:
            raise InputError(f"item_count must be a positive integer, got {item_count!r}")
        groups = tuple(groups)
        for g in groups:
            if not isinstance(g, Group):
                raise InputError("groups must be Group values")
            if any(not 0 <= i < item_count for i in g.bundle):
                raise InputError(f"bundle {sorted(g.bundle)} out of range for {item_count} items")
        super().__init__(item_count, groups)

    @property
    def k(self) -> int:
        """The largest bundle size."""
        return max((len(g.bundle) for g in self.groups), default=0)

    @property
    def total_multiplicity(self) -> int:
        return sum(g.multiplicity for g in self.groups)

    def distinct_budgets(self) -> list:
        return sorted({g.budget for g in self.groups})

    def __repr__(self):
        return f"PricingInstance(items={self.item_count}, groups={len(self.groups)}, k={self.k})"


def instance_to_json(inst: PricingInstance, rule: str) -> dict:
    check_rule(rule)
    return {
        "items": inst.item_count,
        "rule": rule,
        "groups": [
            {
                "bundle": g.sorted_bundle(),
                "budget": format_rational(g.budget),
                "multiplicity": format_rational(g.multiplicity),
            }
            for g in inst.groups
        ],
    }


def instance_from_json(obj: dict) -> tuple[PricingInstance, str]:
    return load("pricing instance", obj, _instance, "items", "rule", "groups")


def _instance(items, rule, groups) -> tuple[PricingInstance, str]:
    rule = check_rule(rule)
    return PricingInstance(items, map(_group, json_list(groups, "groups"))), rule


def _group(obj) -> Group:
    """A json group.  A decimal-string multiplicity, the form instance_to_json
    writes counts in, is read as its int; any other value goes to Group as it is."""
    bundle, budget, multiplicity = fields(obj, "bundle", "budget", "multiplicity")
    if isinstance(multiplicity, str) and multiplicity.isascii() and multiplicity.isdigit():
        multiplicity = int(multiplicity)
    return Group(bundle, parse_rational(budget), multiplicity)


class PriceFunction(Record):
    """One price per item: a nonnegative Fraction or INF."""

    __slots__ = ("prices",)

    def __init__(self, prices):
        entries = []
        for value in prices:
            if is_infinite(value):
                entries.append(INF)
                continue
            value = Fraction(value)
            if value < 0:
                raise InputError(f"prices must be nonnegative, got {value}")
            entries.append(value)
        super().__init__(tuple(entries))

    def __len__(self):
        return len(self.prices)

    def __getitem__(self, item: int):
        return self.prices[item]

    def __iter__(self):
        return iter(self.prices)

    def __repr__(self):
        return "PriceFunction([" + ", ".join(format_price(p) for p in self.prices) + "])"

    def to_json(self) -> dict:
        return {"prices": [format_price(p) for p in self.prices]}


class GroupSale(Record):
    """Outcome for one group: multiplicity-scaled payment, whether it
    bought, and the least-index cheapest bundle item under UDP (else None)."""

    __slots__ = ("payment", "bought", "chosen_item")


class SaleReport(Record):
    __slots__ = ("sales", "revenue")


def evaluate_revenue(inst: PricingInstance, rule: str, p: PriceFunction) -> SaleReport:
    """Exact payments per group and the total revenue."""
    check_rule(rule)
    if len(p) != inst.item_count:
        raise InputError(f"price function covers {len(p)} items, instance has {inst.item_count}")
    if rule == SMP and any(is_infinite(v) for v in p):
        raise InputError("INF prices are not allowed under SMP; use 0 to give items away")

    sales = []
    for g in inst.groups:
        chosen = price = None
        if rule == UDP:
            for i in g.sorted_bundle():
                value = p[i]
                if not is_infinite(value) and (price is None or value < price):
                    price, chosen = value, i
        else:
            price = sum((p[i] for i in g.bundle), ZERO)
        if price is not None and price <= g.budget:
            sales.append(GroupSale(g.multiplicity * price, True, chosen))
        else:
            sales.append(GroupSale(ZERO, False, None))
    return SaleReport(tuple(sales), sum((sale.payment for sale in sales), ZERO))


def _scaled(inst: PricingInstance, rule: str, values) -> tuple[int, list, list, int]:
    """(scale, groups, scaled values, never): the int form every candidate
    search scores in.

    values lists the prices the candidates draw from (INF only under UDP).
    scale is the lcm of the denominators of every budget and finite value;
    groups holds (bundle, budget, multiplicity) with the budget times scale,
    and scaled holds each value times scale.  INF scales to `never`, one
    above every scaled budget, which nobody buys.
    """
    finite = [v for v in values if not is_infinite(v)]
    if rule == SMP and len(finite) < len(values):
        raise InputError("INF prices are not allowed under SMP; use 0 to give items away")
    for value in finite:
        if value < 0:
            raise InputError(f"prices must be nonnegative, got {value}")
    scale = math.lcm(*(v.denominator for v in finite), *(g.budget.denominator for g in inst.groups))
    groups = [
        (tuple(g.bundle), g.budget.numerator * (scale // g.budget.denominator), g.multiplicity)
        for g in inst.groups
    ]
    never = 1 + max((budget for _, budget, _ in groups), default=0)
    scaled = [never if is_infinite(v) else v.numerator * (scale // v.denominator) for v in values]
    return scale, groups, scaled, never


def _best_prices(inst: PricingInstance, rule: str, values, vectors) -> tuple[Fraction, PriceFunction]:
    """The best of a list of candidate price vectors, as (revenue, PriceFunction).

    Each vector is a tuple of indices into values, one per item.  The
    uniform price and the SMP oracle's vertices are scored here; the full
    product of a value list goes to _search_prices instead.  Each vector
    is scored in the exact ints of _scaled, and only the winner becomes a
    Fraction and a PriceFunction.

    Ties go to the vector listed first (strict >), so each caller states
    its tie rule by the order of its candidates.
    """
    scale, groups, scaled, _ = _scaled(inst, rule, values)
    price_of = min if rule == UDP else sum

    best_revenue = -1
    for vector in vectors:
        prices = list(map(scaled.__getitem__, vector))
        revenue = 0
        for bundle, budget, multiplicity in groups:
            price = price_of(map(prices.__getitem__, bundle))
            if price <= budget:
                revenue += multiplicity * price
        if revenue > best_revenue:
            best_revenue, best_vector = revenue, vector
    return Fraction(best_revenue, scale), PriceFunction([values[i] for i in best_vector])


def _search_prices(inst: PricingInstance, rule: str, values) -> tuple[Fraction, PriceFunction]:
    """The best price vector valued in values, as (revenue, PriceFunction).

    Exactly what _best_prices returns on product(range(len(values)),
    repeat=item_count): the maximum revenue, ties to the first vector in
    product order.  The search is depth-first in that order (item 0
    outermost, value indices ascending), in the ints of _scaled.  Each
    group keeps a partial price over its fixed items (their min under UDP,
    their sum under SMP), updated only when an item of its bundle is
    fixed, and is scored when its last item is.  A group still open
    contributes an optimistic bound: under UDP multiplicity * min(budget,
    partial min), since more items can only lower its price; under SMP
    multiplicity * budget while the partial sum is within budget, else 0,
    since prices are nonnegative.  A node whose fixed revenue plus open
    bound is at most the best so far is cut: every vector below it comes
    later in product order, so it could at best tie, and a tie keeps the
    earlier vector.  The stack is explicit, so a single-value list over
    thousands of items needs no recursion.
    """
    scale, groups, scaled, never = _scaled(inst, rule, values)
    n = inst.item_count
    udp = rule == UDP
    # A group with no item fixed yet: partial min never (above its budget,
    # so its bound is the full budget) under UDP, partial sum 0 under SMP.
    partial = [never if udp else 0] * len(groups)
    touching = [[] for _ in range(n)]
    for j, (bundle, budget, multiplicity) in enumerate(groups):
        last = max(bundle)
        for i in bundle:
            touching[i].append((j, budget, multiplicity, i == last))
    open_bound = sum(multiplicity * budget for _, budget, multiplicity in groups)

    width = len(values)
    choice = [0] * n
    # Per depth, as of entering it: the fixed revenue, the bound of the
    # groups its item does not touch, and (group, budget, multiplicity,
    # last, partial price) for each group it does.
    base_fixed = [0] * n
    base_rest = [0] * n
    entries = [None] * n
    best_revenue, best_vector = -1, None
    fixed = 0
    depth = 0
    while True:
        if entries[depth] is None:
            entry = [(j, budget, multiplicity, last, partial[j])
                     for j, budget, multiplicity, last in touching[depth]]
            for _, budget, multiplicity, _, p in entry:
                if udp:
                    open_bound -= multiplicity * (p if p < budget else budget)
                elif p <= budget:
                    open_bound -= multiplicity * budget
            base_fixed[depth], base_rest[depth], entries[depth] = fixed, open_bound, entry
        v = choice[depth]
        if v == width:
            for j, _, _, _, p in entries[depth]:
                partial[j] = p
            entries[depth] = None
            depth -= 1
            if depth < 0:
                break
            choice[depth] += 1
            continue
        x = scaled[v]
        fixed = base_fixed[depth]
        open_bound = base_rest[depth]
        if udp:
            for j, budget, multiplicity, last, p in entries[depth]:
                q = x if x < p else p
                if last:
                    if q <= budget:
                        fixed += multiplicity * q
                else:
                    partial[j] = q
                    open_bound += multiplicity * (q if q < budget else budget)
        else:
            for j, budget, multiplicity, last, p in entries[depth]:
                q = p + x
                if last:
                    if q <= budget:
                        fixed += multiplicity * q
                else:
                    partial[j] = q
                    if q <= budget:
                        open_bound += multiplicity * budget
        if fixed + open_bound <= best_revenue:
            choice[depth] = v + 1
        elif depth == n - 1:
            best_revenue, best_vector = fixed, tuple(choice)
            choice[depth] = v + 1
        else:
            depth += 1
            choice[depth] = 0
    return Fraction(best_revenue, scale), PriceFunction([values[i] for i in best_vector])


# ---------------------------------------------------------------------------
# exact oracles


def opt_udp_bruteforce(inst: PricingInstance) -> tuple[Fraction, PriceFunction]:
    """Exact UDP optimum over per-item prices in {budgets} + {INF}.

    The maximum over all (budgets + 1)^n vectors, ties to the first in
    product order, found by the branch-and-bound of _search_prices.

    Restricting to budget values loses nothing: raising any price to the
    next budget at or above it never changes who can afford their cheapest
    item, and never lowers a payment.
    """
    caps.require("MAX_UDP_ITEMS", inst.item_count,
                 "UDP oracle limited to {limit} items, got {used}")
    budgets = inst.distinct_budgets()
    caps.require("MAX_UDP_BUDGETS", len(budgets),
                 "UDP oracle limited to {limit} distinct budgets, got {used}")
    return _search_prices(inst, UDP, budgets + [INF])


def opt_smp_bruteforce(inst: PricingInstance) -> tuple[Fraction, PriceFunction]:
    """Exact SMP optimum via winner-subset enumeration.

    For each candidate buyer set W, exact linear maximization of the W
    payments subject to W's budget constraints gives the best prices that
    let all of W buy; the true optimum is attained at W = its own buyer
    set, so the maximum over W of the realized revenue is exact.  Realized
    revenue can exceed a subset's LP value when outsiders happen to afford
    their bundles, which only helps.

    Every budget is scaled once by the lcm of the budget denominators, so
    each LP has an int objective, 0/1 int rows and int bounds; scaling every
    bound by one factor scales the vertex without changing a pivot.  Every
    winner set's objective is built once, each group doubling the table of
    the sets before it, and one ratlp.maximize_subsets call solves the LPs
    of all 2^k - 1 nonempty winner sets over the k group rows: LPs whose
    pivots follow one path share each dictionary on it, and the vertex it
    ends on is read once.  A vertex stays in ints, reduced by the gcd of its
    numerators and denominator so equal vertices are equal tuples.  Only
    the distinct coordinates of the distinct vertices become Fractions,
    divided back by the scale.
    """
    groups = inst.groups
    caps.require("MAX_SMP_GROUPS", len(groups), "SMP oracle limited to {limit} groups, got {used}")
    caps.require("MAX_SMP_ITEMS", inst.item_count,
                 "SMP oracle limited to {limit} items, got {used}")
    n = inst.item_count
    scale = math.lcm(*(g.budget.denominator for g in groups))
    group_rows = [[int(i in g.bundle) for i in range(n)] for g in groups]
    group_budgets = [g.budget.numerator * (scale // g.budget.denominator) for g in groups]
    # The objective of each winner set W, indexed by its mask.
    table = [[0] * n]
    for row, g in zip(group_rows, groups):
        table += [[a + g.multiplicity * b for a, b in zip(objective, row)] for objective in table]

    vertices = {(0,) * n + (1,)}  # (numerators, denominator), gcd-reduced
    for x, d, _ in ratlp.maximize_subsets(n, group_rows, group_budgets, enumerate(table[1:], 1)):
        common = math.gcd(d, *x)
        if common > 1:
            x = [v // common for v in x]
            d //= common
        vertices.add((*x, d))
    # Over one common denominator, int tuples sort as the Fraction vertices
    # do: ascending, so a tie goes to the lexicographically least vertex.
    # One positive factor changes neither distinctness nor order.
    denominator = math.lcm(*(x[-1] for x in vertices))
    points = sorted([v * (denominator // x[-1]) for v in x[:-1]] for x in vertices)
    values = sorted({v for x in points for v in x})
    index = {v: i for i, v in enumerate(values)}
    vectors = (tuple(map(index.__getitem__, x)) for x in points)
    return _best_prices(inst, SMP, [Fraction(v, denominator * scale) for v in values], vectors)


# ---------------------------------------------------------------------------
# approximation algorithms


def uniform_price_approx(inst: PricingInstance, rule: str) -> tuple[Fraction, PriceFunction]:
    """Best single price from {0} + {budgets} + {budget / bundle size}."""
    check_rule(rule)
    candidates = {ZERO}
    candidates.update(g.budget for g in inst.groups)
    candidates.update(g.budget / len(g.bundle) for g in inst.groups)
    values = sorted(candidates)
    return _best_prices(inst, rule, values, ((i,) * inst.item_count for i in range(len(values))))


def geometric_price_set(inst: PricingInstance, alpha: Fraction) -> list:
    """The ladder {W, W/alpha, ..., W/alpha^L, 0}, ascending.

    W is the largest budget and L the least integer with alpha^L >= alpha
    * item_count * total multiplicity, so the bottom finite rung is below
    W / (n*m) and rounding any price down to a rung costs at most a factor
    alpha plus the negligible tail.
    """
    budgets = [g.budget for g in inst.groups]
    top = max(budgets, default=ZERO)
    if not budgets or top == 0:
        return [ZERO]
    target = alpha * inst.item_count * inst.total_multiplicity
    rungs = 0
    power = Fraction(1)
    while power < target:
        power *= alpha
        rungs += 1
    values = {ZERO}
    current = top
    for _ in range(rungs + 1):
        values.add(current)
        current /= alpha
    return sorted(values)


def geometric_enum_approx(inst: PricingInstance, rule: str, alpha) -> tuple[Fraction, PriceFunction]:
    """Exact maximum over price functions valued in the geometric ladder.

    The branch-and-bound of _search_prices returns the best of all
    len(ladder)^n vectors, ties to the first in product order (item 0
    outermost, rungs ascending).  MAX_GEOMETRIC_WORK counts every vector,
    searched or cut.  The count is computed only while it has at most as
    many factors as the cap has bits: past that, with two or more rungs,
    it is certainly above the cap, so the check takes bounded time.

    Guarantee: revenue >= opt * (alpha-1) / alpha^2, because rounding an
    optimal price vector down to the ladder keeps every buyer and costs at
    most alpha per payment, minus the tail below the bottom rung.
    """
    check_rule(rule)
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise InputError(f"alpha must exceed 1, got {alpha}")
    ladder = geometric_price_set(inst, alpha)
    n = inst.item_count
    factors = caps.MAX_GEOMETRIC_WORK.bit_length()
    if len(ladder) == 1 or n <= factors:
        count, shown = len(ladder) ** n, "= {used} evaluations, limit {limit}"
    else:
        count = len(ladder) ** (factors + 1)
        shown = "evaluations, more than {limit} (MAX_GEOMETRIC_WORK)"
    caps.require("MAX_GEOMETRIC_WORK", count,
                 f"geometric enumeration needs {len(ladder)}^{n} {shown}; "
                 "use a larger alpha or approximation_scheme")
    return _search_prices(inst, rule, ladder)


class SubInstance(Record):
    """A contiguous item block with bundles restricted to it.

    instance item j corresponds to original item items[j].
    """

    __slots__ = ("items", "instance")


def partition_items(inst: PricingInstance, q: int) -> list:
    """Split items into q near-equal contiguous blocks; restrict bundles.

    Groups whose bundle misses a block entirely are dropped from that
    block's subinstance.
    """
    if not isinstance(q, int) or not 1 <= q <= inst.item_count:
        raise InputError(f"q must satisfy 1 <= q <= {inst.item_count}, got {q}")
    n = inst.item_count
    base, extra = divmod(n, q)
    subs = []
    start = 0
    for j in range(q):
        size = base + (1 if j < extra else 0)
        block = tuple(range(start, start + size))
        start += size
        position = {item: idx for idx, item in enumerate(block)}
        groups = []
        for g in inst.groups:
            restricted = frozenset(position[i] for i in g.bundle if i in position)
            if restricted:
                groups.append(Group(restricted, g.budget, g.multiplicity))
        subs.append(SubInstance(block, PricingInstance(size, groups)))
    return subs


def extend_prices(inst: PricingInstance, sub_item_set, p_sub: PriceFunction, rule: str) -> PriceFunction:
    """Fill prices outside the sub-item set: INF under UDP, 0 under SMP.

    Neither fill can price a sub-instance buyer out, so full-instance
    revenue is at least the sub-instance revenue of p_sub.
    """
    check_rule(rule)
    items = sorted(sub_item_set)
    if len(set(items)) != len(items):
        raise InputError("sub_item_set has repeated items")
    if any(not 0 <= i < inst.item_count for i in items):
        raise InputError(f"sub_item_set out of range for {inst.item_count} items")
    if len(p_sub) != len(items):
        raise InputError(f"p_sub covers {len(p_sub)} items, sub_item_set has {len(items)}")
    fill = INF if rule == UDP else ZERO
    full = [fill] * inst.item_count
    for position, item in enumerate(items):
        full[item] = p_sub[position]
    return PriceFunction(full)


def _ceil_power(n: int, delta: Fraction) -> int:
    """ceil(n ** delta), exactly, for an int n >= 1 and 0 < delta < 1:
    the least q >= 1 with q^b >= n^a, for delta = a/b in lowest terms.

    A bisection over q compares q^b with n^a through bounds on each
    (_power_bounds) of `bits` bits, so no power is built with a large
    exponent and a delta such as 1/10^12 costs microseconds, not
    gigabytes.  Bounds that overlap are retried with twice the bits.  They
    are exact once the powers fit, so this ends also when q^b == n^a: then
    n^delta is rational, so an integer, and n = t^b for an integer t,
    since a and b are coprime; for n >= 2 that needs b < n.bit_length(),
    and the powers have fewer than n.bit_length()^2 bits.
    """
    a, b = delta.numerator, delta.denominator
    low, high = 1, n
    bits = 64
    while low < high:
        q = (low + high) // 2
        q_low, q_high, q_shift = _power_bounds(q, b, bits)
        n_low, n_high, n_shift = _power_bounds(n, a, bits)
        if not _below(q_low, q_shift, n_high, n_shift):
            high = q
        elif _below(q_high, q_shift, n_low, n_shift):
            low = q + 1
        else:
            bits *= 2
    return low


def _power_bounds(x: int, e: int, bits: int) -> tuple[int, int, int]:
    """(low, high, shift) with low * 2^shift <= x^e <= high * 2^shift, for
    ints x >= 1 and e >= 0: x^e by repeated squaring, each product cut to
    its top `bits` bits, rounding low down and high up."""
    low = high = 1
    shift = 0
    base_low = base_high = x
    base_shift = 0
    while e:
        if e & 1:
            low, high, shift = _cut(low * base_low, high * base_high, shift + base_shift, bits)
        e >>= 1
        if e:
            base_low, base_high, base_shift = _cut(base_low**2, base_high**2, 2 * base_shift, bits)
    return low, high, shift


def _cut(low: int, high: int, shift: int, bits: int) -> tuple[int, int, int]:
    drop = max(0, high.bit_length() - bits)
    return low >> drop, -(-high >> drop), shift + drop


def _below(x: int, s: int, y: int, t: int) -> bool:
    """x * 2^s < y * 2^t for ints x, y >= 0, without building 2^s or 2^t:
    a shift past the other side's bit length decides it already."""
    if s >= t:
        return x << min(s - t, y.bit_length()) < y
    return x < y << min(t - s, x.bit_length())


def scheme_breakpoints(inst: PricingInstance, delta: Fraction) -> tuple[int, bool]:
    """(block count ceil(n^delta), whether the uniform branch is taken).

    The block count is exact (_ceil_power); the branch test n^delta >
    log m follows the analysis and uses the natural log (float evaluation,
    fine at desk scale where ties do not occur).
    """
    n = inst.item_count
    q = _ceil_power(n, delta)
    m = inst.total_multiplicity
    uniform_branch = m == 0 or float(n) ** float(delta) > math.log(m)
    return q, uniform_branch


def approximation_scheme(inst: PricingInstance, rule: str, delta, alpha) -> tuple[Fraction, PriceFunction]:
    """Either one uniform price, or the best geometric solve over n^delta blocks.

    When n^delta > log m the single uniform price already achieves the
    target ratio; otherwise items are split into ceil(n^delta) blocks, each
    block is solved by geometric enumeration on the restricted instance,
    and the best block's prices are extended by the fill rule.  Guarantee:
    revenue >= opt * (alpha-1) / (alpha^2 * ceil(n^delta)).
    """
    check_rule(rule)
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise InputError(f"delta must lie strictly between 0 and 1, got {delta}")
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise InputError(f"alpha must exceed 1, got {alpha}")
    q, uniform_branch = scheme_breakpoints(inst, delta)
    if uniform_branch:
        return uniform_price_approx(inst, rule)
    blocks = partition_items(inst, q)
    _, p_sub, sub = max(
        (geometric_enum_approx(b.instance, rule, alpha) + (b,) for b in blocks), key=itemgetter(0)
    )
    extension = extend_prices(inst, sub.items, p_sub, rule)
    revenue = evaluate_revenue(inst, rule, extension).revenue
    return revenue, extension
