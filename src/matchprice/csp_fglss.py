"""Boolean CSP instances, exhaustive satisfaction counting (bit-sliced over
all assignments at once; the value and its lexicographically least witness
are those of a scan in product order), clause-product amplification (each
product clause's satisfying set read off the same bit-sliced truth columns,
over its merged variables), the FGLSS conflict graph, and disperser-based
sparsification of conflict edges.

A clause is an ordered tuple of distinct variables plus the set of local
assignments (pattern strings over that order) that satisfy it.  The FGLSS
graph has one vertex per (clause, satisfying pattern) pair; vertices of the
same clause are pairwise adjacent (two patterns of one clause are mutually
exclusive choices even when they conflict on no variable), and vertices of
different clauses are adjacent iff they disagree on a shared variable.
Independent sets of this graph are consistent ways of satisfying a clause
set, so the independence number equals the maximum number of simultaneously
satisfiable clauses.

Sparsification replaces, per variable, the complete disagreement pattern
between the vertices setting it to 1 and those setting it to 0 with the
edges of a supplied bipartite graph (intended: a disperser).  The replaced
edge set is a subset of the original one, so independence numbers never
decrease.

Both graphs are vertex bitmasks built from one scan of the labels, giving
each clause's vertex mask and each variable's two side masks (the vertices
setting it to 0, and to 1); no vertex pair is examined on its own.
"""

from __future__ import annotations

import random
from itertools import product

from . import caps
from .errors import InputError, Record, fields, is_int, json_list, load
from .graphs import BipartiteGraph, Graph, bit_indices


class Clause(Record):
    """Distinct variables and the satisfying patterns over them, in order."""

    __slots__ = ("variables", "satisfying")

    def __init__(self, variables, satisfying):
        try:
            variables = tuple(variables)
        except TypeError:
            raise InputError(f"clause vars {variables!r} is not a list") from None
        satisfying = tuple(satisfying)
        # entries are checked before set() and frozenset() hash them
        for v in variables:
            if not is_int(v) or v < 0:
                raise InputError(f"bad variable {v!r}")
        if len(set(variables)) != len(variables):
            raise InputError(f"clause variables {variables} are not distinct")
        a = len(variables)
        for pat in satisfying:
            if not isinstance(pat, str) or len(pat) != a or pat.strip("01"):
                raise InputError(f"satisfying pattern {pat!r} does not fit arity {a}")
        super().__init__(variables, frozenset(satisfying))

    @property
    def arity(self) -> int:
        return len(self.variables)

    def sorted_patterns(self) -> list[str]:
        return sorted(self.satisfying)


class CspInstance(Record):
    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses):
        if not is_int(num_vars) or num_vars < 0:
            raise InputError(f"num_vars must be a nonnegative integer, got {num_vars!r}")
        clauses = tuple(clauses)
        for c in clauses:
            if not isinstance(c, Clause):
                raise InputError("clauses must be Clause objects")
            for v in c.variables:
                if v >= num_vars:
                    raise InputError(f"variable {v} out of range for num_vars={num_vars}")
        super().__init__(num_vars, clauses)

    def __repr__(self):
        return f"CspInstance(num_vars={self.num_vars}, clauses={len(self.clauses)})"

    def to_json(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "clauses": [
                {"vars": list(c.variables), "satisfying": c.sorted_patterns()}
                for c in self.clauses
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CspInstance":
        return load("csp", obj, lambda n, cs: cls(n, map(_clause, json_list(cs, "clauses"))),
                    "num_vars", "clauses")


def _clause(obj) -> Clause:
    variables, satisfying = fields(obj, "vars", "satisfying")
    return Clause(variables, json_list(satisfying, "satisfying"))


def max_sat_bruteforce(instance: CspInstance) -> tuple[int, tuple[int, ...]]:
    """Exact maximum satisfiable clause count and the lexicographically
    least optimal assignment.  Capped at caps.MAX_SAT_VARS variables.

    Every one of the 2^n assignments is scored, all at once: assignment i
    (in product((0, 1), repeat=n) order, so variable 0 is the most
    significant bit of i) is bit i of a 2^n-bit int.  Each clause becomes
    the mask of the assignments satisfying it, the masks are summed in a
    bit-sliced counter (plane j holds bit j of every assignment's score),
    and the maximum is read from the top plane down.  The witness is the
    lowest surviving bit, i.e. the first maximum in product order, the
    same tie rule as a best-so-far scan.
    """
    n = instance.num_vars
    caps.require("MAX_SAT_VARS", n,
                 "assignment enumeration limited to {limit} variables, got {used}")
    size = 1 << n
    full = (1 << size) - 1
    columns = [_truth_column(n - 1 - v, size) for v in range(n)]
    planes: list[int] = []
    for clause in instance.clauses:
        carry = _satisfying_mask(clause, columns, full)
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        if carry:
            planes.append(carry)
    value, survivors = 0, full
    for j in range(len(planes) - 1, -1, -1):
        top = survivors & planes[j]
        if top:
            value |= 1 << j
            survivors = top
    first = (survivors & -survivors).bit_length() - 1
    return value, tuple((first >> (n - 1 - v)) & 1 for v in range(n))


def _truth_column(shift: int, size: int) -> int:
    """The size-bit mask of the indices i with bit `shift` set, built by
    doubling one period (2^shift zeros, then 2^shift ones) to full width."""
    half = 1 << shift
    column = ((1 << half) - 1) << half
    width = 2 * half
    while width < size:
        column |= column << width
        width *= 2
    return column


def _satisfying_mask(clause: Clause, columns: list[int] | dict[int, int], full: int) -> int:
    mask = 0
    for pat in clause.satisfying:
        term = full
        for v, bit in zip(clause.variables, pat):
            term &= columns[v] if bit == "1" else full ^ columns[v]
        mask |= term
    return mask


# ---------------------------------------------------------------------------
# generators and transformations


def random_csp(num_vars: int, num_clauses: int, arity: int, seed: int) -> CspInstance:
    """Clauses over sorted random variable tuples with a uniformly random
    nonempty satisfying set."""
    if not (1 <= arity <= num_vars):
        raise InputError(f"arity {arity} out of range for {num_vars} variables")
    if num_clauses < 0:
        raise InputError(f"clause count must be nonnegative, got {num_clauses}")
    rng = random.Random(seed)
    patterns = ["".join(bits) for bits in product("01", repeat=arity)]
    clauses = []
    for _ in range(num_clauses):
        variables = tuple(sorted(rng.sample(range(num_vars), arity)))
        while True:
            chosen = frozenset(p for p in patterns if rng.random() < 0.5)
            if chosen:
                break
        clauses.append(Clause(variables, chosen))
    return CspInstance(num_vars, clauses)


def random_balanced_csp(num_vars: int, num_clauses: int, arity: int, seed: int) -> CspInstance:
    """Random parity constraints: each clause fixes the XOR of its variables
    to a random bit, so every variable is set to 1 by exactly half of each
    clause's satisfying patterns.

    Arity must be even: products of even-size parity constraints can never
    pin a single variable to a constant, so instances built here stay
    balanced through gap_amplify as well.
    """
    if not (2 <= arity <= num_vars):
        raise InputError(f"arity {arity} out of range for {num_vars} variables")
    if arity % 2 != 0:
        raise InputError(f"arity must be even for balanced generation, got {arity}")
    if num_clauses < 0:
        raise InputError(f"clause count must be nonnegative, got {num_clauses}")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = tuple(sorted(rng.sample(range(num_vars), arity)))
        target = rng.randrange(2)
        satisfying = frozenset(
            "".join(bits)
            for bits in product("01", repeat=arity)
            if sum(b == "1" for b in bits) % 2 == target
        )
        clauses.append(Clause(variables, satisfying))
    return CspInstance(num_vars, clauses)


def duplicate_clauses(instance: CspInstance, copies: int) -> CspInstance:
    """Each clause repeated `copies` times, copies adjacent."""
    if copies < 1:
        raise InputError(f"copy count must be at least 1, got {copies}")
    clauses = [c for c in instance.clauses for _ in range(copies)]
    return CspInstance(instance.num_vars, clauses)


def gap_amplify(instance: CspInstance, t: int, m_out: int, seed: int) -> CspInstance:
    """Clause products: every output clause is the AND of t input clauses
    sampled independently, uniformly, with replacement.

    Output clause j uses its own generator Random(seed ^ j), so clauses are
    reproducible individually and construction order does not matter.
    Merged variables keep first-occurrence order; the satisfying set is
    every assignment of the merged variables satisfying all t constituents
    (possibly empty, if the constituents contradict): the AND of their
    satisfying masks over the merged variables' truth columns, the first
    merged variable the most significant bit as in max_sat_bruteforce.
    """
    if t < 1:
        raise InputError(f"product width t must be at least 1, got {t}")
    if m_out < 1:
        raise InputError(f"output clause count must be at least 1, got {m_out}")
    if not instance.clauses:
        raise InputError("cannot amplify an instance with no clauses")
    out = []
    for j in range(m_out):
        rng = random.Random(seed ^ j)
        parts = [instance.clauses[rng.randrange(len(instance.clauses))] for _ in range(t)]
        merged: list[int] = []
        for c in parts:
            for v in c.variables:
                if v not in merged:
                    merged.append(v)
        caps.require("MAX_SAT_VARS", len(merged),
                     "merged clause has {used} variables, pattern enumeration limited to {limit}")
        k = len(merged)
        size = 1 << k
        full = (1 << size) - 1
        columns = {v: _truth_column(k - 1 - i, size) for i, v in enumerate(merged)}
        mask = full
        for c in parts:
            mask &= _satisfying_mask(c, columns, full)
        satisfying = [format(i, f"0{k}b") if k else "" for i in bit_indices(mask)]
        out.append(Clause(tuple(merged), frozenset(satisfying)))
    return CspInstance(instance.num_vars, out)


# ---------------------------------------------------------------------------
# FGLSS conflict graph


def fglss_build(instance: CspInstance) -> tuple[Graph, tuple[tuple[int, str], ...]]:
    """Conflict graph plus vertex labels (clause_index, pattern), sorted by
    that pair.  Vertex count = sum of satisfying-set sizes, capped at
    caps.MAX_FGLSS_VERTICES.

    Vertex a's neighbour mask is its clause mask OR-ed with the other-value
    side of each variable of its pattern, minus a's own bit (a shared clause
    or a disagreement on a shared variable): O(n * arity) mask operations.
    """
    labels = [(ci, pat) for ci, c in enumerate(instance.clauses) for pat in c.sorted_patterns()]
    caps.require("MAX_FGLSS_VERTICES", len(labels),
                 "conflict graph would have {used} vertices, limit is {limit}")
    clause_masks, sides = _label_masks(labels, instance)
    adj = []
    for vertex, (ci, pat) in enumerate(labels):
        mask = clause_masks[ci]
        for v, value in zip(instance.clauses[ci].variables, pat):
            mask |= sides[v][value == "0"]
        adj.append(mask & ~(1 << vertex))
    return Graph._from_masks(len(labels), adj), tuple(labels)


def _label_masks(labels, instance: CspInstance) -> tuple[list[int], dict[int, list[int]]]:
    """One scan of the labels: each clause's vertex mask, and for each
    variable that occurs in some label the pair [mask of vertices setting
    it to 0, ... to 1]."""
    clause_masks = [0] * len(instance.clauses)
    sides: dict[int, list[int]] = {}
    for vertex, (ci, pat) in enumerate(labels):
        bit = 1 << vertex
        clause_masks[ci] |= bit
        for v, value in zip(instance.clauses[ci].variables, pat):
            sides.setdefault(v, [0, 0])[value == "1"] |= bit
    return clause_masks, sides


def disperser_replace(g: Graph, labels, instance: CspInstance, disperser_supplier) -> Graph:
    """Sparsify disagreement edges variable by variable.

    Vertex i is labels[i], in any order; a label that names no satisfying
    pattern of an instance clause is an input error, and g gives only the
    vertex count.  For every variable that occurs in some label, the vertices
    setting it to 1 (ascending) form a left side and those setting it to 0
    (ascending) a right side; unequal sizes are an input error naming the
    variable.  disperser_supplier(size) is called once per such variable, in
    ascending variable order, and must return a BipartiteGraph with both
    sides of that size.  Errors come in this order: labels, then per
    variable its balance, the supplier's type and its side sizes.

    Each vertex starts from its clause mask (same-clause edges always stay)
    and every supplied pair is OR-ed into both endpoints' masks.  Every kept
    edge is an edge of the full conflict graph, hence the independence
    number never decreases.
    """
    labels = tuple(labels)
    if len(labels) != g.vertex_count:
        raise InputError("label count does not match vertex count")
    for vertex, (ci, pat) in enumerate(labels):
        if not 0 <= ci < len(instance.clauses):
            raise InputError(f"vertex {vertex}: clause index {ci} out of range")
        if pat not in instance.clauses[ci].satisfying:
            raise InputError(
                f"vertex {vertex}: {pat!r} is not a satisfying pattern of clause {ci}"
            )
    clause_masks, sides = _label_masks(labels, instance)
    adj = [clause_masks[ci] & ~(1 << vertex) for vertex, (ci, _) in enumerate(labels)]
    for variable, (zero_mask, one_mask) in sorted(sides.items()):
        ones, zeros = bit_indices(one_mask), bit_indices(zero_mask)
        if len(ones) != len(zeros):
            raise InputError(
                f"variable {variable} is unbalanced: {len(ones)} ones vs {len(zeros)} zeros"
            )
        disp = disperser_supplier(len(ones))
        if not isinstance(disp, BipartiteGraph):
            raise InputError(f"supplier returned {type(disp).__name__} for variable {variable}")
        if disp.left_count != len(ones) or disp.right_count != len(zeros):
            raise InputError(
                f"variable {variable}: sides {len(ones)}x{len(zeros)} do not match "
                f"supplied graph {disp.left_count}x{disp.right_count}"
            )
        for i, a in enumerate(ones):
            for j in bit_indices(disp.left_mask(i)):
                adj[a] |= 1 << zeros[j]
                adj[zeros[j]] |= 1 << a
    return Graph._from_masks(g.vertex_count, adj)
