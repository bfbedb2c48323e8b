"""CSP semantics, amplification, conflict graph, and sparsification tests.

The central identity exercised here: the independence number of the
conflict graph equals the maximum number of simultaneously satisfiable
clauses.
"""

import random
from itertools import product

import pytest

from matchprice import caps
from matchprice.errors import CapExceeded, InputError
from matchprice.csp_fglss import (
    Clause,
    CspInstance,
    disperser_replace,
    duplicate_clauses,
    fglss_build,
    gap_amplify,
    max_sat_bruteforce,
    random_balanced_csp,
    random_csp,
)
from matchprice.graphs import BipartiteGraph, max_independent_set_bruteforce


def xor_clause(u, w, target):
    pats = {"01", "10"} if target else {"00", "11"}
    return Clause((u, w), frozenset(pats))


def occurrences(instance, variable):
    return sum(1 for c in instance.clauses if variable in c.variables)


def is_satisfied_by(clause, assignment):
    pat = "".join(str(assignment[v]) for v in clause.variables)
    return pat in clause.satisfying


def max_arity(instance):
    return max((c.arity for c in instance.clauses), default=0)


def check_assignment(instance, assignment):
    assignment = tuple(assignment)
    if len(assignment) != instance.num_vars:
        raise InputError(
            f"assignment length {len(assignment)} != num_vars {instance.num_vars}"
        )
    if any(b not in (0, 1) for b in assignment):
        raise InputError("assignment entries must be 0 or 1")
    return assignment


def evaluate(instance, assignment):
    """Number of clauses the assignment satisfies."""
    assignment = check_assignment(instance, assignment)
    return sum(1 for c in instance.clauses if is_satisfied_by(c, assignment))


def is_balanced(instance):
    """True iff for every variable, the (clause, pattern) pairs setting it
    to 1 are exactly as many as those setting it to 0."""
    for variable in range(instance.num_vars):
        ones = zeros = 0
        for c in instance.clauses:
            if variable not in c.variables:
                continue
            pos = c.variables.index(variable)
            for pat in c.satisfying:
                if pat[pos] == "1":
                    ones += 1
                else:
                    zeros += 1
        if ones != zeros:
            return False
    return True


def cross_clause_degrees(graph, labels):
    """Per-vertex count of edges whose endpoints lie in different clauses."""
    labels = list(labels)
    out = [0] * graph.vertex_count
    for u, w in graph.edges:
        if labels[u][0] != labels[w][0]:
            out[u] += 1
            out[w] += 1
    return out


def vertex_value(labels, instance, vertex, variable):
    """The value the vertex's pattern gives the variable, or None if the
    vertex's clause does not contain it."""
    ci, pat = labels[vertex]
    clause = instance.clauses[ci]
    if variable not in clause.variables:
        return None
    return int(pat[clause.variables.index(variable)])


def variable_sides(labels, instance, variable):
    """(ones, zeros): vertices whose pattern sets the variable to 1 / 0,
    each list ascending."""
    ones, zeros = [], []
    for v in range(len(labels)):
        val = vertex_value(labels, instance, v, variable)
        if val == 1:
            ones.append(v)
        elif val == 0:
            zeros.append(v)
    return ones, zeros


def complete_bip(n):
    return BipartiteGraph(n, n, [(i, j) for i in range(n) for j in range(n)])


def empty_bip(n):
    return BipartiteGraph(n, n, [])


def test_clause_validation():
    with pytest.raises(InputError):
        Clause((0, 0), frozenset({"00"}))
    with pytest.raises(InputError):
        Clause((0, 1), frozenset({"0"}))
    with pytest.raises(InputError):
        Clause((0, 1), frozenset({"0x"}))
    c = Clause((2, 0), frozenset({"10", "01"}))
    assert c.arity == 2
    assert c.sorted_patterns() == ["01", "10"]


@pytest.mark.parametrize("pattern", ["2", "0 1", "", "\uff101", "01\n", "0110"])
def test_clause_accepts_exactly_the_binary_patterns(pattern):
    """A pattern of the clause's own arity is accepted iff every character
    is 0 or 1 (a full-width digit, a space or a newline is not)."""
    binary = all(ch in "01" for ch in pattern)
    variables = range(len(pattern))
    if binary:
        assert Clause(variables, [pattern]).satisfying == {pattern}
    else:
        with pytest.raises(InputError, match="does not fit arity"):
            Clause(variables, [pattern])


def test_instance_validation_and_json():
    c = Clause((0, 2), frozenset({"11"}))
    inst = CspInstance(3, [c])
    assert CspInstance.from_json(inst.to_json()) == inst
    with pytest.raises(InputError):
        CspInstance(2, [c])
    assert occurrences(inst, 2) == 1
    assert occurrences(inst, 1) == 0
    assert max_arity(inst) == 2


def test_evaluate_and_maxsat():
    # x0=1,x1=1 conflicts with x1=0,x2=1 on x1
    inst = CspInstance(
        3,
        [Clause((0, 1), frozenset({"11"})), Clause((1, 2), frozenset({"01"}))],
    )
    assert evaluate(inst, (1, 1, 0)) == 1
    assert evaluate(inst, (0, 0, 1)) == 1
    assert evaluate(inst, (0, 0, 0)) == 0
    best, witness = max_sat_bruteforce(inst)
    assert best == 1
    # lexicographically least optimum: (0, 0, 1) satisfies the second clause
    assert witness == (0, 0, 1)
    with pytest.raises(InputError):
        evaluate(inst, (0, 1))
    with pytest.raises(InputError):
        evaluate(inst, (0, 2, 0))


def test_evaluate_against_naive_evaluator():
    rng = random.Random(515)
    for trial in range(30):
        inst = random_csp(5, 4, 3, seed=rng.randrange(10**6))
        bits = tuple(rng.randrange(2) for _ in range(5))
        naive = 0
        for c in inst.clauses:
            pat = "".join(str(bits[v]) for v in c.variables)
            naive += pat in c.satisfying
        assert evaluate(inst, bits) == naive


def test_maxsat_lex_witness_all_satisfiable():
    inst = CspInstance(2, [Clause((0,), frozenset({"0", "1"}))])
    best, witness = max_sat_bruteforce(inst)
    assert best == 1
    assert witness == (0, 0)


def test_maxsat_contradictory_unit_clauses():
    inst = CspInstance(
        1, [Clause((0,), frozenset({"1"})), Clause((0,), frozenset({"0"}))]
    )
    best, _ = max_sat_bruteforce(inst)
    assert best == 1


def test_maxsat_never_beaten_by_sampling():
    rng = random.Random(616)
    inst = random_csp(8, 6, 3, seed=99)
    best, witness = max_sat_bruteforce(inst)
    assert evaluate(inst, witness) == best
    for _ in range(2000):
        bits = tuple(rng.randrange(2) for _ in range(8))
        assert evaluate(inst, bits) <= best


def test_maxsat_cap():
    inst = CspInstance(caps.MAX_SAT_VARS + 1, [])
    with pytest.raises(CapExceeded) as err:
        max_sat_bruteforce(inst)
    assert err.value.bound == "MAX_SAT_VARS"


def test_balanced_generator_and_preservation():
    inst = random_balanced_csp(6, 5, 2, seed=31)
    assert is_balanced(inst)
    assert all(len(c.satisfying) == 2 for c in inst.clauses)
    assert is_balanced(duplicate_clauses(inst, 3))
    assert is_balanced(gap_amplify(inst, 2, len(inst.clauses), seed=77))
    assert is_balanced(gap_amplify(inst, 3, 8, seed=78))
    with pytest.raises(InputError):
        random_balanced_csp(6, 5, 3, seed=1)


@pytest.mark.parametrize("maker", [random_csp, random_balanced_csp])
def test_generators_refuse_a_negative_clause_count(maker):
    assert len(maker(4, 0, 2, seed=1).clauses) == 0
    with pytest.raises(InputError, match="clause count must be nonnegative, got -1"):
        maker(4, -1, 2, seed=1)


def test_duplicate_clauses_and_exact_scaling():
    inst = random_csp(4, 2, 2, seed=5)
    tripled = duplicate_clauses(inst, 3)
    assert len(tripled.clauses) == 6
    assert tripled.clauses[0] == tripled.clauses[1] == inst.clauses[0]
    assert tripled.clauses[3] == inst.clauses[1]
    rng = random.Random(8)
    for _ in range(50):
        bits = tuple(rng.randrange(2) for _ in range(4))
        assert evaluate(tripled, bits) == 3 * evaluate(inst, bits)
    with pytest.raises(InputError):
        duplicate_clauses(inst, 0)


def test_gap_amplify_semantics():
    inst = random_csp(5, 4, 2, seed=91)
    amp = gap_amplify(inst, 2, 6, seed=13)
    assert len(amp.clauses) == 6
    assert amp == gap_amplify(inst, 2, 6, seed=13)
    # rebuild each output clause independently and compare satisfying sets
    for j, merged in enumerate(amp.clauses):
        rng = random.Random(13 ^ j)
        parts = [inst.clauses[rng.randrange(len(inst.clauses))] for _ in range(2)]
        expect_vars: list[int] = []
        for c in parts:
            for v in c.variables:
                if v not in expect_vars:
                    expect_vars.append(v)
        assert merged.variables == tuple(expect_vars)
        pos = {v: i for i, v in enumerate(expect_vars)}
        expected = set()
        for bits in product("01", repeat=len(expect_vars)):
            if all(
                "".join(bits[pos[v]] for v in c.variables) in c.satisfying for c in parts
            ):
                expected.add("".join(bits))
        assert merged.satisfying == frozenset(expected)
        assert len(merged.satisfying) <= min(len(c.satisfying) for c in parts) * 2 ** (
            len(expect_vars) - min(c.arity for c in parts)
        )


def test_gap_amplify_width_one_copies_clauses():
    inst = random_csp(4, 3, 2, seed=44)
    amp = gap_amplify(inst, 1, 5, seed=9)
    assert len(amp.clauses) == 5
    for c in amp.clauses:
        assert c in inst.clauses


def test_gap_amplify_keeps_full_satisfiability():
    # a satisfiable instance stays fully satisfiable after amplification
    inst = CspInstance(
        3,
        [Clause((0, 1), frozenset({"10"})), Clause((1, 2), frozenset({"00", "01"}))],
    )
    base_best, base_witness = max_sat_bruteforce(inst)
    assert base_best == 2
    amp = gap_amplify(inst, 3, 5, seed=5)
    assert evaluate(amp, base_witness) == 5
    with pytest.raises(InputError):
        gap_amplify(inst, 0, 5, seed=1)
    with pytest.raises(InputError):
        gap_amplify(inst, 2, 0, seed=1)
    with pytest.raises(InputError):
        gap_amplify(CspInstance(2, []), 2, 3, seed=1)


def test_fglss_labels_and_alpha():
    inst = CspInstance(
        3,
        [Clause((0, 1), frozenset({"11", "10"})), Clause((1, 2), frozenset({"01"}))],
    )
    graph, labels = fglss_build(inst)
    assert labels == ((0, "10"), (0, "11"), (1, "01"))
    # same-clause pair 0-1; vertex 1 (x1=1) conflicts with vertex 2 (x1=0)
    assert graph.edges == frozenset({(0, 1), (1, 2)})
    alpha, _ = max_independent_set_bruteforce(graph)
    best, _ = max_sat_bruteforce(inst)
    assert alpha == best == 2
    assert vertex_value(labels, inst, 0, 0) == 1
    assert vertex_value(labels, inst, 0, 1) == 0
    assert vertex_value(labels, inst, 2, 0) is None


def test_fglss_same_clause_exclusivity_without_conflict():
    # two satisfying patterns that agree on the shared variable of a
    # 2-clause system would otherwise both be selectable
    inst = CspInstance(2, [Clause((0, 1), frozenset({"00", "01"}))])
    graph, labels = fglss_build(inst)
    assert graph.edges == frozenset({(0, 1)})
    alpha, _ = max_independent_set_bruteforce(graph)
    assert alpha == 1


def test_fglss_alpha_equals_maxsat_random():
    rng = random.Random(1213)
    for trial in range(40):
        inst = random_csp(
            rng.randrange(2, 5), rng.randrange(1, 4), 2, seed=rng.randrange(10**6)
        )
        graph, labels = fglss_build(inst)
        assert graph.vertex_count == sum(len(c.satisfying) for c in inst.clauses)
        alpha, _ = max_independent_set_bruteforce(graph)
        best, _ = max_sat_bruteforce(inst)
        assert alpha == best


def test_fglss_empty_satisfying_clause_contributes_nothing():
    inst = CspInstance(
        2,
        [Clause((0, 1), frozenset()), Clause((0,), frozenset({"1"}))],
    )
    graph, labels = fglss_build(inst)
    assert graph.vertex_count == 1
    alpha, _ = max_independent_set_bruteforce(graph)
    best, _ = max_sat_bruteforce(inst)
    assert alpha == best == 1


def test_fglss_vertex_cap():
    # one clause with 10 free variables: 2^10 patterns
    inst = CspInstance(
        10,
        [Clause(tuple(range(10)), frozenset("".join(b) for b in product("01", repeat=10)))],
    )
    with pytest.raises(CapExceeded) as err:
        fglss_build(inst)
    assert err.value.bound == "MAX_FGLSS_VERTICES"


def balanced_two_var_instance():
    # two copies of the same parity clause: each variable occurs twice,
    # giving 2 ones and 2 zeros
    return CspInstance(2, [xor_clause(0, 1, 1), xor_clause(0, 1, 1)])


def test_disperser_replace_complete_equals_original():
    inst = balanced_two_var_instance()
    graph, labels = fglss_build(inst)
    replaced = disperser_replace(graph, labels, inst, complete_bip)
    assert replaced == graph


def test_disperser_replace_empty_drops_cross_edges():
    inst = balanced_two_var_instance()
    graph, labels = fglss_build(inst)
    replaced = disperser_replace(graph, labels, inst, empty_bip)
    # only the same-clause exclusivity edges remain
    assert all(labels[u][0] == labels[w][0] for u, w in replaced.edges)
    alpha_before, _ = max_independent_set_bruteforce(graph)
    alpha_after, _ = max_independent_set_bruteforce(replaced)
    assert alpha_after >= alpha_before


def test_disperser_replace_supplier_call_order():
    # opposite parity targets: every cross-clause conflict rides on exactly
    # one of the two variables; emptying variable 0 and keeping variable 1
    # complete leaves only the variable 1 disagreements
    inst = CspInstance(2, [xor_clause(0, 1, 1), xor_clause(0, 1, 0)])
    graph, labels = fglss_build(inst)
    calls = []

    def supplier(size):
        calls.append(size)
        return empty_bip(size) if len(calls) == 1 else complete_bip(size)

    replaced = disperser_replace(graph, labels, inst, supplier)
    assert calls == [2, 2]
    assert replaced.edges < graph.edges
    kept_cross = [(u, w) for u, w in replaced.edges if labels[u][0] != labels[w][0]]
    assert len(kept_cross) == 2
    for u, w in kept_cross:
        assert {vertex_value(labels, inst, u, 1), vertex_value(labels, inst, w, 1)} == {0, 1}
        assert vertex_value(labels, inst, u, 0) == vertex_value(labels, inst, w, 0)


def test_disperser_replace_alpha_monotone_random():
    rng = random.Random(1415)
    for trial in range(15):
        inst = random_balanced_csp(4, 3, 2, seed=rng.randrange(10**6))
        graph, labels = fglss_build(inst)

        def supplier(size):
            return BipartiteGraph(
                size,
                size,
                [(i, j) for i in range(size) for j in range(size) if rng.random() < 0.5],
            )

        replaced = disperser_replace(graph, labels, inst, supplier)
        assert replaced.edges <= graph.edges
        alpha_before, _ = max_independent_set_bruteforce(graph)
        alpha_after, _ = max_independent_set_bruteforce(replaced)
        assert alpha_after >= alpha_before


def test_disperser_replace_rejects_unbalanced_variable():
    inst = CspInstance(1, [Clause((0,), frozenset({"1"}))])
    graph, labels = fglss_build(inst)
    with pytest.raises(InputError) as err:
        disperser_replace(graph, labels, inst, complete_bip)
    assert "variable 0" in str(err.value)
    assert "unbalanced" in str(err.value)


def test_disperser_replace_rejects_size_mismatch():
    inst = balanced_two_var_instance()
    graph, labels = fglss_build(inst)
    with pytest.raises(InputError) as err:
        disperser_replace(graph, labels, inst, lambda size: complete_bip(size + 1))
    assert "variable 0" in str(err.value)


def test_variable_sides_ascending():
    inst = balanced_two_var_instance()
    graph, labels = fglss_build(inst)
    ones, zeros = variable_sides(labels, inst, 0)
    assert ones == sorted(ones) and zeros == sorted(zeros)
    assert len(ones) == len(zeros) == 2
    for v in ones:
        assert vertex_value(labels, inst, v, 0) == 1
    for v in zeros:
        assert vertex_value(labels, inst, v, 0) == 0


def test_cross_clause_degrees():
    inst = balanced_two_var_instance()
    graph, labels = fglss_build(inst)
    degs = cross_clause_degrees(graph, labels)
    # identical parity clauses: each vertex conflicts only with the single
    # opposite pattern of the other clause (disagreeing on both variables)
    assert degs == [1, 1, 1, 1]
    replaced = disperser_replace(graph, labels, inst, empty_bip)
    assert cross_clause_degrees(replaced, labels) == [0, 0, 0, 0]
