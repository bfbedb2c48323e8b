"""The twelve immutable records: equality, hash, repr, immutability and
ReductionOutput's defaults.  Six replaced frozen dataclasses and keep the
repr strings those printed; Matching, VertexOrder, PriceFunction,
PricingInstance and CspInstance keep their own repr, and Coloring, which
had none, prints Record's."""

import copy
import pickle
from fractions import Fraction

import pytest

from matchprice.csp_fglss import Clause, CspInstance
from matchprice.errors import Record
from matchprice.graphs import BipartiteGraph, Matching, VertexOrder
from matchprice.pricing import (
    Group,
    GroupSale,
    PriceFunction,
    PricingInstance,
    SaleReport,
    SubInstance,
)
from matchprice.rationals import INF
from matchprice.reduction import (
    Coloring,
    ReductionOutput,
    build_pricing_instance,
    color_left,
    congestion_filter,
    reduce_full,
)

F = Fraction
INSTANCE = PricingInstance(2, [Group([0, 1], F(1, 2), 2)])

OTHER = PricingInstance(1, [Group([0], 1, 1)])

# (record, its fields in order, another valid value for each field, its repr)
CASES = [
    (Group([0, 1], F(1, 2), 2), ("bundle", "budget", "multiplicity"), ([0], F(1, 3), 3),
     "Group(bundle=frozenset({0, 1}), budget=Fraction(1, 2), multiplicity=2)"),
    (GroupSale(F(3), True, 1), ("payment", "bought", "chosen_item"), (F(4), False, None),
     "GroupSale(payment=Fraction(3, 1), bought=True, chosen_item=1)"),
    (SaleReport((GroupSale(F(0), False, None),), F(0)), ("sales", "revenue"), ((), F(1)),
     "SaleReport(sales=(GroupSale(payment=Fraction(0, 1), bought=False, chosen_item=None),),"
     " revenue=Fraction(0, 1))"),
    (SubInstance((0, 1), INSTANCE), ("items", "instance"), ((0,), OTHER),
     "SubInstance(items=(0, 1), instance=PricingInstance(items=2, groups=1, k=2))"),
    (Clause((0, 2), {"01"}), ("variables", "satisfying"), ((0, 1), {"10"}),
     "Clause(variables=(0, 2), satisfying=frozenset({'01'}))"),
    (Matching([(0, 1), (2, 3)]), ("edges",), (((0, 2),),), "Matching([(0, 1), (2, 3)])"),
    (VertexOrder([1, 2, 0]), ("ranks",), ((0, 1, 2),), "VertexOrder([1, 2, 0])"),
    (PriceFunction([F(1, 2), INF]), ("prices",), ((F(1, 2), F(0)),), "PriceFunction([1/2, inf])"),
    (INSTANCE, ("item_count", "groups"), (3, (Group([0], 1, 1),)),
     "PricingInstance(items=2, groups=1, k=2)"),
    (CspInstance(2, [Clause((0, 1), {"01"})]), ("num_vars", "clauses"), (3, ()),
     "CspInstance(num_vars=2, clauses=1)"),
    (Coloring((1, 3, 2), 3), ("colors", "d"), ((1, 1, 1), 4), "Coloring(colors=(1, 3, 2), d=3)"),
    (ReductionOutput(INSTANCE, (5, 7), {5: 0, 7: 1}, {0: 0}, None, 3, None),
     ("instance", "right_of_item", "item_of_right_vertex", "group_of_left_vertex", "coloring",
      "d", "graph", "removed_rights", "seed", "rule"),
     (OTHER, (5,), {5: 0}, {1: 0}, "coloring", 4, "graph", (1,), 9, "udp"),
     "ReductionOutput(instance=PricingInstance(items=2, groups=1, k=2), right_of_item=(5, 7),"
     " item_of_right_vertex={5: 0, 7: 1}, group_of_left_vertex={0: 0}, coloring=None, d=3,"
     " graph=None, removed_rights=(), seed=None, rule=None)"),
]
IDS = [type(record).__name__ for record, _, _, _ in CASES]


def values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def hash_or_unhashable(value):
    try:
        return hash(value)
    except TypeError:
        return "unhashable"


@pytest.mark.parametrize("record, fields, others, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(record, fields, others, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, others, text", CASES, ids=IDS)
def test_equal_only_to_its_own_class_over_every_field(record, fields, others, text):
    same = type(record)(*values(record, fields))
    assert same is not record and same == record and not same != record
    twin_class = type("Twin", (Record,), {"__slots__": fields})
    assert record != twin_class(*values(record, fields))
    assert twin_class(*values(record, fields)) != record
    assert record != values(record, fields)
    for index, other in enumerate(others):
        changed = list(values(record, fields))
        changed[index] = other
        assert type(record)(*changed) != record, fields[index]


@pytest.mark.parametrize("record, fields, others, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(record, fields, others, text):
    assert hash_or_unhashable(record) == hash_or_unhashable(values(record, fields))


@pytest.mark.parametrize("record, fields, others, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields, others, text):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, others, text", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_record(record, fields, others, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == text


def test_reduction_output_defaults_and_reduce_full_fields():
    g = BipartiteGraph(4, 4, [(0, 0), (0, 1), (1, 1), (2, 2), (3, 2), (3, 3)])
    d, seed = 3, 5
    coloring = color_left(g, d, seed)
    removed, gprime = congestion_filter(g, coloring, d)

    bare = build_pricing_instance(gprime, coloring, d)
    assert (bare.removed_rights, bare.seed, bare.rule) == ((), None, None)
    assert ReductionOutput(*values(bare, CASES[-1][1])[:7]) == bare

    out = reduce_full(g, d, seed, "smp")
    assert (out.removed_rights, out.seed, out.rule) == (removed, seed, "smp")
    assert out.instance == bare.instance and out.coloring is not None and out.d == d
    assert out.right_of_item == bare.right_of_item
    assert out.item_of_right_vertex == bare.item_of_right_vertex
    assert out.group_of_left_vertex == bare.group_of_left_vertex
    assert out.graph.to_json() == gprime.to_json()
    assert out.to_json()["seed"] == seed
