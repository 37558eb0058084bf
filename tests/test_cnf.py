import random

import pytest

import unitprop.cnf as cnf
from unitprop.cnf import (
    CnfFormula,
    PartialAssignment,
    PropagationResult,
    assignment_literals,
    clause_of,
    format_dimacs,
    indicator_lanes,
    iter_assignments,
    lit_var,
    neg,
    parse_dimacs,
    propagate_lanes,
    propagate_staged,
    propagate_standard,
    propagation_stage,
    restrict,
)
from unitprop.verify import random_cnf


def F(*clauses, names=None):
    return CnfFormula(clauses, names=names)


# a = 1, b = 2, c = 3, d = 4: (a or -b) and (b) and (-a or c or -d)
CHAIN = F([1, -2], [2], [-1, 3, -4])


def test_neg_is_involution():
    for lit in (1, -1, 7, -42):
        assert neg(neg(lit)) == lit
        assert lit_var(lit) >= 1


def test_zero_is_not_a_literal():
    with pytest.raises(ValueError):
        clause_of([0])
    with pytest.raises(ValueError):
        F([1, 0])


def test_formula_deduplicates_clauses():
    f = F([1, -2], [-2, 1], [1, -2])
    assert len(f) == 1
    assert f.size() == 2


def test_variables_is_union_of_clause_variables():
    assert CHAIN.variables == {1, 2, 3, 4}
    assert F().variables == frozenset()


def test_restrict_appends_unit_clauses():
    f = F([1, -2])
    assert restrict(f, [1]) == F([1, -2], [1])
    assert restrict(f, []) == f


def test_restrict_first_table_propagator():
    # propagator formula (-v1 or s) and (-v2 or s), restricted by {v1}
    f = F([-1, 3], [-2, 3])
    assert restrict(f, PartialAssignment([1])) == F([-1, 3], [-2, 3], [1])


def test_restrict_accepts_fresh_variables():
    f = F([1, -2])
    g = restrict(f, [5])
    assert g.variables == {1, 2, 5}
    assert f.variables == {1, 2}


def test_partial_assignment_rejects_inconsistency():
    with pytest.raises(ValueError):
        PartialAssignment([1, -1])


def test_partial_assignment_universe():
    a = PartialAssignment([1], universe=[1, 2])
    assert a.universe == {1, 2}
    with pytest.raises(ValueError):
        PartialAssignment([3], universe=[1, 2])


def test_propagate_standard_chain_example():
    res = propagate_standard(CHAIN)
    assert not res.is_bottom
    assert res.outcome == {2, 1}


def test_propagate_standard_empty_formula():
    res = propagate_standard(F())
    assert res.outcome == frozenset()


def test_propagate_standard_complementary_units():
    res = propagate_standard(F([1], [-1]))
    assert res.is_bottom
    assert res.outcome is None
    # the trace still shows the clashing pair
    assert {1, -1} <= res.produced


def test_propagation_stage_rounds():
    assert propagation_stage(CHAIN, frozenset()) == {2}
    assert propagation_stage(CHAIN, frozenset({2})) == {1}
    assert propagation_stage(CHAIN, frozenset({2, 1})) == frozenset()


def test_propagation_stage_is_pure():
    assigned = {2}
    propagation_stage(CHAIN, assigned)
    assert assigned == {2}


def test_propagate_staged_chain_example():
    res = propagate_staged(CHAIN)
    assert res.outcome == {2, 1}
    assert res.stages == (frozenset({2}), frozenset({1}), frozenset(), frozenset(), frozenset())
    assert res.stage(1) == {2}
    assert res.stage(2) == {1}
    assert res.through(2) == {2, 1}


def test_propagate_staged_detects_derived_conflict():
    # (a) and (-a or b) and (-b or -a)
    res = propagate_staged(F([1], [-1, 2], [-2, -1]))
    assert res.is_bottom
    cross = propagate_standard(F([1], [-1, 2], [-2, -1]))
    assert cross.is_bottom


def test_propagate_staged_without_units():
    f = F([1, 2], [-1, -2])
    res = propagate_staged(f)
    assert res.outcome == frozenset()
    assert all(s == frozenset() for s in res.stages)
    assert len(res.stages) == len(f.variables) + 1


def test_stage_accessor_bounds():
    res = propagate_staged(CHAIN)
    assert res.stage(99) == frozenset()
    with pytest.raises(ValueError):
        res.stage(0)
    assert res.stage(0, first=0) == {2}


def test_pre_existing_empty_clause_divergence():
    # The destructive procedure fails on a formula that already contains the
    # empty clause; the staged one only scans for complementary pairs and
    # cannot see it.  Both behaviors are as defined.
    f = F([])
    assert propagate_standard(f).is_bottom
    assert not propagate_staged(f).is_bottom


def test_tautological_clause_is_inert():
    f = F([1, -1], [2])
    std = propagate_standard(f)
    stg = propagate_staged(f)
    assert std.outcome == stg.outcome == {2}


def test_result_type_invariants_constructed():
    res = PropagationResult([{1}, {2}], is_bottom=False)
    assert res.produced == {1, 2}
    assert res.outcome == {1, 2}


# --- randomized properties ---------------------------------------------------

def corpus(count=300, max_vars=10, max_clauses=40, seed=20260810):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, max_vars)
        k = rng.randint(0, max_clauses)
        yield random_cnf(n, k, maxlen=rng.randint(1, 4), seed=seed + i)


def test_algorithms_agree_on_random_formulas():
    for f in corpus():
        std = propagate_standard(f)
        stg = propagate_staged(f)
        assert std.is_bottom == stg.is_bottom, format_dimacs(f)
        if not std.is_bottom:
            assert std.outcome == stg.outcome, format_dimacs(f)


def test_staged_engine_matches_naive_stage_iteration():
    for f in corpus(count=150):
        res = propagate_staged(f)
        assigned = frozenset()
        for stage in res.stages:
            expected = propagation_stage(f, assigned)
            assert stage == expected, format_dimacs(f)
            assigned |= expected


def test_stage_monotonicity_and_disjointness():
    for f in corpus(count=150):
        res = propagate_staged(f)
        seen = set()
        for i, stage in enumerate(res.stages, start=1):
            assert not (stage & seen)  # a literal enters exactly once
            assert res.through(i) == seen | stage
            seen |= stage


def test_fixpoint_stages_stay_empty():
    for f in corpus(count=150):
        res = propagate_staged(f)
        empty_seen = False
        for stage in res.stages:
            if empty_seen:
                assert stage == frozenset()
            if stage == frozenset():
                empty_seen = True


def test_early_exit_preserves_outcome():
    for f in corpus(count=200):
        full = propagate_staged(f)
        quick = propagate_staged(f, early_exit=True)
        assert full.is_bottom == quick.is_bottom
        if not full.is_bottom:
            assert full.outcome == quick.outcome
            # trace agrees up to trailing empty rounds
            for i, stage in enumerate(quick.stages):
                assert stage == full.stages[i]
            for stage in full.stages[len(quick.stages):]:
                assert stage == frozenset()


def test_production_grows_with_clauses():
    rng = random.Random(4)
    for i in range(150):
        big = random_cnf(8, rng.randint(1, 25), maxlen=3, seed=1000 + i)
        subset = [c for c in big.clauses if rng.random() < 0.6]
        small = CnfFormula(subset)
        res_big = propagate_staged(big)
        if res_big.is_bottom:
            continue
        res_small = propagate_staged(small)
        assert res_small.produced <= res_big.produced


def test_restriction_produces_restricted_literals():
    rng = random.Random(5)
    for i in range(100):
        f = random_cnf(6, rng.randint(0, 15), maxlen=3, seed=2000 + i)
        lits = []
        for v in sorted(f.variables):
            pick = rng.random()
            if pick < 0.3:
                lits.append(v)
            elif pick < 0.6:
                lits.append(-v)
        res = propagate_staged(restrict(f, lits))
        if not res.is_bottom:
            assert frozenset(lits) <= res.produced


def test_bottom_traces_contain_a_complementary_pair():
    for f in corpus(count=200):
        for res in (propagate_staged(f), propagate_standard(f)):
            if res.is_bottom:
                assert any(-l in res.produced for l in res.produced)
            else:
                assert not any(-l in res.produced for l in res.produced)


# --- assignment enumeration ---------------------------------------------------

def test_iter_assignments_single_variable():
    got = list(iter_assignments([7]))
    assert [sorted(a.literals) for a in got] == [[], [7], [-7]]


def test_iter_assignments_counts():
    for n in range(5):
        assert len(list(iter_assignments(range(1, n + 1)))) == 3 ** n


def test_iter_assignments_unique_and_consistent():
    seen = {a.literals for a in iter_assignments([1, 2, 3])}
    assert len(seen) == 27


def test_assignment_literals_follow_iter_assignments():
    for order in ([], [4], [1, 2, 3], [5, 2, 9, 7]):
        assert list(assignment_literals(order)) == [a.literals for a in iter_assignments(order)]


def test_indicator_lanes_mark_each_assignment():
    order = (2, 5, 6)
    masks = indicator_lanes(order)
    for lane, assignment in enumerate(iter_assignments(order)):
        lits = {l for l, mask in masks.items() if mask >> lane & 1}
        assert lits == assignment.literals
    assert indicator_lanes(()) == {}


# --- bit-parallel propagation over every assignment ---------------------------

def lane_rows(formula, variables):
    """Per assignment: (fails, derived literals) read off propagate_lanes."""
    lanes = propagate_lanes(formula, variables)
    fail = lanes.bits(lanes.fail)
    derived = [set() for _ in fail]
    for lit, mask in lanes.masks.items():
        for lane, bit in enumerate(lanes.bits(mask)):
            if bit == "1":
                derived[lane].add(lit)
    return [(f == "1", d) for f, d in zip(fail, derived)]


def staged_rows(formula, variables):
    rows = []
    for assignment in iter_assignments(variables):
        res = propagate_staged(restrict(formula, assignment), early_exit=True)
        rows.append((res.is_bottom, set(res.produced)))
    return rows


def same_rows(lane, staged):
    # derived sets are only defined where propagation does not fail
    assert [f for f, _ in lane] == [f for f, _ in staged]
    assert [d for f, d in lane if not f] == [d for f, d in staged if not f]


def test_propagate_lanes_matches_staged_engine_on_random_formulas():
    rng = random.Random(20261018)
    for i in range(150):
        formula = random_cnf(rng.randint(0, 6), rng.randint(0, 14), rng.randint(1, 4),
                             seed=rng.getrandbits(32), horn=i % 2 == 1)
        pool = sorted(formula.variables | {7, 8})  # 7, 8 lie outside every formula here
        variables = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        same_rows(lane_rows(formula, variables), staged_rows(formula, variables))


@pytest.mark.parametrize("clauses, variables", [
    ([[]], [1]),                          # an empty clause fires nothing
    ([[], [-1, 2]], [1]),
    ([[1, -1], [2]], [1]),                # a tautology is inert
    ([[1, -1], [-1, 2]], [1, 2]),
    ([[1, 2]], [3, 4]),                   # inputs outside the formula
    ([[1], [-1, 2]], []),                 # zero inputs: one lane
    ([[1], [-1]], []),
    ([], [1, 2]),
])
def test_propagate_lanes_edge_cases(clauses, variables):
    formula = F(*clauses)
    same_rows(lane_rows(formula, variables), staged_rows(formula, variables))


def test_propagate_lanes_keeps_empty_clause_semantics():
    lanes = propagate_lanes(F([]), [])
    assert lanes.fail == 0 and lanes.bits(lanes.fail) == "0"
    assert not propagate_staged(F([])).is_bottom


def test_propagate_lanes_one_lane_without_inputs():
    lanes = propagate_lanes(F([3], [-3, 4]), [])
    assert lanes.order == ()
    assert lanes.bits(lanes.masks[4]) == "1"
    assert lanes.fail == 0


def test_propagate_lanes_refuses_thirteen_inputs_before_building_masks(monkeypatch):
    def no_masks(order):
        raise AssertionError("masks built before the enumeration guard")

    monkeypatch.setattr(cnf, "indicator_lanes", no_masks)
    with pytest.raises(ValueError, match="refusing to enumerate over 13 variables"):
        propagate_lanes(F([1, 2]), range(1, 14))


def test_enumeration_limit_is_checked_in_one_place(monkeypatch):
    from unitprop.circuit import Circuit
    from unitprop.propagator import Propagator, tabulate
    from unitprop.verify import check_equiv_propagator_circuit, enumerate_assignments

    monkeypatch.setattr(cnf, "ENUMERATION_LIMIT", 2)
    prop = Propagator(F([-1, -2, 3]), frozenset({1, 2, 3}), 3)
    circ = Circuit([f"e{i}" for i in range(6)], [], "e0")
    routes = (
        lambda: list(iter_assignments([1, 2, 3])),
        lambda: list(assignment_literals([1, 2, 3])),
        lambda: enumerate_assignments([1, 2, 3]),
        lambda: propagate_lanes(prop.formula, prop.inputs),
        lambda: tabulate(prop),
        lambda: check_equiv_propagator_circuit(prop, circ),
    )
    for route in routes:
        with pytest.raises(ValueError, match=r"refusing to enumerate over 3 variables \(> 2\)"):
            route()
    assert len(list(iter_assignments([1, 2]))) == 9


# --- DIMACS -------------------------------------------------------------------

def test_dimacs_round_trip():
    f = CnfFormula([[1, -2], [2], [-1, 3, -4]], names={1: "a", 2: "b", 3: "c", 4: "d"})
    text = format_dimacs(f)
    g = parse_dimacs(text)
    assert g == f
    assert g.names == f.names


def test_dimacs_round_trip_random():
    for f in corpus(count=60):
        assert parse_dimacs(format_dimacs(f)) == f


def test_dimacs_golden_text():
    f = CnfFormula([[1, -2], [2]], names={1: "a", 2: "b"})
    assert format_dimacs(f) == "c var 1 a\nc var 2 b\np cnf 2 2\n1 -2 0\n2 0\n"


def test_dimacs_empty_clause():
    f = CnfFormula([[]])
    assert parse_dimacs(format_dimacs(f)) == f


def test_dimacs_clause_spanning_lines():
    f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert f == CnfFormula([[1, 2, 3]])


def test_dimacs_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2\n")


SATLIB = """c This Formular is generated by mcnf
c
c    horn? no
c    forced? no
c    mixed sat? no
c    clause length = 3
c
p cnf 4  3
 1 -2 3 0
-1 4 0
2 0
%
0

"""


def test_dimacs_satlib_percent_trailer_ends_clauses():
    f = parse_dimacs(SATLIB)
    assert f == CnfFormula([[1, -2, 3], [-1, 4], [2]])
    with pytest.raises(ValueError, match="non-integer token '%x'"):
        parse_dimacs("p cnf 1 1\n1 0\n%x\n")
