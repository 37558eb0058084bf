import hashlib
import random
import re
import time

import pytest

import unitprop.cnf as cnf
from unitprop.cnf import (
    CnfFormula,
    PartialAssignment,
    PropagationResult,
    assignment_literals,
    clause_key,
    clause_of,
    dimacs_clause,
    format_dimacs,
    indicator_lanes,
    iter_assignments,
    lit_key,
    lit_var,
    neg,
    parse_dimacs,
    propagate_lanes,
    propagate_staged,
    propagate_standard,
    propagation_stage,
    restrict,
)
from unitprop.reify import reify
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



# --- the round loop, pinned ---------------------------------------------------

def trace_corpus():
    rng = random.Random(20261018)
    for i in range(240):
        yield random_cnf(rng.randint(0, 8), rng.randint(0, 30), rng.randint(1, 4),
                         seed=rng.getrandbits(32), horn=i % 2 == 1)
    for clauses in ([], [[]], [[], [1]], [[1, -1], [2]], [[1], [-1]], [[1, 2], [-1], [-2]]):
        yield CnfFormula(clauses)


def test_staged_traces_are_pinned():
    # stages and is_bottom of both modes, as the engine wrote them before it
    # became the one-lane case of the round loop
    digest = hashlib.sha256()
    bottoms = 0
    for f in trace_corpus():
        for early_exit in (False, True):
            res = propagate_staged(f, early_exit=early_exit)
            bottoms += res.is_bottom
            digest.update(repr((res.is_bottom, [sorted(s) for s in res.stages])).encode() + b"\n")
    assert bottoms == 308  # failing formulas are in the corpus
    assert digest.hexdigest() == "2d3fe459da29eac9de5edabe888ff03c4853b35f8cacad5f7562de29eb2ad6ae"

# --- the standard engine against the set-based loop ----------------------------

def _destructive_reference(formula):
    """The set-based destructive loop: rescans every clause per selected unit."""
    clauses = set(formula.clauses)
    produced = set()
    trail = []
    empty = frozenset()
    while empty not in clauses:
        units = [next(iter(c)) for c in clauses if len(c) == 1]
        if not units:
            break
        lit = min(units, key=lit_key)
        satisfied = {c for c in clauses if lit in c}
        weakened = {c for c in clauses if -lit in c}
        clauses -= satisfied | weakened
        clauses |= {c - {-lit} for c in weakened}
        if lit not in produced:
            produced.add(lit)
            trail.append(frozenset((lit,)))
        if empty in clauses:
            # the collapsed clause was the opposite unit, record the pair
            if -lit not in produced:
                trail.append(frozenset((-lit,)))
            break
    return PropagationResult(trail, is_bottom=empty in clauses)


def standard_corpus(count=1100, seed=20261018):
    """Random formulas of both modes with tautologies, duplicates, empty
    clauses and complementary units mixed in."""
    rng = random.Random(seed)
    for i in range(count):
        for horn in (False, True):
            f = random_cnf(rng.randint(1, 10), rng.randint(0, 40), maxlen=rng.randint(1, 4),
                           seed=seed + i, horn=horn)
            clauses = [list(c) for c in f.clauses]
            variables = sorted(f.variables) or [1]
            for _ in range(rng.randint(0, 3)):
                v, w = rng.choice(variables), rng.choice(variables)
                clauses.append([v, -v, w])
            clauses += [list(c)[::-1] for c in rng.sample(f.clauses, min(len(f.clauses), 2))]
            if rng.random() < 0.05:
                clauses.append([])
            if rng.random() < 0.2:
                v = rng.choice(variables)
                clauses += [[v], [-v]]
            rng.shuffle(clauses)
            yield CnfFormula(clauses)


def test_standard_engine_matches_the_set_based_loop():
    outcomes = set()
    for f in standard_corpus():
        got, want = propagate_standard(f), _destructive_reference(f)
        assert got.stages == want.stages, format_dimacs(f)
        assert got.is_bottom == want.is_bottom, format_dimacs(f)
        outcomes.add((got.is_bottom, len(got.stages) > 1))
    # failing and succeeding runs, with and without derivations
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("clauses", [
    [[1, -1, 2], [-2]],             # tautology beside a unit
    [[1], [-1, 1, 2], [-2]],        # tautology satisfied, then weakened
    [[2], [-2, 1], [1, -1, 3], [-3]],
    [[1], [-1]],
    [[-1], [1]],
    [[1], [-1, 2], [-2, -1]],
    [[], [1]],
    [[3], [-3, -1], [-3, 1]],
])
def test_standard_engine_edge_cases(clauses):
    f = CnfFormula(clauses)
    got, want = propagate_standard(f), _destructive_reference(f)
    assert (got.stages, got.is_bottom) == (want.stages, want.is_bottom)


def test_standard_engine_is_not_quadratic_on_a_long_chain():
    rng = random.Random(7)
    ids = list(range(1, 2001))
    rng.shuffle(ids)
    clauses = [[ids[0]]] + [[-ids[i], ids[i + 1]] for i in range(len(ids) - 1)]
    rng.shuffle(clauses)
    f = CnfFormula(clauses)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        res = propagate_standard(f)
        best = min(best, time.perf_counter() - start)
    assert res.outcome == propagate_staged(f).outcome == frozenset(ids)
    assert [next(iter(s)) for s in res.stages] == ids
    assert best < 0.1, f"{best:.3f} s for a 2000-variable chain"


# --- canonical order and validation -------------------------------------------

def _lit_key_order(clause):
    return tuple(sorted(lit_key(l) for l in clause))


def test_canonical_order_is_the_lit_key_order():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 40)
        raw = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 5))]
               for _ in range(rng.randint(0, 30))]
        raw += [c[::-1] for c in raw[:3]]
        assert CnfFormula(raw).clauses == tuple(sorted(set(map(frozenset, raw)), key=_lit_key_order))
    for i in range(20):
        emitted = [clause for _, clause in reify(random_cnf(6, 10, seed=i)).emissions]
        rng.shuffle(emitted)
        assert CnfFormula(emitted).clauses == tuple(sorted(set(emitted), key=_lit_key_order))


@pytest.mark.parametrize("clauses, bad", [
    ([[1, True]], True),     # frozenset([1, True]) alone would drop True
    ([[1, 1.0]], 1.0),
    ([[1, [2]]], [2]),
    ([[0]], 0),
    ([[2, -1, 0]], 0),
    ((frozenset((True,)),), True),
    ([[3], iter([1, False])], False),
])
def test_non_literals_are_rejected_with_their_name(clauses, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'not a literal: {bad!r}')}$"):
        CnfFormula(clauses)


def test_int_subclass_literals_are_accepted():
    class Id(int):
        pass

    assert CnfFormula([[Id(3), -1], (Id(2),)]) == CnfFormula([[3, -1], [2]])


def test_membership():
    rng = random.Random(8)
    for f in corpus(count=100):
        present = set(f.clauses)
        for clause in f.clauses:
            assert clause in f
            assert sorted(clause, key=lit_key, reverse=True) in f
        for _ in range(10):
            probe = frozenset(rng.choice((1, -1)) * rng.randint(1, 11) for _ in range(rng.randint(0, 3)))
            assert (probe in f) == (probe in present)
    f = F([1, -2], [3])
    for probe in ([1, "a"], ["a"], [[1]], 5, None, [0], [1.5], [1.0], [3.0], [-2, 1.0]):
        assert probe not in f


def test_restrict_equals_the_full_constructor():
    rng = random.Random(41)
    for i in range(150):
        base = random_cnf(rng.randint(0, 8), rng.randint(0, 20), rng.randint(1, 4), seed=i, horn=i % 2 == 1)
        base = CnfFormula(base.clauses, names={v: f"n{v}" for v in base.variables if v % 3 == 0})
        top = max(base.variables, default=0)
        units = [next(iter(c)) for c in base.clauses if len(c) == 1][:2]  # clauses already present
        units += [top + 1, -(top + 2)]  # variables the formula does not have
        units += [rng.choice((1, -1)) * rng.randint(1, top + 4) for _ in range(3)]
        rng.shuffle(units)
        units += units[:2]  # a literal twice
        restricted = restrict(base, units)
        full = CnfFormula(base.clauses + tuple((l,) for l in units), names=base.names)
        assert restricted.clauses == full.clauses
        assert restricted.variables == full.variables
        assert restricted.names == full.names and restricted.names is not base.names
        assert format_dimacs(restricted) == format_dimacs(full)
    assert restrict(F([1]), ()) == F([1])


def test_dimacs_clause_is_the_lit_key_order():
    rng = random.Random(43)
    for _ in range(300):
        clause = frozenset(rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 6)))
        lits = sorted(clause, key=lit_key)
        assert dimacs_clause(clause) == " ".join(map(str, lits + [0]))



# --- a formula is a set of clauses ------------------------------------------------

def iterating_in(formula, clauses):
    """``formula`` with its clause set read in the order of ``clauses``."""
    copy = CnfFormula(clauses, names=formula.names)
    object.__setattr__(copy, "_clause_set", tuple(clauses))  # the engines only iterate it
    return copy


def engine_runs(formula, order, assigned):
    """What every engine reports on ``formula``, the round loop unseeded, seeded and on all lanes."""
    full = (1 << 3 ** len(order)) - 1
    rounds = len(formula.variables) + 1
    runs = (propagate_standard(formula), propagate_staged(formula), propagate_staged(formula, early_exit=True))
    return (
        [(r.stages, r.is_bottom) for r in runs],
        propagate_lanes(formula, order), propagation_stage(formula, assigned),
        cnf._propagate(formula._clause_set, dict.fromkeys(assigned, 1), [1] * (rounds + 2)),
        cnf._propagate(formula._clause_set, indicator_lanes(order), [full] * (rounds + 3), early_exit=True),
    )


def test_engines_do_not_depend_on_clause_order():
    rng = random.Random(47)
    bottoms = 0
    for f in standard_corpus(count=150, seed=4711):  # both modes, tautologies, empty clauses
        variables = sorted(f.variables)
        order = tuple(rng.sample(variables, min(3, len(variables))))
        assigned = [rng.choice((1, -1)) * v for v in rng.sample(variables, min(2, len(variables)))]
        want = engine_runs(f, order, assigned)
        bottoms += want[0][0][1]
        clauses = list(f.clauses)
        for _ in range(3):
            rng.shuffle(clauses)
            assert engine_runs(iterating_in(f, clauses), order, assigned) == want, format_dimacs(f)
    assert 0 < bottoms < 300  # failing and succeeding runs


def test_parsing_and_the_engines_never_sort(sort_counter):
    text = format_dimacs(random_cnf(9, 40, 3, seed=5))
    sort_counter.clear()
    f = parse_dimacs(text)
    g = restrict(f, (12,))
    for formula in (f, g):
        propagate_standard(formula), propagate_staged(formula), propagate_staged(formula, early_exit=True)
        propagate_lanes(formula, (1, 2, 12)), propagation_stage(formula, (1, -2))
    assert (len(g), g.size(), g == f, hash(f) == hash(f), [12] in g) == (len(f) + 1, f.size() + 1, False, True, True)
    assert sort_counter == []
    # the readers that show the order sort once, on first read, and keep it
    assert format_dimacs(f) == text and len(sort_counter) == len(f)
    assert list(f) == list(f.clauses) and format_dimacs(f) == text
    assert len(sort_counter) == len(f)


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
    bits = lambda mask: format(mask, f"0{3 ** len(lanes.order)}b")[::-1]  # lane 0 first
    fail = bits(lanes.fail)
    derived = [set() for _ in fail]
    for lit, mask in lanes.masks.items():
        for lane, bit in enumerate(bits(mask)):
            if bit == "1":
                derived[lane].add(lit)
    return [(f == "1", d) for f, d in zip(fail, derived)]


def restricted_rows(formula, variables):
    """Per assignment: (fails, produced) of the whole restricted run, failing runs included."""
    return [(res.is_bottom, set(res.produced))
            for res in (propagate_staged(restrict(formula, a)) for a in iter_assignments(variables))]


def same_rows(lane, staged):
    # derived sets are only defined where propagation does not fail
    assert [f for f, _ in lane] == [f for f, _ in staged]
    assert [d for f, d in lane if not f] == [d for f, d in staged if not f]


def test_propagate_lanes_matches_staged_engine_on_random_formulas():
    # derived sets of failing lanes included: a lane runs the n+1 rounds of
    # its own restricted formula, whose n counts the variables it assigns
    rng = random.Random(20261018)
    failing = outside = 0
    for i in range(1500):
        formula = random_cnf(rng.randint(0, 6), rng.randint(0, 14), rng.randint(1, 4),
                             seed=rng.getrandbits(32), horn=i % 2 == 1)
        pool = sorted(formula.variables | {7, 8})  # 7, 8 lie outside every formula here
        variables = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        restricted = restricted_rows(formula, variables)
        assert lane_rows(formula, variables) == restricted, (formula.clauses, variables)
        failing += sum(fails for fails, _ in restricted)
        outside += not formula.variables.issuperset(variables)
    assert failing > 1000 and outside > 300


def test_propagate_lanes_matches_standard_engine_lane_by_lane():
    # propagate_standard shares no code with the round loop; without the
    # empty clause (where the two differ by design) every lane agrees
    rng = random.Random(20261019)
    failing = outside = 0
    for i in range(120):
        formula = random_cnf(rng.randint(0, 6), rng.randint(0, 14), rng.randint(1, 4),
                             seed=rng.getrandbits(32), horn=i % 2 == 1)
        pool = sorted(formula.variables | {7, 8})  # 7, 8 lie outside every formula here
        variables = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        standard = []
        for assignment in iter_assignments(variables):
            res = propagate_standard(restrict(formula, assignment))
            standard.append((res.is_bottom, set(res.produced)))
        same_rows(lane_rows(formula, variables), standard)
        failing += sum(fails for fails, _ in standard)
        outside += not formula.variables.issuperset(variables)
    assert failing and outside


def test_propagate_lanes_seed_1403_failing_lane():
    # lane {-2}: -2, then 3, then 1 and -1, then -3 at round 4 = n+1; the
    # 2 that -3 would give at round 5 is past the restricted run
    formula = random_cnf(3, 6, 2, seed=1403)
    assert formula == F([-1, -3], [1, -3], [3, -3], [2, -2], [2, 3])
    rows = lane_rows(formula, (2,))
    assert rows == restricted_rows(formula, (2,))
    assert rows[2] == (True, {-2, 3, 1, -1, -3})


def test_propagate_lanes_round_count_follows_the_assigned_outside_variables():
    # the same late chain as seed 1403; 9 is outside the formula, so the
    # restricted run has 4 rounds where the lane leaves 9 unassigned and 5
    # where it assigns 9, and only then derives 2
    formula = F([-2], [-1, -3], [1, -3], [2, 3])
    rows = lane_rows(formula, (9,))
    assert rows == restricted_rows(formula, (9,))
    assert [2 in derived for _, derived in rows] == [False, True, True]
    assert [fails for fails, _ in rows] == [True, True, True]


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
    assert lane_rows(formula, variables) == restricted_rows(formula, variables)


def test_propagate_lanes_keeps_empty_clause_semantics():
    lanes = propagate_lanes(F([]), [])
    assert lanes.order == () and lanes.fail == 0  # the one lane does not fail
    assert not propagate_staged(F([])).is_bottom


def test_propagate_lanes_one_lane_without_inputs():
    lanes = propagate_lanes(F([3], [-3, 4]), [])
    assert lanes.order == ()
    assert lanes.masks[4] == 1  # set on the one lane
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
