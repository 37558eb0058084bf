import random

import pytest

import unitprop.verify as verify
from unitprop.circuit import Circuit, evaluate, gate, validate_monotone
from unitprop.cnf import CnfFormula, PartialAssignment
from unitprop.propagator import (
    Filtering,
    FunctionTable,
    Matching,
    Propagator,
    boolean_representation,
    tabulate,
)
from unitprop.verify import (
    SUITES,
    Counterexample,
    check_equiv_propagator_circuit,
    check_monotone,
    enumerate_assignments,
    random_cnf,
    random_monotone_circuit,
    random_monotone_table,
    random_propagator,
    realize_monotone_table,
    run_suite,
)

fs = frozenset


def test_enumerate_single_variable_order():
    got = enumerate_assignments([3])
    assert [sorted(a.literals) for a in got] == [[], [3], [-3]]


def test_enumerate_two_variables_covers_all_nine():
    got = enumerate_assignments([1, 2])
    assert len(got) == 9
    assert {a.literals for a in got} == {
        fs(), fs({1}), fs({-1}), fs({2}), fs({-2}),
        fs({1, 2}), fs({1, -2}), fs({-1, 2}), fs({-1, -2}),
    }


def test_enumerate_empty():
    got = enumerate_assignments([])
    assert len(got) == 1 and got[0].literals == fs()


def test_enumerate_cardinality_and_guard():
    for n in range(6):
        assert len(enumerate_assignments(range(1, n + 1))) == 3 ** n
    with pytest.raises(ValueError):
        enumerate_assignments(range(1, 14))


# --- monotonicity ------------------------------------------------------------------

UP_CLOSED = FunctionTable((1, 2), {
    fs(): Matching.NO,
    fs({1}): Matching.YES,
    fs({-1}): Matching.NO,
    fs({2}): Matching.YES,
    fs({-2}): Matching.NO,
    fs({1, 2}): Matching.YES,
    fs({1, -2}): Matching.YES,
    fs({-1, 2}): Matching.YES,
    fs({-1, -2}): Matching.NO,
})

NOT_UP_CLOSED = FunctionTable((1,), {
    fs({-1}): Matching.YES,
    fs({1}): Matching.NO,
    fs(): Matching.YES,
})


def test_check_monotone_passes_up_closed_table():
    assert check_monotone(UP_CLOSED) is None


def test_check_monotone_flags_negation_reader():
    violation = check_monotone(NOT_UP_CLOSED)
    assert violation is not None
    assert violation.witness == "monotonicity-violation"
    assert violation.first.literals == fs()
    assert violation.second.literals == fs({1})
    assert violation.outcomes == (Matching.YES, Matching.NO)


def test_check_monotone_constant_yes():
    table = FunctionTable((1,), {fs(): Matching.YES, fs({1}): Matching.YES, fs({-1}): Matching.YES})
    assert check_monotone(table) is None


def test_check_monotone_prefers_smallest_gap():
    rows = {a.literals: Matching.YES for a in enumerate_assignments([1, 2])}
    rows[fs({1})] = Matching.NO
    rows[fs({1, 2})] = Matching.NO
    violation = check_monotone(FunctionTable((1, 2), rows))
    assert violation.first.literals == fs()
    assert violation.second.literals == fs({1})
    assert len(violation.second.literals - violation.first.literals) == 1


def random_matching_table(rng, k):
    order = tuple(range(1, k + 1))
    density = rng.random()
    rows = {a.literals: (Matching.YES if rng.random() < density else Matching.NO)
            for a in enumerate_assignments(order)}
    return FunctionTable(order, rows)


def test_check_monotone_cover_scan_matches_pair_scan(monkeypatch):
    rng = random.Random(4242)
    tables = [random_matching_table(rng, rng.randint(0, 4)) for _ in range(300)]
    failing = 0
    for seed in range(400):
        prop = random_propagator(seed, max_vars=5, max_clauses=10, max_inputs=4)
        table = tabulate(prop)
        if any(v is Filtering.FAIL for _, v in table.items()):
            tables.append(table.as_matching())
            failing += 1
    assert failing >= 50
    expected = [verify._check_monotone_pairs(t) for t in tables]
    assert sum(e is not None for e in expected) >= 100

    def no_pair_scan(table):
        raise AssertionError("downward-closed table fell back to the pair scan")

    monkeypatch.setattr(verify, "_check_monotone_pairs", no_pair_scan)
    assert [check_monotone(t) for t in tables] == expected


HOLE_CSV = (
    "assignment,bits,outcome\n"
    '"a=x,b=x",0000,yes\n'
    '"a=1,b=1",1100,no\n'
    '"a=0,b=x",0010,yes\n'
)


def test_check_monotone_falls_back_on_tables_with_holes():
    # a=1,b=x and a=x,b=1 are missing, so no cover edge reaches a=1,b=1
    table = FunctionTable.parse_csv(HOLE_CSV)
    violation = check_monotone(table)
    assert violation == verify._check_monotone_pairs(table)
    assert violation.first.literals == fs()
    assert violation.second.literals == fs({1, 2})
    assert violation.outcomes == (Matching.YES, Matching.NO)


def test_check_monotone_rejects_filtering_tables():
    table = FunctionTable((1,), {fs(): Filtering.NA})
    with pytest.raises(ValueError):
        check_monotone(table)


def test_counterexample_render_names():
    violation = check_monotone(NOT_UP_CLOSED)
    text = violation.render({1: "v"})
    assert "I={}" in text and "J={v}" in text and "yes/no" in text


# --- propagator/circuit comparison --------------------------------------------------

PAIRED = Circuit(
    ["e1", "e2", "e3", "e4"],
    [gate("and", "u1", "e1", "e2"), gate("or", "u2", "u1", "e4")],
    "u2",
)


def test_check_equiv_passes_compiled_pair():
    from unitprop.translate import circuit_to_propagator

    prop = circuit_to_propagator(PAIRED, variables=(1, 2))
    assert check_equiv_propagator_circuit(prop, PAIRED) is None


def test_check_equiv_reports_corruption():
    from unitprop.translate import circuit_to_propagator

    prop = circuit_to_propagator(PAIRED, variables=(1, 2))
    broken = Propagator(CnfFormula([c for c in prop.formula if len(c) == 3]),
                        prop.inputs, prop.output)
    violation = check_equiv_propagator_circuit(broken, PAIRED)
    assert violation is not None
    assert violation.witness == "equivalence-mismatch"


def test_check_equiv_flags_protocol_violations_distinctly():
    broken = Propagator(CnfFormula([[2], [-2]]), frozenset({1}), 2)
    wire = Circuit(["a", "na"], [], "a")
    violation = check_equiv_propagator_circuit(broken, wire)
    assert violation is not None
    assert violation.witness == "protocol-violation"


def test_check_equiv_reports_first_bad_row_mismatch_before_failure():
    # rows in order: .. M . F M M M . (M mismatch, F propagation fails)
    prop = Propagator(CnfFormula([[-4, -1], [-2, -1], [1, 2, 4]]), frozenset({1, 2}), 4)
    circ = Circuit(["e1", "e2", "e3", "e4"], [gate("or", "g", "e3", "e4")], "g")
    violation = check_equiv_propagator_circuit(prop, circ)
    assert violation == Counterexample(PartialAssignment([-2], universe=[1, 2]), None,
                                       "equivalence-mismatch", (Matching.NO, 1))


def test_check_equiv_reports_first_bad_row_failure_before_mismatch():
    # rows in order: . . F F F F M M F
    prop = Propagator(CnfFormula([[-3, -1], [3]]), frozenset({1, 3}), 1)
    circ = Circuit(["e1", "e2", "e3", "e4"], [gate("or", "g", "e1", "e3", "e4")], "g")
    violation = check_equiv_propagator_circuit(prop, circ)
    assert violation == Counterexample(PartialAssignment([-3], universe=[1, 3]), None,
                                       "protocol-violation", (Filtering.FAIL, 1))


# --- generators ----------------------------------------------------------------------

def test_random_cnf_deterministic():
    assert random_cnf(6, 20, 4, seed=1) == random_cnf(6, 20, 4, seed=1)
    assert random_cnf(6, 20, 4, seed=1) != random_cnf(6, 20, 4, seed=2)


def test_random_cnf_empty_and_bounds():
    assert len(random_cnf(0, 0, 3, seed=1)) == 0
    assert len(random_cnf(0, 9, 3, seed=1)) == 0
    f = random_cnf(6, 20, 4, seed=3)
    assert f.variables <= set(range(1, 7))
    assert all(1 <= len(c) <= 4 for c in f)
    with pytest.raises(ValueError):
        random_cnf(-1, 2, 3, seed=0)


def test_random_monotone_circuit_deterministic_and_valid():
    a = random_monotone_circuit(8, 12, seed=7)
    b = random_monotone_circuit(8, 12, seed=7)
    assert a == b
    assert validate_monotone(a)
    assert len(a.gates) == 12
    zero = random_monotone_circuit(2, 0, seed=1)
    assert zero.gates == ()
    assert zero.output in zero.inputs
    with pytest.raises(ValueError):
        random_monotone_circuit(3, 1, seed=0)
    with pytest.raises(ValueError):
        random_monotone_circuit(0, 1, seed=0)


def test_random_monotone_table_is_monotone():
    for i in range(20):
        table = random_monotone_table(3, seed=i)
        assert check_monotone(table) is None


def test_realize_monotone_table_matches():
    for i in range(20):
        table = random_monotone_table(2, seed=100 + i)
        circ = realize_monotone_table(table)
        assert validate_monotone(circ)
        for lits, value in table.items():
            rep = boolean_representation(lits, table.variables)
            assert evaluate(circ, rep) == (1 if value is Matching.YES else 0)


def test_realize_constant_tables():
    order = (1,)
    never = FunctionTable(order, {fs(): Matching.NO, fs({1}): Matching.NO, fs({-1}): Matching.NO})
    circ = realize_monotone_table(never)
    assert all(evaluate(circ, boolean_representation(a, order)) == 0
               for a in enumerate_assignments(order))
    always = FunctionTable(order, {fs(): Matching.YES, fs({1}): Matching.YES, fs({-1}): Matching.YES})
    circ = realize_monotone_table(always)
    assert all(evaluate(circ, boolean_representation(a, order)) == 1
               for a in enumerate_assignments(order))


# --- suites ---------------------------------------------------------------------------

def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        list(run_suite("nonsense", seed=1))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_smoke(name):
    records = list(run_suite(name, seed=5, count=3))
    assert len(records) == 3
    for record in records:
        assert record.passed, record.line()
        fields = record.line().split("\t")
        assert fields[0] == name and fields[2] == "PASS"


def test_suites_are_seed_deterministic():
    first = [r.line() for r in run_suite("algorithm-agreement", seed=9, count=5)]
    second = [r.line() for r in run_suite("algorithm-agreement", seed=9, count=5)]
    assert first == second


def test_random_horn_cnf_pinned():
    # pinned draws: the Horn corpora of the nu-roundtrip suite depend on them
    want = {
        1: [{1}, {1, -4}, {-1, 2, -4}, {4, -4}, {-4}],
        2: [{1, -1, -3}, {1, -2}, {3}, {3, -4}, {-3}],
        3: [{-1, -4}, {2}, {-2, -3, 4}, {-2, -4}, {-4}],
    }
    for seed, clauses in want.items():
        formula = random_cnf(4, 5, 3, seed=seed, horn=True)
        assert set(formula.clauses) == {fs(c) for c in clauses}
    for seed in range(50):
        for clause in random_cnf(6, 10, 4, seed=seed, horn=True).clauses:
            assert sum(1 for l in clause if l > 0) <= 1


def test_random_cnf_default_is_not_horn_pinned():
    assert set(random_cnf(4, 5, 3, seed=1).clauses) == {
        fs({1}), fs({-1, -2}), fs({-1, -4}), fs({4}), fs({4, -4})}
    assert random_cnf(4, 5, 3, seed=1) == random_cnf(4, 5, 3, seed=1, horn=False)
