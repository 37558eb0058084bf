import dataclasses
import hashlib
import random

import pytest

import unitprop.propagator as propagator
import unitprop.verify as verify
from unitprop.circuit import Circuit, Gate, evaluate, gate, validate_monotone
from unitprop.cli import main
from unitprop.cnf import CnfFormula, PartialAssignment
from unitprop.propagator import (
    Filtering,
    FunctionTable,
    Matching,
    NuPropagator,
    Propagator,
    boolean_representation,
    format_propagator,
    reify_propagator,
    tabulate,
)
from unitprop.translate import circuit_to_propagator
from unitprop.verify import (
    SUITES,
    Counterexample,
    check_equiv_propagator_circuit,
    check_monotone,
    enumerate_assignments,
    random_cnf,
    random_failure_free_propagator,
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


def test_check_monotone_mask_scan_matches_pair_scan(monkeypatch):
    rng = random.Random(6161)
    tables = [random_monotone_table(rng.randint(0, 4), seed=rng.getrandbits(32)) for _ in range(40)]
    assert all(check_monotone(t) is None for t in tables)
    for _ in range(120):  # in a shuffled variable order, and some with holes
        table = random_matching_table(rng, rng.randint(1, 3))
        order = rng.sample(table.variables, len(table.variables))
        holes = rng.choice((0, 0.1, 0.4))
        tables.append(FunctionTable(order, {k: v for k, v in table.items() if rng.random() >= holes}))
    for seed in range(200):
        prop = random_propagator(7_000 + seed, max_vars=5, max_clauses=10, max_inputs=3)
        tables.append(tabulate(prop).as_matching())
    reference, pair_scans = verify._check_monotone_pairs, []
    expected = [reference(t) for t in tables]
    monkeypatch.setattr(verify, "_check_monotone_pairs", lambda t: pair_scans.append(t) or reference(t))
    assert [check_monotone(t) for t in tables] == expected
    assert 20 <= len(pair_scans) < 100 and sum(e is not None for e in expected) >= 50


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


# a=x,b=1 comes before a=1,b=x in the enumeration: J={b} is the first minimal violation
TIED_CSV = 'assignment,bits,outcome\n"a=x,b=x",0000,yes\n"a=x,b=1",0100,no\n"a=1,b=x",1000,no\n'


def test_check_monotone_ties_follow_the_enumeration_whatever_the_row_order():
    lines = TIED_CSV.splitlines(keepends=True)
    forward = FunctionTable.parse_csv(TIED_CSV)
    backward = FunctionTable.parse_csv(lines[0] + "".join(lines[:0:-1]))
    assert forward == backward and backward.format_csv() == TIED_CSV
    # built by hand in reverse order, as no reader of a file gives it
    by_hand = FunctionTable(forward.variables, dict(reversed(forward.rows.items())), names=forward.names)
    assert list(by_hand.rows) == list(forward.rows) and by_hand.format_csv() == TIED_CSV
    for table in (forward, backward, by_hand):
        for scan in (check_monotone, verify._check_monotone_pairs):
            violation = scan(table)
            assert violation.render(table.names) == "monotonicity-violation I={} J={b} outcomes=yes/no"


TABLE_DIGEST = "2bba2e5f31d9d20841343e4d98965ee07decc387449bf55e845e67ff7a1a3751"


def _table_corpus():
    """Tables of random propagators under labels that need CSV quoting or fall back to ids,
    of compiled circuits, and random matching tables, some with holes."""
    for seed in range(40):
        prop = random_propagator(30_000 + seed, max_vars=6, max_clauses=10, max_inputs=4,
                                 horn=seed % 2 == 1)
        variables = sorted(prop.formula.variables)
        names = [{}, {v: f'q"{v}' for v in variables}, {v: f"s {v}" for v in variables},
                 {variables[0]: "a,b"}][seed % 4]
        yield tabulate(Propagator(CnfFormula(prop.formula.clauses, names=names), prop.inputs, prop.output))
        rng = random.Random(seed)
        order = tuple(variables[:4])
        density, holes = rng.random(), 0.2 * (seed % 3 == 0)
        yield FunctionTable(order, {a.literals: Matching(rng.random() < density)
                                    for a in enumerate_assignments(order) if rng.random() >= holes},
                            names=names)
    yield tabulate(circuit_to_propagator(Circuit([], [Gate("const1", "out", ())], "out")))
    yield tabulate(circuit_to_propagator(Circuit([], [Gate("const0", "out", ())], "out")))
    for k, gates, count in ((1, 2, 3), (2, 5, 3), (6, 12, 2)):
        for seed in range(count):
            yield tabulate(circuit_to_propagator(random_monotone_circuit(2 * k, gates, seed=40_000 + seed)))


def test_table_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "t.csv"
    for table in _table_corpus():
        text = table.format_csv()
        violation = check_monotone(table.as_matching())
        path.write_text(text)
        code = main(["check-monotone", str(path)])
        out = capsys.readouterr()
        for part in (text, "None" if violation is None else violation.render(table.names),
                     str(code), out.out, out.err):
            digest.update(part.encode())
            digest.update(b"\0")
    assert digest.hexdigest() == TABLE_DIGEST


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


@pytest.mark.parametrize("kwargs, skipped, digest", [
    (dict(max_vars=5, max_clauses=10), [0, 6, 2, 0, 0, 0, 0, 1, 0, 2],
     "04b42cdbecd24713b0ff3080c25c334c1cd875b6c2e77c308199be65688c8bf1"),
    (dict(max_vars=4, max_clauses=12), [7, 5, 2, 0, 0, 0, 0, 18, 0, 0],
     "026f69bee3ecd7dba97580ad0b9a3134cba9000fb31a799b041d62e94dea605c"),
    (dict(max_vars=6, max_clauses=14, maxlen=2), [7, 7, 4, 7, 44, 5, 0, 1, 4, 1],
     "52519d6ec9cff8504ab79cec4782ece6c2b310571f1e25839fa6db44d2d7b3eb"),
], ids=["five-vars", "four-vars", "binary-clauses"])
def test_random_failure_free_propagator_draws_are_pinned(kwargs, skipped, digest):
    # the draws, the skip counts and the accepted propagators of seeds 0-9,
    # as they were when acceptance read a whole function table
    text = hashlib.sha256()
    counts = []
    for seed in range(10):
        prop, count = random_failure_free_propagator(seed, **kwargs)
        counts.append(count)
        text.update(format_propagator(prop).encode())
        assert all(value is not Filtering.FAIL for _, value in tabulate(prop).items())
    assert counts == skipped
    assert text.hexdigest() == digest


# --- injected faults: suite records ---------------------------------------------

def _unblocked_nu(monkeypatch):
    # the nu propagator keeps the output instead of forbidding it
    monkeypatch.setattr(verify, "propagator_to_nu", lambda prop: NuPropagator(prop.inputs, prop.formula))


def _outputs_swapped(monkeypatch):
    def swapped(prop):
        mirrored = reify_propagator(prop)
        return dataclasses.replace(mirrored, out_true=mirrored.out_false, out_false=mirrored.out_true)

    monkeypatch.setattr(verify, "reify_propagator", swapped)
    monkeypatch.setattr(propagator, "reify_propagator", swapped)


def _readers(change):
    def inject(monkeypatch):
        readers = verify.filtering_to_matchings
        monkeypatch.setattr(verify, "filtering_to_matchings", lambda prop: change(*readers(prop)))
    return inject


def _constant_extraction(monkeypatch):
    extract = verify.extract_circuit

    def constant(prop):
        extraction = extract(prop)
        circ = Circuit(extraction.circuit.inputs, [Gate("const0", "constant-out", ())], "constant-out")
        return dataclasses.replace(extraction, circuit=circ)

    monkeypatch.setattr(verify, "extract_circuit", constant)


FAULTS = {
    "unblocked-nu": _unblocked_nu,
    "outputs-swapped": _outputs_swapped,
    "readers-swapped": _readers(lambda true_p, false_p, fail_p: (false_p, true_p, fail_p)),
    "wrong-fail-output": _readers(lambda true_p, false_p, fail_p: (
        true_p, false_p, dataclasses.replace(fail_p, output=fail_p.output - 1))),
    "constant-extraction": _constant_extraction,
}
FAULT_SUITES = ("nu-roundtrip", "reified-propagator-bullets", "filtering-roundtrip", "th1-th2-roundtrip")


def test_suite_records_under_injected_faults_are_pinned(monkeypatch):
    # the digest was taken from suites that evaluated one restricted formula
    # per row: reading whole lanes must report the same failures, in the
    # same order, with the same text
    lines = []
    for name, inject in FAULTS.items():
        with monkeypatch.context() as patched:
            inject(patched)
            for suite in FAULT_SUITES:
                lines += [f"{name}\t{record.line()}" for record in run_suite(suite, seed=7, count=12)]
    assert len(lines) == 240
    assert sum("\tFAIL\t" in line for line in lines) == 48
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "3b67aa970d8f88b30325dcb84f918b32572b1e3bc6145956f6547467ba1496cf"


def _with_clash(prop):
    """``prop`` with a fresh variable set both ways: propagation fails everywhere."""
    fresh = max(prop.formula.variables | prop.inputs | {prop.output}) + 1
    return Propagator(CnfFormula([*prop.formula.clauses, [fresh], [-fresh]]), prop.inputs, prop.output)


def test_failing_readers_are_recorded(monkeypatch):
    # a reader that fails where a matching value is read is a FAIL record
    _readers(lambda true_p, false_p, fail_p: (_with_clash(true_p), false_p, fail_p))(monkeypatch)
    lifted = verify.nu_to_propagator
    monkeypatch.setattr(verify, "nu_to_propagator", lambda nu: _with_clash(lifted(nu)))
    record = next(run_suite("filtering-roundtrip", seed=7, count=1))
    assert not record.passed
    assert record.detail.startswith("true reader failed at {}")
    record = next(run_suite("nu-roundtrip", seed=7, count=1))
    assert not record.passed
    assert record.detail.startswith("lifted propagator failed at {}")
    assert "round trip propagator failed at {}" in "; ".join(
        r.detail for r in run_suite("nu-roundtrip", seed=7, count=5))


def test_verify_reports_a_failing_reader_without_a_traceback(monkeypatch, capsys):
    _readers(lambda true_p, false_p, fail_p: (true_p, false_p, _with_clash(fail_p)))(monkeypatch)
    assert main(["verify", "filtering-roundtrip", "--seed", "7", "--count", "2"]) == 1
    out, err = capsys.readouterr()
    assert "\tFAIL\tfail reader failed at {}" in out
    assert out.endswith("stopped at first failure (filtering-roundtrip)\n")
    assert err == ""
