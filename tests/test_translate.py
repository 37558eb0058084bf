import hashlib
import random

import pytest

from unitprop.circuit import Circuit, evaluate, format_circuit, gate, validate_monotone
from unitprop.cnf import CnfFormula, iter_assignments
from unitprop.propagator import (
    Matching,
    Propagator,
    boolean_representation,
    eval_matching,
)
from unitprop.translate import circuit_to_propagator, extract_circuit, propagator_to_circuit
from unitprop.verify import (
    check_equiv_propagator_circuit,
    random_failure_free_propagator,
    random_monotone_circuit,
    random_propagator,
)


def F(*clauses, names=None):
    return CnfFormula(clauses, names=names)


fs = frozenset

PAIRED = Circuit(
    ["e1", "e2", "e3", "e4"],
    [gate("and", "u1", "e1", "e2"), gate("or", "u2", "u1", "e4")],
    "u2",
)


# --- circuit -> propagator --------------------------------------------------------

def test_compile_paired_golden():
    prop = circuit_to_propagator(PAIRED, variables=(1, 2))
    assert set(prop.formula.clauses) == {fs({-1, -2, 3}), fs({-3, 4}), fs({2, 4})}
    assert prop.inputs == {1, 2}
    assert prop.output == 4


def test_compile_zero_gate_positive_output():
    circ = Circuit(["e1", "e2", "e3", "e4"], [], "e1")
    prop = circuit_to_propagator(circ, variables=(1, 2))
    assert len(prop.formula) == 0
    assert prop.output == 1
    assert eval_matching(prop, [1]) is Matching.YES
    assert eval_matching(prop, []) is Matching.NO


def test_compile_zero_gate_negative_output():
    circ = Circuit(["e1", "e2", "e3", "e4"], [], "e4")
    prop = circuit_to_propagator(circ, variables=(1, 2))
    assert set(prop.formula.clauses) == {fs({2, 3})}
    assert prop.output == 3
    assert eval_matching(prop, [-2]) is Matching.YES
    assert eval_matching(prop, [2]) is Matching.NO
    assert eval_matching(prop, []) is Matching.NO


def test_compile_contradictory_and_never_matches():
    circ = Circuit(["e1", "e2"], [gate("and", "u", "e1", "e2")], "u")
    prop = circuit_to_propagator(circ, variables=(1,))
    for assignment in iter_assignments([1]):
        assert eval_matching(prop, assignment) is Matching.NO


def test_compile_const_gates():
    top = Circuit(["e1", "e2"], [gate("const1", "k")], "k")
    prop = circuit_to_propagator(top, variables=(1,))
    assert eval_matching(prop, []) is Matching.YES
    bottom = Circuit(["e1", "e2"], [gate("const0", "k")], "k")
    prop = circuit_to_propagator(bottom, variables=(1,))
    assert eval_matching(prop, []) is Matching.NO


def test_compile_rejects_bad_circuits():
    with pytest.raises(ValueError):
        circuit_to_propagator(Circuit(["a"], [gate("not", "n", "a")], "n"), variables=())
    with pytest.raises(ValueError):
        circuit_to_propagator(Circuit(["a", "b", "c"], [], "a"))
    with pytest.raises(ValueError):
        circuit_to_propagator(PAIRED, variables=(1, 2, 3))
    with pytest.raises(ValueError):
        circuit_to_propagator(PAIRED, variables=(1, 1))


def test_compile_clause_accounting():
    rng = random.Random(41)
    for i in range(30):
        circ = random_monotone_circuit(2 * rng.randint(1, 4), rng.randint(0, 12), seed=200 + i)
        prop = circuit_to_propagator(circ)
        expected = 0
        for g in circ.gates:
            if g.kind == "or":
                expected += len(g.inputs)
            elif g.kind in ("and", "tie", "const1"):
                expected += 1
        if circ.output in circ.inputs:
            negatives = circ.inputs[len(circ.inputs) // 2:]
            expected += 1 if circ.output in negatives else 0
        assert len(prop.formula) == expected


def test_th1_equivalence_random():
    rng = random.Random(42)
    for i in range(25):
        circ = random_monotone_circuit(2 * rng.randint(1, 4), rng.randint(0, 12), seed=300 + i)
        prop = circuit_to_propagator(circ)
        assert check_equiv_propagator_circuit(prop, circ) is None


def test_compile_names_follow_labels():
    prop = circuit_to_propagator(PAIRED, variables=(1, 2))
    assert prop.formula.names[1] == "e1"
    assert prop.formula.names[3] == "u1"
    assert prop.formula.names[4] == "s"


# --- propagator -> circuit --------------------------------------------------------

def wide_example():
    # (a or -b or c) with inputs {a, b} and output c
    return Propagator(F([1, -2, 3], names={1: "a", 2: "b", 3: "c"}), frozenset({1, 2}), 3)


def test_extract_wide_example_initial_ledgers():
    extraction = extract_circuit(wide_example())
    assert extraction.initial_always_false == {"c_0+", "c_0-"}
    assert extraction.initial_always_true == frozenset()
    assert extraction.circuit.inputs == ("a", "b", "~a", "~b")


def test_extract_wide_example_layer_structure():
    extraction = extract_circuit(wide_example())
    layer1, layer2, layer3, layer4 = extraction.layers

    assert set(layer1) == {
        gate("tie", "a_1+", "a"),
        gate("tie", "a_1-", "~a"),
        gate("tie", "b_1+", "b"),
        gate("tie", "b_1-", "~b"),
    }
    assert "c_1+" in extraction.always_false and "c_1-" in extraction.always_false

    assert set(layer2) == {
        gate("tie", "a_2+", "a_1+"),
        gate("tie", "a_2-", "a_1-"),
        gate("tie", "b_2+", "b_1+"),
        gate("tie", "b_2-", "b_1-"),
        gate("and", "c_2+", "a_1-", "b_1+"),
    }
    assert "c_2-" in extraction.always_false

    assert gate("tie", "c_3+_alt1", "c_2+") in layer3
    assert gate("and", "c_3+_alt2", "a_2-", "b_2+") in layer3
    assert gate("or", "c_3+", "c_3+_alt1", "c_3+_alt2") in layer3

    assert extraction.circuit.output == "c_4+"
    assert validate_monotone(extraction.circuit)


def test_extract_wide_example_equivalence():
    prop = wide_example()
    assert check_equiv_propagator_circuit(prop, propagator_to_circuit(prop)) is None


def test_extract_unit_output_collapses_to_constant_one():
    prop = Propagator(F([3], [1, 2, 3], names={1: "a", 2: "b", 3: "s"}), frozenset({1, 2}), 3)
    extraction = extract_circuit(prop)
    out_gate = [g for g in extraction.circuit.gates if g.output == extraction.circuit.output]
    assert out_gate and out_gate[0].kind == "const1"
    for assignment in iter_assignments([1, 2]):
        rep = boolean_representation(assignment, (1, 2))
        assert evaluate(extraction.circuit, rep) == 1
        assert eval_matching(prop, assignment) is Matching.YES


def test_extract_unreachable_output_collapses_to_constant_zero():
    # the output variable occurs only negatively, so it can never be fixed true
    prop = Propagator(F([-3, 1], names={3: "s"}), frozenset({1}), 3)
    extraction = extract_circuit(prop)
    out_gate = [g for g in extraction.circuit.gates if g.output == extraction.circuit.output]
    assert out_gate and out_gate[0].kind == "const0"
    for assignment in iter_assignments([1]):
        assert evaluate(extraction.circuit, boolean_representation(assignment, (1,))) == 0


def test_extract_degenerate_universes():
    # input variable absent from the formula: its bits exist but feed nothing
    prop = Propagator(F([1, 2]), frozenset({1, 5}), 1)
    circ = propagator_to_circuit(prop)
    assert len(circ.inputs) == 4
    assert check_equiv_propagator_circuit(prop, circ) is None
    # output absent from the formula but among the inputs: wired straight through
    prop = Propagator(F([1, 2]), frozenset({1, 5}), 5)
    circ = propagator_to_circuit(prop)
    assert check_equiv_propagator_circuit(prop, circ) is None
    # output absent everywhere: never producible
    prop = Propagator(F([1, 2]), frozenset({1}), 5)
    circ = propagator_to_circuit(prop)
    assert check_equiv_propagator_circuit(prop, circ) is None
    assert any(g.kind == "const0" for g in circ.gates)


def test_extract_no_inputs():
    prop = Propagator(F([1], [-1, 2]), frozenset(), 2)
    extraction = extract_circuit(prop)
    assert extraction.circuit.inputs == ()
    assert evaluate(extraction.circuit, ()) == 1


def test_th2_equivalence_random():
    for i in range(15):
        prop, _ = random_failure_free_propagator(500 + i, max_vars=5, max_clauses=10)
        extraction = extract_circuit(prop)
        assert validate_monotone(extraction.circuit)
        assert check_equiv_propagator_circuit(prop, extraction.circuit) is None


def test_th2_gate_count_bound():
    for i in range(10):
        prop, _ = random_failure_free_propagator(700 + i, max_vars=5, max_clauses=10)
        extraction = extract_circuit(prop)
        emitted = len(extraction.reified.emissions)
        assert len(extraction.circuit.gates) <= 2 * emitted + 1


def test_round_trip_circuit_propagator_circuit():
    rng = random.Random(43)
    for i in range(15):
        circ = random_monotone_circuit(2 * rng.randint(1, 3), rng.randint(0, 10), seed=900 + i)
        prop = circuit_to_propagator(circ)
        back = propagator_to_circuit(prop)
        order = sorted(prop.inputs)
        for assignment in iter_assignments(order):
            rep = boolean_representation(assignment, order)
            assert evaluate(circ, rep) == evaluate(back, rep)


def test_extraction_provenance_mentions_sources():
    extraction = extract_circuit(wide_example())
    assert extraction.provenance["c_2+"] == "c_2+ <- all of a_1-, b_1+"
    assert extraction.provenance["c_3+_alt1"] == "c_3+_alt1 <- c_2+"


def test_pruning_extracted_circuits_preserves_the_function():
    from unitprop.circuit import prune_dead_gates

    for i in range(10):
        prop, _ = random_failure_free_propagator(1100 + i, max_vars=5, max_clauses=8)
        full = extract_circuit(prop).circuit
        slim = prune_dead_gates(full)
        assert len(slim.gates) <= len(full.gates)
        assert check_equiv_propagator_circuit(prop, slim) is None
    # the wide example carries mirror chains for its non-output variables
    full = extract_circuit(wide_example()).circuit
    slim = prune_dead_gates(full)
    assert len(slim.gates) < len(full.gates)
    assert check_equiv_propagator_circuit(wide_example(), slim) is None


def test_compile_input_label_output_with_dead_gates():
    gates = [gate("and", "u", "e1", "e4"), gate("or", "w", "u", "e3"), gate("tie", "t", "w")]
    positive = circuit_to_propagator(Circuit(["e1", "e2", "e3", "e4"], gates, "e2"),
                                     variables=(1, 2))
    assert set(positive.formula.clauses) == {fs({1, 4}), fs({-1, 2, 3}), fs({-3, 4}), fs({-4, 5})}
    assert positive.output == 2
    assert positive.inputs == {1, 2}
    assert positive.formula.names == {1: "e1", 2: "e2", 3: "u", 4: "w", 5: "t"}
    # a negative indicator output takes the first fresh variable, ahead of the gates
    negative = circuit_to_propagator(Circuit(["e1", "e2", "e3", "e4"], gates, "e3"),
                                     variables=(1, 2))
    assert set(negative.formula.clauses) == {
        fs({1, 3}), fs({1, 5}), fs({-1, 2, 4}), fs({-4, 5}), fs({-5, 6})}
    assert negative.output == 3
    assert negative.formula.names == {1: "e1", 2: "e2", 3: "s", 4: "u", 5: "w", 6: "t"}


def test_extract_falls_back_to_ids_for_names_shaped_like_node_labels():
    # variable "a_1+" would collide with the round-1 node of variable "a"
    prop = Propagator(F([-1, 3], [-2, 3], names={1: "a", 2: "a_1+", 3: "s"}), frozenset({1, 2}), 3)
    extraction = extract_circuit(prop)
    assert extraction.circuit.inputs == ("1", "2", "~1", "~2")
    assert check_equiv_propagator_circuit(prop, extraction.circuit) is None
    alt = Propagator(F([-1, 2], names={1: "x_3-_alt2", 2: "s"}), frozenset({1}), 2)
    assert extract_circuit(alt).circuit.inputs == ("1", "~1")


# sha256 of the extraction output on the corpus below, computed before the
# replay was rewritten to group emissions by head
EXTRACTION_DIGEST = "fcf26b96c32eea4d37206e300857f31932770af4731981a72e43c8df90500a22"


def test_extraction_output_is_pinned():
    digest = hashlib.sha256()
    for seed in range(60):
        rng = random.Random(20_000 + seed)
        circ = random_monotone_circuit(2 * rng.randint(1, 3), rng.randint(0, 8), seed=seed)
        for prop in (random_propagator(seed), random_propagator(10_000 + seed, horn=True),
                     circuit_to_propagator(circ)):
            x = extract_circuit(prop)
            for part in (format_circuit(x.circuit, x.provenance),
                         repr(sorted(x.always_false)), repr(sorted(x.always_true)),
                         repr(sorted(x.initial_always_false)), repr(sorted(x.initial_always_true)),
                         repr(x.layers)):
                digest.update(part.encode())
                digest.update(b"\0")
    assert digest.hexdigest() == EXTRACTION_DIGEST
