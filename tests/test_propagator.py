import random

import pytest

from unitprop.cnf import CnfFormula, PartialAssignment, iter_assignments
from unitprop.propagator import (
    Filtering,
    FunctionTable,
    Matching,
    MatchingProtocolError,
    NuPropagator,
    Propagator,
    boolean_representation,
    eval_filtering,
    eval_matching,
    eval_nu,
    filtering_to_matchings,
    format_assignment,
    format_propagator,
    matchings_to_filtering,
    nu_to_propagator,
    parse_assignment,
    parse_propagator,
    propagator_to_nu,
    reify_propagator,
    tabulate,
)
from unitprop.verify import random_propagator


def F(*clauses, names=None):
    return CnfFormula(clauses, names=names)


fs = frozenset

# v1 = 1, v2 = 2, s = 3: (-v1 or s) and (-v2 or s) — matches when any input is true
OR_READER = Propagator(F([-1, 3], [-2, 3], names={1: "v1", 2: "v2", 3: "s"}),
                       frozenset({1, 2}), 3)

OR_READER_TABLE = {
    fs(): Filtering.NA,
    fs({1}): Filtering.TRUE,
    fs({-1}): Filtering.NA,
    fs({2}): Filtering.TRUE,
    fs({-2}): Filtering.NA,
    fs({1, 2}): Filtering.TRUE,
    fs({1, -2}): Filtering.TRUE,
    fs({-1, 2}): Filtering.TRUE,
    fs({-1, -2}): Filtering.NA,
}


def test_matching_order():
    assert Matching.NO < Matching.YES
    assert str(Matching.YES) == "yes" and str(Matching.NO) == "no"
    assert str(Filtering.NA) == "na"


def test_eval_filtering_table_rows():
    assert eval_filtering(OR_READER, [1]) is Filtering.TRUE
    assert eval_filtering(OR_READER, [-1, -2]) is Filtering.NA
    assert eval_filtering(OR_READER, []) is Filtering.NA


def test_eval_filtering_false_and_fail():
    # (-v1 or -s): assigning v1 drives the output false
    prop = Propagator(F([-1, -3]), frozenset({1}), 3)
    assert eval_filtering(prop, [1]) is Filtering.FALSE
    broken = Propagator(F([2], [-2]), frozenset({1}), 2)
    assert eval_filtering(broken, []) is Filtering.FAIL


def test_eval_filtering_rejects_foreign_variables():
    with pytest.raises(ValueError):
        eval_filtering(OR_READER, [5])


def test_eval_matching_rows():
    assert eval_matching(OR_READER, [1, 2]) is Matching.YES
    assert eval_matching(OR_READER, [-2]) is Matching.NO


def test_eval_matching_unit_output():
    prop = Propagator(F([3], [-1, 2]), frozenset({1}), 3)
    assert eval_matching(prop, []) is Matching.YES


def test_eval_matching_protocol_violation():
    broken = Propagator(F([2], [-2]), frozenset({1}), 2)
    with pytest.raises(MatchingProtocolError):
        eval_matching(broken, [])


NU = NuPropagator(frozenset({1, 2}), F([-1, 3], [-2, 3], [-3]))


def test_eval_nu_rows():
    assert eval_nu(NU, [1]) is Matching.YES
    assert eval_nu(NU, []) is Matching.NO
    assert eval_nu(NU, [-1, -2]) is Matching.NO


def test_propagator_to_nu_construction():
    prop = Propagator(F([-1, 2]), frozenset({1}), 2)
    nu = propagator_to_nu(prop)
    assert nu.formula == F([-1, 2], [-2])
    assert nu.inputs == {1}
    for assignment in iter_assignments([1]):
        assert eval_nu(nu, assignment) == eval_matching(prop, assignment)


def test_propagator_to_nu_or_reader_all_rows():
    nu = propagator_to_nu(OR_READER)
    for assignment in iter_assignments([1, 2]):
        assert eval_nu(nu, assignment) == eval_matching(OR_READER, assignment)


def test_nu_to_propagator_equivalence():
    lifted = nu_to_propagator(NU)
    for assignment in iter_assignments([1, 2]):
        assert eval_matching(lifted, assignment) == eval_nu(NU, assignment)


def test_nu_to_propagator_contradiction_matches_everywhere():
    nu = NuPropagator(frozenset({1}), F([1], [-1]))
    lifted = nu_to_propagator(nu)
    for assignment in iter_assignments([1]):
        assert eval_matching(lifted, assignment) is Matching.YES


def test_nu_round_trips():
    # output blocking is exact on formulas with at most one positive literal
    # per clause; the round trip must preserve the function there
    for i in range(25):
        prop = random_propagator(1000 + i, max_vars=4, max_clauses=6, max_inputs=3, horn=True)
        table = tabulate(prop)
        if any(v is Filtering.FAIL for _, v in table.items()):
            continue
        nu = propagator_to_nu(prop)
        back = nu_to_propagator(nu)
        for assignment in iter_assignments(prop.inputs):
            want = eval_matching(prop, assignment)
            assert eval_nu(nu, assignment) == want
            assert eval_matching(back, assignment) == want


def test_output_blocking_is_inexact_on_double_positive_clauses():
    # blocking s in (s or a) and (s or -a) lets the blocked run derive both
    # a and -a, so the nu view reports yes although s was never derivable;
    # the sound direction (a match always fails the blocked run) still holds
    prop = Propagator(F([2, 1], [2, -1]), frozenset({1}), 2)
    assert eval_matching(prop, []) is Matching.NO
    nu = propagator_to_nu(prop)
    assert eval_nu(nu, []) is Matching.YES
    for assignment in iter_assignments([1]):
        if eval_matching(prop, assignment) is Matching.YES:
            assert eval_nu(nu, assignment) is Matching.YES


def test_reify_propagator_two_step():
    # (a) and (-a or b) with output b and no inputs: the mirrored output at
    # the final round must be produced unconditionally
    prop = Propagator(F([1], [-1, 2]), frozenset(), 2)
    mirrored = reify_propagator(prop)
    assert mirrored.out_true == mirrored.reified.index.id_of(2, 3, True)
    assert eval_matching(Propagator(mirrored.formula, frozenset(), mirrored.out_true), []) is Matching.YES
    assert eval_matching(Propagator(mirrored.formula, frozenset(), mirrored.out_fail), []) is Matching.NO


def test_reify_propagator_guaranteed_failure():
    prop = Propagator(F([1], [-1]), frozenset(), 1)
    mirrored = reify_propagator(prop)
    assert eval_matching(Propagator(mirrored.formula, frozenset(), mirrored.out_fail), []) is Matching.YES


def test_reify_propagator_bullets_or_reader():
    from unitprop.cnf import propagate_staged, restrict

    mirrored = reify_propagator(OR_READER)
    for assignment in iter_assignments([1, 2]):
        base = propagate_staged(restrict(OR_READER.formula, assignment.literals))
        sim = propagate_staged(restrict(mirrored.formula, assignment.literals))
        assert not sim.is_bottom
        assert (mirrored.out_fail in sim.produced) == base.is_bottom
        assert (mirrored.out_true in sim.produced) == (3 in base.produced)
        assert (mirrored.out_false in sim.produced) == (-3 in base.produced)


def test_reify_propagator_requires_formula_variables():
    with pytest.raises(ValueError):
        reify_propagator(Propagator(F(), frozenset({1}), 1))


def test_filtering_to_matchings_identity_and_false_reader():
    prop = Propagator(F([-1, -2]), frozenset({1}), 2)
    true_p, false_p, fail_p = filtering_to_matchings(prop)
    assert true_p is prop
    # assigning the input drives -s, which forces the fresh output
    assert eval_matching(false_p, [1]) is Matching.YES
    assert eval_matching(false_p, []) is Matching.NO
    assert eval_matching(fail_p, [1]) is Matching.NO


def test_filtering_to_matchings_fail_reader():
    prop = Propagator(F([1], [-1, 2], [-2]), frozenset({1}), 2)
    _, _, fail_p = filtering_to_matchings(prop)
    assert eval_matching(fail_p, []) is Matching.YES


def test_matchings_to_filtering_rejects_mixed_inputs():
    a = Propagator(F([-1, 2]), frozenset({1}), 2)
    b = Propagator(F([-1, 2]), frozenset(), 2)
    with pytest.raises(ValueError):
        matchings_to_filtering(a, a, b)


def test_filtering_round_trip_or_reader():
    readers = filtering_to_matchings(OR_READER)
    combined = matchings_to_filtering(*readers)
    assert combined.inputs == OR_READER.inputs
    assert tabulate(combined) == tabulate(OR_READER)


def test_filtering_round_trip_with_failures():
    prop = Propagator(F([1], [-1, 2], [-2]), frozenset({1}), 2)
    combined = matchings_to_filtering(*filtering_to_matchings(prop))
    assert tabulate(combined) == tabulate(prop)


# --- boolean representation ------------------------------------------------------

def test_boolean_representation_rows():
    order = (1, 2)
    assert boolean_representation([-1, 2], order) == (0, 1, 1, 0)
    assert boolean_representation([], order) == (0, 0, 0, 0)
    assert boolean_representation([1, -2], order) == (1, 0, 0, 1)


def test_boolean_representation_is_consistent():
    for assignment in iter_assignments([1, 2, 3]):
        rep = boolean_representation(assignment, (1, 2, 3))
        for i in range(3):
            assert not (rep[i] == 1 and rep[i + 3] == 1)


def test_boolean_representation_rejects_foreign_variables():
    with pytest.raises(ValueError):
        boolean_representation([4], (1, 2))


# --- tables ----------------------------------------------------------------------

def test_tabulate_or_reader_golden():
    table = tabulate(OR_READER)
    assert len(table) == 9
    assert dict(table.items()) == OR_READER_TABLE


def test_tabulate_no_inputs():
    prop = Propagator(F([3]), frozenset(), 3)
    table = tabulate(prop)
    assert dict(table.items()) == {fs(): Filtering.TRUE}


def test_tabulate_matches_eval_filtering():
    prop = random_propagator(77, max_vars=4, max_clauses=8, max_inputs=3)
    table = tabulate(prop)
    assert len(table) == 3 ** len(prop.inputs)
    for lits, value in table.items():
        assert eval_filtering(prop, PartialAssignment(lits, universe=prop.inputs)) is value


def scalar_table(prop):
    """Reference for tabulate: one eval_filtering call per assignment."""
    return {a.literals: eval_filtering(prop, a) for a in iter_assignments(prop.inputs)}


def test_tabulate_matches_eval_filtering_on_seeded_corpus():
    for seed in range(240):
        horn = seed % 2 == 1
        prop = random_propagator(91000 + seed, max_vars=6, max_clauses=12,
                                 max_inputs=4, horn=horn)
        table = tabulate(prop)
        assert table.variables == tuple(sorted(prop.inputs))
        assert list(table.rows) == [a.literals for a in iter_assignments(prop.inputs)]
        assert dict(table.items()) == scalar_table(prop), (seed, horn)


@pytest.mark.parametrize("prop", [
    Propagator(F([], [-1, 2]), frozenset({1}), 2),            # empty clause
    Propagator(F([1, -1], [-1, 2]), frozenset({1}), 2),       # tautological clause
    Propagator(F([-1, 2], [-2, -1]), frozenset({1, 2}), 1),   # output is an input
    Propagator(F([-1, 2]), frozenset({1}), 9),                # output outside the formula
    Propagator(F([-1, 2]), frozenset({1, 3, 4}), 2),          # inputs outside the formula
    Propagator(F([-3, 2], [3]), frozenset(), 2),              # zero inputs
    Propagator(F(), frozenset({1, 2}), 2),
], ids=["empty-clause", "tautology", "output-input", "output-outside", "inputs-outside",
        "no-inputs", "empty-formula"])
def test_tabulate_edge_cases_match_eval_filtering(prop):
    assert dict(tabulate(prop).items()) == scalar_table(prop)


def test_tabulate_edge_case_values():
    assert tabulate(Propagator(F([-1, 2]), frozenset({1}), 9)).rows == {
        fs(): Filtering.NA, fs({1}): Filtering.NA, fs({-1}): Filtering.NA}
    assert tabulate(Propagator(F([-1, 2], [-2, -1]), frozenset({1, 2}), 1)).rows[fs({1})] \
        is Filtering.FAIL
    assert tabulate(Propagator(F([], [-1, 2]), frozenset({1}), 2)).rows[fs({1})] \
        is Filtering.TRUE


def test_tabulate_guard():
    prop = Propagator(F(list(range(1, 14))), frozenset(range(1, 14)), 1)
    with pytest.raises(ValueError):
        tabulate(prop)


def test_as_matching_drops_failures():
    prop = Propagator(F([1], [-1, 2], [-2]), frozenset({1}), 2)
    matching = tabulate(prop).as_matching()
    assert matching.codomain == "matching"
    assert len(matching) == 0  # every row fails for this formula


def test_table_csv_round_trip():
    table = tabulate(OR_READER)
    text = table.format_csv()
    parsed = FunctionTable.parse_csv(text)
    assert parsed.format_csv() == text
    assert parsed == table  # same ids because names map back


def test_table_csv_golden_first_lines():
    # the assignment field contains commas, so it is CSV-quoted
    text = tabulate(OR_READER).format_csv()
    lines = text.splitlines()
    assert lines[0] == "assignment,bits,outcome"
    assert lines[1] == '"v1=x,v2=x",0000,na'
    assert lines[2] == '"v1=x,v2=1",0100,true'
    assert lines[3] == '"v1=x,v2=0",0001,na'


def test_mixed_table_rejected():
    with pytest.raises(ValueError):
        FunctionTable((1,), {fs(): Filtering.NA, fs({1}): Matching.YES})


# --- assignment strings -----------------------------------------------------------

def test_parse_assignment_names_and_values():
    got = parse_assignment("v1=1,v2=x", [1, 2], names={1: "v1", 2: "v2"})
    assert got == PartialAssignment([1], universe=[1, 2])
    assert parse_assignment("", [1, 2]) == PartialAssignment([], universe=[1, 2])
    assert parse_assignment("1=0,2=1", [1, 2]) == PartialAssignment([-1, 2], universe=[1, 2])


def test_parse_assignment_errors():
    with pytest.raises(ValueError):
        parse_assignment("v1=2", [1], names={1: "v1"})
    with pytest.raises(ValueError):
        parse_assignment("zz=1", [1])
    with pytest.raises(ValueError):
        parse_assignment("3=1", [1, 2])


def test_format_assignment():
    assert format_assignment([1], (1, 2), {1: "v1", 2: "v2"}) == "v1=1,v2=x"
    assert format_assignment([-2], (1, 2)) == "1=x,2=0"


# --- propagator files --------------------------------------------------------------

def test_propagator_file_round_trip():
    text = format_propagator(OR_READER)
    parsed = parse_propagator(text)
    assert parsed == OR_READER
    assert parsed.formula.names == OR_READER.formula.names


def test_propagator_file_requires_marker_lines():
    with pytest.raises(ValueError):
        parse_propagator("p cnf 1 1\n1 0\n")


def test_propagator_relaxed_universe():
    # inputs and output may lie outside the formula (degenerate translations)
    prop = Propagator(F(), frozenset({1, 2}), 1)
    assert eval_filtering(prop, [1]) is Filtering.TRUE
    assert eval_filtering(prop, [-1]) is Filtering.FALSE
    assert eval_filtering(prop, [2]) is Filtering.NA


def test_monotone_matching_property_random():
    from unitprop.verify import check_monotone

    for i in range(20):
        prop = random_propagator(3000 + i, max_vars=4, max_clauses=7, max_inputs=3)
        assert check_monotone(tabulate(prop).as_matching()) is None


def test_tabulate_refuses_more_than_twelve_inputs():
    wide = Propagator(F(*([-v, 14] for v in range(1, 14))), frozenset(range(1, 14)), 14)
    with pytest.raises(ValueError, match="refusing to enumerate"):
        tabulate(wide)
