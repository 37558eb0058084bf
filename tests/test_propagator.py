import hashlib
import random

import pytest

import unitprop.propagator as propagator
import unitprop.translate as translate
from unitprop.cnf import (
    CnfFormula,
    PartialAssignment,
    as_literals,
    format_dimacs,
    iter_assignments,
    parse_dimacs,
    propagate_staged,
    restrict,
)
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


def seeded_corpus():
    """Seeded propagators, with inputs outside the formula and outputs that are inputs."""
    for seed in range(250):
        prop = random_propagator(92000 + seed, max_vars=5, max_clauses=10, max_inputs=3,
                                 horn=seed % 2 == 1)
        top = max(prop.formula.variables)
        yield prop
        yield Propagator(prop.formula, prop.inputs | {top + 1}, prop.output)
        if prop.inputs:
            yield Propagator(prop.formula, prop.inputs, min(prop.inputs))


def test_seeded_evaluators_match_restricted_runs():
    # each evaluator is one seeded lane; the reference conjoins the
    # assignment as unit clauses, [v, -v] assignments included
    calls = 0
    for prop in seeded_corpus():
        nu = NuPropagator(prop.inputs, prop.formula)
        assignments = [*iter_assignments(prop.inputs), *([v, -v] for v in sorted(prop.inputs))]
        for assignment in assignments:
            res = propagate_staged(restrict(prop.formula, as_literals(assignment)), early_exit=True)
            want = (Filtering.FAIL if res.is_bottom else Filtering.TRUE if prop.output in res.produced
                    else Filtering.FALSE if -prop.output in res.produced else Filtering.NA)
            assert eval_filtering(prop, assignment) is want, (prop, assignment)
            if res.is_bottom:
                with pytest.raises(MatchingProtocolError):
                    eval_matching(prop, assignment)
            else:
                assert eval_matching(prop, assignment) is Matching(want is Filtering.TRUE)
            assert eval_nu(nu, assignment) is Matching(res.is_bottom)
            calls += 3
    assert calls > 20000


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


def test_table_csv_reads_any_line_ending():
    text = tabulate(OR_READER).format_csv()
    assert FunctionTable.parse_csv(text.replace("\n", "\r\n")) == FunctionTable.parse_csv(text)
    # a stray carriage return ends the line, as it does in a file read as text
    with pytest.raises(ValueError, match="3 columns"):
        FunctionTable.parse_csv(text.replace(",na\n", ",na\rx\n", 1))


def test_table_csv_named_column_skips_a_numeric_id():
    # column c would take id 2, which the numeric column 2 already has
    prop = Propagator(F([-2, 4], [-3, 4], names={3: "c", 4: "s"}), frozenset({2, 3}), 4)
    table = tabulate(prop)
    parsed = FunctionTable.parse_csv(table.format_csv())
    assert parsed.variables == (2, 3) and len(parsed) == 9
    assert parsed == table
    # without a collision the ids stay as they were: names count from 1
    later = FunctionTable.parse_csv('assignment,bits,outcome\n"a=x,b=x,7=x",000000,no\n')
    assert later.variables == (1, 2, 7)
    first = FunctionTable.parse_csv('assignment,bits,outcome\n"1=x,a=x,b=x",000000,no\n')
    assert first.variables == (1, 2, 3) and first.names == {2: "a", 3: "b"}
    # 2 and 3 are both taken by numeric columns
    skipped = FunctionTable.parse_csv('assignment,bits,outcome\n"2=x,a=x,3=x",000000,no\n')
    assert skipped.variables == (2, 4, 3) and skipped.names == {4: "a"}



@pytest.mark.parametrize("inputs, names", [
    ({1, 2}, {1: "a,b", 2: "c=d"}),   # separators of the assignment cell
    ({1, 2}, {1: ""}),                # an empty label
    ({1, 3}, {1: "3"}),               # another variable's id
    ({1, 3}, {1: "2"}),               # an id that reads back as variable 2
    ({1, 2}, {1: "01"}),              # digits that are not the variable's own id
    ({1, 2}, {1: "a", 2: "a"}),       # a repeated label
], ids=["separators", "empty", "other-id", "reads-as-other-id", "leading-zero", "repeated"])
def test_table_csv_falls_back_to_ids_for_names_a_cell_cannot_carry(inputs, names):
    a, b = sorted(inputs)
    table = tabulate(Propagator(F([-a, 4], [-b, 4], names=names), frozenset(inputs), 4))
    text = table.format_csv()
    assert text.splitlines()[1] == f'"{a}=x,{b}=x",0000,na'
    assert FunctionTable.parse_csv(text) == table


def test_table_csv_keeps_names_it_can_carry():
    names = {1: "1", 2: "c"}  # a variable's own id is a label it can carry
    table = tabulate(Propagator(F([-1, 4], [-2, 4], names=names), frozenset({1, 2}), 4))
    assert table.format_csv().splitlines()[1] == '"1=x,c=x",0000,na'
    assert FunctionTable.parse_csv(table.format_csv()) == table

@pytest.mark.parametrize("text, message", [
    ('"a=x,a=x",00,no\n', "repeated table column: 'a'"),
    ('"1=x,01=x",0000,no\n', "repeated table column: '01'"),
    ('v=1,10,no\nv=x,00,no\nv=1,10,yes\n', "repeated table row: 'v=1'"),
])
def test_table_csv_rejects_contradictions(text, message):
    with pytest.raises(ValueError, match=message):
        FunctionTable.parse_csv("assignment,bits,outcome\n" + text)


@pytest.mark.parametrize("text", [
    "0=x,00,no\n0=1,10,yes\n",
    "0=x,00,yes\n0=1,10,no\n",
    "0=x,00,no\n0=1,10,yes\n0=0,01,no\n",
    '"a=x,00=x",0000,no\n',
])
def test_table_csv_rejects_a_column_naming_variable_0(text):
    with pytest.raises(ValueError, match="^table column names variable 0$"):
        FunctionTable.parse_csv("assignment,bits,outcome\n" + text)


def test_table_csv_golden_first_lines():
    # the assignment field contains commas, so it is CSV-quoted
    text = tabulate(OR_READER).format_csv()
    lines = text.splitlines()
    assert lines[0] == "assignment,bits,outcome"
    assert lines[1] == '"v1=x,v2=x",0000,na'
    assert lines[2] == '"v1=x,v2=1",0100,true'
    assert lines[3] == '"v1=x,v2=0",0001,na'


def test_table_csv_round_trips_a_table_without_inputs():
    table = tabulate(parse_propagator("c inputs\nc output 1\np cnf 1 1\n1 0\n"))
    text = table.format_csv()
    assert text == "assignment,bits,outcome\n,,true\n"
    assert FunctionTable.parse_csv(text) == table
    assert FunctionTable.parse_csv(text).variables == ()
    with pytest.raises(ValueError, match="^repeated table row: ''$"):
        FunctionTable.parse_csv(text + ",,na\n")
    with pytest.raises(ValueError, match="^bits '0' do not match assignment ''$"):
        FunctionTable.parse_csv("assignment,bits,outcome\n,0,true\n")


def test_table_csv_rows_take_enumeration_order_whatever_order_they_arrive_in():
    rows = ['"a=x,b=x",0000,yes\n', '"a=x,b=1",0100,no\n', '"a=1,b=x",1000,no\n', '"a=0,b=0",0011,yes\n']
    ordered = FunctionTable.parse_csv("assignment,bits,outcome\n" + "".join(rows))
    for shuffled in (rows[::-1], rows[2:] + rows[:2], [rows[1], rows[3], rows[0], rows[2]]):
        table = FunctionTable.parse_csv("assignment,bits,outcome\n" + "".join(shuffled))
        assert table == ordered and list(table.rows) == list(ordered.rows)
        assert table.format_csv() == ordered.format_csv() == "assignment,bits,outcome\n" + "".join(rows)


@pytest.mark.parametrize("text", [
    '"a=x,b=x",1111,yes\n"a=x,b=1",banana,no\n',   # the first row, in order
    '"a=x,b=x",0000,yes\n"a=x,b=1",banana,no\n',   # a later row, in order
    '"a=x,b=1",0100,no\n"a=x,b=x",1111,yes\n',     # a row out of order
    '"a=x,b=1",0100,no\n"a=1,b=x",0100,no\n',      # another row's bits
])
def test_table_csv_rejects_bits_that_are_not_the_assignments(text):
    with pytest.raises(ValueError, match="^bits '[^']*' do not match assignment 'a=[x1],b=[x1]'$"):
        FunctionTable.parse_csv("assignment,bits,outcome\n" + text)


@pytest.mark.parametrize("rows", [
    {fs({1, -1}): Matching.NO, fs(): Matching.YES},   # a clashing pair
    {fs({3}): Matching.YES},                           # a variable outside the order
    {fs({-3, 1}): Filtering.NA},
])
def test_table_rejects_rows_that_are_not_assignments_of_its_variables(rows):
    with pytest.raises(ValueError, match="^not an assignment of the table's variables"):
        FunctionTable((1, 2), rows)


def test_table_refuses_repeated_variables_and_more_than_the_enumeration_limit():
    with pytest.raises(ValueError, match="^repeated table variable"):
        FunctionTable((1, 1), {fs(): Matching.NO})
    with pytest.raises(ValueError, match="^refusing to enumerate over 13 variables"):
        FunctionTable(range(1, 14), {fs(): Matching.NO})
    cell = ",".join(f"v{i}=x" for i in range(13))
    with pytest.raises(ValueError, match="^refusing to enumerate over 13 variables"):
        FunctionTable.parse_csv(f'assignment,bits,outcome\n"{cell}",{"0" * 26},no\n')


def test_lane_cells_are_the_per_row_assignment_and_bits():
    for k in range(5):
        order, labels = tuple(range(3, 3 + k)), [f"v{i}" for i in range(k)]
        names = dict(zip(order, labels))
        cell = propagator._lane_cells(labels)
        for lane, a in enumerate(iter_assignments(order)):
            bits = "".join(map(str, boolean_representation(a, order)))
            assert cell(lane) == (format_assignment(a, order, names), bits)


def _named_tables():
    """Tabulated random propagators with labels that need quoting, and with holes made by hand."""
    for seed in range(30):
        prop = random_propagator(52_000 + seed, max_vars=6, max_clauses=10, max_inputs=4)
        names = {v: (f'x"{v}' if seed % 2 else f"y {v}") for v in prop.formula.variables}
        table = tabulate(Propagator(F(*prop.formula.clauses, names=names), prop.inputs, prop.output))
        yield table
        rng = random.Random(seed)
        holed = FunctionTable(table.variables[::-1], {k: v for k, v in table.items() if rng.random() < 0.7},
                              names=names)
        if len(holed):  # a table without rows has no CSV to read back
            yield holed


def test_table_csv_parses_shuffled_and_crlf_text_as_in_order_text():
    rng = random.Random(77)
    for table in _named_tables():
        text = table.format_csv()
        header, *rows = text.splitlines(keepends=True)
        ordered = FunctionTable.parse_csv(text)
        assert len(ordered) == len(table) and ordered.format_csv() == text
        partly = list(rows)
        for _ in range(2):
            i = rng.randrange(len(partly))
            partly.insert(rng.randrange(len(partly)), partly.pop(i))
        for variant in (rng.sample(rows, len(rows)), partly, rows[::-1]):
            for lines in (variant, [r.replace("\n", "\r\n") for r in variant]):
                parsed = FunctionTable.parse_csv(header + "".join(lines))
                assert parsed == ordered and list(parsed.items()) == list(ordered.items())
                assert parsed.names == ordered.names and parsed.format_csv() == text


def test_table_views_match_the_scalar_evaluators():
    for seed in range(60):
        prop = random_propagator(53_000 + seed, max_vars=5, max_clauses=8, max_inputs=3, horn=seed % 2 == 1)
        table, scalar = tabulate(prop), scalar_table(prop)
        assert table.rows == scalar and list(table.rows) == list(scalar)
        assert all(table.outcome(a) is scalar[a.literals] for a in iter_assignments(prop.inputs))
        matching = table.as_matching()
        assert dict(matching.items()) == {lits: Matching(value is Filtering.TRUE)
                                          for lits, value in scalar.items() if value is not Filtering.FAIL}
        assert len(matching) == len(matching.rows) and len(table) == len(scalar)
        assert FunctionTable.parse_csv(table.format_csv()).rows == scalar


def test_table_hot_path_builds_no_rows_and_parses_one_row_by_tokens(monkeypatch):
    import unitprop.verify as verify

    props = [translate.circuit_to_propagator(verify.random_monotone_circuit(12, 12, seed=s)) for s in range(2)]
    props.append(OR_READER)

    def no_rows(self):
        raise AssertionError("rows view built")

    class CountedDigits(dict):
        def get(self, value):
            tokens.append(value)
            return super().get(value)

    tokens, frozensets = [], []
    monkeypatch.setattr(FunctionTable, "rows", property(no_rows))
    monkeypatch.setattr(propagator, "_DIGITS", CountedDigits(propagator._DIGITS))
    monkeypatch.setattr(propagator, "frozenset", lambda *a: frozensets.append(a) or fs(*a), raising=False)
    for prop in props:
        table = tabulate(prop)
        parsed = FunctionTable.parse_csv(table.format_csv())
        matching = parsed.as_matching()
        assert parsed == table and len(matching) == len(table) == 3 ** len(prop.inputs)
        assert matching == table.as_matching() and verify.check_monotone(matching) is None
        # only the first row is read token by token, for its column names
        assert tokens == ["x"] * len(prop.inputs)
        tokens.clear()
    assert frozensets == []


def test_evaluators_and_tabulate_never_sort(sort_counter):
    for seed in range(20):
        text = format_propagator(random_propagator(seed, max_vars=5, max_clauses=8, max_inputs=3))
        sort_counter.clear()
        prop = parse_propagator(text)
        nu = propagator_to_nu(prop)
        for a in iter_assignments(prop.inputs):
            eval_filtering(prop, a), eval_nu(nu, a)
            try:
                eval_matching(prop, a)
            except MatchingProtocolError:
                pass
        tabulate(prop), tabulate(Propagator(restrict(prop.formula, [prop.output]), prop.inputs, prop.output))
        assert sort_counter == []


def test_matchings_to_filtering_sorts_only_the_readers_it_mirrors(sort_counter):
    for seed in range(20):
        prop = random_propagator(seed, max_vars=5, max_clauses=8, max_inputs=3)
        # fresh copies, not yet in canonical order
        readers = [Propagator(parse_dimacs(format_dimacs(p.formula)), p.inputs, p.output)
                   for p in filtering_to_matchings(prop)]
        sort_counter.clear()
        matchings_to_filtering(*readers)
        assert len(sort_counter) == sum(len(p.formula) for p in readers)


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


# sha256 of the converted propagators on the corpus below, computed before
# the conversions merged their added clauses into canonical order
CONVERSION_DIGEST = "0caf604c37bb6711d4b99fa6f1384dc0b7fe767804ea09493628b7d5ba8c5763"


def test_conversion_output_is_pinned():
    digest = hashlib.sha256()
    for seed in range(40):
        prop = random_propagator(40_000 + seed, max_vars=4, horn=seed % 2 == 1)
        readers = filtering_to_matchings(prop)
        nu = propagator_to_nu(prop)
        mirrored = reify_propagator(prop)
        parts = [format_propagator(p) for p in readers]
        parts += [format_dimacs(nu.formula), format_propagator(nu_to_propagator(nu)),
                  format_dimacs(mirrored.formula),
                  repr((mirrored.out_true, mirrored.out_false, mirrored.out_fail))]
        if seed < 4:
            # mirrors a mirror: the costliest conversion, on a few seeds only
            parts.append(format_propagator(matchings_to_filtering(*readers)))
        for part in parts:
            digest.update(part.encode())
            digest.update(b"\0")
    assert digest.hexdigest() == CONVERSION_DIGEST
