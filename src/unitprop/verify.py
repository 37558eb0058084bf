"""Brute-force oracles, random instance generators and the property suites.

Everything here is exhaustive or seeded: assignments are enumerated in full
(3^n of them), generators are deterministic functions of their seed, and
each named suite replays one of the library's guaranteed properties on a
corpus of random instances, yielding one record per instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

from .cnf import (
    CnfFormula,
    PartialAssignment,
    assignment_literals,
    enumeration_order,
    format_dimacs,
    indicator_lanes,
    iter_assignments,
    propagate_lanes,
    propagate_staged,
    propagate_standard,
    restrict,
)
from .circuit import Circuit, Gate, evaluate_batch, evaluate_lanes, validate_monotone
from .propagator import (
    Filtering,
    FunctionTable,
    Matching,
    NuPropagator,
    Propagator,
    boolean_representation,
    filtering_to_matchings,
    matchings_to_filtering,
    nu_to_propagator,
    propagator_to_nu,
    reify_propagator,
    tabulate,
)
from .reify import failed_literal_formula, reify, reify_injected
from .translate import circuit_to_propagator, extract_circuit

def enumerate_assignments(variables: Iterable[int]) -> list[PartialAssignment]:
    """All 3^n consistent partial assignments, in ternary counting order."""
    return list(iter_assignments(variables))


@dataclass(frozen=True)
class Counterexample:
    """A failed check: the offending assignment(s) and both observed outcomes."""

    first: PartialAssignment
    second: PartialAssignment | None
    witness: str
    outcomes: tuple

    def render(self, names: Mapping[int, str] | None = None) -> str:
        parts = [self.witness, f"I={self.first.render(names)}"]
        if self.second is not None:
            parts.append(f"J={self.second.render(names)}")
        parts.append("outcomes=" + "/".join(str(o) for o in self.outcomes))
        return " ".join(parts)


def check_monotone(table: FunctionTable) -> Counterexample | None:
    """Find an order violation: assignments I <= J with I yes and J no.

    Returns the violation with the smallest |J \\ I| (ties: first in
    enumeration order), or None when the table is monotone.

    Scans cover edges, J against each I = J minus one literal, as O(k)
    shifts of the table's lane masks: a lane J setting the variable of
    ternary place ``stride`` true covers lane J - stride, false lane
    J - 2*stride.  Whenever every such I of a ``no`` row J is itself a row,
    as in any downward-closed table (every propagator table and its
    :meth:`~FunctionTable.as_matching` view, since failing rows form an
    up-set), that loses nothing: walking down from J towards I through rows
    must pass a cover edge from a yes row to a no row, so violations exist
    exactly when gap-1 violations do, and the minimal one is among them.
    Other tables, such as a hand-made CSV with holes, get the pair scan.
    """
    if table.codomain != "matching":
        raise ValueError("monotonicity is defined for matching tables; use as_matching()")
    present, yes = table._present, table._masks[Matching.YES]
    no, ind = present & ~yes, indicator_lanes(table.variables)
    found = []  # (I, J) lanes: the first violation of each literal
    for pos, var in enumerate(table.variables):
        stride = 3 ** (len(table.variables) - 1 - pos)
        for lit, shift in ((var, stride), (-var, 2 * stride)):
            if no & ind[lit] & ~(present << shift):
                return _check_monotone_pairs(table)
            bad = no & ind[lit] & (yes << shift)
            if bad:
                j = (bad & -bad).bit_length() - 1
                found.append((j - shift, j))
    if not found:
        return None
    i, j = (frozenset(l for l, mask in ind.items() if mask >> lane & 1) for lane in min(found))
    return _violation(table, i, j)


def _check_monotone_pairs(table: FunctionTable) -> Counterexample | None:
    """Reference for :func:`check_monotone`: every pair I <= J, O(9^k)."""
    rows = list(table.items())  # in enumeration order: ties go by place in it
    best = min(((len(j_lits - i_lits), i, j, i_lits, j_lits)
                for i, (i_lits, i_val) in enumerate(rows) for j, (j_lits, j_val) in enumerate(rows)
                if i_lits <= j_lits and i_val > j_val), default=None)
    return None if best is None else _violation(table, *best[3:])


def _violation(table: FunctionTable, i_lits: frozenset, j_lits: frozenset) -> Counterexample:
    universe = table.variables
    return Counterexample(
        first=PartialAssignment(i_lits, universe=universe),
        second=PartialAssignment(j_lits, universe=universe),
        witness="monotonicity-violation",
        outcomes=(Matching.YES, Matching.NO),
    )


def check_equiv_propagator_circuit(prop: Propagator, circ: Circuit) -> Counterexample | None:
    """Exhaustively compare the matching function with the circuit's bit function.

    Propagation failure on some assignment is reported as a distinct
    protocol violation rather than a value mismatch.  The first bad
    assignment in enumeration order is reported.  Both sides run on all
    assignments at once, one bit lane each: the propagator through
    :func:`propagate_lanes`, the circuit on the assignments' paired
    indicator bits.
    """
    lanes = propagate_lanes(prop.formula, prop.inputs)
    circuit_out = _circuit_lanes(circ, lanes.order)
    yes = lanes.masks.get(prop.output, 0)
    bad = lanes.fail | (yes ^ circuit_out)
    if not bad:
        return None
    lane = (bad & -bad).bit_length() - 1
    assignment = PartialAssignment(next(islice(assignment_literals(lanes.order), lane, None)),
                                   universe=lanes.order)
    bit = circuit_out >> lane & 1
    if lanes.fail >> lane & 1:
        return Counterexample(assignment, None, "protocol-violation", (Filtering.FAIL, bit))
    match = Matching.YES if yes >> lane & 1 else Matching.NO
    return Counterexample(assignment, None, "equivalence-mismatch", (match, bit))


def _circuit_lanes(circ: Circuit, order: tuple[int, ...]) -> int:
    """The circuit on the boolean representation of every lane of ``order``."""
    indicators = indicator_lanes(order)
    masks = [indicators[v] for v in order] + [indicators[-v] for v in order]
    return evaluate_lanes(circ, masks, 3 ** len(order))


# --- generators -----------------------------------------------------------------

def random_cnf(n: int, k: int, maxlen: int = 3, seed: int = 0, horn: bool = False) -> CnfFormula:
    """Seed-deterministic formula: k clauses of 1..maxlen literals over n variables.

    With ``horn`` every clause has at most one positive literal: with
    probability 0.7 its first literal is positive, all others are negative.
    """
    if n < 0 or k < 0:
        raise ValueError("counts must be nonnegative")
    rng = random.Random(seed)
    clauses = []
    if n > 0:
        for _ in range(k):
            length = rng.randint(1, max(1, maxlen))
            lits = set()
            with_head = horn and rng.random() < 0.7
            for j in range(length):
                v = rng.randint(1, n)
                positive = (with_head and j == 0) if horn else rng.random() < 0.5
                lits.add(v if positive else -v)
            clauses.append(lits)
    return CnfFormula(clauses)


def random_monotone_circuit(inputs: int, gates: int, seed: int = 0) -> Circuit:
    """Seed-deterministic DAG of and/or gates over paired input labels."""
    if inputs % 2:
        raise ValueError("inputs must be even (positive/negative label pairs)")
    if inputs == 0 and gates > 0:
        raise ValueError("gates need at least one source label")
    rng = random.Random(seed)
    labels = [f"e{i}" for i in range(1, inputs + 1)]
    available = list(labels)
    built: list[Gate] = []
    for j in range(1, gates + 1):
        kind = rng.choice(("and", "or"))
        fan = rng.randint(1, min(3, len(available)))
        sources = rng.sample(available, fan)
        out = f"g{j}"
        built.append(Gate(kind, out, tuple(sources)))
        available.append(out)
    output = built[-1].output if built else rng.choice(labels)
    return Circuit(labels, built, output)


def random_propagator(seed: int, max_vars: int = 5, max_clauses: int = 10,
                      maxlen: int = 3, max_inputs: int = 5, horn: bool = False) -> Propagator:
    """Random propagator with inputs and output drawn from the formula's variables."""
    rng = random.Random(seed)
    for attempt in range(1000):
        formula = random_cnf(rng.randint(1, max_vars), rng.randint(1, max_clauses),
                             maxlen, seed=rng.getrandbits(32), horn=horn)
        if formula.variables:
            break
    else:
        raise RuntimeError("could not generate a formula with variables")
    ordered = sorted(formula.variables)
    output = rng.choice(ordered)
    width = rng.randint(0, min(len(ordered), max_inputs))
    inputs = frozenset(rng.sample(ordered, width))
    return Propagator(formula, inputs, output)


def random_failure_free_propagator(seed: int, **kwargs) -> tuple[Propagator, int]:
    """Rejection-sample a propagator whose propagation never fails on its inputs.

    Returns the propagator and how many candidates were skipped.
    """
    rng = random.Random(seed)
    skipped = 0
    while True:
        candidate = random_propagator(rng.getrandbits(32), **kwargs)
        if not propagate_lanes(candidate.formula, candidate.inputs).fail:
            return candidate, skipped
        skipped += 1
        if skipped > 5000:
            raise RuntimeError("rejection sampling did not converge")


def random_monotone_table(num_vars: int, seed: int = 0) -> FunctionTable:
    """Random monotone yes/no table: a random yes-set closed upward."""
    rng = random.Random(seed)
    order = tuple(range(1, num_vars + 1))
    assignments = [a.literals for a in iter_assignments(order)]
    density = rng.random()
    yes = {a for a in assignments if rng.random() < density}
    for small in sorted(assignments, key=len):
        if small in yes:
            for big in assignments:
                if small <= big:
                    yes.add(big)
    rows = {a: (Matching.YES if a in yes else Matching.NO) for a in assignments}
    return FunctionTable(order, rows)


def realize_monotone_table(table: FunctionTable) -> Circuit:
    """Or-of-ands circuit over the minimal yes-assignments of a monotone table.

    Oracle construction for the characterization check: independent of the
    clause-level translations it is tested against.
    """
    if table.codomain != "matching":
        raise ValueError("realization needs a matching table")
    order = table.variables
    labels = [f"x{v}" for v in order] + [f"y{v}" for v in order]
    node_of = {v: f"x{v}" for v in order} | {-v: f"y{v}" for v in order}
    yes = [lits for lits, value in table.items() if value is Matching.YES]
    minimal = [lits for lits in yes if not any(other < lits for other in yes)]
    gates: list[Gate] = []
    if not yes:
        gates.append(Gate("const0", "out", ()))
        return Circuit(labels, gates, "out")
    if frozenset() in minimal:
        gates.append(Gate("const1", "out", ()))
        return Circuit(labels, gates, "out")
    terms = []
    for k, lits in enumerate(sorted(minimal, key=sorted), start=1):
        sources = tuple(node_of[l] for l in lits)
        kind = "tie" if len(sources) == 1 else "and"
        gates.append(Gate(kind, f"m{k}", sources))
        terms.append(f"m{k}")
    if len(terms) == 1:
        return Circuit(labels, gates, terms[0])
    gates.append(Gate("or", "out", tuple(terms)))
    return Circuit(labels, gates, "out")


# --- suites ----------------------------------------------------------------------

@dataclass
class CheckRecord:
    suite: str
    instance: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "\t".join([self.suite, self.instance, status, self.detail])


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def _record(suite: str, instance: int | str, failures: list[str]) -> CheckRecord:
    return CheckRecord(suite, str(instance), not failures, "; ".join(failures[:3]))


def _lane_failures(order: tuple[int, ...], checks: list[tuple[int, str]]) -> list[str]:
    """``"<text> at <assignment>"`` per lane of each ``(mask, text)``, as a loop over the rows writes them."""
    return [f"{text} at {PartialAssignment(lits, universe=order).render()}"
            for lane, lits in enumerate(assignment_literals(order))
            for mask, text in checks if mask >> lane & 1]


def _matching_checks(reader: Propagator, want: int, failed: str, differs: str,
                     on: int = -1) -> list[tuple[int, str]]:
    """Where a matching reader fails, then where it misreads the yes lanes ``want``, on ``on``."""
    lanes = propagate_lanes(reader.formula, reader.inputs)
    wrong = lanes.masks.get(reader.output, 0) ^ want
    return [(on & lanes.fail, failed), (on & ~lanes.fail & wrong, differs)]


def _suite_algorithm_agreement(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        rng = random.Random(sub)
        formula = random_cnf(rng.randint(0, 10), rng.randint(0, 40),
                             rng.randint(1, 4), seed=sub)
        std = propagate_standard(formula)
        stg = propagate_staged(formula)
        failures = []
        if std.is_bottom != stg.is_bottom:
            failures.append(f"bottom status differs on {format_dimacs(formula)!r}")
        elif not std.is_bottom and std.outcome != stg.outcome:
            failures.append(f"literal sets differ on {format_dimacs(formula)!r}")
        yield _record("algorithm-agreement", sub, failures)


def _reify_corpus(sub: int, max_vars: int = 6) -> CnfFormula:
    rng = random.Random(sub)
    return random_cnf(rng.randint(0, max_vars), rng.randint(0, 12),
                      rng.randint(1, 4), seed=sub)


def _suite_stage_discipline(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        formula = _reify_corpus(sub)
        mirrored = reify(formula)
        trace = propagate_staged(mirrored.formula)
        failures = []
        for stage_index, stage in enumerate(trace.stages):
            for lit in stage:
                if lit < 0:
                    failures.append(f"negative literal {lit} produced")
                    continue
                rv = mirrored.index.describe(lit)
                if rv is None or rv.stage != stage_index:
                    failures.append(f"literal {lit} fixed at round {stage_index}, tagged {rv}")
        yield _record("lemma-reif-stage-discipline", sub, failures)


def _suite_reif_correspondence(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        formula = _reify_corpus(sub)
        mirrored = reify(formula)
        failures = []
        # satisfiable by construction: every clause keeps a positive literal,
        # and evaluating under the all-true assignment confirms the model
        for clause in mirrored.formula.clauses:
            if not any(l > 0 for l in clause):
                failures.append(f"clause without positive literal: {sorted(clause)}")
        all_true = {v: True for v in mirrored.formula.variables}
        for clause in mirrored.formula.clauses:
            if not any(all_true[abs(l)] == (l > 0) for l in clause):
                failures.append(f"all-true is not a model of {sorted(clause)}")
        sigma = propagate_staged(mirrored.formula)
        if sigma.is_bottom:
            failures.append("propagation failed on the mirror")
        phi = propagate_staged(formula)
        n = mirrored.n
        for v in sorted(formula.variables):
            for k in range(1, n + 2):
                for positive, lit in ((True, v), (False, -v)):
                    in_sigma = mirrored.index.id_of(v, k, positive) in sigma.stage(k, first=0)
                    in_phi = lit in phi.through(k, first=1)
                    if in_sigma != in_phi:
                        failures.append(f"round {k} disagrees for literal {lit}")
        yield _record("theorem-reif-correspondence", sub, failures)


def _random_assignment(rng: random.Random, variables: Iterable[int]) -> list[int]:
    lits = []
    for v in sorted(variables):
        roll = rng.random()
        if roll < 1 / 3:
            lits.append(v)
        elif roll < 2 / 3:
            lits.append(-v)
    return lits


def _suite_inject_equivalence(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        rng = random.Random(sub)
        formula = _reify_corpus(sub)
        chosen = [v for v in sorted(formula.variables) if rng.random() < 0.5]
        assignment = _random_assignment(rng, chosen)
        injected = reify_injected(formula, chosen)
        direct = reify(restrict(formula, assignment))
        left = propagate_staged(restrict(injected.formula, assignment), early_exit=True)
        right = propagate_staged(direct.formula, early_exit=True)

        def mirror_part(produced, index=injected.index):
            return frozenset(l for l in produced
                             if l > 0 and (rv := index.describe(l)) is not None and rv.stage >= 1)

        failures = []
        if mirror_part(left.produced) != mirror_part(right.produced):
            failures.append(f"stage>=1 mirror literals differ for I={assignment}")
        yield _record("theorem-inject-equivalence", sub, failures)


def _suite_counting(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        formula = _reify_corpus(sub)
        mirrored = reify(formula)
        n = len(formula.variables)
        units = sum(1 for c in formula.clauses if len(c) == 1)
        wide = sum(len(c) for c in formula.clauses if len(c) >= 2)
        failures = []
        if len(mirrored.index) != 2 * n * (n + 2):
            failures.append(f"index size {len(mirrored.index)} != {2 * n * (n + 2)}")
        if mirrored.count("prop") != 2 * n * n:
            failures.append(f"prop count {mirrored.count('prop')} != {2 * n * n}")
        if mirrored.count("init") != 2 * units:
            failures.append(f"init count {mirrored.count('init')} != {2 * units}")
        if mirrored.count("ded") != n * wide:
            failures.append(f"ded count {mirrored.count('ded')} != {n * wide}")
        yield _record("reify-counting", sub, failures)


def _suite_nu_roundtrip(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        rng = random.Random(sub)
        failures = []
        # arbitrary formula driven through the failure-reading construction
        formula = random_cnf(rng.randint(1, 4), rng.randint(1, 8), 3, seed=rng.getrandbits(32))
        width = rng.randint(0, min(3, len(formula.variables)))
        inputs = frozenset(rng.sample(sorted(formula.variables), width)) if formula.variables else frozenset()
        # a nu propagator says yes on the lanes where it fails
        nu = propagate_lanes(formula, inputs)
        lifted = nu_to_propagator(NuPropagator(inputs, formula))
        failures += _lane_failures(nu.order, _matching_checks(
            lifted, nu.fail, "lifted propagator failed", "lifted value differs"))
        # output-blocking direction and round trip, on the class where
        # blocking is exact (at most one positive literal per clause)
        prop, _ = random_failure_free_propagator(rng.getrandbits(32), max_vars=4,
                                                 max_clauses=6, max_inputs=3, horn=True)
        dropped = propagator_to_nu(prop)
        back = nu_to_propagator(dropped)
        source = propagate_lanes(prop.formula, prop.inputs)
        want = source.masks.get(prop.output, 0)
        failures += _lane_failures(source.order, [
            (propagate_lanes(dropped.formula, dropped.inputs).fail ^ want, "nu value differs"),
            *_matching_checks(back, want, "round trip propagator failed", "round trip differs")])
        # on arbitrary formulas blocking may only over-report, never miss
        wild = random_propagator(rng.getrandbits(32), max_vars=4, max_clauses=6, max_inputs=3)
        blocked = propagator_to_nu(wild)
        source = propagate_lanes(wild.formula, wild.inputs)
        matched = ~source.fail & source.masks.get(wild.output, 0)
        blocked_yes = propagate_lanes(blocked.formula, blocked.inputs).fail
        failures += _lane_failures(source.order, [(matched & ~blocked_yes, "blocked run missed a match")])
        # concrete polynomial size bound from the mirror's counting identities
        m = len(dropped.formula.variables)
        wide = sum(len(c) for c in dropped.formula.clauses if len(c) >= 2)
        units = sum(1 for c in dropped.formula.clauses if len(c) == 1)
        injected = len(dropped.inputs & dropped.formula.variables)
        bound = 2 * units + 2 * m * m + m * wide + 2 * injected + m
        if len(back.formula) > bound:
            failures.append(f"clause count {len(back.formula)} exceeds bound {bound}")
        yield _record("nu-roundtrip", sub, failures)


def _suite_reified_bullets(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        rng = random.Random(sub)
        prop = random_propagator(rng.getrandbits(32), max_vars=5, max_clauses=8, max_inputs=3)
        mirrored = reify_propagator(prop)
        base = propagate_lanes(prop.formula, prop.inputs)
        sim = propagate_lanes(mirrored.formula, prop.inputs)
        expected = {mirrored.out_fail: base.fail, mirrored.out_true: base.masks.get(prop.output, 0),
                    mirrored.out_false: base.masks.get(-prop.output, 0)}
        failures = _lane_failures(base.order, [(sim.fail, "mirror failed")] + [
            (~sim.fail & (sim.masks.get(out_var, 0) ^ want), f"output {out_var} wrong")
            for out_var, want in expected.items()])
        yield _record("reified-propagator-bullets", sub, failures)


def _suite_filtering_roundtrip(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        rng = random.Random(sub)
        prop = random_propagator(rng.getrandbits(32), max_vars=3, max_clauses=4, max_inputs=2)
        true_p, false_p, fail_p = filtering_to_matchings(prop)
        source = propagate_lanes(prop.formula, prop.inputs)
        # the true and false readers are read where the source does not fail
        holds = ~source.fail
        failures = _lane_failures(source.order, [
            *_matching_checks(fail_p, source.fail, "fail reader failed", "fail reader differs"),
            *_matching_checks(true_p, holds & source.masks.get(prop.output, 0),
                              "true reader failed", "true reader differs", on=holds),
            *_matching_checks(false_p, holds & source.masks.get(-prop.output, 0),
                              "false reader failed", "false reader differs", on=holds),
        ])
        combined = matchings_to_filtering(true_p, false_p, fail_p)
        if tabulate(combined) != tabulate(prop):
            failures.append("combined filtering table differs")
        yield _record("filtering-roundtrip", sub, failures)


def _th1_circuit(rng: random.Random, sub: int) -> Circuit:
    return random_monotone_circuit(2 * rng.randint(1, 4), rng.randint(0, 12), seed=sub)


def _suite_th1(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        circ = _th1_circuit(random.Random(sub), sub)
        prop = circuit_to_propagator(circ)
        mismatch = check_equiv_propagator_circuit(prop, circ)
        failures = [] if mismatch is None else [mismatch.render()]
        yield _record("th1-equiv", sub, failures)


def _suite_th2(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        prop, skipped = random_failure_free_propagator(sub, max_vars=5, max_clauses=10)
        extraction = extract_circuit(prop)
        failures = []
        if not validate_monotone(extraction.circuit):
            failures.append("extracted circuit is not monotone")
        emitted = len(extraction.reified.emissions) - extraction.reified.count("init") // 2
        if len(extraction.circuit.gates) > 2 * emitted + 1:
            failures.append(f"{len(extraction.circuit.gates)} gates exceed bound {2 * emitted + 1}")
        mismatch = check_equiv_propagator_circuit(prop, extraction.circuit)
        if mismatch is not None:
            failures.append(mismatch.render())
        record = _record("th2-equiv", sub, failures)
        if record.passed and skipped:
            record.detail = f"skipped {skipped} candidates with failing rows"
        yield record


def _suite_th1_th2_roundtrip(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        circ = _th1_circuit(random.Random(sub), sub)
        prop = circuit_to_propagator(circ)
        back = extract_circuit(prop).circuit
        order = enumeration_order(prop.inputs)
        wrong = _circuit_lanes(circ, order) ^ _circuit_lanes(back, order)
        failures = _lane_failures(order, [(wrong, "round trip differs")])
        yield _record("th1-th2-roundtrip", sub, failures)


def _suite_monotone_characterization(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        rng = random.Random(sub)
        failures = []
        prop = random_propagator(rng.getrandbits(32), max_vars=4, max_clauses=8, max_inputs=3)
        violation = check_monotone(tabulate(prop).as_matching())
        if violation is not None:
            failures.append(violation.render())
        table = random_monotone_table(rng.randint(1, 3), seed=rng.getrandbits(32))
        circ = realize_monotone_table(table)
        if not validate_monotone(circ):
            failures.append("realized circuit is not monotone")
        order = table.variables
        reps = [boolean_representation(lits, order) for lits, _ in table.items()]
        bits = evaluate_batch(circ, reps)
        for (lits, value), bit in zip(table.items(), bits):
            if (value is Matching.YES) != (bit == 1):
                failures.append(f"realized circuit differs at {sorted(lits)}")
        lifted = circuit_to_propagator(circ, variables=order)
        if tabulate(lifted).as_matching() != table:
            failures.append("compiled propagator does not reproduce the table")
        yield _record("monotone-characterization", sub, failures)


def _suite_failed_literal(seed: int, count: int) -> Iterator[CheckRecord]:
    for sub in _sub_seeds(seed, count):
        rng = random.Random(sub)
        formula = random_cnf(rng.randint(1, 6), rng.randint(1, 12), 4, seed=rng.getrandbits(32))
        while not formula.variables:
            formula = random_cnf(6, 6, 3, seed=rng.getrandbits(32))
        v = rng.choice(sorted(formula.variables))
        lit = v if rng.random() < 0.5 else -v
        direct = propagate_staged(restrict(formula, [lit]), early_exit=True).is_bottom
        sim, target = failed_literal_formula(formula, lit)
        res = propagate_staged(sim, early_exit=True)
        failures = []
        if res.is_bottom:
            failures.append("simulation formula failed")
        elif (target in res.produced) != direct:
            failures.append(f"probe of {lit} disagrees (direct={direct})")
        yield _record("failed-literal", sub, failures)


SUITES: dict[str, tuple[Callable[[int, int], Iterator[CheckRecord]], int]] = {
    "algorithm-agreement": (_suite_algorithm_agreement, 1000),
    "lemma-reif-stage-discipline": (_suite_stage_discipline, 200),
    "theorem-reif-correspondence": (_suite_reif_correspondence, 200),
    "theorem-inject-equivalence": (_suite_inject_equivalence, 200),
    "reify-counting": (_suite_counting, 200),
    "nu-roundtrip": (_suite_nu_roundtrip, 100),
    "reified-propagator-bullets": (_suite_reified_bullets, 100),
    "filtering-roundtrip": (_suite_filtering_roundtrip, 100),
    "th1-equiv": (_suite_th1, 100),
    "th2-equiv": (_suite_th2, 100),
    "th1-th2-roundtrip": (_suite_th1_th2_roundtrip, 100),
    "monotone-characterization": (_suite_monotone_characterization, 100),
    "failed-literal": (_suite_failed_literal, 200),
}


def run_suite(name: str, seed: int, count: int | None = None) -> Iterator[CheckRecord]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    if count is not None and count < 1:
        raise ValueError(f"instance count must be at least 1, got {count}")
    runner, default_count = SUITES[name]
    return runner(seed, count if count is not None else default_count)
