"""Propagators and the functions they compute by unit resolution.

A propagator is a formula with designated input variables and one output
variable.  Fed a consistent partial assignment of its inputs (as unit
clauses), unit resolution either fails or fixes/ignores the output, which
yields a four-valued filtering function; reading only the output variable
under a no-failure guarantee yields a two-valued matching function, and
reading failure itself yields the nu flavor.  This module implements the
evaluation semantics and all the constructive conversions between the
flavors, plus truth-table materialization for the brute-force checks.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .cnf import (
    CnfFormula,
    Lit,
    PartialAssignment,
    as_literals,
    assignment_literals,
    format_dimacs,
    lit_key,
    parse_dimacs,
    propagate_lanes,
    propagate_staged,
    resolve_variable,
    restrict,
)
from .reify import ReifiedFormula, clash_clauses, reify_injected


class Filtering(enum.Enum):
    FAIL = "fail"
    TRUE = "true"
    FALSE = "false"
    NA = "na"

    def __str__(self) -> str:
        return self.value


class Matching(enum.IntEnum):
    # ordered: NO below YES
    NO = 0
    YES = 1

    def __str__(self) -> str:
        return "yes" if self else "no"


OUTCOMES = {str(v): v for v in Filtering} | {str(v): v for v in Matching}


class MatchingProtocolError(RuntimeError):
    """Propagation failed where a matching function was being read off."""


def _input_set(inputs: Iterable[int]) -> frozenset[int]:
    inputs = frozenset(inputs)
    for v in inputs:
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"bad input variable: {v!r}")
    return inputs


@dataclass(frozen=True)
class Propagator:
    """Formula, input variable set, output variable.

    Inputs and output may name variables the formula does not contain (the
    circuit translation's degenerate cases need that); the effective
    universe is the union.
    """

    formula: CnfFormula
    inputs: frozenset[int]
    output: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", _input_set(self.inputs))
        if not isinstance(self.output, int) or self.output < 1:
            raise ValueError(f"bad output variable: {self.output!r}")

    @property
    def names(self) -> Mapping[int, str]:
        return self.formula.names


@dataclass(frozen=True)
class NuPropagator:
    """Computes a matching function by whether unit resolution fails."""

    inputs: frozenset[int]
    formula: CnfFormula

    def __post_init__(self):
        object.__setattr__(self, "inputs", _input_set(self.inputs))


@dataclass(frozen=True)
class ReifiedPropagator:
    """Mirror-backed propagator with separate true/false/fail outputs.

    Propagation on ``formula`` restricted by any consistent input assignment
    never fails; the three outputs report what propagation on the source
    propagator would have done.
    """

    formula: CnfFormula
    inputs: frozenset[int]
    out_true: int
    out_false: int
    out_fail: int
    reified: ReifiedFormula = field(compare=False, repr=False)


def _check_input_scope(inputs: frozenset[int], assignment) -> frozenset[Lit]:
    lits = as_literals(assignment)
    stray = {abs(l) for l in lits} - inputs
    if stray:
        raise ValueError(f"assignment mentions non-input variables: {sorted(stray)}")
    return lits


def _run(formula: CnfFormula, lits: frozenset[Lit]):
    return propagate_staged(restrict(formula, lits), early_exit=True)


def eval_filtering(prop: Propagator, assignment) -> Filtering:
    lits = _check_input_scope(prop.inputs, assignment)
    res = _run(prop.formula, lits)
    if res.is_bottom:
        return Filtering.FAIL
    if prop.output in res.produced:
        return Filtering.TRUE
    if -prop.output in res.produced:
        return Filtering.FALSE
    return Filtering.NA


def eval_matching(prop: Propagator, assignment) -> Matching:
    lits = _check_input_scope(prop.inputs, assignment)
    res = _run(prop.formula, lits)
    if res.is_bottom:
        raise MatchingProtocolError(
            f"propagation failed on input {sorted(lits, key=lit_key)}; "
            "no matching function is computed there")
    return Matching.YES if prop.output in res.produced else Matching.NO


def eval_nu(nu: NuPropagator, assignment) -> Matching:
    lits = _check_input_scope(nu.inputs, assignment)
    res = _run(nu.formula, lits)
    return Matching.YES if res.is_bottom else Matching.NO


# --- conversions ---------------------------------------------------------------

def _fresh_var(*sources: Iterable[int]) -> int:
    top = 0
    for vars_ in sources:
        for v in vars_:
            top = max(top, v)
    return top + 1


def propagator_to_nu(prop: Propagator) -> NuPropagator:
    """Forbid the output: failure of the result marks yes of the source.

    Whenever the source matches, the blocked run fails.  The converse needs
    the forbidden output to unlock nothing new; that holds when every clause
    carries at most one positive literal (then a clash in the blocked run
    forces the output to have been derivable), but not for arbitrary
    formulas: blocking s in (s or a) and (s or -a) fails outright while s
    was never derivable.
    """
    blocked = CnfFormula(prop.formula.clauses + (frozenset((-prop.output,)),),
                         names=prop.formula.names)
    return NuPropagator(prop.inputs, blocked)


def _mirror_with_fail(formula: CnfFormula, inputs: frozenset[int]):
    """Mirror with ``inputs`` wired in, plus a fresh variable read off its clashes."""
    mirrored = reify_injected(formula, inputs & formula.variables)
    fail = _fresh_var(mirrored.formula.variables, inputs)
    clauses = mirrored.formula.clauses + clash_clauses(mirrored, fail)
    return mirrored, CnfFormula(clauses, names=mirrored.formula.names), fail


def nu_to_propagator(nu: NuPropagator) -> Propagator:
    """Mirror the formula and read failure off a fresh output variable.

    The output fires exactly when some variable's mirror ends up fixed both
    ways at the final round, i.e. when propagation on the source formula
    under the same inputs would have failed; the mirrored run itself never
    fails.  Input variables outside the formula are kept as inputs but have
    nothing to be wired into (they cannot contribute to failure).
    """
    _, formula, out = _mirror_with_fail(nu.formula, nu.inputs)
    return Propagator(formula, nu.inputs, out)


def reify_propagator(prop: Propagator) -> ReifiedPropagator:
    """Mirror-backed counterpart with true/false/fail outputs."""
    if not prop.inputs <= prop.formula.variables or prop.output not in prop.formula.variables:
        raise ValueError("inputs and output must be variables of the formula")
    mirrored, formula, fail = _mirror_with_fail(prop.formula, prop.inputs)
    n = mirrored.n
    return ReifiedPropagator(
        formula=formula,
        inputs=prop.inputs,
        out_true=mirrored.index.id_of(prop.output, n + 1, True),
        out_false=mirrored.index.id_of(prop.output, n + 1, False),
        out_fail=fail,
        reified=mirrored,
    )


def filtering_to_matchings(prop: Propagator) -> tuple[Propagator, Propagator, Propagator]:
    """The three matching-function propagators related to a filtering one.

    Returns (true, false, fail) readers: the original propagator, one with a
    fresh output forced by the negated original output, and the fail output
    of the mirror-backed counterpart.
    """
    fresh = _fresh_var(prop.formula.variables, prop.inputs, (prop.output,))
    false_formula = CnfFormula(prop.formula.clauses + (frozenset((prop.output, fresh)),),
                               names=prop.formula.names)
    false_reader = Propagator(false_formula, prop.inputs, fresh)
    mirrored = reify_propagator(prop)
    fail_reader = Propagator(mirrored.formula, prop.inputs, mirrored.out_fail)
    return prop, false_reader, fail_reader


def _rename_apart(formula: CnfFormula, keep: frozenset[int], next_id: int):
    """Rename every variable outside ``keep`` to ids from ``next_id`` up."""
    mapping: dict[int, int] = {}
    for v in sorted(formula.variables - keep):
        mapping[v] = next_id
        next_id += 1

    def ren(lit: Lit) -> Lit:
        v = mapping.get(abs(lit), abs(lit))
        return v if lit > 0 else -v

    clauses = [frozenset(ren(l) for l in c) for c in formula.clauses]
    names = {mapping.get(v, v): name for v, name in formula.names.items()
             if v in mapping or v in keep}
    return CnfFormula(clauses, names=names), mapping, next_id


def matchings_to_filtering(true_p: Propagator, false_p: Propagator,
                           fail_p: Propagator) -> Propagator:
    """Combine three matching-function propagators into one filtering one.

    All three are mirrored (so the combination can never fail on its own),
    renamed apart except for the shared inputs, and linked: the true reader
    forces the output, the false reader forces its negation, and the fail
    reader clashes with a blocking unit so the combination fails exactly
    where the fail reader matches.
    """
    if not (true_p.inputs == false_p.inputs == fail_p.inputs):
        raise ValueError("the three propagators must share the same input set")
    shared = true_p.inputs
    next_id = max(shared, default=0) + 1
    parts = []
    outs = []
    for part in (true_p, false_p, fail_p):
        mirrored = reify_propagator(part)
        renamed, mapping, next_id = _rename_apart(mirrored.formula, shared, next_id)
        parts.append(renamed)
        # each reader reports "my function says yes" by producing its own
        # output variable, so every link reads the mirror's true-signal
        outs.append(mapping[mirrored.out_true])
    out = next_id
    clauses = []
    names: dict[int, str] = {}
    for renamed in parts:
        clauses.extend(renamed.clauses)
        names.update(renamed.names)
    clauses.append(frozenset((-outs[0], out)))
    clauses.append(frozenset((-outs[1], -out)))
    clauses.append(frozenset((-outs[2],)))
    return Propagator(CnfFormula(clauses, names=names), shared, out)


# --- boolean representation and tables ------------------------------------------

def boolean_representation(assignment, order: Sequence[int]) -> tuple[int, ...]:
    """2n-bit vector: positive indicator bits for each variable, then negative."""
    lits = as_literals(assignment)
    order = tuple(order)
    stray = {abs(l) for l in lits} - set(order)
    if stray:
        raise ValueError(f"assignment mentions variables outside the order: {sorted(stray)}")
    pos = tuple(1 if v in lits else 0 for v in order)
    neg_bits = tuple(1 if -v in lits else 0 for v in order)
    return pos + neg_bits


def format_assignment(assignment, order: Sequence[int],
                      names: Mapping[int, str] | None = None) -> str:
    lits = as_literals(assignment)
    parts = []
    for v in order:
        value = "1" if v in lits else "0" if -v in lits else "x"
        parts.append(f"{(names or {}).get(v, str(v))}={value}")
    return ",".join(parts)


def parse_assignment(text: str, variables: Iterable[int],
                     names: Mapping[int, str] | None = None) -> PartialAssignment:
    """Parse ``v1=1,v2=x`` style assignment strings (values 1, 0 or x)."""
    universe = frozenset(variables)
    lits = []
    text = text.strip()
    if text:
        for token in text.split(","):
            name, eq, value = token.strip().partition("=")
            if not eq or value not in ("0", "1", "x"):
                raise ValueError(f"bad assignment token: {token!r}")
            var = resolve_variable(name, names)
            if var not in universe:
                raise ValueError(f"variable {name!r} is not an input")
            if value == "1":
                lits.append(var)
            elif value == "0":
                lits.append(-var)
    return PartialAssignment(lits, universe=universe)


class FunctionTable:
    """Explicit map from every consistent input assignment to an outcome.

    Rows are keyed by the assignment's literal set and kept in enumeration
    order.  Values are uniformly :class:`Filtering` or :class:`Matching`.
    """

    def __init__(self, variables: Sequence[int], rows: Mapping[frozenset, object] | Iterable[tuple],
                 names: Mapping[int, str] | None = None):
        self.variables = tuple(variables)
        self.names = dict(names or {})
        items = rows.items() if isinstance(rows, Mapping) else rows
        self.rows: dict[frozenset, object] = {}
        kinds = set()
        for key, value in items:
            if not isinstance(value, (Filtering, Matching)):
                raise ValueError(f"bad outcome: {value!r}")
            kinds.add(type(value))
            self.rows[frozenset(key)] = value
        if len(kinds) > 1:
            raise ValueError("mixed filtering and matching outcomes in one table")
        self._kind = kinds.pop() if kinds else Matching

    @property
    def codomain(self) -> str:
        return "filtering" if self._kind is Filtering else "matching"

    def outcome(self, assignment) -> object:
        return self.rows[as_literals(assignment)]

    def items(self):
        return self.rows.items()

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.variables == other.variables and self.rows == other.rows

    def as_matching(self) -> "FunctionTable":
        """Matching view: drop failing rows, read true as yes."""
        if self._kind is Matching:
            return FunctionTable(self.variables, dict(self.rows), names=self.names)
        rows = {key: (Matching.YES if value is Filtering.TRUE else Matching.NO)
                for key, value in self.rows.items() if value is not Filtering.FAIL}
        return FunctionTable(self.variables, rows, names=self.names)

    def format_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["assignment", "bits", "outcome"])
        for key, value in self.rows.items():
            bits = boolean_representation(key, self.variables)
            writer.writerow([
                format_assignment(key, self.variables, self.names),
                "".join(str(b) for b in bits),
                str(value),
            ])
        return buf.getvalue()

    @classmethod
    def parse_csv(cls, text: str) -> "FunctionTable":
        import csv

        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if not header or header[0] != "assignment":
            raise ValueError("missing table header")
        variables: tuple[int, ...] | None = None
        names: dict[int, str] = {}
        by_name: dict[str, int] = {}
        rows: dict[frozenset, object] = {}
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"table row needs 3 columns, got {len(row)}: {','.join(row)!r}")
            tokens = [t.partition("=") for t in row[0].split(",")]
            row_names = [name for name, _, _ in tokens]
            if variables is None:
                for name in row_names:
                    var = int(name) if name.isdigit() else len(by_name) + 1
                    by_name[name] = var
                    if not name.isdigit():
                        names[var] = name
                variables = tuple(by_name[name] for name in row_names)
            elif [n for n in row_names] != list(by_name):
                raise ValueError("inconsistent variable order across rows")
            lits = []
            for name, _, value in tokens:
                if value == "1":
                    lits.append(by_name[name])
                elif value == "0":
                    lits.append(-by_name[name])
                elif value != "x":
                    raise ValueError(f"bad assignment value: {value!r}")
            outcome = OUTCOMES.get(row[2])
            if outcome is None:
                raise ValueError(f"bad outcome: {row[2]!r}")
            rows[frozenset(lits)] = outcome
        if variables is None:
            raise ValueError("empty table")
        return cls(variables, rows, names=names)


# outcome of a lane from its (fail, output, negated output) bits
_FILTERING_OF_BITS = {
    (f, t, n): (Filtering.FAIL if f == "1" else Filtering.TRUE if t == "1"
                else Filtering.FALSE if n == "1" else Filtering.NA)
    for f in "01" for t in "01" for n in "01"
}


def tabulate(prop: Propagator) -> FunctionTable:
    """Materialize the filtering function on all 3^|inputs| assignments.

    One bit-parallel propagation pass covers every row; each row equals
    :func:`eval_filtering` on its assignment (held against it in the tests).
    """
    lanes = propagate_lanes(prop.formula, prop.inputs)
    outcomes = map(_FILTERING_OF_BITS.get, zip(
        lanes.bits(lanes.fail),
        lanes.bits(lanes.masks.get(prop.output, 0)),
        lanes.bits(lanes.masks.get(-prop.output, 0))))
    return FunctionTable(lanes.order, zip(assignment_literals(lanes.order), outcomes),
                         names=prop.formula.names)


# --- propagator files ------------------------------------------------------------

def format_propagator(prop: Propagator) -> str:
    header = [
        "inputs " + " ".join(str(v) for v in sorted(prop.inputs)),
        f"output {prop.output}",
    ]
    return format_dimacs(prop.formula, comments=header)


def parse_propagator(text: str) -> Propagator:
    inputs: list[int] | None = None
    output: int | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("c inputs"):
            inputs = [int(t) for t in line.split()[2:]]
        elif line.startswith("c output"):
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"bad output line: {line!r}")
            output = int(fields[2])
    if inputs is None or output is None:
        raise ValueError("propagator file needs 'c inputs' and 'c output' lines")
    return Propagator(parse_dimacs(text), frozenset(inputs), output)
