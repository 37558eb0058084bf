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
from functools import reduce
from itertools import chain, product
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .cnf import (
    CnfFormula,
    Lit,
    PartialAssignment,
    _clashes,
    _propagate,
    as_literals,
    enumeration_order,
    format_dimacs,
    lit_key,
    parse_dimacs,
    propagate_lanes,
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
_DIGITS = {"x": 0, "1": 1, "0": 2}  # enumeration digit of a value: unassigned / true / false


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


def _run(formula: CnfFormula, lits: frozenset[Lit]) -> tuple[bool, dict[Lit, int]]:
    """Failure and derived literals of ``propagate_staged(restrict(formula, lits), early_exit=True)``."""
    rounds = len(formula.variables.union(map(abs, lits))) + 1
    masks, _ = _propagate(formula._clause_set, dict.fromkeys(lits, 1), [1] * rounds, early_exit=True)
    return bool(_clashes(masks)), masks


def eval_filtering(prop: Propagator, assignment) -> Filtering:
    fails, derived = _run(prop.formula, _check_input_scope(prop.inputs, assignment))
    if fails:
        return Filtering.FAIL
    if prop.output in derived:
        return Filtering.TRUE
    if -prop.output in derived:
        return Filtering.FALSE
    return Filtering.NA


def eval_matching(prop: Propagator, assignment) -> Matching:
    lits = _check_input_scope(prop.inputs, assignment)
    fails, derived = _run(prop.formula, lits)
    if fails:
        raise MatchingProtocolError(
            f"propagation failed on input {sorted(lits, key=lit_key)}; "
            "no matching function is computed there")
    return Matching.YES if prop.output in derived else Matching.NO


def eval_nu(nu: NuPropagator, assignment) -> Matching:
    fails, _ = _run(nu.formula, _check_input_scope(nu.inputs, assignment))
    return Matching.YES if fails else Matching.NO


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
    return NuPropagator(prop.inputs, restrict(prop.formula, (-prop.output,)))


def _mirror_with_fail(formula: CnfFormula, inputs: frozenset[int]):
    """Mirror with ``inputs`` wired in, plus a fresh variable read off its clashes."""
    mirrored = reify_injected(formula, inputs & formula.variables)
    fail = _fresh_var(mirrored.formula.variables, inputs)
    clauses = (*mirrored.formula._clause_set, *clash_clauses(mirrored, fail))
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
    linked = CnfFormula((*prop.formula._clause_set, (prop.output, fresh)), names=prop.formula.names)
    false_reader = Propagator(linked, prop.inputs, fresh)
    mirrored = reify_propagator(prop)
    fail_reader = Propagator(mirrored.formula, prop.inputs, mirrored.out_fail)
    return prop, false_reader, fail_reader


def _rename_apart(formula: CnfFormula, keep: frozenset[int], next_id: int):
    """Rename every variable outside ``keep`` to ids from ``next_id`` up; returns bare clauses."""
    mapping: dict[int, int] = {}
    for v in sorted(formula.variables - keep):
        mapping[v] = next_id
        next_id += 1

    def ren(lit: Lit) -> Lit:
        v = mapping.get(abs(lit), abs(lit))
        return v if lit > 0 else -v

    clauses = [frozenset(ren(l) for l in c) for c in formula._clause_set]
    names = {mapping.get(v, v): name for v, name in formula.names.items()
             if v in mapping or v in keep}
    return clauses, names, mapping, next_id


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
    clauses: list[frozenset[Lit]] = []
    names: dict[int, str] = {}
    outs = []
    for part in (true_p, false_p, fail_p):
        mirrored = reify_propagator(part)
        renamed, renamed_names, mapping, next_id = _rename_apart(mirrored.formula, shared, next_id)
        clauses.extend(renamed)
        names.update(renamed_names)
        # each reader reports "my function says yes" by producing its own
        # output variable, so every link reads the mirror's true-signal
        outs.append(mapping[mirrored.out_true])
    out = next_id
    clauses += [frozenset((-outs[0], out)), frozenset((-outs[1], -out)), frozenset((-outs[2],))]
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


def _lane_cells(labels: Sequence[str]) -> Callable[[int], tuple[str, str]]:
    """``cell(i)``: lane ``i``'s (assignment, bits) CSV cells over columns ``labels``, joined from
    each half's product of per-variable tokens: a few concatenations, not a join per column."""
    def half(part):
        cells = [("", "", "")]
        for label in part:  # value, positive indicator bit, negative indicator bit
            cells = [((a and a + ",") + label + "=" + value, p + pos, n + neg)
                     for a, p, n in cells for value, pos, neg in ("x00", "110", "001")]
        return cells

    mid = len(labels) // 2
    high, low, sep = half(labels[:mid]), half(labels[mid:]), "," if mid else ""

    def cell(lane: int) -> tuple[str, str]:
        (a, p, n), (b, q, m) = high[lane // len(low)], low[lane % len(low)]
        return a + sep + b, p + q + n + m
    return cell


_CODES = (*Filtering, *Matching)  # a lane's outcome code is 1 + its place here, 0 a hole
_CODE_OF = {value: code for code, value in enumerate(_CODES, 1)}
_ONES = {value: bytes(48 + (byte == code) for byte in range(256)) for value, code in _CODE_OF.items()}


def _masks_of(codes: bytearray) -> dict[object, int]:
    """One lane mask per outcome of the table's kind, from one outcome code per lane."""
    kinds = {type(_CODES[code - 1]) for code in set(codes) if code} or {Matching}
    if len(kinds) > 1:
        raise ValueError("mixed filtering and matching outcomes in one table")
    return {value: int(codes.translate(_ONES[value])[::-1], 2) for value in kinds.pop()}


class FunctionTable:
    """One lane mask per outcome, all :class:`Filtering` or all :class:`Matching`.

    Lane ``i`` is the ``i``-th assignment of ``variables`` in enumeration
    order (ternary counting, first variable most significant, digits
    unassigned / true / false), as in :class:`~unitprop.cnf.Lanes`; a lane in
    no mask is a hole.  ``rows``, ``items()`` and ``outcome()`` read the masks
    by literal set in enumeration order, built on first read.
    """

    def __init__(self, variables: Sequence[int], rows: Mapping[frozenset, object] | Iterable[tuple],
                 names: Mapping[int, str] | None = None):
        order = tuple(variables)
        if len(enumeration_order(order)) < len(order):  # the guard, before 3^k lanes
            raise ValueError(f"repeated table variable: {order}")
        codes = bytearray(3 ** len(order))
        # a lane is the sum of its literals' digits times their columns' ternary places
        weight = {l: d * 3 ** p for p, var in enumerate(reversed(order)) for l, d in ((var, 1), (-var, 2))}
        for key, value in (rows.items() if isinstance(rows, Mapping) else rows):
            if not isinstance(value, (Filtering, Matching)):
                raise ValueError(f"bad outcome: {value!r}")
            key = frozenset(key)
            if not key <= weight.keys() or len({abs(l) for l in key}) < len(key):
                raise ValueError(f"not an assignment of the table's variables {order}: {sorted(key)}")
            codes[sum(map(weight.__getitem__, key))] = _CODE_OF[value]
        self._set(order, names, _masks_of(codes))

    def _set(self, variables, names, masks: dict[object, int]) -> "FunctionTable":
        self.variables, self.names = tuple(variables), dict(names or {})
        self._masks, self._present, self._rows = masks, reduce(or_, masks.values()), None
        return self

    @classmethod
    def _of_masks(cls, variables, names, masks: dict[object, int]) -> "FunctionTable":
        return cls.__new__(cls)._set(variables, names, masks)

    def _outcomes(self) -> Iterator:
        """Each lane's outcome, None on a hole, lane 0 first."""
        width = 3 ** len(self.variables)
        one_hot = {tuple("1" if u is v else "0" for u in self._masks): v for v in self._masks}
        return map(one_hot.get, zip(*[format(mask, f"0{width}b")[::-1] for mask in self._masks.values()]))

    @property
    def rows(self) -> dict[frozenset, object]:
        if self._rows is None:
            keys = product(*[((), (var,), (-var,)) for var in self.variables])
            self._rows = {frozenset(chain.from_iterable(key)): value
                          for key, value in zip(keys, self._outcomes()) if value is not None}
        return self._rows

    @property
    def codomain(self) -> str:
        return "filtering" if Filtering.NA in self._masks else "matching"

    def outcome(self, assignment) -> object:
        return self.rows[as_literals(assignment)]

    def items(self):
        return self.rows.items()

    def __len__(self) -> int:
        return self._present.bit_count()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.variables == other.variables and self._masks == other._masks  # empty tables are all matching

    def as_matching(self) -> "FunctionTable":
        """Matching view: drop failing rows, read true as yes."""
        masks = self._masks
        if Filtering.NA in masks:
            yes = masks[Filtering.TRUE]
            masks = {Matching.NO: self._present & ~masks[Filtering.FAIL] & ~yes, Matching.YES: yes}
        return self._of_masks(self.variables, self.names, dict(masks))

    def format_csv(self) -> str:
        import csv

        # a label the assignment cell cannot carry back (empty, holding a
        # separator, another variable's id, or repeated): ids for every column
        labels = [self.names.get(v, str(v)) for v in self.variables]
        if len(set(labels)) != len(labels) or not all(
                label and "," not in label and "=" not in label
                and (label == str(v) or not label.isdigit())
                for v, label in zip(self.variables, labels)):
            labels = [str(v) for v in self.variables]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["assignment", "bits", "outcome"])
        cell, text = _lane_cells(labels), {v: str(v) for v in self._masks}
        writer.writerows((*cell(lane), text[value]) for lane, value in enumerate(self._outcomes())
                         if value is not None)
        return buf.getvalue()

    @classmethod
    def parse_csv(cls, text: str) -> "FunctionTable":
        """Read a table; a row that is the next lane's cells is taken without parsing its tokens."""
        import csv

        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if not header or header[0] != "assignment":
            raise ValueError("missing table header")
        columns, lane = None, 0
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"table row needs 3 columns, got {len(row)}: {','.join(row)!r}")
            if columns is None or lane >= len(codes) or (row[0], row[1]) != cell(lane):
                # an empty cell is the one assignment of a table without variables
                tokens = [t.partition("=") for t in row[0].split(",")] if row[0] else []
                row_names = [name for name, _, _ in tokens]
                if columns is None:
                    numeric = {int(name) for name in row_names if name.isdigit()}
                    if 0 in numeric:
                        raise ValueError("table column names variable 0")
                    names, by_name = {}, {}
                    for name in row_names:
                        var = int(name) if name.isdigit() else len(by_name) + 1
                        if not name.isdigit():
                            while var in numeric or var in names:  # taken: the next free id
                                var += 1
                            names[var] = name
                        if name in by_name or var in by_name.values():
                            raise ValueError(f"repeated table column: {name!r}")
                        by_name[name] = var
                    variables, columns = tuple(by_name.values()), list(by_name)
                    cell, codes = _lane_cells(columns), bytearray(3 ** len(enumeration_order(variables)))
                elif row_names != columns:
                    raise ValueError("inconsistent variable order across rows")
                lane = 0  # ternary counting over the columns
                for _, _, value in tokens:
                    digit = _DIGITS.get(value)
                    if digit is None:
                        raise ValueError(f"bad assignment value: {value!r}")
                    lane = 3 * lane + digit
                if row[1] != cell(lane)[1]:
                    raise ValueError(f"bits {row[1]!r} do not match assignment {row[0]!r}")
            outcome = OUTCOMES.get(row[2])
            if outcome is None:
                raise ValueError(f"bad outcome: {row[2]!r}")
            if codes[lane]:
                raise ValueError(f"repeated table row: {row[0]!r}")
            codes[lane] = _CODE_OF[outcome]
            lane += 1
        if columns is None:
            raise ValueError("empty table")
        return cls._of_masks(variables, names, _masks_of(codes))


def tabulate(prop: Propagator) -> FunctionTable:
    """Materialize the filtering function on all 3^|inputs| assignments.

    One bit-parallel propagation pass gives the table's lane masks; each row
    equals :func:`eval_filtering` on its assignment (held against it in the tests).
    """
    lanes = propagate_lanes(prop.formula, prop.inputs)
    true = lanes.masks.get(prop.output, 0) & ~lanes.fail
    false = lanes.masks.get(-prop.output, 0) & ~lanes.fail  # a lane with both fails
    na = ((1 << 3 ** len(lanes.order)) - 1) & ~(lanes.fail | true | false)
    return FunctionTable._of_masks(lanes.order, prop.formula.names, {
        Filtering.FAIL: lanes.fail, Filtering.TRUE: true, Filtering.FALSE: false, Filtering.NA: na})


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
