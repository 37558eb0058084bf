"""Clause sets, partial assignments and unit resolution.

Literals are nonzero ints: ``v`` for a variable, ``-v`` for its negation.
Clauses are frozensets of literals, formulas are immutable sets of clauses
over the variable universe induced by their clauses.

Two unit-resolution procedures are provided.  ``propagate_standard`` is the
classic destructive loop (pick a unit clause, simplify, repeat).
``propagate_staged`` derives the same outcome in synchronous rounds and
records which literals were first produced at which round, which is what the
stage-indexed constructions in :mod:`unitprop.reify` are built on.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterable, Iterator, Mapping, NamedTuple


Lit = int
Clause = frozenset

# largest variable count enumerated exhaustively (3^12 = 531441 assignments)
ENUMERATION_LIMIT = 12


def neg(lit: Lit) -> Lit:
    """Negation of a literal; an involution."""
    return -lit


def lit_var(lit: Lit) -> int:
    return abs(lit)


def check_lit(lit) -> Lit:
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise ValueError(f"not a literal: {lit!r}")
    return lit


def lit_key(lit: Lit) -> tuple[int, bool]:
    # variable-major order, positive literal before negative
    return (abs(lit), lit < 0)


def clause_of(lits: Iterable[Lit]) -> Clause:
    return frozenset(check_lit(l) for l in lits)


def clause_key(clause: Clause) -> tuple:
    return tuple(sorted((lit_key(l) for l in clause)))


def render_lit(lit: Lit, names: Mapping[int, str] | None = None) -> str:
    name = (names or {}).get(abs(lit), str(abs(lit)))
    return name if lit > 0 else "-" + name


def resolve_variable(token: str, names: Mapping[int, str] | None = None) -> int:
    """Variable id of a display name from ``names``, or of a decimal id."""
    by_name = {name: v for v, name in (names or {}).items()}
    if token in by_name:
        return by_name[token]
    if token.isdigit():
        return int(token)
    raise ValueError(f"unknown variable: {token!r}")


class CnfFormula:
    """Immutable CNF formula: a set of clauses plus an optional symbol table.

    Clauses are deduplicated and kept in a canonical order so that all
    serializations and derived constructions are reproducible.  ``names``
    maps variable ids to display names; it is presentation metadata and does
    not take part in equality.
    """

    __slots__ = ("clauses", "names", "_variables")

    def __init__(self, clauses: Iterable[Iterable[Lit]] = (), names: Mapping[int, str] | None = None):
        unique = {clause_of(c) for c in clauses}
        object.__setattr__(self, "clauses", tuple(sorted(unique, key=clause_key)))
        object.__setattr__(self, "names", dict(names) if names else {})
        object.__setattr__(self, "_variables", frozenset(abs(l) for c in self.clauses for l in c))

    def __setattr__(self, name, value):
        raise AttributeError("CnfFormula is immutable")

    @property
    def variables(self) -> frozenset[int]:
        return self._variables

    def size(self) -> int:
        """Total number of literal occurrences."""
        return sum(len(c) for c in self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __contains__(self, clause) -> bool:
        return frozenset(clause) in set(self.clauses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash(self.clauses)

    def __repr__(self) -> str:
        return f"CnfFormula({len(self.clauses)} clauses, {len(self._variables)} vars)"


class PartialAssignment:
    """Consistent set of literals over an explicit variable universe."""

    __slots__ = ("literals", "universe")

    def __init__(self, literals: Iterable[Lit] = (), universe: Iterable[int] | None = None):
        lits = frozenset(check_lit(l) for l in literals)
        for l in lits:
            if -l in lits:
                raise ValueError(f"inconsistent assignment: {l} and {-l}")
        mentioned = frozenset(abs(l) for l in lits)
        uni = mentioned
        if universe is not None:
            uni = frozenset(universe)
            missing = mentioned - uni
            if missing:
                raise ValueError(f"literals outside universe: {sorted(missing)}")
        object.__setattr__(self, "literals", lits)
        object.__setattr__(self, "universe", uni)

    def __setattr__(self, name, value):
        raise AttributeError("PartialAssignment is immutable")

    def __iter__(self) -> Iterator[Lit]:
        return iter(sorted(self.literals, key=lit_key))

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, lit: Lit) -> bool:
        return lit in self.literals

    def __le__(self, other: "PartialAssignment") -> bool:
        return self.literals <= other.literals

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialAssignment):
            return NotImplemented
        return self.literals == other.literals and self.universe == other.universe

    def __hash__(self) -> int:
        return hash((self.literals, self.universe))

    def render(self, names: Mapping[int, str] | None = None) -> str:
        return "{" + ",".join(render_lit(l, names) for l in self) + "}"

    def __repr__(self) -> str:
        return f"PartialAssignment({self.render()})"


def as_literals(assignment) -> frozenset[Lit]:
    if isinstance(assignment, PartialAssignment):
        return assignment.literals
    return frozenset(check_lit(l) for l in assignment)


def enumeration_order(variables: Iterable[int]) -> tuple[int, ...]:
    """Sorted variables of an exhaustive enumeration.

    The one place ``ENUMERATION_LIMIT`` is checked: more variables than that
    are refused here, before anything is enumerated or allocated.
    """
    order = tuple(sorted(set(variables)))
    if len(order) > ENUMERATION_LIMIT:
        raise ValueError(f"refusing to enumerate over {len(order)} variables (> {ENUMERATION_LIMIT})")
    return order


def assignment_literals(variables: Iterable[int]) -> Iterator[frozenset[Lit]]:
    """Literal sets of ``iter_assignments(variables)``, in the same order.

    The enumeration itself, without building a validated
    :class:`PartialAssignment` per row.
    """
    order = enumeration_order(variables)
    for choice in product(*[((), (var,), (-var,)) for var in order]):
        yield frozenset(chain.from_iterable(choice))


def iter_assignments(variables: Iterable[int]) -> Iterator[PartialAssignment]:
    """All consistent partial assignments over ``variables``.

    Deterministic order: ternary counting, first variable most significant,
    digits meaning unassigned / true / false.  3**n assignments total; more
    than ``ENUMERATION_LIMIT`` variables are refused.
    """
    order = enumeration_order(variables)
    for lits in assignment_literals(order):
        yield PartialAssignment(lits, universe=order)


def restrict(formula: CnfFormula, assignment) -> CnfFormula:
    """Conjoin one unit clause per literal of ``assignment``.

    The assignment may mention variables the formula does not; they join the
    universe through their unit clauses.
    """
    lits = as_literals(assignment)
    return CnfFormula(formula.clauses + tuple(frozenset((l,)) for l in lits), names=formula.names)


class PropagationResult:
    """Outcome of unit resolution plus the per-round production trace.

    ``stages[i]`` holds the literals first produced at round ``i`` of the
    staged procedure (rounds may be numbered from 0 or 1 by the caller; see
    :meth:`stage`).  For the standard procedure the trace is the selection
    trail, one singleton per selected literal.  Stages are pairwise disjoint.

    ``produced`` is the union of all stages.  ``outcome`` is ``None`` when
    propagation failed (a complementary pair / the empty clause), otherwise
    it equals ``produced``.
    """

    __slots__ = ("stages", "is_bottom", "produced")

    def __init__(self, stages: Iterable[Iterable[Lit]], is_bottom: bool):
        stage_sets = tuple(frozenset(s) for s in stages)
        object.__setattr__(self, "stages", stage_sets)
        object.__setattr__(self, "is_bottom", bool(is_bottom))
        out: set[Lit] = set()
        for s in stage_sets:
            out |= s
        object.__setattr__(self, "produced", frozenset(out))

    def __setattr__(self, name, value):
        raise AttributeError("PropagationResult is immutable")

    @property
    def outcome(self) -> frozenset[Lit] | None:
        return None if self.is_bottom else self.produced

    def stage(self, k: int, first: int = 1) -> frozenset[Lit]:
        """Literals produced at stage ``k``, with stages numbered from ``first``.

        Stages beyond the recorded trace are empty (with early exit the trace
        stops at the fixpoint; all later rounds produce nothing).
        """
        idx = k - first
        if idx < 0:
            raise ValueError(f"stage {k} precedes first stage {first}")
        if idx >= len(self.stages):
            return frozenset()
        return self.stages[idx]

    def through(self, k: int, first: int = 1) -> frozenset[Lit]:
        """Union of the stages numbered ``first..k`` (cumulative production)."""
        idx = k - first
        if idx < 0:
            raise ValueError(f"stage {k} precedes first stage {first}")
        out: set[Lit] = set()
        for s in self.stages[: idx + 1]:
            out |= s
        return frozenset(out)

    def __repr__(self) -> str:
        tag = "bottom" if self.is_bottom else f"{len(self.produced)} literals"
        return f"PropagationResult({tag}, {len(self.stages)} stages)"


def propagate_standard(formula: CnfFormula) -> PropagationResult:
    """Destructive unit resolution: select a unit, simplify, repeat.

    Fails (bottom) exactly when the empty clause is present or derived.  The
    argument is not modified; simplification happens on a working copy.  The
    trace records selected literals in order, plus the complement whose
    clause collapsed when failure is derived.
    """
    clauses = set(formula.clauses)
    produced: set[Lit] = set()
    trail: list[frozenset[Lit]] = []
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


def propagation_stage(formula: CnfFormula, assigned: Iterable[Lit]) -> frozenset[Lit]:
    """One synchronous propagation round.

    Returns every literal ``w`` not in ``assigned`` for which some clause
    contains ``w`` with the negations of all its other literals already in
    ``assigned``; unit clauses qualify unconditionally.  Pure: neither
    argument is touched.
    """
    have = frozenset(assigned)
    out: set[Lit] = set()
    for clause in formula.clauses:
        for w in clause:
            if w in have or w in out:
                continue
            if all(-t in have for t in clause if t != w):
                out.add(w)
    return frozenset(out)


def _occurrences(clauses: tuple[Clause, ...]) -> dict[Lit, list[int]]:
    """Positions of the clauses each literal occurs in."""
    occurrences: dict[Lit, list[int]] = {}
    for idx, clause in enumerate(clauses):
        for l in clause:
            occurrences.setdefault(l, []).append(idx)
    return occurrences


def propagate_staged(formula: CnfFormula, early_exit: bool = False) -> PropagationResult:
    """Stage-synchronous unit resolution over exactly n+1 rounds.

    n is the number of variables.  Unlike the destructive procedure this one
    keeps going past a complementary pair; failure is decided at the end by
    scanning the accumulated set.  With ``early_exit`` the round loop stops
    at a fixpoint or as soon as a complementary pair appears; the outcome is
    unchanged, only trailing rounds are omitted from the trace.

    The rounds are computed with per-clause counters instead of rescanning
    the whole formula, which produces the exact same stage sets as iterating
    :func:`propagation_stage` (checked differentially in the test suite).
    """
    clauses = formula.clauses
    rounds = len(formula.variables) + 1
    occurrences = _occurrences(clauses)
    falsified = [0] * len(clauses)  # literals of the clause whose negation is assigned
    assigned: set[Lit] = set()
    hot = set(range(len(clauses)))
    stages: list[frozenset[Lit]] = []
    for _ in range(rounds):
        fired: set[Lit] = set()
        for idx in hot:
            clause = clauses[idx]
            count = falsified[idx]
            if count >= len(clause) - 1:
                for w in clause:
                    if w not in assigned and (count == len(clause) or -w not in assigned):
                        fired.add(w)
        stage = frozenset(fired)
        stages.append(stage)
        hot = set()
        for w in stage:
            assigned.add(w)
            for idx in occurrences.get(-w, ()):
                falsified[idx] += 1
                hot.add(idx)
        if early_exit:
            if not stage or any(-w in assigned for w in stage):
                break
    bottom = any(-l in assigned for l in assigned)
    return PropagationResult(stages, is_bottom=bottom)


# --- all assignments at once ------------------------------------------------

class Lanes(NamedTuple):
    """Unit propagation on every assignment of ``order`` at once.

    Lane ``i`` (bit ``i`` of each mask) is the ``i``-th assignment of
    ``iter_assignments(order)``.  ``masks[l]`` has a lane set when
    propagation under that assignment derives ``l``; a literal without an
    entry is derived nowhere.  ``fail`` has a lane set when propagation
    under that assignment fails.
    """

    order: tuple[int, ...]
    masks: dict[Lit, int]
    fail: int

    def bits(self, mask: int) -> str:
        """``mask`` as one ``0``/``1`` character per lane, lane 0 first."""
        # one string conversion: reading lane by lane with shifts is quadratic
        return format(mask, f"0{3 ** len(self.order)}b")[::-1]


def indicator_lanes(order: tuple[int, ...]) -> dict[Lit, int]:
    """Lane mask of each literal over ``order``: the lanes whose assignment contains it.

    These are the paired indicator bits of every assignment, one lane each,
    in the lane numbering of :class:`Lanes`.
    """
    width = 3 ** len(order)
    full = (1 << width) - 1
    masks: dict[Lit, int] = {}
    for pos, var in enumerate(order):
        # the digit of this variable is constant on runs of `stride` lanes
        # and cycles unassigned / true / false with period 3 * stride
        stride = 3 ** (len(order) - 1 - pos)
        run = (1 << stride) - 1
        repeat = full // ((1 << 3 * stride) - 1)
        masks[var] = (run << stride) * repeat
        masks[-var] = (run << 2 * stride) * repeat
    return masks


def propagate_lanes(formula: CnfFormula, variables: Iterable[int]) -> Lanes:
    """Unit propagation of ``formula`` under all 3^k assignments of ``variables``.

    Lane by lane the same as ``propagate_staged(restrict(formula, a))`` for
    the lane's assignment ``a``: the lane fails exactly when that run does,
    and otherwise derives exactly the literals it produces.  The
    assignment's literals seed the masks, where ``restrict``'s unit clauses
    would fire; a clause fires ``w`` on the lanes where every other literal
    of it is falsified; after a change only the clauses holding the
    negation of a grown literal are revisited.  Running to the fixpoint
    instead of n+1 rounds keeps the failing lanes: until a lane clashes,
    each productive round fixes a new variable, so a clash shows within
    n+1 rounds.  The empty clause fires nothing, as in the staged engine.
    Variables outside the formula still take part.  More than
    ``ENUMERATION_LIMIT`` variables are refused before any mask is built.
    """
    order = enumeration_order(variables)
    masks = indicator_lanes(order)
    full = (1 << 3 ** len(order)) - 1
    clauses = formula.clauses
    occurrences = _occurrences(clauses)
    hot = set(range(len(clauses)))
    while hot:
        grown: set[Lit] = set()
        for idx in hot:
            clause = clauses[idx]
            for w in clause:
                lanes = full
                for t in clause:
                    if t != w:
                        lanes &= masks.get(-t, 0)
                        if not lanes:
                            break
                have = masks.get(w, 0)
                if lanes & ~have:
                    masks[w] = have | lanes
                    grown.add(w)
        hot = {idx for w in grown for idx in occurrences.get(-w, ())}
    fail = 0
    for lit, mask in masks.items():
        if lit > 0:
            fail |= mask & masks.get(-lit, 0)
    return Lanes(order, masks, fail)


# --- DIMACS ----------------------------------------------------------------

def format_dimacs(formula: CnfFormula, comments: Iterable[str] = ()) -> str:
    """Serialize to DIMACS; variable names go into ``c var`` comment lines."""
    lines = [f"c {text}".rstrip() for text in comments]
    for var in sorted(formula.names):
        lines.append(f"c var {var} {formula.names[var]}")
    max_var = max(formula.variables, default=0)
    lines.append(f"p cnf {max_var} {len(formula.clauses)}")
    for clause in formula.clauses:
        lits = sorted(clause, key=lit_key)
        lines.append(" ".join(str(l) for l in lits + [0]))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS text; clauses may span lines, ``c var`` comments are honored.

    A line that is exactly ``%`` ends the clause section, as in the SATLIB
    benchmark files, which follow it with a stray ``0``.
    """
    names: dict[int, str] = {}
    declared = None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "%":
            break
        if line.startswith("c"):
            fields = line.split()
            if len(fields) >= 4 and fields[1] == "var":
                try:
                    names[int(fields[2])] = fields[3]
                except ValueError:
                    raise ValueError(f"line {lineno}: bad var comment: {line!r}")
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: bad header: {line!r}")
            try:
                declared = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ValueError(f"line {lineno}: bad header counts: {line!r}")
            continue
        if declared is None:
            raise ValueError(f"line {lineno}: clause before header")
        tokens.extend(line.split())
    if declared is None:
        raise ValueError("missing 'p cnf' header")
    clauses: list[list[Lit]] = []
    current: list[Lit] = []
    for token in tokens:
        try:
            lit = int(token)
        except ValueError:
            raise ValueError(f"non-integer token {token!r}")
        if lit == 0:
            clauses.append(current)
            current = []
        else:
            current.append(lit)
    if current:
        raise ValueError("last clause not terminated by 0")
    nvars, nclauses = declared
    if len(clauses) != nclauses:
        raise ValueError(f"header declares {nclauses} clauses, found {len(clauses)}")
    for c in clauses:
        for lit in c:
            if abs(lit) > nvars:
                raise ValueError(f"literal {lit} exceeds declared variable count {nvars}")
    return CnfFormula(clauses, names=names)
