"""Clause sets, partial assignments and unit resolution.

Literals are nonzero ints: ``v`` for a variable, ``-v`` for its negation.
Clauses are frozensets of literals, formulas are immutable sets of clauses
over the variable universe induced by their clauses.  No engine depends on
clause order; the canonical order (``clause_key``) is sorted on first read,
by the readers that show it: DIMACS text and the mirror ledger.

``propagate_standard`` is the classic destructive loop (pick a unit clause,
simplify, repeat); it always selects the smallest pending unit literal in
``lit_key`` order, and runs occurrence-indexed, in O(|F| log n) for |F|
literal occurrences over n variables.  Every other run goes through one
round loop on lanes (one bit per assignment, the assignment seeded as
round-1 productions).  Its one-lane case, ``propagate_staged``, records the
synchronous round each literal is first produced at, the base of the mirrors
in :mod:`unitprop.reify`; ``propagate_lanes`` is its all-lanes case.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


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


def clause_key(clause: Clause) -> tuple[int, ...]:
    # the literals as sorted ints 2|l| + (l < 0): the same order as sorting
    # them by lit_key, and the same clause order as comparing those tuples
    return tuple(sorted([(abs(l) << 1) | (l < 0) for l in clause]))


def dimacs_clause(clause: Clause) -> str:
    """A clause as a DIMACS line: its literals in ``lit_key`` order, then 0."""
    # descending, then stably by variable: v before -v, with no Python key function
    return " ".join([*map(str, sorted(sorted(clause, reverse=True), key=abs)), "0"])


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

    The deduplicated clauses are kept as one frozenset, which the engines,
    size, equality and membership read.  ``clauses`` and iteration give the
    canonical order (``clause_key``), sorted on first read and then kept.
    ``names`` maps variable ids to display names; it is presentation
    metadata and does not take part in equality.
    """

    __slots__ = ("_clause_set", "_clauses", "names", "_variables")

    def __init__(self, clauses: Iterable[Iterable[Lit]] = (), names: Mapping[int, str] | None = None):
        unique: set[Clause] = set()
        for lits in clauses:
            # a frozenset can be checked as it is; anything else is checked
            # before deduplication, which would hide a True next to a 1
            if type(lits) is not frozenset:
                lits = tuple(lits)
            for l in lits:
                if type(l) is not int or not l:
                    # check_lit in literal order: raises on the first
                    # non-literal, lets an int subclass through
                    lits = clause_of(lits)
                    break
            unique.add(frozenset(lits))
        object.__setattr__(self, "_clause_set", frozenset(unique))
        object.__setattr__(self, "_clauses", None)
        object.__setattr__(self, "names", dict(names) if names else {})
        object.__setattr__(self, "_variables", frozenset(map(abs, chain.from_iterable(unique))))

    def __setattr__(self, name, value):
        raise AttributeError("CnfFormula is immutable")

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses in canonical order, sorted on first read and then kept."""
        if self._clauses is None:
            object.__setattr__(self, "_clauses", tuple(sorted(self._clause_set, key=clause_key)))
        return self._clauses

    @property
    def variables(self) -> frozenset[int]:
        return self._variables

    def size(self) -> int:
        """Total number of literal occurrences."""
        return sum(map(len, self._clause_set))

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self._clause_set)

    def __contains__(self, clause) -> bool:
        try:
            target = frozenset(clause)
        except TypeError:
            return False  # not a collection of hashable items
        return all(isinstance(l, int) for l in target) and target in self._clause_set  # {1.0} == {1}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self._clause_set == other._clause_set

    def __hash__(self) -> int:
        return hash(self._clause_set)

    def __repr__(self) -> str:
        return f"CnfFormula({len(self._clause_set)} clauses, {len(self._variables)} vars)"


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
    units = ((l,) for l in as_literals(assignment))
    return CnfFormula(chain(formula._clause_set, units), names=formula.names)


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
        object.__setattr__(self, "produced", frozenset().union(*stage_sets))

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
        return frozenset().union(*self.stages[: idx + 1])

    def __repr__(self) -> str:
        tag = "bottom" if self.is_bottom else f"{len(self.produced)} literals"
        return f"PropagationResult({tag}, {len(self.stages)} stages)"


def _occurrences(clauses: Sequence[Clause]) -> dict[Lit, list[int]]:
    """Positions of the clauses each literal occurs in."""
    occurrences: dict[Lit, list[int]] = {}
    for idx, clause in enumerate(clauses):
        for l in clause:
            occurrences.setdefault(l, []).append(idx)
    return occurrences


def propagate_standard(formula: CnfFormula) -> PropagationResult:
    """Destructive unit resolution: select a unit, simplify, repeat.

    Fails (bottom) exactly when the empty clause is present or derived.  The
    argument is not modified.  Each step selects the smallest pending unit
    literal in ``lit_key`` order.  The trace records selected literals in
    order, plus the complement whose clause collapsed when failure is
    derived.

    Simplification is kept implicit: each clause counts its literals whose
    negation is not yet selected, and is a unit at count 1 and empty at
    count 0.  Only the clauses holding the negation of the selected literal
    are touched, and each literal enters the heap of pending units at most
    once, so a run costs O(|F| + n log n), within O(|F| log n).  A clause
    holding a selected literal (a satisfied one, or a tautology once either
    of its clashing literals is selected) keeps that literal, so it is never
    empty and its unit, already queued, is not queued again.
    """
    clauses = tuple(formula._clause_set)
    occurrences = _occurrences(clauses)
    unfalsified = [len(clause) for clause in clauses]
    pending: list[tuple[tuple[int, bool], Lit]] = []  # unit literals by lit_key
    queued: set[Lit] = set()  # every literal ever pending, so each is pushed once
    for clause in clauses:
        if not clause:
            return PropagationResult((), is_bottom=True)
        if len(clause) == 1:
            (w,) = clause
            queued.add(w)
            heappush(pending, (lit_key(w), w))
    selected: set[Lit] = set()
    trail: list[frozenset[Lit]] = []
    while pending:
        _, lit = heappop(pending)
        selected.add(lit)
        trail.append(frozenset((lit,)))
        for idx in occurrences.get(-lit, ()):
            unfalsified[idx] -= 1
            if unfalsified[idx] == 1:
                w = next(l for l in clauses[idx] if -l not in selected)
                if w not in queued:
                    queued.add(w)
                    heappush(pending, (lit_key(w), w))
            elif not unfalsified[idx]:
                # the collapsed clause was the opposite unit, record the pair
                # (the opposite was never selected: after it, lit could not
                # have become a unit)
                trail.append(frozenset((-lit,)))
                return PropagationResult(trail, is_bottom=True)
    return PropagationResult(trail, is_bottom=False)


def propagation_stage(formula: CnfFormula, assigned: Iterable[Lit]) -> frozenset[Lit]:
    """One synchronous propagation round.

    Returns every literal ``w`` not in ``assigned`` for which some clause
    contains ``w`` with the negations of all its other literals already in
    ``assigned``; unit clauses qualify unconditionally.  Pure: neither
    argument is touched.
    """
    have = frozenset(assigned)
    out: set[Lit] = set()
    for clause in formula._clause_set:
        for w in clause:
            if w in have or w in out:
                continue
            if all(-t in have for t in clause if t != w):
                out.add(w)
    return frozenset(out)


def _propagate(clauses: Iterable[Clause], seeds: Mapping[Lit, int], live: Sequence[int],
               early_exit: bool = False) -> tuple[dict[Lit, int], list[frozenset[Lit]]]:
    """Synchronous unit-resolution rounds on lanes: the one propagation core.

    Bit ``i`` of a lane mask is lane ``i``; round ``r`` runs on the lanes of
    ``live[r - 1]``, which never gains one.  ``seeds`` maps a literal to the
    lanes it is produced on at round 1, like a unit clause.  A clause fires
    ``w`` on the lanes where its other literals are all falsified and ``w``
    is unset; it waits until all but one are falsified on some lane, and
    only clauses of a grown literal's negation are revisited.  Returns the
    lanes of each set literal and the literals grown per round, until a
    round grows nothing, ``live`` runs out or, with ``early_exit``, a
    literal and its negation meet on a lane.  Clause order does not matter.
    """
    clauses = tuple(clauses)
    occurrences = _occurrences(clauses)
    falsified = [0] * len(clauses)  # literals of the clause whose negation is set on some lane
    masks: dict[Lit, int] = {}
    hot: Iterable[int] = range(len(clauses))
    grown = dict(seeds)
    stages: list[frozenset[Lit]] = []
    for full in live:
        for idx in hot:
            clause = clauses[idx]
            count = falsified[idx]
            if count < len(clause) - 1:
                continue
            for w in clause:
                if count < len(clause) and -w in masks:
                    continue  # the literal falsified nowhere is another one
                lanes = full & ~masks.get(w, 0)
                for t in clause:
                    if t != w:
                        lanes &= masks[-t]
                if lanes:
                    grown[w] = grown.get(w, 0) | lanes
        stages.append(frozenset(grown))
        if not grown:
            break
        hot = set()
        for w, lanes in grown.items():
            touched = occurrences.get(-w, ())
            if w not in masks:
                for idx in touched:
                    falsified[idx] += 1
            masks[w] = masks.get(w, 0) | lanes
            hot.update(touched)
        if early_exit and any(masks[w] & masks.get(-w, 0) for w in grown):
            break
        grown = {}
    return masks, stages


def _clashes(masks: Mapping[Lit, int]) -> int:
    """The lanes on which some literal and its negation are both set."""
    fail = 0
    for lit, mask in masks.items():
        fail |= mask & masks.get(-lit, 0)
    return fail


def propagate_staged(formula: CnfFormula, early_exit: bool = False) -> PropagationResult:
    """Stage-synchronous unit resolution over exactly n+1 rounds.

    The round loop on one lane, unseeded; n is the number of variables.
    It keeps going past a complementary pair and fails when one is set at
    the end.  With ``early_exit`` it stops at a fixpoint or the first pair:
    same outcome, without the trailing rounds.  Each stage is what iterating
    :func:`propagation_stage` yields there.
    """
    rounds = len(formula.variables) + 1
    masks, stages = _propagate(formula._clause_set, {}, [1] * rounds, early_exit)
    if not early_exit:
        stages += [frozenset()] * (rounds - len(stages))  # rounds past the fixpoint
    return PropagationResult(stages, is_bottom=bool(_clashes(masks)))


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

    The round loop on 3^k lanes, each lane's assignment ``a`` seeded at
    round 1, for the n+1 rounds of ``propagate_staged(restrict(formula, a))``,
    n = ``|formula.variables ∪ vars(a)|``.  Lane by lane the same as that
    run, variables outside the formula and failing lanes included: the lane
    fails exactly when that run does, and derives exactly what it produces.
    Over ``ENUMERATION_LIMIT`` variables are refused first.
    """
    order = enumeration_order(variables)
    seeds = indicator_lanes(order)
    full = (1 << 3 ** len(order)) - 1
    at_least = [full]  # at_least[j]: the lanes assigning j or more variables outside the formula
    for var in set(order) - formula.variables:
        assigned = seeds[var] | seeds[-var]
        at_least = [full] + [more | (fewer & assigned) for fewer, more in zip(at_least, at_least[1:] + [0])]
    masks, _ = _propagate(formula._clause_set, seeds, [full] * len(formula.variables) + at_least)
    return Lanes(order, masks, _clashes(masks))


# --- DIMACS ----------------------------------------------------------------

def format_dimacs(formula: CnfFormula, comments: Iterable[str] = ()) -> str:
    """Serialize to DIMACS; variable names go into ``c var`` comment lines."""
    lines = [f"c {text}".rstrip() for text in comments]
    for var in sorted(formula.names):
        lines.append(f"c var {var} {formula.names[var]}")
    max_var = max(formula.variables, default=0)
    lines.append(f"p cnf {max_var} {len(formula)}")
    lines.extend(map(dimacs_clause, formula.clauses))
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
