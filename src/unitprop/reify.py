"""Stage-indexed CNF mirrors.

``reify`` turns a formula into a satisfiable companion whose variables
``(v, stage, sign)`` record, under plain unit resolution, exactly which
literals propagation on the source formula would have fixed by each round.
``reify_injected`` additionally wires selected source variables into the
mirror so that restricting it by a partial assignment drives the
simulation.  ``failed_literal_formula`` builds on that to express the
failed-literal probe as a single propagation run.

A :class:`ReifiedFormula` builds its ``formula`` on first read; ``format_reified``
and circuit extraction read only its emission ledger and index.

Rounds on the mirror are numbered from 0 (the seeding round), rounds on the
source from 1; accessors on :class:`unitprop.cnf.PropagationResult` take the
base explicitly.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple

from .cnf import (
    CnfFormula,
    Lit,
    check_lit,
    dimacs_clause,
    lit_key,
    restrict,
)


class ReifiedVariable(NamedTuple):
    """Mirror variable: source variable, round index and recorded polarity."""

    base: int
    stage: int
    positive: bool

    def label(self, name: str | None = None) -> str:
        sign = "+" if self.positive else "-"
        return f"{name or self.base}_{self.stage}{sign}"


class ClauseRole(NamedTuple):
    """Role tag of an emitted clause: init (rank 0/1), prop/ded (rank i), inject."""

    kind: str
    rank: int | None = None

    def text(self) -> str:
        if self.kind == "init":
            return f"init{self.rank}"
        if self.kind == "inject":
            return "inject"
        return f"{self.kind} {self.rank}"

    @classmethod
    def parse(cls, text: str) -> "ClauseRole":
        if text == "init0":
            return cls("init", 0)
        if text == "init1":
            return cls("init", 1)
        if text == "inject":
            return cls("inject")
        kind, _, rank = text.partition(" ")
        if kind in ("prop", "ded") and rank.isdigit():
            return cls(kind, int(rank))
        raise ValueError(f"bad clause role: {text!r}")


class ReifiedIndex:
    """Bijection between mirror variables and fresh ids above the source ids.

    For n source variables there are exactly ``2 n (n + 2)`` entries: both
    polarities of every variable at every round 0..n+1.  Ids are allocated
    contiguously above the largest source variable id, so a plain formula
    and any of its restrictions (same variable set) share the same index.
    """

    __slots__ = ("base_vars", "n", "offset", "_rank")

    def __init__(self, base_vars: Iterable[int]):
        ordered = tuple(sorted(set(base_vars)))
        self.base_vars = ordered
        self.n = len(ordered)
        self.offset = max(ordered, default=0)
        self._rank = {v: j for j, v in enumerate(ordered)}

    def __len__(self) -> int:
        return 2 * self.n * (self.n + 2)

    def id_of(self, base: int, stage: int, positive: bool) -> int:
        if base not in self._rank:
            raise ValueError(f"unknown source variable {base}")
        if not 0 <= stage <= self.n + 1:
            raise ValueError(f"stage {stage} outside 0..{self.n + 1}")
        return self.offset + self._rank[base] * 2 * (self.n + 2) + 2 * stage + (1 if positive else 2)

    def _round_zero_ids(self) -> dict[Lit, int]:
        """Id of each source literal's mirror at round 0; at round s it is 2 s more."""
        span = 2 * (self.n + 2)
        return {lit: self.offset + rank * span + (1 if lit > 0 else 2)
                for rank, v in enumerate(self.base_vars) for lit in (v, -v)}

    def delta(self, lit: Lit, stage: int) -> ReifiedVariable:
        """Mirror variable recording that ``lit`` holds by ``stage``."""
        check_lit(lit)
        return ReifiedVariable(abs(lit), stage, lit > 0)

    def delta_id(self, lit: Lit, stage: int) -> int:
        rv = self.delta(lit, stage)
        return self.id_of(rv.base, rv.stage, rv.positive)

    def describe(self, ident: int) -> ReifiedVariable | None:
        """Reverse lookup; ``None`` for ids outside the index."""
        span = 2 * (self.n + 2)
        pos = ident - self.offset - 1
        if pos < 0 or pos >= 2 * self.n * (self.n + 2):
            return None
        rank, rest = divmod(pos, span)
        stage, sign = divmod(rest, 2)
        return ReifiedVariable(self.base_vars[rank], stage, sign == 0)

    def ids(self) -> Iterable[int]:
        return range(self.offset + 1, self.offset + 1 + len(self))

    def layout(self) -> Iterator[tuple[int, int, int]]:
        """``(id, base, stage)`` of each positive mirror variable in id order; ``id + 1`` is its negative."""
        ident = self.offset + 1
        for base in self.base_vars:
            for stage in range(self.n + 2):
                yield ident, base, stage
                ident += 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReifiedIndex):
            return NotImplemented
        return self.base_vars == other.base_vars and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.base_vars, self.offset))


class ReifiedFormula:
    """Mirror index, emission ledger and injected variables; the formula on demand.

    ``emissions`` records every clause in definition order together with its
    role; the formula deduplicates, so the ledger is the authority for the
    counting properties.  Given source ``names``, the formula labels every id.
    """

    __slots__ = ("index", "emissions", "injected", "_names", "_formula")

    def __init__(self, index: ReifiedIndex, emissions: Iterable[tuple[ClauseRole, frozenset]],
                 injected: Iterable[int] = (), names: Mapping[int, str] | None = None):
        self.index = index
        self.emissions = tuple((role, frozenset(clause)) for role, clause in emissions)
        self.injected = frozenset(injected)
        self._names = None if names is None else dict(names)
        self._formula: CnfFormula | None = None

    @property
    def formula(self) -> CnfFormula:
        """The emitted clauses as a formula, built on first read and then kept."""
        if self._formula is None:
            names = None if self._names is None else _mirror_names(self._names, self.index)
            self._formula = CnfFormula((clause for _, clause in self.emissions), names=names)
        return self._formula

    @property
    def n(self) -> int:
        return self.index.n

    def count(self, kind: str) -> int:
        return sum(1 for role, _ in self.emissions if role.kind == kind)

    def roles_for(self, clause) -> list[ClauseRole]:
        target = frozenset(clause)
        return [role for role, emitted in self.emissions if emitted == target]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReifiedFormula):
            return NotImplemented
        # the formula is a function of the emissions
        return (self.index == other.index and self.emissions == other.emissions
                and self.injected == other.injected)

    def __repr__(self) -> str:
        return (f"ReifiedFormula({self.n} source vars, {len(self.emissions)} emissions, "
                f"{len(self.injected)} injected)")


def _mirror_names(names: Mapping[int, str], index: ReifiedIndex) -> dict[int, str]:
    labels = dict(names)
    for ident, v, stage in index.layout():
        name = names.get(v) or v
        labels[ident], labels[ident + 1] = f"{name}_{stage}+", f"{name}_{stage}-"
    return labels


def reify(formula: CnfFormula) -> ReifiedFormula:
    """Build the stage-indexed mirror of ``formula``.

    Per unit clause (w): the round-0 seed and its round-1 carrier.  Per round
    2..n+1 and variable: both carry-over clauses.  Per round 2..n+1,
    non-unary clause q and literal w of q: the clause firing w's mirror at
    that round when the other literals were falsified one round earlier.
    Redundant emissions are kept exactly as defined, never pruned.
    """
    return _mirror(formula, frozenset())


def reify_injected(formula: CnfFormula, inject: Iterable[int]) -> ReifiedFormula:
    """Mirror of ``formula`` with the variables of ``inject`` wired in.

    Each injected source variable v gets the two clauses routing a raw
    assignment of v into the round-1 mirror variables, so that restricting
    the result by a partial assignment over ``inject`` drives the simulation
    the same way restricting the source formula would.
    """
    inject_set = frozenset(inject)
    stray = inject_set - formula.variables
    if stray:
        raise ValueError(f"injected variables not in the formula: {sorted(stray)}")
    return _mirror(formula, inject_set)


def _mirror(formula: CnfFormula, inject: frozenset[int]) -> ReifiedFormula:
    # the emissions of reify, then the injection clauses of reify_injected
    index = ReifiedIndex(formula.variables)
    n = index.n
    # the mirror of literal l at round s has id at[l] + 2 s, as in id_of
    at = index._round_zero_ids()
    emissions: list[tuple[ClauseRole, frozenset]] = []

    for clause in formula.clauses:
        if len(clause) == 1:
            (w,) = clause
            seed = at[w]
            emissions.append((ClauseRole("init", 0), frozenset((seed,))))
            emissions.append((ClauseRole("init", 1), frozenset((-seed, seed + 2))))

    for stage in range(2, n + 2):
        role = ClauseRole("prop", stage)
        for v in index.base_vars:
            for lit in (v, -v):
                here = at[lit] + 2 * stage
                emissions.append((role, frozenset((2 - here, here))))

    wide = [sorted(clause, key=lit_key) for clause in formula.clauses if len(clause) >= 2]
    for stage in range(2, n + 2):
        role = ClauseRole("ded", stage)
        shift = 2 * stage
        for lits in wide:
            for w in lits:
                # w's mirror at this round, fired when every other literal's
                # negation was fixed one round earlier
                body = [2 - shift - at[-t] for t in lits if t != w]
                body.append(at[w] + shift)
                emissions.append((role, frozenset(body)))

    for v in sorted(inject):
        emissions.append((ClauseRole("inject"), frozenset((-v, at[v] + 2))))
        emissions.append((ClauseRole("inject"), frozenset((v, at[-v] + 2))))

    return ReifiedFormula(index, emissions, injected=inject, names=formula.names)


def clash_clauses(mirror: ReifiedFormula, head: Lit) -> tuple[frozenset, ...]:
    """Clauses firing ``head`` once some variable's final-round mirror is fixed both ways.

    Propagation on the source fails exactly when that happens, so ``head``
    reads failure off the mirror, which itself never fails.
    """
    index, last = mirror.index, mirror.n + 1
    return tuple(frozenset((-index.id_of(v, last, True), -index.id_of(v, last, False), head))
                 for v in index.base_vars)


def failed_literal_formula(formula: CnfFormula, lit: Lit) -> tuple[CnfFormula, Lit]:
    """Formula expressing the failed-literal probe of ``lit`` as propagation.

    Returns ``(probe, target)``: unit resolution on ``probe`` produces
    ``target`` (the opposite of ``lit``) exactly when unit resolution on the
    source formula conjoined with ``lit`` fails.  The clashing pair shows up
    as some variable's mirror fixed both ways at the final round, which the
    added clauses convert into the opposite literal.
    """
    check_lit(lit)
    if abs(lit) not in formula.variables:
        raise ValueError(f"literal {lit} is not over the formula's variables")
    mirror = reify(restrict(formula, [lit]))
    probe = (*mirror.formula._clause_set, *clash_clauses(mirror, -lit))
    return CnfFormula(probe, names=mirror.formula.names), -lit


# --- serialization ------------------------------------------------------------

def format_reified(reified: ReifiedFormula) -> str:
    """Role-tagged DIMACS: one ``c role`` line ahead of each emitted clause."""
    index, emissions = reified.index, reified.emissions
    lines = [f"c rv {ident + minus} {v} {stage} {'-' if minus else '+'}"
             for ident, v, stage in index.layout() for minus in (0, 1)]
    lits = chain.from_iterable(clause for _, clause in emissions)
    lines.append(f"p cnf {max(chain([index.offset + len(index)], map(abs, lits)))} {len(emissions)}")
    previous = None
    for role, clause in emissions:
        if role != previous:
            previous, role_line = role, f"c role {role.text()}"
        lines += (role_line, dimacs_clause(clause))
    return "\n".join(lines) + "\n"


def parse_reified(text: str) -> ReifiedFormula:
    entries: list[tuple[int, int, int, bool]] = []
    emissions: list[tuple[ClauseRole, frozenset]] = []
    pending_role: ClauseRole | None = None
    pending_lits: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c rv "):
            fields = line.split()
            if len(fields) != 6 or fields[5] not in "+-":
                raise ValueError(f"line {lineno}: bad rv line")
            entries.append((int(fields[2]), int(fields[3]), int(fields[4]), fields[5] == "+"))
            continue
        if line.startswith("c role "):
            pending_role = ClauseRole.parse(line[len("c role "):].strip())
            continue
        if line.startswith("c") or line.startswith("p"):
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                if pending_role is None:
                    raise ValueError(f"line {lineno}: clause without a role tag")
                emissions.append((pending_role, frozenset(pending_lits)))
                pending_role = None
                pending_lits = []
            else:
                pending_lits.append(lit)
    if pending_lits:
        raise ValueError("last clause not terminated by 0")
    index = ReifiedIndex(base for _, base, _, _ in entries)
    for ident, base, stage, positive in entries:
        if index.id_of(base, stage, positive) != ident:
            raise ValueError(f"rv line out of order: id {ident} is not ({base},{stage})")
    injected = set()
    for role, clause in emissions:
        if role.kind == "inject":
            injected.update(abs(l) for l in clause if index.describe(abs(l)) is None)
    return ReifiedFormula(index, emissions, injected=injected)
