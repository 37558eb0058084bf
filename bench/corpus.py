"""Seeded input generators for the benchmark workloads.

These generators belong to the benchmark, not to ``unitprop.verify``, so
that a change to the library's own random generators cannot silently change
what the benchmark measures.  Each one is a deterministic function of its
arguments and renders its own text (DIMACS, propagator and circuit files),
so the bytes of a corpus, and its sha256, do not depend on library code.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# table-sweep: one compiled circuit per input count and pass; the gate count
# is fixed per input count so that only the wiring varies with the seed
TABLE_CIRCUITS = ((6, 40), (7, 50), (8, 60))  # (inputs k, and/or gates)

# large-formula: sizes of the formulas a pass touches once each
HORN_VARS, HORN_CLAUSES, HORN_DERIVED, HORN_UNITS = 8000, 20000, 60, 5
CHAIN_VARS = 2000
MIRROR_VARS = (30, 45, 60)
MIRROR_INPUTS = 4


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    """Generator for one pass of one workload; string seeding is stable across runs."""
    return random.Random(f"{workload}/{seed}/{pass_index}")


def sha256_text(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def dimacs_text(clauses: list[tuple[int, ...]], comments: tuple[str, ...] = ()) -> str:
    top = max((abs(l) for c in clauses for l in c), default=0)
    lines = [f"c {text}" for text in comments]
    lines.append(f"p cnf {top} {len(clauses)}")
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def _add_clause(clauses: list, seen: set, lits) -> bool:
    key = frozenset(lits)
    if key in seen or any(-l in key for l in key):
        return False
    seen.add(key)
    clauses.append(tuple(sorted(key, key=lambda l: (abs(l), l < 0))))
    return True


# --- table-sweep ----------------------------------------------------------------

def _indicator_labels(k: int) -> list[str]:
    return [f"x{i}" for i in range(1, k + 1)] + [f"y{i}" for i in range(1, k + 1)]


@dataclass(frozen=True)
class MonotoneCircuit:
    """Monotone and/or circuit over 2k paired indicator labels.

    Labels ``x1..xk`` stand for the inputs asserted true, ``y1..yk`` for the
    inputs asserted false, in the order ``circuit_to_propagator`` expects.
    """

    k: int
    gates: tuple[tuple[str, str, tuple[str, ...]], ...]  # (kind, output, sources)
    output: str

    def text(self) -> str:
        lines = [f"input {label}" for label in _indicator_labels(self.k)]
        lines.extend(" ".join((kind, out) + srcs) for kind, out, srcs in self.gates)
        lines.append(f"output {self.output}")
        return "\n".join(lines) + "\n"


def monotone_circuit(rng: random.Random, k: int, size: int) -> MonotoneCircuit:
    """``size`` and/or gates of fan-in 2-3, each reading earlier labels.

    Sources lean towards recent gates so that most gates feed the output.
    """
    available = _indicator_labels(k)
    gates = []
    for j in range(1, size + 1):
        fan = rng.randint(2, 3)
        window = available[-max(2 * k, 12):] if rng.random() < 0.5 else available
        srcs = tuple(sorted(rng.sample(window, fan)))
        out = f"g{j}"
        gates.append((rng.choice(("and", "or")), out, srcs))
        available.append(out)
    return MonotoneCircuit(k, tuple(gates), gates[-1][1])


def table_corpus(rng: random.Random) -> list[MonotoneCircuit]:
    return [monotone_circuit(rng, k, size) for k, size in TABLE_CIRCUITS]


# --- large-formula ----------------------------------------------------------------

@dataclass(frozen=True)
class CnfInput:
    """Formula with its literal set derived by unit propagation known up front."""

    name: str
    clauses: tuple[tuple[int, ...], ...]
    derived: frozenset[int]

    @property
    def literals(self) -> int:
        return sum(len(c) for c in self.clauses)

    def text(self) -> str:
        return dimacs_text(list(self.clauses))


def horn_formula(rng: random.Random) -> CnfInput:
    """Horn 3-CNF where exactly ``HORN_DERIVED`` literals are derivable.

    A derivation chain of units and (-a | -b | v) clauses fixes the planned
    variables.  Every filler clause negates two variables that are never
    derived, so it keeps two literals that cannot be falsified and never
    fires; propagation therefore derives exactly the planned set.
    """
    ids = list(range(1, HORN_VARS + 1))
    rng.shuffle(ids)
    planned, idle = ids[:HORN_DERIVED], ids[HORN_DERIVED:]
    clauses: list[tuple[int, ...]] = []
    seen: set = set()
    for v in planned[:HORN_UNITS]:
        _add_clause(clauses, seen, (v,))
    for j in range(HORN_UNITS, HORN_DERIVED):
        a, b = rng.sample(planned[:j], 2)
        _add_clause(clauses, seen, (-a, -b, planned[j]))
    while len(clauses) < HORN_CLAUSES:
        u, w = rng.sample(idle, 2)
        _add_clause(clauses, seen, (-u, -w, rng.choice(ids)))
    order = list(range(len(clauses)))
    rng.shuffle(order)
    return CnfInput("horn", tuple(clauses[i] for i in order), frozenset(planned))


def chain_formula(rng: random.Random) -> CnfInput:
    """Implication chain x1 -> x2 -> ... over shuffled ids; every variable is derived."""
    ids = list(range(1, CHAIN_VARS + 1))
    rng.shuffle(ids)
    clauses = [(ids[0],)] + [(-ids[i], ids[i + 1]) for i in range(CHAIN_VARS - 1)]
    rng.shuffle(clauses)
    return CnfInput("chain", tuple(clauses), frozenset(ids))


@dataclass(frozen=True)
class PropagatorInput:
    """Failure-free propagator: definitions of fresh variables from inputs.

    Every clause has exactly one positive head over a non-input variable;
    its other literals are negated earlier heads or input literals of either
    sign.  Heads are never falsified, so propagation never fails and only
    heads and the assigned inputs are ever fixed.
    """

    name: str
    clauses: tuple[tuple[int, ...], ...]
    inputs: tuple[int, ...]
    output: int

    @property
    def variables(self) -> int:
        return len({abs(l) for c in self.clauses for l in c})

    def text(self) -> str:
        header = ("inputs " + " ".join(map(str, self.inputs)), f"output {self.output}")
        return dimacs_text(list(self.clauses), header)

    def formula_text(self) -> str:
        return dimacs_text(list(self.clauses))


def definition_propagator(rng: random.Random, n: int) -> PropagatorInput:
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    inputs, heads = ids[:MIRROR_INPUTS], ids[MIRROR_INPUTS:]
    clauses: list[tuple[int, ...]] = []
    seen: set = set()
    pool = inputs + [-v for v in inputs]
    for j, head in enumerate(heads):
        wanted = rng.randint(1, 2)
        while wanted:
            sources = rng.sample(pool, rng.randint(1, 2))
            if j < MIRROR_INPUTS:
                sources[0] = inputs[j]  # every input occurs in the formula
            if _add_clause(clauses, seen, [-s for s in sources] + [head]):
                wanted -= 1
        pool.append(head)
    _add_clause(clauses, seen, (rng.choice(heads[:-1]),))  # one seeding unit
    return PropagatorInput(f"mirror{n}", tuple(clauses), tuple(sorted(inputs)), heads[-1])


def large_corpus(rng: random.Random) -> tuple[list[CnfInput], list[PropagatorInput]]:
    cnfs = [horn_formula(rng), chain_formula(rng)]
    props = [definition_propagator(rng, n) for n in MIRROR_VARS]
    return cnfs, props
