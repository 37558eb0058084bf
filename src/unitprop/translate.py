"""Constructive translations between monotone circuits and propagators.

``circuit_to_propagator``: each and/tie gate becomes one clause firing the
gate's fresh output variable, each or gate one binary clause per input; the
paired input labels stand for the positive and negative indicator bits of
the input variables, so the propagator matches exactly where the circuit
evaluates to 1 on the assignment's bit representation.

``extract_circuit``: the propagator's formula is mirrored with its inputs
wired in, and the mirror's rounds are replayed as circuit layers.  Nodes
that collapse to a constant are kept in the always-0 / always-1 ledgers
instead of the circuit; everything else becomes tie/and gates, with an or
gate joining alternatives when several clauses can fire the same node.
The replay rests on the mirror's layout: the head of every emitted clause
is its largest literal, and a literal is a mirror literal exactly when its
variable lies above the source ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .cnf import CnfFormula, Lit
from .circuit import Circuit, Gate, validate_monotone
from .propagator import Propagator
from .reify import ReifiedFormula, reify_injected

_SAFE_LABEL = re.compile(r"^[^\s#~][^\s#]*$")
_NODE_LABEL = re.compile(r"_\d+[+-](_alt\d+)?$")


def _safe_names(variables, names: Mapping[int, str] | None) -> dict[int, str]:
    # extraction labels nodes <name>_<round><sign>[_alt<k>]; a name of that
    # shape could collide with another variable's node, so all fall back to ids
    candidate = {v: (names or {}).get(v, str(v)) for v in variables}
    values = list(candidate.values())
    if len(set(values)) != len(values) or not all(
            _SAFE_LABEL.match(n) and not _NODE_LABEL.search(n) for n in values):
        return {v: str(v) for v in variables}
    return candidate


# --- circuit -> propagator -------------------------------------------------------

def circuit_to_propagator(circ: Circuit, variables: Sequence[int] | None = None,
                          names: Mapping[int, str] | None = None) -> Propagator:
    """Compile a monotone circuit over paired indicator inputs into a propagator.

    The 2n input labels stand, in order, for the n input variables asserted
    positively and then negatively.  Gate outputs get fresh variables (the
    circuit output gets the final fresh one, the propagator's output); a
    gateless circuit degenerates to reading one indicator directly.
    """
    if not validate_monotone(circ):
        raise ValueError("circuit contains not-gates; only monotone circuits compile")
    if len(circ.inputs) % 2:
        raise ValueError("expected an even number of inputs (positive/negative pairs)")
    n = len(circ.inputs) // 2
    if variables is None:
        variables = tuple(range(1, n + 1))
    variables = tuple(variables)
    if len(variables) != n:
        raise ValueError(f"need {n} variables for {2 * n} input labels, got {len(variables)}")
    if len(set(variables)) != len(variables) or any(v < 1 for v in variables):
        raise ValueError("variables must be distinct positive ints")

    literal_of: dict[str, Lit] = {}
    var_names = dict(names or {})
    for i, label in enumerate(circ.inputs):
        if i < n:
            literal_of[label] = variables[i]
            var_names.setdefault(variables[i], label)
        else:
            literal_of[label] = -variables[i - n]

    next_var = max(variables, default=0) + 1
    clauses: list[frozenset] = []
    # an input-label output is read directly when positive; when negative,
    # the first fresh variable, ahead of the gates, copies the indicator
    output_var = literal_of.get(circ.output)
    if output_var is not None and output_var < 0:
        clauses.append(frozenset((-output_var, next_var)))
        output_var = next_var
        var_names.setdefault(next_var, "s")
        next_var += 1
    # every gate is compiled, dead ones too, so the formula mirrors the
    # circuit; an output gate sorts last and takes the final fresh variable
    for g in sorted(circ.topological, key=lambda g: g.output == circ.output):
        literal_of[g.output] = next_var
        var_names.setdefault(next_var, "s" if g.output == circ.output else g.output)
        next_var += 1
    for g in circ.topological:
        clauses.extend(_gate_clauses(g, literal_of))
    if output_var is None:
        output_var = literal_of[circ.output]
    return Propagator(CnfFormula(clauses, names=var_names), frozenset(variables), output_var)


def _gate_clauses(g: Gate, literal_of: Mapping[str, Lit]) -> list[frozenset]:
    head = literal_of[g.output]
    if g.kind == "and":
        return [frozenset({-literal_of[ref] for ref in g.inputs} | {head})]
    if g.kind == "or":
        return [frozenset((-literal_of[ref], head)) for ref in g.inputs]
    if g.kind == "tie":
        return [frozenset((-literal_of[g.inputs[0]], head))]
    if g.kind == "const1":
        return [frozenset((head,))]
    return []  # const0: the head can never be produced


# --- propagator -> circuit -------------------------------------------------------

@dataclass
class CircuitExtraction:
    """Extracted circuit plus the construction ledger.

    ``layers[i]`` lists the gates produced while replaying round ``i + 1``;
    ``always_false`` / ``always_true`` are the final constant-node ledgers
    (label sets), with ``initial_*`` their state before the first layer.
    """

    circuit: Circuit
    reified: ReifiedFormula
    initial_always_false: frozenset[str]
    initial_always_true: frozenset[str]
    always_false: frozenset[str]
    always_true: frozenset[str]
    layers: tuple[tuple[Gate, ...], ...]
    provenance: dict[str, str]


def extract_circuit(prop: Propagator) -> CircuitExtraction:
    # inputs or output outside the formula are legitimate (the circuit
    # compiler's degenerate cases produce them); they are wired straight
    # through or collapse to a constant below
    mirrored = reify_injected(prop.formula, prop.inputs & prop.formula.variables)
    index = mirrored.index
    n, offset = index.n, index.offset
    safe = _safe_names(set(index.base_vars) | prop.inputs | {prop.output}, prop.formula.names)
    ordered_inputs = sorted(prop.inputs)
    input_nodes: dict[Lit, str] = {}
    for v in ordered_inputs:
        input_nodes[v] = safe[v]
        input_nodes[-v] = "~" + safe[v]
    input_labels = [input_nodes[v] for v in ordered_inputs] + [input_nodes[-v] for v in ordered_inputs]

    labels: dict[int, str] = {}

    def node_label(ident: int) -> str:
        if ident not in labels:
            rv = index.describe(ident)
            labels[ident] = rv.label(safe[rv.base])
        return labels[ident]

    # the emissions firing each mirror id, in ledger order: a clause's head
    # is its largest literal, since body literals are negative and an
    # injection clause's source literal lies below every mirror id; so at
    # round 1 the init1 clause precedes the injection clauses, and at later
    # rounds the prop carry clause precedes the ded clauses
    heads: dict[int, list[frozenset]] = {}
    for _, clause in mirrored.emissions:
        heads.setdefault(max(clause), []).append(clause)

    # mirror id -> True (fixed on every run), False (never fixed) or its gate label
    status: dict[int, bool | str] = {}
    for v in index.base_vars:
        for positive in (True, False):
            ident = index.id_of(v, 0, positive)
            if ident in heads:  # seeded by a unit clause
                status[ident] = True
            elif v not in prop.inputs:
                status[ident] = False
            # stage-0 nodes of injected variables without a seeding unit are
            # never referenced by any later clause, so they need no entry

    def ledger(which: bool) -> frozenset[str]:
        return frozenset(node_label(i) for i, st in status.items() if st is which)

    initial_false, initial_true = ledger(False), ledger(True)

    gates: list[Gate] = []
    layers: list[tuple[Gate, ...]] = []
    provenance: dict[str, str] = {}
    for stage in range(1, n + 2):
        layer_gates: list[Gate] = []
        for v in index.base_vars:
            for positive in (True, False):
                head = index.id_of(v, stage, positive)
                fireable: list[list[str]] = []
                for clause in heads.get(head, ()):
                    sources: list[str] = []
                    for lit in clause:
                        if lit == head:
                            continue
                        # node whose value 1 means this body literal is
                        # falsified by the run; mirror ids lie above the offset
                        node = status.get(-lit) if -lit > offset else input_nodes[-lit]
                        if node is None:
                            raise RuntimeError(f"mirror variable {-lit} referenced before definition")
                        if node is False:
                            break  # never falsified: the clause never fires
                        if node is not True:  # always falsified: the literal falls away
                            sources.append(node)
                    else:
                        fireable.append(sources)
                        if not sources:
                            break  # fires on every run
                if not fireable or [] in fireable:  # never fires, or fires on every run
                    status[head] = bool(fireable)
                    continue
                label = status[head] = node_label(head)
                if len(fireable) == 1:
                    new, provenance[label] = _connect(fireable[0], label)
                    layer_gates.append(new)
                else:
                    alts = []
                    for k, sources in enumerate(fireable, start=1):
                        alt = f"{label}_alt{k}"
                        new, provenance[alt] = _connect(sources, alt)
                        layer_gates.append(new)
                        alts.append(alt)
                    layer_gates.append(Gate("or", label, tuple(alts)))
                    provenance[label] = f"{label} <- any of {', '.join(alts)}"
        gates.extend(layer_gates)
        layers.append(tuple(layer_gates))

    if prop.output in prop.formula.variables:
        out_id = index.id_of(prop.output, n + 1, True)
        output, label = status[out_id], node_label(out_id)
    elif prop.output in prop.inputs:
        # the output never occurs in the formula: only its own input unit
        # clause can produce it
        output = input_nodes[prop.output]
    else:
        output, label = False, f"{safe[prop.output]}_{n + 1}+"
    if isinstance(output, bool):
        gates.append(Gate("const1" if output else "const0", label, ()))
        provenance[label] = f"{label} collapsed to a constant"
        output = label

    return CircuitExtraction(
        circuit=Circuit(input_labels, gates, output),
        reified=mirrored,
        initial_always_false=initial_false,
        initial_always_true=initial_true,
        always_false=ledger(False),
        always_true=ledger(True),
        layers=tuple(layers),
        provenance=provenance,
    )


def _connect(sources: list[str], target: str) -> tuple[Gate, str]:
    """Gate firing ``target`` once every source is 1, and its provenance line."""
    distinct = set(sources)
    if len(distinct) == 1:
        return Gate("tie", target, (sources[0],)), f"{target} <- {sources[0]}"
    return Gate("and", target, tuple(sources)), f"{target} <- all of {', '.join(sorted(distinct))}"


def propagator_to_circuit(prop: Propagator) -> Circuit:
    return extract_circuit(prop).circuit
