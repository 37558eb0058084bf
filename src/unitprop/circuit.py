"""Boolean circuits as DAGs of labeled gates.

Gate kinds: ``and`` / ``or`` (fan-in >= 1, inputs treated as a set),
``not`` and ``tie`` (single input; tie copies its input value), and the
zero-input constants ``const0`` / ``const1``.  Constants exist so the
clause-to-circuit extraction can express outputs that collapse to a fixed
value; monotone means the absence of ``not`` gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cnf import ENUMERATION_LIMIT

GATE_KINDS = ("and", "or", "not", "tie", "const0", "const1")
_UNARY = ("not", "tie")
_CONST = ("const0", "const1")


@dataclass(frozen=True)
class Gate:
    kind: str
    output: str
    inputs: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind: {self.kind!r}")
        # inputs form a set; normalize for reproducible serialization
        object.__setattr__(self, "inputs", tuple(sorted(set(self.inputs))))
        if self.kind in _UNARY and len(self.inputs) != 1:
            raise ValueError(f"{self.kind} gate takes exactly one input")
        if self.kind in _CONST and self.inputs:
            raise ValueError(f"{self.kind} gate takes no inputs")
        if self.kind in ("and", "or") and not self.inputs:
            raise ValueError(f"{self.kind} gate needs at least one input")


def gate(kind: str, output: str, *inputs: str) -> Gate:
    return Gate(kind, output, tuple(inputs))


class Circuit:
    """Input labels (ordered), gates, one output label.

    Validated at construction: unique gate outputs, no clash with input
    labels, every referenced label defined, no cycles.  The topological gate
    order is fixed here and reused by every evaluation.
    """

    __slots__ = ("inputs", "gates", "output", "topological")

    def __init__(self, inputs: Sequence[str], gates: Iterable[Gate], output: str):
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "topological", self._validate())

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    def _validate(self) -> tuple[Gate, ...]:
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("duplicate input labels")
        defined = set(self.inputs)
        by_output: dict[str, Gate] = {}
        for g in self.gates:
            if g.output in by_output or g.output in defined:
                raise ValueError(f"label defined twice: {g.output!r}")
            by_output[g.output] = g
        for g in self.gates:
            for ref in g.inputs:
                if ref not in defined and ref not in by_output:
                    raise ValueError(f"gate {g.output!r} reads undefined label {ref!r}")
        if self.output not in defined and self.output not in by_output:
            raise ValueError(f"undefined output label {self.output!r}")
        # Kahn ordering; anything left over sits on a cycle
        remaining = {g.output: len([r for r in g.inputs if r in by_output]) for g in self.gates}
        consumers: dict[str, list[Gate]] = {}
        for g in self.gates:
            for ref in g.inputs:
                if ref in by_output:
                    consumers.setdefault(ref, []).append(g)
        ready = [g for g in self.gates if remaining[g.output] == 0]
        order: list[Gate] = []
        while ready:
            g = ready.pop()
            order.append(g)
            for consumer in consumers.get(g.output, ()):
                remaining[consumer.output] -= 1
                if remaining[consumer.output] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            stuck = sorted(out for out, cnt in remaining.items() if cnt > 0)
            raise ValueError(f"cycle through gates: {stuck}")
        return tuple(order)

    def labels(self) -> set[str]:
        return set(self.inputs) | {g.output for g in self.gates}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.inputs == other.inputs and set(self.gates) == set(other.gates)
                and self.output == other.output)

    def __repr__(self) -> str:
        return f"Circuit({len(self.inputs)} inputs, {len(self.gates)} gates -> {self.output!r})"


def _apply(kind: str, values: list[int]) -> int:
    if kind == "and":
        return int(all(values))
    if kind == "or":
        return int(any(values))
    if kind == "not":
        return 1 - values[0]
    if kind == "tie":
        return values[0]
    return 1 if kind == "const1" else 0


def evaluate(circ: Circuit, bits: Sequence[int]) -> int:
    """Value of the output under the given input bit vector."""
    if len(bits) != len(circ.inputs):
        raise ValueError(f"expected {len(circ.inputs)} input bits, got {len(bits)}")
    value = {label: int(bool(b)) for label, b in zip(circ.inputs, bits)}
    for g in circ.topological:
        value[g.output] = _apply(g.kind, [value[ref] for ref in g.inputs])
    return value[circ.output]


def evaluate_batch(circ: Circuit, vectors: Sequence[Sequence[int]]) -> list[int]:
    """Evaluate on many input vectors at once, one bit lane per vector.

    Same results as mapping :func:`evaluate`; the test suite holds the two
    routes against each other.
    """
    width = len(vectors)
    if any(len(v) != len(circ.inputs) for v in vectors):
        raise ValueError(f"every vector must have {len(circ.inputs)} bits")
    if not width:
        return []
    # lanes are packed and read out through one binary string per mask,
    # lane 0 as the last character: shifting lane by lane is quadratic
    masks = [int("".join("1" if vector[pos] else "0" for vector in reversed(vectors)), 2)
             for pos in range(len(circ.inputs))]
    out = format(evaluate_lanes(circ, masks, width), f"0{width}b")
    return [int(bit) for bit in reversed(out)]


def evaluate_lanes(circ: Circuit, masks: Sequence[int], width: int) -> int:
    """Output lane mask from one lane mask per input label, over ``width`` lanes.

    The kernel behind :func:`evaluate_batch`: bit ``i`` of each mask is the
    value of that input in lane ``i``.
    """
    if len(masks) != len(circ.inputs):
        raise ValueError(f"expected {len(circ.inputs)} input masks, got {len(masks)}")
    full = (1 << width) - 1
    value = dict(zip(circ.inputs, masks))
    for g in circ.topological:
        if g.kind == "and":
            acc = full
            for ref in g.inputs:
                acc &= value[ref]
        elif g.kind == "or":
            acc = 0
            for ref in g.inputs:
                acc |= value[ref]
        elif g.kind == "not":
            acc = full & ~value[g.inputs[0]]
        elif g.kind == "tie":
            acc = value[g.inputs[0]]
        else:
            acc = full if g.kind == "const1" else 0
        value[g.output] = acc
    return value[circ.output]


def validate_monotone(circ: Circuit) -> bool:
    """True when the circuit is built of and/or/tie/const gates only."""
    return all(g.kind != "not" for g in circ.gates)


def compute_table(circ: Circuit,
                  domain: Iterable[Sequence[int]] | None = None) -> dict[tuple[int, ...], int]:
    """Truth table over all of {0,1}^inputs, or over an explicit domain.

    The full table is refused above ``2 * ENUMERATION_LIMIT`` inputs, the
    indicator bits of the largest enumerable variable set.
    """
    if domain is None:
        n = len(circ.inputs)
        if n > 2 * ENUMERATION_LIMIT:
            raise ValueError(f"refusing to enumerate over {n} inputs (> {2 * ENUMERATION_LIMIT})")
        domain = [tuple((code >> (n - 1 - i)) & 1 for i in range(n)) for code in range(2 ** n)]
    vectors = [tuple(int(bool(b)) for b in v) for v in domain]
    results = evaluate_batch(circ, vectors)
    return dict(zip(vectors, results))


def prune_dead_gates(circ: Circuit) -> Circuit:
    """Drop gates the output does not depend on; inputs and order stay put.

    Purely structural: the computed function is unchanged (the test suite
    compares evaluations before and after).
    """
    by_output = {g.output: g for g in circ.gates}
    alive: set[str] = set()
    queue = [circ.output]
    while queue:
        label = queue.pop()
        g = by_output.get(label)
        if g is None or g.output in alive:
            continue
        alive.add(g.output)
        queue.extend(g.inputs)
    return Circuit(circ.inputs, [g for g in circ.gates if g.output in alive], circ.output)


# --- text format ----------------------------------------------------------------

def format_circuit(circ: Circuit, provenance: Mapping[str, str] | None = None) -> str:
    """One item per line; ``#`` comments carry per-gate provenance notes."""
    lines = []
    for label in circ.inputs:
        lines.append(f"input {label}")
    for g in circ.gates:
        if provenance and g.output in provenance:
            lines.append(f"# {provenance[g.output]}")
        lines.append(" ".join((g.kind, g.output) + g.inputs))
    lines.append(f"output {circ.output}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    inputs: list[str] = []
    gates: list[Gate] = []
    output: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        item, rest = fields[0], fields[1:]
        if item == "input":
            if len(rest) != 1:
                raise ValueError(f"line {lineno}: input takes one label")
            inputs.append(rest[0])
        elif item == "output":
            if len(rest) != 1 or output is not None:
                raise ValueError(f"line {lineno}: bad output line")
            output = rest[0]
        elif item in GATE_KINDS:
            if not rest:
                raise ValueError(f"line {lineno}: gate needs an output label")
            gates.append(Gate(item, rest[0], tuple(rest[1:])))
        else:
            raise ValueError(f"line {lineno}: unknown item {item!r}")
    if output is None:
        raise ValueError("missing output line")
    return Circuit(inputs, gates, output)
