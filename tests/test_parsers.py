"""Seeded mutation fuzzing: a damaged file makes every parser raise ValueError only."""

import random

import pytest

from unitprop.circuit import format_circuit, parse_circuit
from unitprop.cnf import format_dimacs, parse_dimacs
from unitprop.propagator import FunctionTable, format_propagator, parse_propagator, tabulate
from unitprop.reify import format_reified, parse_reified, reify_injected
from unitprop.translate import circuit_to_propagator, extract_circuit
from unitprop.verify import random_monotone_circuit

# characters the formats give meaning to, plus whitespace and a few that none uses
ALPHABET = "0123456789-+ \n\r\t\"',=#%~_.xcpv\x00é١"


def valid_files():
    prop = circuit_to_propagator(random_monotone_circuit(4, 3, seed=1))
    extraction = extract_circuit(prop)
    return {
        "dimacs": (parse_dimacs, format_dimacs(prop.formula)),
        "propagator": (parse_propagator, format_propagator(prop)),
        "circuit": (parse_circuit, format_circuit(extraction.circuit, extraction.provenance)),
        "csv": (FunctionTable.parse_csv, tabulate(prop).format_csv()),
        "mirror": (parse_reified, format_reified(reify_injected(prop.formula, prop.inputs))),
    }


def mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("delete", "insert", "replace"))
        if op == "insert":
            chars.insert(rng.randint(0, len(chars)), rng.choice(ALPHABET))
        elif chars:
            i = rng.randrange(len(chars))
            if op == "delete":
                del chars[i]
            else:
                chars[i] = rng.choice(ALPHABET)
    return "".join(chars)


@pytest.mark.parametrize("kind", ["dimacs", "propagator", "circuit", "csv", "mirror"])
def test_mutated_files_raise_only_value_error(kind):
    parse, text = valid_files()[kind]
    parse(text)
    rng = random.Random(kind)
    rejected = 0
    for _ in range(600):
        try:
            parse(mutate(rng, text))
        except ValueError:
            rejected += 1
    assert rejected > 0
