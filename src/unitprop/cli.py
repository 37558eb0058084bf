"""Command line surface.

Verbs: propagate, reify, failed-literal, eval, tabulate, compile-circuit,
extract-circuit, verify, check-monotone.  Exit codes: 0 on success, 1 when
a check fails (or a checking verb reports a negative result), 2 on usage
errors.  Randomized verbs take an explicit --seed; there is no wall-clock
seeding anywhere.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cnf import (
    lit_key,
    parse_dimacs,
    propagate_staged,
    render_lit,
    resolve_variable,
    restrict,
)
from .circuit import format_circuit, parse_circuit, prune_dead_gates
from .propagator import (
    FunctionTable,
    eval_filtering,
    format_propagator,
    parse_assignment,
    parse_propagator,
    tabulate,
)
from .reify import failed_literal_formula, format_reified, reify, reify_injected
from .translate import circuit_to_propagator, extract_circuit
from .verify import SUITES, check_monotone, run_suite


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, target: str | None) -> None:
    if target is None:
        sys.stdout.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


def _render_stage(stage, names) -> str:
    return " ".join(render_lit(l, names) for l in sorted(stage, key=lit_key))


def cmd_propagate(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    result = propagate_staged(formula)
    rendered = [_render_stage(stage, formula.names) for stage in result.stages]
    if args.trace:
        for k, lits in enumerate(rendered, start=1):
            print(f"U{k}:" + (f" {lits}" if lits else ""))
    if result.is_bottom:
        print("UNSAT(UP)")
    else:
        print(" ".join(lits for lits in rendered if lits))
    return 0


def cmd_reify(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    if args.inject:
        tokens = (token.strip() for token in args.inject.split(","))
        chosen = [resolve_variable(token, formula.names) for token in tokens if token]
        injected = reify_injected(formula, chosen)
    else:
        injected = reify(formula)
    _emit(format_reified(injected), args.output)
    return 0


def cmd_failed_literal(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    raw = args.literal.strip()
    negative = raw.startswith("-") or raw.startswith("~")
    var = resolve_variable(raw[1:] if negative else raw, formula.names)
    lit = -var if negative else var
    if abs(lit) not in formula.variables:
        raise ValueError(f"variable of {args.literal!r} does not occur in the formula")
    direct = propagate_staged(restrict(formula, [lit]), early_exit=True).is_bottom
    sim, target = failed_literal_formula(formula, lit)
    sim_result = propagate_staged(sim, early_exit=True)
    simulated = target in sim_result.produced
    print(f"direct {'FAILS' if direct else 'OK'}")
    print(f"reified {'FAILS' if simulated else 'OK'}")
    agree = direct == simulated
    print(f"agree {'yes' if agree else 'no'}")
    if not agree:
        return 1
    return 0 if direct else 1


def cmd_eval(args) -> int:
    prop = parse_propagator(_read(args.propagator))
    assignment = parse_assignment(args.assign, prop.inputs, prop.formula.names)
    print(eval_filtering(prop, assignment))
    return 0


def cmd_tabulate(args) -> int:
    prop = parse_propagator(_read(args.propagator))
    _emit(tabulate(prop).format_csv(), args.output)
    return 0


def cmd_compile_circuit(args) -> int:
    circ = parse_circuit(_read(args.circuit))
    prop = circuit_to_propagator(circ)
    _emit(format_propagator(prop), args.output)
    return 0


def cmd_extract_circuit(args) -> int:
    prop = parse_propagator(_read(args.propagator))
    extraction = extract_circuit(prop)
    circ = prune_dead_gates(extraction.circuit) if args.prune else extraction.circuit
    _emit(format_circuit(circ, provenance=extraction.provenance), args.output)
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)} or all")
    failed = 0
    for name in names:
        for record in run_suite(name, seed=args.seed, count=args.count):
            print(record.line())
            if not record.passed:
                failed += 1
                if not args.keep_going:
                    print(f"stopped at first failure ({name})")
                    return 1
    print(f"verified {len(names)} suite(s), {failed} failure(s)")
    return 1 if failed else 0


def cmd_check_monotone(args) -> int:
    text = _read(args.source)
    if args.source.endswith(".csv"):
        table = FunctionTable.parse_csv(text)
    else:
        table = tabulate(parse_propagator(text))
    violation = check_monotone(table.as_matching())
    if violation is None:
        print("PASS monotone")
        return 0
    print(violation.render(table.names))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitprop",
        description="Unit propagation as a computation model: propagation traces, "
                    "stage-indexed mirrors, propagators and monotone-circuit translations.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("propagate", help="run unit resolution on a DIMACS file")
    p.add_argument("cnf")
    p.add_argument("--trace", action="store_true", help="print per-round production")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("reify", help="write the stage-indexed mirror of a formula")
    p.add_argument("cnf")
    p.add_argument("--inject", metavar="V1,V2,...", help="wire these variables in")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reify)

    p = sub.add_parser("failed-literal", help="probe a literal directly and via the mirror")
    p.add_argument("cnf")
    p.add_argument("--literal", required=True,
                   help="literal, e.g. b, ~b or 2 (use ~ or --literal=-b for negation)")
    p.set_defaults(func=cmd_failed_literal)

    p = sub.add_parser("eval", help="evaluate a propagator on one assignment")
    p.add_argument("propagator")
    p.add_argument("--assign", required=True, help='e.g. "v1=1,v2=x"')
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tabulate", help="materialize a propagator's function table as CSV")
    p.add_argument("propagator")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("compile-circuit", help="monotone circuit to propagator")
    p.add_argument("circuit")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile_circuit)

    p = sub.add_parser("extract-circuit", help="propagator to monotone circuit")
    p.add_argument("propagator")
    p.add_argument("-o", "--output")
    p.add_argument("--prune", action="store_true",
                   help="drop gates the output does not depend on")
    p.set_defaults(func=cmd_extract_circuit)

    p = sub.add_parser("verify", help="run a property suite (or all)")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=None, help="instances per suite")
    p.add_argument("--keep-going", action="store_true", help="collect all failures")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-monotone", help="monotonicity check of a propagator or CSV table")
    p.add_argument("source", help="propagator file or .csv table")
    p.set_defaults(func=cmd_check_monotone)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
