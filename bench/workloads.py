"""The three benchmark workloads and the closed loop that times them.

Every workload runs one operation at a time in this process: a suite
instance, a CLI verb called in-process through ``unitprop.cli.main``, or a
library call.  Each operation's output is checked after its timer stops,
against a route that does not share the code being timed.  Library
functions are always looked up through their module at call time, so the
tracer's rebinding reaches every call.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import importlib
import io
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus

MODULES = ("cnf", "circuit", "reify", "propagator", "translate", "verify", "cli")
SUITE_SCALE = 0.25  # share of each suite's default count per pass

# On a shared machine the speed of one core can switch between levels well
# over a third apart, within seconds, as other load comes and goes.  Timed
# figures are therefore also reported in reference seconds: seconds scaled
# by how long a fixed reference loop took in between the same operations.
REFERENCE_PERIOD_S = 0.1  # timed work between two reference measurements
REFERENCE_NOMINAL_S = 0.004  # a reference loop counts as this many reference seconds


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Library:
    """The ``unitprop`` modules, imported afresh from a source tree."""

    def __init__(self, src: Path):
        for name in [n for n in sys.modules if n == "unitprop" or n.startswith("unitprop.")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        package = importlib.import_module("unitprop")
        if Path(package.__file__).resolve().parent != (src / "unitprop").resolve():
            raise ImportError(f"unitprop was imported from {package.__file__}, not from {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"unitprop.{name}"))

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()


def reference_loop() -> float:
    """Seconds taken by fixed pure-Python work shaped like the library's hot
    paths (frozensets, key sorts, tuples, dict updates) but independent of it.

    The collector is off inside, so the workload's live heap does not change
    the loop's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict[tuple, int] = {}
        for i in range(2000):
            clause = frozenset((i % 97 + 1, -(i % 89 + 1), i % 83 + 2))
            key = tuple(sorted(clause, key=lambda l: (abs(l), l < 0)))
            seen[key] = seen.get(key, 0) + len(clause)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_scale(loops: list[float]) -> float:
    """Factor from measured seconds to reference seconds, from loop timings."""
    return REFERENCE_NOMINAL_S / statistics.fmean(loops)


@dataclass
class Sample:
    kind: str
    seconds: float
    work: int
    ok: bool


class Session:
    """Closed loop: one operation in flight, timed, then checked untimed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.errors: list[str] = []
        self._digest = hashlib.sha256()
        self._reference: list[float] = []  # reference loop timings
        self._unreferenced = 0.0

    def op(self, kind: str, work: int, fn, check) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = len(self.samples) + 1
            root = tracer.open(f"bench.{kind}")
        start = time.perf_counter()
        try:
            result = fn()
            error = None
        except Exception as exc:  # a failed operation is counted, the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            tracer.op_id = 0
        if error is None:
            try:
                self._digest.update(check(result).encode("utf-8"))
            except Exception as exc:  # checks report, they do not stop the run
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.errors.append(f"{kind}: {error}")
        self.samples.append(Sample(kind, seconds, work, error is None))
        self._unreferenced += seconds
        due = int(self._unreferenced / REFERENCE_PERIOD_S)
        if due:
            self._unreferenced -= due * REFERENCE_PERIOD_S
            self._reference.extend(reference_loop() for _ in range(due))

    def scale(self) -> float:
        """Factor from measured to reference seconds over all operations so far.

        The reference loop runs once per ``REFERENCE_PERIOD_S`` of timed work,
        so the mean of its timings follows the machine's speed weighted by
        time.  A median would jump between the speed levels instead.
        """
        return reference_scale(self._reference or [reference_loop() for _ in range(3)])

    def digest(self) -> str:
        return self._digest.hexdigest()


def warm_up_pass(workload, items) -> None:
    """One untimed pass over a small fixed input, so lazy imports and caches fill."""
    session = Session()
    workload.run_pass(session, items)
    expect(not session.errors, f"warm-up failed: {session.errors[:1]}")


def _cli_ok(result, verb: str) -> str:
    code, out, err = result
    expect(code == 0, f"{verb} exited {code}: {err.strip()}")
    return out


# --- suite-replay ------------------------------------------------------------------

class SuiteReplay:
    """All 13 suites through ``verify.run_suite``, one timed record at a time."""

    name = "suite-replay"
    jobs = {"suite": ("suite.instances_per_s", "1/s")}

    def __init__(self, lib: Library, seed: int, workdir: Path):
        self.lib, self.seed = lib, seed
        self.record_lines: list[str] = []

    def build(self, pass_index: int) -> int:
        return corpus.pass_rng(self.name, self.seed, pass_index).getrandbits(32)

    def corpus_sha(self, suite_seed: int) -> str:
        return corpus.sha256_text(self.record_lines)

    def warm_up(self) -> None:
        for name in self.lib.verify.SUITES:
            for record in self.lib.verify.run_suite(name, seed=0, count=1):
                expect(record.passed, record.line())

    def run_pass(self, session: Session, suite_seed: int) -> None:
        verify = self.lib.verify
        lines = []

        def check(record) -> str:
            lines.append(record.line())
            expect(record.passed, record.line())
            return record.line()

        for name, (_, default) in list(verify.SUITES.items()):
            count = max(1, round(default * SUITE_SCALE))
            records = verify.run_suite(name, seed=suite_seed, count=count)
            for _ in range(count):
                session.op("suite", 1, lambda: next(records), check)
        self.record_lines = lines


# --- table-sweep ----------------------------------------------------------------------

@dataclass
class TableItem:
    spec: corpus.MonotoneCircuit
    circuit: object
    propagator: object
    prop_path: str
    csv_path: str

    @property
    def rows(self) -> int:
        return 3 ** self.spec.k


class TableSweep:
    """Compiled monotone circuits: tabulate, check-monotone, equivalence."""

    name = "table-sweep"
    jobs = {
        "tabulate": ("table.rows_per_s", "rows/s"),
        "check-monotone": ("monotone.rows_per_s", "rows/s"),
        "equiv": ("equiv.rows_per_s", "rows/s"),
    }

    def __init__(self, lib: Library, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir

    def _compile(self, spec: corpus.MonotoneCircuit, tag: str) -> TableItem:
        circ = self.lib.circuit.parse_circuit(spec.text())
        prop = self.lib.translate.circuit_to_propagator(circ)
        prop_path = self.workdir / f"{tag}.prop"
        prop_path.write_text(self.lib.propagator.format_propagator(prop), encoding="utf-8")
        return TableItem(spec, circ, prop, str(prop_path), str(self.workdir / f"{tag}.csv"))

    def build(self, pass_index: int) -> list[TableItem]:
        specs = corpus.table_corpus(corpus.pass_rng(self.name, self.seed, pass_index))
        return [self._compile(spec, f"k{spec.k}") for spec in specs]

    def corpus_sha(self, items: list[TableItem]) -> str:
        return corpus.sha256_text(item.spec.text() for item in items)

    def warm_up(self) -> None:
        spec = corpus.monotone_circuit(corpus.pass_rng("warm-up", 0, 0), 3, 10)
        warm_up_pass(self, [self._compile(spec, "warm-up")])

    def _check_table(self, item: TableItem, result) -> str:
        _cli_ok(result, "tabulate")
        text = Path(item.csv_path).read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text)))[1:]
        expect(len(rows) == item.rows, f"{len(rows)} rows, expected {item.rows}")
        vectors = [tuple(int(b) for b in bits) for _, bits, _ in rows]
        expect(len(set(vectors)) == len(vectors), "repeated assignment rows")
        circuit_bits = self.lib.circuit.evaluate_batch(item.circuit, vectors)
        for (assignment, _, outcome), bit in zip(rows, circuit_bits):
            expect(outcome != "fail", f"fail row {assignment}")
            expect((outcome == "true") == (bit == 1), f"row {assignment}: {outcome}, circuit {bit}")
        table = self.lib.propagator.FunctionTable.parse_csv(text)
        expect(table.format_csv() == text, "CSV does not round-trip")
        return text

    def run_pass(self, session: Session, items: list[TableItem]) -> None:
        lib = self.lib
        for item in items:
            session.op("tabulate", item.rows,
                       lambda: lib.run_cli(["tabulate", item.prop_path, "-o", item.csv_path]),
                       lambda result: self._check_table(item, result))

            def check_monotone(result) -> str:
                out = _cli_ok(result, "check-monotone")
                expect(out == "PASS monotone\n", f"check-monotone printed {out!r}")
                return out

            session.op("check-monotone", item.rows,
                       lambda: lib.run_cli(["check-monotone", item.csv_path]), check_monotone)

            def check_equiv(mismatch) -> str:
                expect(mismatch is None, f"equivalence: {mismatch}")
                return "equivalent"

            session.op("equiv", item.rows,
                       lambda: lib.verify.check_equiv_propagator_circuit(item.propagator,
                                                                         item.circuit),
                       check_equiv)


# --- large-formula ----------------------------------------------------------------------

@dataclass
class CnfItem:
    spec: corpus.CnfInput
    formula: object
    path: str


@dataclass
class MirrorItem:
    spec: corpus.PropagatorInput
    prop_path: str
    cnf_path: str
    mirror_path: str
    circuit_path: str

    def roles(self) -> dict[str, int]:
        """Mirror clause counts by role, from the counting identities."""
        n = self.spec.variables
        units = sum(1 for c in self.spec.clauses if len(c) == 1)
        wide = sum(len(c) for c in self.spec.clauses if len(c) >= 2)
        return {"init": 2 * units, "prop": 2 * n * n, "ded": n * wide,
                "inject": 2 * len(self.spec.inputs)}


class LargeFormula:
    """Big formulas, each touched once per pass: engines, mirrors, extraction."""

    name = "large-formula"
    jobs = {
        "propagate": ("propagate.lits_per_s", "lits/s"),
        "standard": ("standard.lits_per_s", "lits/s"),
        "reify": ("reify.clauses_per_s", "clauses/s"),
        "extract-circuit": ("extract.clauses_per_s", "clauses/s"),
    }

    def __init__(self, lib: Library, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def build(self, pass_index: int):
        cnfs, props = corpus.large_corpus(corpus.pass_rng(self.name, self.seed, pass_index))
        return self._items(cnfs, props)

    def _items(self, cnfs, props):
        cnf_items = [CnfItem(c, self.lib.cnf.CnfFormula(c.clauses),
                             self._write(f"{c.name}.cnf", c.text())) for c in cnfs]
        mirror_items = [MirrorItem(p, self._write(f"{p.name}.prop", p.text()),
                                   self._write(f"{p.name}.cnf", p.formula_text()),
                                   str(self.workdir / f"{p.name}.mirror.cnf"),
                                   str(self.workdir / f"{p.name}.circuit.txt")) for p in props]
        return cnf_items, mirror_items

    def corpus_sha(self, items) -> str:
        cnf_items, mirror_items = items
        return corpus.sha256_text([c.spec.text() for c in cnf_items]
                                  + [m.spec.text() for m in mirror_items])

    def warm_up(self) -> None:
        rng = corpus.pass_rng("warm-up", 0, 0)
        cnf = corpus.CnfInput("warm-up", ((1,), (-1, 2), (-2, 3)), frozenset((1, 2, 3)))
        warm_up_pass(self, self._items([cnf], [corpus.definition_propagator(rng, 8)]))

    def _check_propagate(self, item: CnfItem, result) -> str:
        out = _cli_ok(result, "propagate")
        produced = {int(t) for t in out.split()}
        expect(produced == item.spec.derived,
               f"{item.spec.name}: staged engine fixed {len(produced)} literals, "
               f"expected {len(item.spec.derived)}")
        return out

    def _check_standard(self, item: CnfItem, result) -> str:
        expect(not result.is_bottom and result.produced == item.spec.derived,
               f"{item.spec.name}: standard engine disagrees with the staged engine")
        return " ".join(map(str, sorted(result.produced)))

    def _check_reify(self, item: MirrorItem, result) -> str:
        _cli_ok(result, "reify")
        lib = self.lib
        text = Path(item.mirror_path).read_text(encoding="utf-8")
        parsed = lib.reify.parse_reified(text)
        n = item.spec.variables
        expect(len(parsed.index) == 2 * n * (n + 2), f"index size {len(parsed.index)}")
        for kind, want in item.roles().items():
            expect(parsed.count(kind) == want, f"{kind} count {parsed.count(kind)} != {want}")
        expect(lib.reify.format_reified(parsed) == text, "written mirror does not parse back equal")
        return text

    def _check_extract(self, item: MirrorItem, result) -> str:
        _cli_ok(result, "extract-circuit")
        lib = self.lib
        text = Path(item.circuit_path).read_text(encoding="utf-8")
        circ = lib.circuit.parse_circuit(text)
        inputs = item.spec.inputs
        rows, vectors = [], []
        for code in range(3 ** len(inputs)):
            lits = []
            for v in inputs:
                code, digit = divmod(code, 3)
                if digit:
                    lits.append(v if digit == 1 else -v)
            rows.append(lits)
            vectors.append(tuple(int(v in lits) for v in inputs)
                           + tuple(int(-v in lits) for v in inputs))
        bits = lib.circuit.evaluate_batch(circ, vectors)
        for lits, bit in zip(rows, bits):
            run = lib.cnf.propagate_standard(
                lib.cnf.CnfFormula(item.spec.clauses + tuple((l,) for l in lits)))
            expect(not run.is_bottom, f"propagator failed at {lits}")
            expect((item.spec.output in run.produced) == (bit == 1), f"circuit differs at {lits}")
        return text

    def run_pass(self, session: Session, items) -> None:
        lib = self.lib
        cnf_items, mirror_items = items
        for item in cnf_items:
            session.op("propagate", item.spec.literals,
                       lambda: lib.run_cli(["propagate", item.path]),
                       lambda result: self._check_propagate(item, result))
            session.op("standard", item.spec.literals,
                       lambda: lib.cnf.propagate_standard(item.formula),
                       lambda result: self._check_standard(item, result))
        for item in mirror_items:
            clauses = sum(item.roles().values())
            inject = ",".join(map(str, item.spec.inputs))
            session.op("reify", clauses,
                       lambda: lib.run_cli(["reify", item.cnf_path, "--inject", inject,
                                            "-o", item.mirror_path]),
                       lambda result: self._check_reify(item, result))
            session.op("extract-circuit", clauses,
                       lambda: lib.run_cli(["extract-circuit", item.prop_path, "--prune",
                                            "-o", item.circuit_path]),
                       lambda result: self._check_extract(item, result))


WORKLOADS = {w.name: w for w in (SuiteReplay, TableSweep, LargeFormula)}
