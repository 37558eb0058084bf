"""In-process span tracer for the traced benchmark run.

The tracer wraps public functions of ``unitprop`` from outside: it rebinds
each function's name in every ``unitprop.*`` module namespace that holds
it, replaces the traced methods on their classes, wraps the suite runners
in ``verify.SUITES``, and puts every original back when the traced pass
ends.  No file of the library changes and nothing outside this process is
observed.

A span is recorded per call while an operation is being measured: name,
start, end, parent span and operation id, kept in flat arrays and written
out at the end of the run.  Self time is a span's duration minus the time
covered by its direct children (calls nest strictly in one thread).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

_clock = time.perf_counter

# per-layer ratios: metric -> (numerator count, denominator count)
RATIOS = {
    "cnf.propagate_staged.rounds_ratio": ("cnf.propagate_staged.rounds",
                                          "cnf.propagate_staged.round_bound"),
    "propagator.eval.fail_frac": ("propagator.eval.failures", "propagator.eval.evaluations"),
    "circuit.prune.kept_ratio": ("circuit.prune.gates_kept", "circuit.prune.gates_in"),
    "verify.random_failure_free_propagator.accept_ratio": (
        "verify.random_failure_free_propagator.accepted",
        "verify.random_failure_free_propagator.drawn"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op = array("q")
        self._child = array("d")
        self._stack: list[int] = []
        self.op_id = 0  # 0 while no operation is being measured
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.op.append(self.op_id)
        self._child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        now = _clock()
        self._stack.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        name = self.names[self.name_id[idx]]
        self.calls[name] += 1
        self.self_s[name] += duration - self._child[idx]
        parent = self.parent[idx]
        if parent >= 0:
            self._child[parent] += duration

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a span just closed)."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def span_count(self) -> int:
        return len(self.start)

    def metric(self, name: str) -> float:
        """Value of one per-layer metric: ``<span>.calls``, ``<span>.self_s``,
        a ratio of two counts, or a count."""
        if name in RATIOS:
            num, den = (self.counts[key] for key in RATIOS[name])
            return num / den if den else 0.0
        if name.endswith(".calls"):
            return self.calls[name[:-len(".calls")]]
        if name.endswith(".self_s"):
            return self.self_s.get(name[:-len(".self_s")], 0.0)
        return self.counts[name]

    def write_spans(self, path) -> None:
        """One CSV line per span: id, name, start_s, end_s, parent id, operation id."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            for idx in range(len(self.start)):
                out.write(f"{idx},{self.names[self.name_id[idx]]},{self.start[idx]:.9f},"
                          f"{self.end[idx]:.9f},{self.parent[idx]},{self.op[idx]}\n")


def _traced(tracer: Tracer, name, fn, count=None):
    """Wrap ``fn`` in a span; ``name`` is a string or a function of the arguments.

    ``count(tracer, args, result)`` records work after a call that returned;
    a call that raised is counted only by the hooks in ``ERROR_COUNTS``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.op_id:
            return fn(*args, **kwargs)
        span = name if isinstance(name, str) else name(args)
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx)
            if span in ERROR_COUNTS:
                ERROR_COUNTS[span](tracer)
            raise
        tracer.close(idx)
        if count is not None:
            count(tracer, args, result)
        return result

    return wrapper


def _traced_suite(tracer: Tracer, name: str, runner):
    span = f"verify.suite.{name}"

    def wrapper(seed, count):
        records = runner(seed, count)
        while True:
            idx = tracer.open(span) if tracer.op_id else None
            try:
                record = next(records)
            except StopIteration:
                return
            finally:
                if idx is not None:
                    tracer.close(idx)
            yield record

    return wrapper


# --- count hooks: work done, recorded where it happens ---------------------------

def _count_cnf(t, args, result):
    t.counts["cnf.CnfFormula.clauses"] += len(args[0].clauses)


def _count_staged(t, args, result):
    t.counts["cnf.propagate_staged.rounds"] += len(result.stages)
    t.counts["cnf.propagate_staged.round_bound"] += len(args[0].variables) + 1


def _count_parse_dimacs(t, args, result):
    t.counts["cnf.parse_dimacs.bytes"] += len(args[0].encode("utf-8"))


def _count_mirror(t, args, result):
    # reify() inside reify_injected() is the same mirror: count it once
    if t.parent_name() == "reify.reify_injected":
        return
    t.counts["reify.emissions"] += len(result.emissions)
    for role, _ in result.emissions:
        t.counts[f"reify.roles.{role.kind}"] += 1


def _count_format_reified(t, args, result):
    t.counts["reify.format_reified.bytes"] += len(result.encode("utf-8"))


def _count_eval(t, args, result):
    t.counts["propagator.eval.evaluations"] += 1
    if str(result) == "fail":
        t.counts["propagator.eval.failures"] += 1


def _count_eval_error(t):
    # eval_matching raises where propagation fails
    t.counts["propagator.eval.evaluations"] += 1
    t.counts["propagator.eval.failures"] += 1


def _count_tabulate(t, args, result):
    t.counts["propagator.tabulate.rows"] += len(result)


def _count_batch(t, args, result):
    t.counts["circuit.evaluate_batch.lanes"] += len(args[1])


def _count_prune(t, args, result):
    t.counts["circuit.prune.gates_in"] += len(args[0].gates)
    t.counts["circuit.prune.gates_kept"] += len(result.gates)


def _count_extract(t, args, result):
    t.counts["translate.extract_circuit.gates"] += len(result.circuit.gates)
    t.counts["translate.extract_circuit.layers"] += len(result.layers)
    t.counts["translate.extract_circuit.alt_or"] += sum(
        1 for g in result.circuit.gates if g.kind == "or")
    t.counts["translate.extract_circuit.ledger_false"] += len(result.always_false)
    t.counts["translate.extract_circuit.ledger_true"] += len(result.always_true)


def _count_monotone(t, args, result):
    t.counts["verify.check_monotone.rows"] += len(args[0])


def _count_equiv(t, args, result):
    t.counts["verify.check_equiv_propagator_circuit.rows"] += 3 ** len(args[0].inputs)


def _count_sampling(t, args, result):
    _, skipped = result
    t.counts["verify.random_failure_free_propagator.drawn"] += skipped + 1
    t.counts["verify.random_failure_free_propagator.accepted"] += 1


ERROR_COUNTS = {"propagator.eval_matching": _count_eval_error}

# (module, attribute, span name, count hook); "Class.method" patches the class
TARGETS = (
    ("cnf", "CnfFormula.__init__", "cnf.CnfFormula", _count_cnf),
    ("cnf", "restrict", "cnf.restrict", None),
    ("cnf", "propagate_staged", "cnf.propagate_staged", _count_staged),
    ("cnf", "propagate_standard", "cnf.propagate_standard", None),
    ("cnf", "parse_dimacs", "cnf.parse_dimacs", _count_parse_dimacs),
    ("cnf", "format_dimacs", "cnf.format_dimacs", None),
    ("reify", "reify", "reify.reify", _count_mirror),
    ("reify", "reify_injected", "reify.reify_injected", _count_mirror),
    ("reify", "format_reified", "reify.format_reified", _count_format_reified),
    ("reify", "parse_reified", "reify.parse_reified", None),
    ("reify", "failed_literal_formula", "reify.failed_literal_formula", None),
    ("propagator", "eval_filtering", "propagator.eval_filtering", _count_eval),
    ("propagator", "eval_matching", "propagator.eval_matching", _count_eval),
    ("propagator", "eval_nu", "propagator.eval_nu", None),
    ("propagator", "tabulate", "propagator.tabulate", _count_tabulate),
    ("propagator", "FunctionTable.format_csv", "propagator.FunctionTable.format_csv", None),
    ("propagator", "FunctionTable.parse_csv", "propagator.FunctionTable.parse_csv", None),
    ("propagator", "reify_propagator", "propagator.reify_propagator", None),
    ("propagator", "filtering_to_matchings", "propagator.filtering_to_matchings", None),
    ("propagator", "matchings_to_filtering", "propagator.matchings_to_filtering", None),
    ("propagator", "nu_to_propagator", "propagator.nu_to_propagator", None),
    ("circuit", "evaluate_batch", "circuit.evaluate_batch", _count_batch),
    ("circuit", "Circuit.__init__", "circuit.Circuit", None),
    ("circuit", "prune_dead_gates", "circuit.prune_dead_gates", _count_prune),
    ("circuit", "format_circuit", "circuit.format_circuit", None),
    ("circuit", "parse_circuit", "circuit.parse_circuit", None),
    ("translate", "extract_circuit", "translate.extract_circuit", _count_extract),
    ("translate", "circuit_to_propagator", "translate.circuit_to_propagator", None),
    ("verify", "check_monotone", "verify.check_monotone", _count_monotone),
    ("verify", "check_equiv_propagator_circuit", "verify.check_equiv_propagator_circuit",
     _count_equiv),
    ("verify", "random_failure_free_propagator", "verify.random_failure_free_propagator",
     _count_sampling),
    ("cli", "main", lambda args: f"cli.{args[0][0]}", None),
)


class Patches:
    """Every binding the tracer replaced, so that all of them can be put back."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []  # (namespace, key, original)

    def set_attr(self, owner, key: str, value) -> None:
        self.saved.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def set_item(self, mapping: dict, key: str, value) -> None:
        self.saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        for owner, key, original in reversed(self.saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.saved.clear()


def _unitprop_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "unitprop" or name.startswith("unitprop.")]


def install(tracer: Tracer) -> Patches:
    """Wrap every target in every ``unitprop`` namespace that binds it."""
    patches = Patches()
    modules = _unitprop_modules()
    try:
        for module_name, attr, span, count in TARGETS:
            home = sys.modules[f"unitprop.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_traced(tracer, span, raw.__func__, count))
                else:
                    wrapped = _traced(tracer, span, raw, count)
                patches.set_attr(cls, method, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = _traced(tracer, span, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.set_attr(module, key, wrapped)
        suites = sys.modules["unitprop.verify"].SUITES
        for name, (runner, default) in list(suites.items()):
            patches.set_item(suites, name, (_traced_suite(tracer, name, runner), default))
    except BaseException:
        patches.restore()
        raise
    return patches


def bindings() -> dict:
    """Identity of every binding ``install`` may replace, for checking restoration."""
    out = {}
    for module in _unitprop_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in value.__dict__.items():
                    out[(module.__name__, f"{key}.{attr}")] = id(raw)
    suites = sys.modules["unitprop.verify"].SUITES
    for name, entry in suites.items():
        out[("unitprop.verify", f"SUITES[{name}]")] = id(entry[0])
    return out
