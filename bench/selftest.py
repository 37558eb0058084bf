"""The benchmark's own tests.

Run from the repository root (they take a few minutes, since each traced
pass runs a real workload pass twice):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".rows", ".emissions", ".gates", ".layers", ".alt_or",
                  ".ledger_false", ".ledger_true", ".clauses", ".lanes", ".bytes", ".rounds")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _catalog():
    return json.loads((HERE / "catalog.json").read_text(encoding="utf-8"))


def _corpus_texts(seed: int) -> list[str]:
    circuits = corpus.table_corpus(corpus.pass_rng("table-sweep", seed, 0))
    cnfs, props = corpus.large_corpus(corpus.pass_rng("large-formula", seed, 0))
    return [c.text() for c in circuits] + [c.text() for c in cnfs] + [p.text() for p in props]


def test_corpus_is_a_deterministic_function_of_the_seed():
    assert _corpus_texts(3) == _corpus_texts(3)
    assert _corpus_texts(3) != _corpus_texts(4)
    assert corpus.pass_rng("table-sweep", 3, 1).random() != corpus.pass_rng("table-sweep", 3, 0).random()


def test_corpus_shapes():
    circuits = corpus.table_corpus(corpus.pass_rng("table-sweep", 5, 0))
    assert [(c.k, len(c.gates)) for c in circuits] == list(corpus.TABLE_CIRCUITS)
    cnfs, props = corpus.large_corpus(corpus.pass_rng("large-formula", 5, 0))
    horn, chain = cnfs
    assert len(horn.clauses) == corpus.HORN_CLAUSES
    assert len(horn.derived) == corpus.HORN_DERIVED
    assert len(chain.derived) == corpus.CHAIN_VARS
    assert [p.variables for p in props] == list(corpus.MIRROR_VARS)
    assert all(len(p.inputs) == corpus.MIRROR_INPUTS for p in props)


def test_benchmark_json_matches_catalog_and_harness():
    spec, catalog = _spec(), _catalog()
    layer_names = [m["name"] for m in spec["per_layer"]]
    grouped = [name for group in catalog["per_layer"] for name in group["metrics"]]
    assert sorted(layer_names) == sorted(grouped)
    assert len(set(layer_names)) == len(layer_names)
    gated = {name for name, entry in catalog["end_to_end"].items() if entry["gated"]}
    assert {m["name"] for m in spec["end_to_end"]} == gated
    for entry in spec["end_to_end"]:
        assert catalog["end_to_end"][entry["name"]]["unit"] == entry["unit"]
        assert catalog["end_to_end"][entry["name"]]["better"] == entry["better"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(catalog["workloads"]) == set(workloads.WORKLOADS)
    printed = set(run.end_to_end([workloads.Sample("x", 1.0, 1, True)], [1.0]))
    for workload in workloads.WORKLOADS.values():
        printed |= {metric for metric, _ in workload.jobs.values()}
    printed |= {"suite.instance_ms.p50", "suite.instance_ms.p99"}
    assert printed == set(catalog["end_to_end"])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per workload: two traced pass-0 runs at one seed, with bindings before and after."""
    out = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        _, _, workload, first = run.setup(name, 11, workdir)
        before = spans.bindings()
        out[name] = (run.trace_pass(workload, first), run.trace_pass(workload, first),
                     before, spans.bindings(), workload)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(traced_runs, name):
    (plain, traced, _, _), _, _, _, _ = traced_runs[name]
    assert not plain.errors and not traced.errors
    assert len(plain.samples) == len(traced.samples) > 0
    assert plain.digest() == traced.digest()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_counts_repeat_exactly(traced_runs, name):
    (_, _, first, _), (_, _, second, _), _, _, _ = traced_runs[name]
    names = [m["name"] for m in _spec()["per_layer"]]
    counts = [n for n in names if n.endswith(COUNT_SUFFIXES) or ".roles." in n]
    assert counts
    assert {n: first.metric(n) for n in counts} == {n: second.metric(n) for n in counts}
    assert first.counts == second.counts
    assert first.calls == second.calls


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrappers_are_removed_after_the_traced_run(traced_runs, name):
    (_, _, _, restored), (_, _, _, restored_again), before, after, workload = traced_runs[name]
    assert restored and restored_again
    assert before == after
    lib = workload.lib
    for module_name, attr, _, _ in spans.TARGETS:
        home = getattr(lib, module_name)
        target = getattr(home, attr.split(".")[0])
        if "." in attr:
            target = target.__dict__[attr.split(".")[1]]
        assert not hasattr(getattr(target, "__func__", target), "__wrapped__"), attr


def test_traced_run_covers_every_module(traced_runs):
    seen = set()
    for name in workloads.WORKLOADS:
        (_, _, tracer, _), _, _, _, _ = traced_runs[name]
        seen |= {span.split(".")[0] for span in tracer.calls}
    assert {"cnf", "reify", "propagator", "circuit", "translate", "verify", "cli"} <= seen


def test_harness_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "table-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
