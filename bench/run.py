"""Benchmark harness for unitprop: one workload, one process, closed loop.

Run from the repository root, for example:

    python3 bench/run.py --workload table-sweep --seed 1 --seconds 20 --trace 0

Workloads (see bench/catalog.json for why each was chosen):

  suite-replay   all 13 property suites through verify.run_suite
  table-sweep    compiled monotone circuits: tabulate, check-monotone, equivalence
  large-formula  big formulas: propagate, propagate_standard, reify, extract-circuit

Set-up (import, seeded corpus, warm-up) runs five times and its median is
reported.  Then whole passes run, one operation at a time, each drawing fresh
inputs from the seed; the run stops at the number of passes whose timed
total lands nearest to ``--seconds``.  Each output is checked untimed.

Timed figures are given in measured seconds and in reference seconds, which
scale out the speed changes of a shared machine by timing a fixed reference
loop in between the operations (see ``workloads.reference_loop``); the JSON
result carries the reference figures.

With ``--trace 1`` pass 0 runs twice, untraced and then with a span around
every public library call, which yields the per-layer metrics and the
tracing overhead; span records are written to ``.bench_out/``.  Everything
is measured inside this process: no system-wide tracing, no cache dropping.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every output checked out, 1 when one did not and
2 when the benchmark cannot run (for example, no ``src/unitprop``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup(name: str, seed: int, workdir: Path):
    """Import the library, build the pass-0 corpus and warm up.

    Returns (seconds, reference seconds, workload, corpus); reference loops
    timed just before and after set the scale of this one set-up.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    loops = [workloads.reference_loop() for _ in range(3)]
    start = time.perf_counter()
    lib = workloads.Library(ROOT / "src")
    workload = workloads.WORKLOADS[name](lib, seed, workdir)
    first = workload.build(0)
    workload.warm_up()
    seconds = time.perf_counter() - start
    loops += [workloads.reference_loop() for _ in range(3)]
    return seconds, seconds * workloads.reference_scale(loops), workload, first


def job_metrics(workload, samples, scale: float = 1.0) -> dict[str, tuple[float, str, str]]:
    """The workload's own throughput metrics: name -> (value, unit, note).

    ``scale`` turns measured seconds into reference seconds.
    """
    out = {}
    for kind, (metric, unit) in workload.jobs.items():
        done = [s for s in samples if s.ok and s.kind == kind]
        seconds = sum(s.seconds for s in done) * scale
        work = sum(s.work for s in done)
        out[metric] = (work / seconds if seconds else 0.0, unit, f"{len(done)} ops")
    if workload.name == "suite-replay":
        times = [s.seconds * scale * 1e3 for s in samples if s.ok]
        note = f"{len(times)} instances"
        out["suite.instance_ms.p50"] = (percentile(times, 50), "ms", note)
        out["suite.instance_ms.p99"] = (percentile(times, 99), "ms", note)
    return out


def end_to_end(samples, setups: list[float], scale: float = 1.0) -> dict[str, tuple[float, str, str]]:
    done = [s for s in samples if s.ok]
    seconds = sum(s.seconds for s in done) * scale
    failed = len(samples) - len(done)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of this process"),
        "ops_per_s": (len(done) / seconds if seconds else 0.0, "1/s", f"{len(done)} ops"),
        "failed_frac": (failed / len(samples), "ratio", f"{failed} of {len(samples)}"),
    }


def print_metrics(reference: dict, measured: dict) -> None:
    print(f"  {'metric':<28} {'reference':>14} {'measured':>14} unit")
    for name, (value, unit, note) in reference.items():
        print(f"  {name:<28} {value:>14.6g} {measured[name][0]:>14.6g} {unit:<10} {note}")


def result_line(spec_metrics, values: dict[str, float], correct: bool, attempted: int,
                failed: int) -> str:
    metrics = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"metric {name} declared in BENCHMARK.json but not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def report_errors(sessions) -> None:
    for session in sessions:
        for error in session.errors[:5]:
            print(f"error: {error}", file=sys.stderr)


def run_untraced(args, spec, workload, first, setups) -> int:
    session = workloads.Session()
    items, passes, sha = first, 0, None
    while True:
        workload.run_pass(session, items)
        if sha is None:
            sha = workload.corpus_sha(items)
        passes += 1
        timed = sum(s.seconds for s in session.samples)
        # whole passes keep the operation mix fixed; stop at the pass count
        # whose timed total lands nearest to --seconds
        if timed + timed / passes / 2 >= args.seconds:
            break
        items = workload.build(passes)
    samples = session.samples
    scale = session.scale()
    print(f"corpus sha256 (pass 0): {sha}")
    print(f"passes {passes}, operations {len(samples)}, "
          f"timed {sum(s.seconds for s in samples):.3f} s, reference scale {scale:.4f}")
    measured = end_to_end(samples, [raw for raw, _ in setups])
    measured.update(job_metrics(workload, samples))
    metrics = end_to_end(samples, [ref for _, ref in setups], scale)
    metrics.update(job_metrics(workload, samples, scale))
    print_metrics(metrics, measured)
    report_errors([session])
    failed = sum(1 for s in samples if not s.ok)
    print(result_line(spec["end_to_end"], {k: v[0] for k, v in metrics.items()},
                      failed == 0, len(samples), failed))
    return 0 if failed == 0 else 1


def trace_pass(workload, items):
    """Run one pass untraced, then again traced; return (plain, traced, tracer, restored).

    ``restored`` tells whether every binding the tracer replaced is back.
    """
    import spans

    plain = workloads.Session()
    workload.run_pass(plain, items)
    before = spans.bindings()
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        traced = workloads.Session(tracer)
        workload.run_pass(traced, items)
    finally:
        patches.restore()
    return plain, traced, tracer, spans.bindings() == before


def run_traced(args, spec, workload, first) -> int:
    plain, traced, tracer, restored = trace_pass(workload, first)
    print(f"corpus sha256 (pass 0): {workload.corpus_sha(first)}")
    same_outputs = plain.digest() == traced.digest()
    plain_s = sum(s.seconds for s in plain.samples)
    traced_s = sum(s.seconds for s in traced.samples)
    plain_scale, traced_scale = plain.scale(), traced.scale()
    layers = {e["name"]: tracer.metric(e["name"]) for e in spec["per_layer"]
              if e["name"] != "bench.trace_overhead"}
    layers["bench.trace_overhead"] = traced_s / plain_s

    print(f"{tracer.span_count()} spans")
    print("per-layer self time, traced pass (share of traced operation time):")
    for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
        share = tracer.self_s[name] / traced_s if traced_s else 0.0
        print(f"  {name:<48} {tracer.calls[name]:>9} calls {tracer.self_s[name]:>10.4f} s"
              f" {share:>7.1%}")
    print("per-layer counts:")
    for entry in spec["per_layer"]:
        name = entry["name"]
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name:<56} {layers[name]:>12.6g} {entry['unit']}")
    print("tracing overhead (untraced -> traced, same inputs, reference seconds):")
    print(f"  operation time {plain_s:.4f} s -> {traced_s:.4f} s measured"
          f" ({traced_s / plain_s:.3f}x)")
    untraced_metrics = job_metrics(workload, plain.samples, plain_scale)
    traced_metrics = job_metrics(workload, traced.samples, traced_scale)
    untraced_metrics["ops_per_s"] = end_to_end(plain.samples, [0.0], plain_scale)["ops_per_s"]
    traced_metrics["ops_per_s"] = end_to_end(traced.samples, [0.0], traced_scale)["ops_per_s"]
    for name, (value, unit, _) in untraced_metrics.items():
        after = traced_metrics[name][0]
        print(f"  {name:<28} {value:>12.6g} -> {after:>12.6g} {unit:<10}"
              f" ({after / value if value else 0.0:.3f}x)")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload.name}.csv"
    tracer.write_spans(span_file)
    print(f"spans written to {span_file.relative_to(ROOT)}")
    if not same_outputs:
        print("error: traced and untraced passes produced different outputs", file=sys.stderr)
    if not restored:
        print("error: tracer left a wrapped binding behind", file=sys.stderr)
    report_errors([plain, traced])
    samples = plain.samples + traced.samples
    failed = sum(1 for s in samples if not s.ok)
    correct = failed == 0 and same_outputs and restored
    print(result_line(spec["per_layer"], layers, correct, len(samples), failed))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "unitprop" / "__init__.py").is_file():
        print(f"error: no unitprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" python={platform.python_version()} cpus={os.cpu_count()}")
    print("measurement stays inside this process: no system-wide tracing, no cache dropping")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            raw, ref, workload, first = setup(args.workload, args.seed, workdir)
            setups.append((raw, ref))
        print("set-up seconds (measured/reference): "
              + " ".join(f"{raw:.4f}/{ref:.4f}" for raw, ref in setups))
        if args.trace:
            return run_traced(args, spec, workload, first)
        return run_untraced(args, spec, workload, first, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
