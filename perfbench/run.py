"""Clustering benchmark: run one workload for one seed, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload wgs-greedy --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` sets the inputs up five times (``setup_s`` is the median),
then makes a fixed number of untraced passes over them: ``--seconds``
over the workload's nominal pass time, cut short only if a pass would end
past 1.25 x ``--seconds``.  It reports ``reads_per_s`` (from each call's
fastest pass), ``peak_rss_mib`` (median over passes) and ``setup_s``.
``--trace 1`` makes three untraced passes alternating with three passes
under a :class:`repro.obs.Tracer` with a resident-set sampler, reports
the per-layer metrics of the fastest traced pass, and writes its spans
to ``.perfbench/traces/``.

Every run checks every pass against the workload's in-process reference,
outside the timed region, and requires the exact work counts to repeat
across passes and across runs of the same (workload, seed) on the same
library and benchmark sources; a correct run's counts are kept in
``.perfbench/counts/`` under a hash of those sources.  Metric lines go to
standard output by name and unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.obs import Tracer  # noqa: E402

STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
#: Untraced and traced passes of a ``--trace 1`` run, alternating.
TRACE_REPEATS = 3
#: A ``--trace 0`` run stops early once a pass would end past this share
#: of ``--seconds``, so a much slower commit still ends in time.
DEADLINE_SHARE = 1.25

END_TO_END = {
    "reads_per_s": "reads/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "minhash.sketch_s": "s",
    "minhash.kmers_per_s": "kmers/s",
    "minhash.scaling_exp": "exponent",
    "minhash.peak_rss_mib": "MiB",
    "mapreduce.map_s": "s",
    "mapreduce.shuffle_s": "s",
    "mapreduce.reduce_s": "s",
    "mapreduce.shuffle_records": "count",
    "mapreduce.shuffle_bytes": "B",
    "mapreduce.records_per_s": "records/s",
    "mapreduce.spill_segments": "count",
    "mapreduce.spill_bytes": "B",
    "mapreduce.spill_s": "s",
    "mapreduce.task_retries": "count",
    "sparse_jobs.lsh_s": "s",
    "sparse_jobs.verify_s": "s",
    "sparse_jobs.candidate_pairs": "count",
    "sparse_jobs.pairs_per_read": "pairs/read",
    "sparse_jobs.verify_yield": "ratio",
    "sparse_jobs.peak_rss_mib": "MiB",
    "cluster.cluster_s": "s",
    "cluster.edges": "count",
    "cluster.clusters": "count",
    "cluster.driver_other_s": "s",
    "baseline.inprocess_s": "s",
    "baseline.engine_over_inprocess": "ratio",
    "baseline.dense_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.phase_coverage": "ratio",
    "obs.wall_s": "s",
}


def _sources_key() -> str:
    """Hash of the library and benchmark sources.

    Counts recorded under another key came from other code, which may
    legitimately do different work, so they are never compared.
    """
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*(ROOT / "src").rglob("*.py"), *here.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _ledger_problems(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare a correct run's ``counts`` with earlier runs of (workload,
    seed) on the same sources; record them if this is the first."""
    path = STATE / "counts" / f"{workload}-seed{seed}-{_sources_key()}.json"
    if path.exists():
        recorded = json.loads(path.read_text(encoding="ascii"))
        return [
            f"nondeterministic {name}: {counts.get(name)} now, {value} before"
            for name, value in recorded.items()
            if counts.get(name) != value
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True), encoding="ascii")
    os.replace(tmp, path)
    return []


def _repeat_problems(passes) -> list[str]:
    first = passes[0].totals()
    return [
        f"pass {i}: {name} {p.totals()[name]} != {first[name]} in pass 0"
        for i, p in enumerate(passes[1:], start=1)
        for name in first
        if p.totals()[name] != first[name]
    ]


def _setup(workload, seed: int, repeats: int):
    times = []
    for _ in range(repeats):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.generate(seed)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def _sketch_scaling_exp(workload, inputs) -> float:
    """log2(t(N) / t(N/2)) of compute_sketches_batch on the workload's reads."""
    reads = workload.reads(inputs)
    config = workload.config()

    def seconds(records):
        return statistics.median(
            workloads.timed(workloads.compute_sketches_batch, records, config)[1]
            for _ in range(3)
        )

    return math.log2(seconds(reads) / seconds(reads[: len(reads) // 2]))


def _best_seconds(passes) -> float:
    """Sum over calls of each call's fastest pass.

    Other tenants of a shared host only ever add time; a call's fastest
    repeat is the one they disturbed least.  Summing over every call
    keeps each sample in, so per-sample work differences average out.
    """
    return sum(
        min(o.seconds for o in outcomes) for outcomes in zip(*(p.outcomes for p in passes))
    )


def run_untraced(workload, seed: int, seconds: float):
    inputs, setup_s = _setup(workload, seed, SETUP_REPEATS)
    wanted = max(1, int(seconds / workload.pass_seconds))
    passes, peaks = [], []
    start = time.perf_counter()
    while len(passes) < wanted:
        gc.collect()
        layers.reset_peak_rss()
        result = workload.run_pass(inputs)
        peaks.append(layers.peak_rss_mib())
        passes.append(result)
        elapsed = time.perf_counter() - start
        if result.failed or elapsed * (len(passes) + 1) / len(passes) > DEADLINE_SHARE * seconds:
            break
    reference, _ = workload.reference(inputs)
    failed = any(p.failed for p in passes)
    metrics = {
        "reads_per_s": 0.0 if failed else passes[0].reads / _best_seconds(passes),
        "peak_rss_mib": statistics.median(peaks),
        "setup_s": setup_s,
    }
    return passes, reference, metrics


def run_traced(workload, seed: int):
    inputs, _ = _setup(workload, seed, 1)
    untraced, traced = [], []
    for _ in range(TRACE_REPEATS):
        untraced.append(workload.run_pass(inputs))
        gc.collect()
        tracer = Tracer()
        with tracer.activate(), layers.RssSampler(tracer) as sampler:
            traced.append((workload.run_pass(inputs), tracer, sampler))
    passes = untraced + [p for p, _, _ in traced]
    reference, _ = workload.reference(inputs)
    if any(p.failed for p in passes):
        return passes, reference, dict.fromkeys(PER_LAYER, 0.0)
    fastest, tracer, sampler = min(traced, key=lambda t: t[0].seconds)
    metrics = layers.layer_metrics(
        layers.SpanIndex(tracer.spans),
        sampler.peaks,
        totals=dict(fastest.totals(), task_retries=fastest.total("task_retries")),
        kmers=workloads.kmer_count(workload.reads(inputs), workload.kmer_size),
        reads=fastest.reads,
    )
    untraced_s = _best_seconds(untraced)
    inprocess_s = min(workload.reference(inputs)[1] for _ in range(TRACE_REPEATS))
    metrics.update(
        {
            "minhash.scaling_exp": _sketch_scaling_exp(workload, inputs),
            "baseline.inprocess_s": inprocess_s,
            "baseline.engine_over_inprocess": untraced_s / inprocess_s,
            "baseline.dense_s": workload.dense_seconds(inputs),
            "obs.trace_overhead": _best_seconds([p for p, _, _ in traced]) / untraced_s,
        }
    )
    traces = STATE / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(traces / f"{workload.name}-seed{seed}.jsonl")
    return passes, reference, metrics


def _keep_spills_in_checkout() -> None:
    spill_dir = STATE / "tmp"
    spill_dir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(spill_dir)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    _keep_spills_in_checkout()
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload_name!r}; one of {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[workload_name]()
    if trace:
        passes, reference, metrics = run_traced(workload, seed)
        units = PER_LAYER
    else:
        passes, reference, metrics = run_untraced(workload, seed, seconds)
        units = END_TO_END

    problems = [
        f"pass {i}: {problem}"
        for i, result in enumerate(passes)
        for problem in workload.check(result, reference)
    ]
    problems.extend(_repeat_problems(passes))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not problems and not failed:
        problems.extend(_ledger_problems(workload_name, seed, passes[0].totals()))
    if problems and not failed:
        # A wrong answer fails the calls that produced it.
        failed = attempted
    correct = not problems and not failed

    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"correct: {correct} ({attempted} calls, {failed} failed)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def self_test() -> int:
    """Show that the checks accept real outputs and reject perturbed ones."""
    _keep_spills_in_checkout()
    failures = []
    small = [
        workloads.ExactEngine(samples=2, reads_per_sample=120),
        workloads.CappedSpill(samples=2, reads_per_sample=600, spill_threshold_bytes=16 << 10),
        workloads.WgsGreedy(samples=2, reads_per_sample=150),
    ]
    for workload in small:
        inputs = workload.generate(0)
        result = workload.run_pass(inputs)
        reference, _ = workload.reference(inputs)
        if workload.check(result, reference):
            failures.append(f"{workload.name}: real output rejected")
        outcome = result.outcomes[0]
        original = outcome.tsv
        read_id, label = original.splitlines()[0].split("\t")
        outcome.tsv = original.replace(
            f"{read_id}\t{label}\n", f"{read_id}\t{int(label) + 10**6}\n", 1
        )
        if not workload.check(result, reference):
            failures.append(f"{workload.name}: perturbed assignment accepted")
        outcome.tsv = original
        for name in reference[0]:
            if name == "tsv":
                continue
            outcome.counts[name] += 1
            if not workload.check(result, reference):
                failures.append(f"{workload.name}: perturbed {name} accepted")
            outcome.counts[name] -= 1
        twice = [result, workload.run_pass(inputs)]
        if _repeat_problems(twice):
            failures.append(f"{workload.name}: counts differ between passes")
        twice[1].outcomes[0].counts["clusters"] += 1
        if not _repeat_problems(twice):
            failures.append(f"{workload.name}: changed clusters count accepted")

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        declared = {
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        if declared != {"end_to_end": END_TO_END, "per_layer": PER_LAYER}:
            failures.append("BENCHMARK.json metrics differ from the ones run.py prints")
        if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
            failures.append("BENCHMARK.json workloads differ from workloads.py")

    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}")
    print("self-test ok" if not failures else "self-test failed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
