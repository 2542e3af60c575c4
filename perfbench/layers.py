"""Per-layer metrics from one traced pass, and the memory probes.

Time comes from the spans the library already records (pipeline, phase,
job, stage and spill spans) plus the benchmark's own ``kind="bench"``
spans around each library call.  Memory comes from ``/proc/self/status``:
``VmHWM`` is the peak resident set since the last write of ``5`` to
``/proc/self/clear_refs``, so resetting it brackets a peak to a region.
"""

from __future__ import annotations

import re
import threading

_HWM = re.compile(r"^VmHWM:\s+(\d+) kB", re.MULTILINE)

#: Span kinds the RSS sampler attributes peaks to.
MEMORY_KINDS = ("phase", "bench")
#: Stage spans whose spill children belong to ``mapreduce.spill_s``.
STAGES = ("map", "shuffle", "reduce")
#: RSS sampling period; reading and resetting the mark costs ~40 us.
SAMPLE_INTERVAL_S = 0.005


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark from now."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mib() -> float:
    """Peak resident set (MiB) since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(_HWM.search(fh.read()).group(1)) / 1024.0


class RssSampler:
    """One thread that assigns resident-set peaks to open spans.

    Every :data:`SAMPLE_INTERVAL_S` it reads the high-water mark, resets
    it, and records it against every phase or bench span that was open at any
    moment since the previous tick, so each span ends up with the peak
    reached while it was open (a span is charged for at most one tick
    of its neighbours' memory at its boundaries).
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.peaks: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler")

    def __enter__(self) -> "RssSampler":
        reset_peak_rss()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        seen = 0
        live: list = []
        while True:
            stopping = self._stop.wait(SAMPLE_INTERVAL_S)
            spans = self.tracer.spans
            new = spans[seen:]
            seen += len(new)
            live.extend(s for s in new if s.kind in MEMORY_KINDS)
            peak = peak_rss_mib()
            reset_peak_rss()
            for span in live:
                if peak > self.peaks.get(span.span_id, 0.0):
                    self.peaks[span.span_id] = peak
            live = [s for s in live if s.end_s is None]
            if stopping:
                return


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class SpanIndex:
    """Finished spans of one traced pass, indexed by name and parent."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s.end_s is not None]
        self.children: dict[int, list] = {}
        for span in self.spans:
            self.children.setdefault(span.parent_id, []).append(span)

    def named(self, *names: str) -> list:
        return [s for s in self.spans if s.name in names]

    def seconds(self, *names: str) -> float:
        return sum(s.duration_s for s in self.named(*names))

    def descendants(self, span, kind: str) -> list:
        found = []
        stack = list(self.children.get(span.span_id, ()))
        while stack:
            child = stack.pop()
            if child.kind == kind:
                found.append(child)
            stack.extend(self.children.get(child.span_id, ()))
        return found

    def self_seconds(self, span, children: list) -> float:
        """``span``'s duration minus the time ``children`` cover."""
        return span.duration_s - _covered([(c.start_s, c.end_s) for c in children])


def layer_metrics(
    index: SpanIndex,
    peaks: dict[int, float],
    *,
    totals: dict,
    kmers: int,
    reads: int,
) -> dict:
    """Per-layer metrics of one traced pass (see ``BENCHMARK.json``).

    ``totals`` are the pass's exact counts from the library's own return
    values and job counters; everything timed comes from ``index``.
    Stage self time excludes the spill spans nested in a stage (those are
    ``mapreduce.spill_s``); task and attempt spans are the stage's own
    work and stay in.
    """
    sketch = index.named("phase:sketch", "bench:compute_sketches_batch")
    sketch_s = sum(s.duration_s for s in sketch)
    lsh_s = index.seconds("phase:lsh-candidates")
    verify_s = index.seconds("phase:verify")
    cluster_s = index.seconds("phase:cluster")
    stage_s = {
        name: sum(
            index.self_seconds(s, index.descendants(s, "spill"))
            for s in index.named(name)
            if s.kind == "stage"
        )
        for name in STAGES
    }
    engine_s = sum(stage_s.values())
    # Driver time outside any phase: input packing in fit, sketch_matrix
    # and side-data set-up in run_sparse_jobs.
    drivers = index.named("pipeline:mrmcminh", "bench:run_sparse_jobs")
    driver_other_s = sum(
        index.self_seconds(
            s, [c for c in index.children.get(s.span_id, ()) if c.kind == "phase"]
        )
        for s in drivers
    )
    wall_s = sum(
        s.duration_s for s in index.spans if s.kind == "bench" and s.parent_id is None
    )
    pairs = totals["candidate_pairs"]

    def peak(spans) -> float:
        return max((peaks.get(s.span_id, 0.0) for s in spans), default=0.0)

    return {
        "minhash.sketch_s": sketch_s,
        "minhash.kmers_per_s": kmers / sketch_s if sketch_s else 0.0,
        "minhash.peak_rss_mib": peak(sketch),
        "mapreduce.map_s": stage_s["map"],
        "mapreduce.shuffle_s": stage_s["shuffle"],
        "mapreduce.reduce_s": stage_s["reduce"],
        "mapreduce.shuffle_records": totals["shuffle_records"],
        "mapreduce.shuffle_bytes": sum(
            s.attrs.get("shuffle_bytes", 0) for s in index.spans if s.kind == "job"
        ),
        "mapreduce.records_per_s": totals["shuffle_records"] / engine_s if engine_s else 0.0,
        "mapreduce.spill_segments": totals["spill_segments"],
        "mapreduce.spill_bytes": sum(
            s.attrs.get("spill_bytes", 0) for s in index.named("shuffle")
        ),
        "mapreduce.spill_s": sum(s.duration_s for s in index.spans if s.kind == "spill"),
        "mapreduce.task_retries": totals["task_retries"],
        "sparse_jobs.lsh_s": lsh_s,
        "sparse_jobs.verify_s": verify_s,
        "sparse_jobs.candidate_pairs": pairs,
        "sparse_jobs.pairs_per_read": pairs / reads,
        "sparse_jobs.verify_yield": totals["edges"] / pairs if pairs else 0.0,
        "sparse_jobs.peak_rss_mib": peak(index.named("phase:lsh-candidates", "phase:verify")),
        "cluster.cluster_s": cluster_s,
        "cluster.edges": totals["edges"],
        "cluster.clusters": totals["clusters"],
        "cluster.driver_other_s": driver_other_s,
        "obs.wall_s": wall_s,
        "obs.phase_coverage": (sketch_s + lsh_s + verify_s + cluster_s) / wall_s,
    }
