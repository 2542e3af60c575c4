"""The benchmark's three clustering workloads.

Each workload owns four things: how its reads are generated from the
benchmark seed (set-up), the timed call into the library, the exact work
counts a run must reproduce, and the in-process reference its
assignments are checked against.

A workload's input is several independent samples, each derived from the
benchmark seed, and one pass makes one timed call per sample.  Many
short calls serve two ends.  Per-sample work differences between seeds
average out over the samples, and run.py can take each call's
fastest pass, which a shared host's short noise bursts are
least likely to have hit.  The seed goes only into the read generators;
the hash-family seed is always 0.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.greedy import greedy_cluster
from repro.cluster.pipeline import MrMCMinH
from repro.cluster.sparse import (
    candidate_pair_arrays,
    single_linkage_from_edges,
    sparse_single_linkage,
)
from repro.cluster.sparse_jobs import run_sparse_jobs
from repro.datasets.environmental import generate_environmental_sample
from repro.datasets.whole_metagenome import generate_whole_metagenome_sample
from repro.minhash.sketch import (
    SketchingConfig,
    compute_sketches_batch,
    sketch_matrix,
)
from repro.obs.trace import current_tracer
from repro.utils.rng import derive_seed

THRESHOLD = 0.9

#: Exact counts that must repeat for a given (workload, seed) in every run.
EXACT_COUNTS = (
    "candidate_pairs",
    "shuffle_records",
    "spill_segments",
    "edges",
    "clusters",
)


@dataclass
class CallOutcome:
    """What one timed library call produced, reduced to what checks need."""

    reads: int
    seconds: float
    tsv: str
    counts: dict
    streamed: bool


@dataclass
class PassResult:
    """One pass over a workload's samples."""

    seconds: float = 0.0
    reads: int = 0
    attempted: int = 0
    failed: int = 0
    outcomes: list = field(default_factory=list)

    def totals(self) -> dict:
        """Exact counts summed over the pass's calls."""
        return {name: self.total(name) for name in EXACT_COUNTS}

    def total(self, name: str) -> int:
        return sum(o.counts[name] for o in self.outcomes)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _bench_span(name: str):
    # A no-op context when no tracer is active, so untraced passes pay
    # one context-variable read per call.
    return current_tracer().span(name, kind="bench")


def _engine_counts(counters, candidate_pairs: int, edges: int, clusters: int) -> dict:
    return {
        "candidate_pairs": candidate_pairs,
        "shuffle_records": counters.get("job", "shuffle_records"),
        "spill_segments": counters.get("shuffle", "spill_segments"),
        "edges": edges,
        "clusters": clusters,
        "task_retries": counters.get("fault", "task_retries"),
    }


def kmer_count(reads, k: int) -> int:
    """Exact number of k-mers the sketch kernel hashes for ``reads``."""
    return sum(len(r.sequence) - k + 1 for r in reads if len(r.sequence) >= k)


class Workload:
    """Samples, timed call, reference and checks of one workload."""

    name = ""
    kmer_size = 0
    num_hashes = 0
    #: Seconds one untraced pass took on the reference host; sets how many
    #: passes a run makes, so every commit is sampled the same number of times.
    pass_seconds = 1.0

    def __init__(self, samples: int, reads_per_sample: int):
        self.samples = samples
        self.reads_per_sample = reads_per_sample

    # ---- per-workload parts ---------------------------------------------

    def sample(self, seed: int) -> list:
        """Generate one sample's reads."""
        raise NotImplementedError

    def call(self, reads) -> CallOutcome:
        """The timed library call on one sample; times itself."""
        raise NotImplementedError

    def reference_one(self, reads) -> tuple[dict, float]:
        """In-process reference for one sample: ``tsv`` plus the counts it
        fixes, and the seconds its sketch and clustering calls took."""
        raise NotImplementedError

    def call_problems(self, outcome: CallOutcome) -> list[str]:
        """Invariants of one call beyond matching the reference."""
        return []

    def dense_seconds(self, inputs) -> float:
        """What ``sparse=False`` costs on the same samples; 0 where not run."""
        return 0.0

    # ---- shared by every workload -----------------------------------------

    def config(self) -> SketchingConfig:
        return SketchingConfig(
            kmer_size=self.kmer_size, num_hashes=self.num_hashes, seed=0
        )

    def generate(self, seed: int) -> list:
        """Set-up: the workload's samples for benchmark seed ``seed``."""
        return [self.sample(derive_seed(seed, self.name, i)) for i in range(self.samples)]

    def reads(self, inputs) -> list:
        """All reads of ``inputs``, flattened."""
        return [r for sample in inputs for r in sample]

    def run_pass(self, inputs) -> PassResult:
        """Make the timed call once per sample."""
        result = PassResult()
        for reads in inputs:
            result.attempted += 1
            try:
                outcome = self.call(reads)
            except Exception:
                print(f"[{self.name}] timed call raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                result.failed += 1
                continue
            result.seconds += outcome.seconds
            result.reads += outcome.reads
            result.outcomes.append(outcome)
        return result

    def reference(self, inputs) -> tuple[list[dict], float]:
        """References for every sample and their total in-process seconds."""
        refs, seconds = [], 0.0
        for reads in inputs:
            ref, spent = self.reference_one(reads)
            refs.append(ref)
            seconds += spent
        return refs, seconds

    def check(self, result: PassResult, reference: list[dict]) -> list[str]:
        """Problems with ``result`` against ``reference`` (empty when correct)."""
        if len(result.outcomes) != len(reference):
            return [f"{len(result.outcomes)} outcomes for {len(reference)} samples"]
        problems = []
        for index, (got, want) in enumerate(zip(result.outcomes, reference)):
            if got.tsv != want["tsv"]:
                problems.append(f"sample {index}: assignment differs from reference")
            problems.extend(
                f"sample {index}: {name} {got.counts[name]} != reference {value}"
                for name, value in want.items()
                if name != "tsv" and got.counts[name] != value
            )
            problems.extend(f"sample {index}: {msg}" for msg in self.call_problems(got))
        return problems


class ExactEngine(Workload):
    """Uncapped engine LSH chain, forced below the auto cut-off.

    ``sparse="auto"`` runs this exact chain above 4096 sketches.  One
    1500-read sample's candidate count ranges from 0.3M to 0.8M pairs
    across seeds (the OTU gene pool is drawn from the seed); over 16
    samples of 200 reads the per-seed work stays within a few percent.
    """

    name = "16s-exact-engine"
    kmer_size = 15
    num_hashes = 32
    pass_seconds = 2.6

    def __init__(self, samples: int = 16, reads_per_sample: int = 200):
        super().__init__(samples, reads_per_sample)
        self.model = MrMCMinH(
            kmer_size=self.kmer_size,
            num_hashes=self.num_hashes,
            threshold=THRESHOLD,
            method="hierarchical",
            linkage="single",
            sparse="engine",
        )

    def sample(self, seed):
        return generate_environmental_sample("53R", num_reads=self.reads_per_sample, seed=seed)

    def call(self, reads):
        with _bench_span("bench:MrMCMinH.fit"):
            run, seconds = timed(self.model.fit, reads)
        return CallOutcome(
            reads=len(reads),
            seconds=seconds,
            tsv=run.assignment.to_tsv(),
            counts=_engine_counts(
                run.counters,
                run.sparse_stats["candidate_pairs"],
                run.sparse_stats["edges"],
                run.assignment.num_clusters,
            ),
            streamed=run.sparse_stats["streamed"],
        )

    def reference_one(self, reads):
        sketches, t_sketch = timed(compute_sketches_batch, reads, self.config())
        assignment, t_cluster = timed(sparse_single_linkage, sketches, THRESHOLD)
        ii, _, _ = candidate_pair_arrays(sketches)
        ref = {"tsv": assignment.to_tsv(), "candidate_pairs": len(ii)}
        return ref, t_sketch + t_cluster

    def dense_seconds(self, inputs) -> float:
        model = MrMCMinH(
            kmer_size=self.kmer_size,
            num_hashes=self.num_hashes,
            threshold=THRESHOLD,
            method="hierarchical",
            linkage="single",
            sparse=False,
        )
        return sum(timed(model.fit, reads)[1] for reads in inputs)


class CappedSpill(Workload):
    """Capped LSH chain with the spilling shuffle and streamed edges.

    Each sample is 1/32 of a 20k-read run at 1/32 of its 1 MiB spill
    threshold, so every call spills about as many segments (~19) as the
    20k-read run does.
    """

    name = "16s-capped-spill"
    kmer_size = 15
    num_hashes = 32
    max_group = 64
    pass_seconds = 3.5

    def __init__(
        self,
        samples: int = 12,
        reads_per_sample: int = 625,
        spill_threshold_bytes: int = 32 << 10,
    ):
        super().__init__(samples, reads_per_sample)
        self.spill_threshold_bytes = spill_threshold_bytes

    def sample(self, seed):
        return generate_environmental_sample("53R", num_reads=self.reads_per_sample, seed=seed)

    def call(self, reads):
        with _bench_span("bench:compute_sketches_batch"):
            sketches, t_sketch = timed(compute_sketches_batch, reads, self.config())
        with _bench_span("bench:run_sparse_jobs"):
            run, t_engine = timed(
                run_sparse_jobs,
                sketches,
                THRESHOLD,
                method="hierarchical",
                max_group=self.max_group,
                num_map_tasks=8,
                num_reduce_tasks=8,
                stream=True,
                spill_threshold_bytes=self.spill_threshold_bytes,
            )
        return CallOutcome(
            reads=len(reads),
            seconds=t_sketch + t_engine,
            tsv=run.assignment.to_tsv(),
            counts=_engine_counts(
                run.counters,
                run.candidate_pair_count,
                run.edge_count,
                run.assignment.num_clusters,
            ),
            streamed=run.streamed and run.pairs == {},
        )

    def reference_one(self, reads):
        # As bench_spill_scaling.py builds it: capped in-process candidates,
        # each verified by its positional match over the sketch matrix.
        t0 = time.perf_counter()
        sketches = compute_sketches_batch(reads, self.config())
        ii, jj, _ = candidate_pair_arrays(sketches, max_group=self.max_group)
        matrix = sketch_matrix(sketches)
        matches = np.count_nonzero(matrix[ii] == matrix[jj], axis=1)
        hits = matches / matrix.shape[1] >= THRESHOLD
        assignment = single_linkage_from_edges(
            [s.read_id for s in sketches],
            zip(ii[hits].tolist(), jj[hits].tolist()),
        )
        seconds = time.perf_counter() - t0
        ref = {
            "tsv": assignment.to_tsv(),
            "candidate_pairs": len(ii),
            "edges": int(hits.sum()),
        }
        return ref, seconds

    def call_problems(self, outcome):
        problems = []
        if outcome.counts["spill_segments"] <= 0:
            problems.append("the shuffle wrote no spill segments")
        if not outcome.streamed:
            problems.append("the verify output was collected, not streamed")
        return problems


class WgsGreedy(Workload):
    """Paper Table III settings: dense greedy with the set estimator."""

    name = "wgs-greedy"
    kmer_size = 5
    num_hashes = 100
    pass_seconds = 1.9

    def __init__(self, samples: int = 4, reads_per_sample: int = 5000):
        super().__init__(samples, reads_per_sample)
        self.model = MrMCMinH(
            kmer_size=self.kmer_size,
            num_hashes=self.num_hashes,
            threshold=THRESHOLD,
            method="greedy",
            sparse=False,
        )

    def sample(self, seed):
        return generate_whole_metagenome_sample("S1", num_reads=self.reads_per_sample, seed=seed)

    def call(self, reads):
        with _bench_span("bench:MrMCMinH.fit"):
            run, seconds = timed(self.model.fit, reads)
        return CallOutcome(
            reads=len(reads),
            seconds=seconds,
            tsv=run.assignment.to_tsv(),
            counts=_engine_counts(run.counters, 0, 0, run.assignment.num_clusters),
            streamed=False,
        )

    def reference_one(self, reads):
        t0 = time.perf_counter()
        sketches = compute_sketches_batch(reads, self.config())
        assignment = greedy_cluster(sketches, THRESHOLD, estimator="set")
        return {"tsv": assignment.to_tsv()}, time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (ExactEngine, CappedSpill, WgsGreedy)}
