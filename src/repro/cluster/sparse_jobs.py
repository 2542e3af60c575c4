"""LSH candidate generation and verification as first-class MapReduce jobs.

:mod:`repro.cluster.sparse` computes collision-candidate pairs in-process
with vectorised numpy; this module expresses the *same* computation as a
two-job chain on the real engine — the LSH-on-MapReduce pattern of
Sunarso et al. (*Scalable Protein Sequence Similarity Search using LSH
and MapReduce*) applied to the paper's min-hash sketches::

    job 1  "lsh-candidates"
        map     sketch i            -> ((band_index, band_hash), i)
        reduce  collision group     -> ((i, j), 1) deduplicated pairs
    job 2  "verify-candidates"
        map     identity            (combiner sums per-pair multiplicity)
        reduce  ((i, j), counts)    -> ((i, j), (collisions, match))
                                        verified against side-data sketches
    driver  above-threshold edges   -> union-find / greedy sweep
                                        (repro.cluster.sparse helpers)

Both jobs run their reduce (and the verify job its map and combine) as
one call per task through the engine's batch hooks
(:func:`lsh_candidates_job`, :func:`verify_candidates_job`); the
per-record callables they replace stay as the tested reference.

With ``band_size=1`` (the default) the banding key is ``(hash index,
min-hash value)`` — exactly the grouping of
:func:`repro.cluster.sparse.candidate_pairs` — so the chain's candidate
pairs, collision counts and final assignments are **byte-identical** to
the in-process path for the exact shapes (single linkage, positional
greedy, θ > 0, ``max_group=None``).  Wider bands hash ``band_size``
consecutive components into one key with the engine's process-stable
hash; banding then under-generates relative to the collision join (only
full-band matches collide), trading recall for fewer candidates, and the
verify job is what keeps precision exact.

The verify round always scores pairs against the *side-data sketches*,
not the shuffled collision multiplicities.  The two are equal when no
group is capped; with ``max_group`` set, capping truncates collision
counts (the in-process paths threshold those truncated counts) while the
verify job restores the true positional match over the surviving
candidates — the engine chain is at least as accurate as the in-process
capped join, at the cost of exact equivalence under capping.

Following Ene et al. (*Fast Clustering using MapReduce*), the chain is
measured in **rounds** and **shuffle bytes**, not just wall-clock:
:class:`SparseEngineRun` carries both, and an active
:mod:`repro.obs` tracer records ``phase:lsh-candidates`` /
``phase:verify`` / ``phase:cluster`` spans plus
``sparse_jobs.*`` gauges.
"""

from __future__ import annotations

import time
import zlib
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat

import numpy as np

from repro.errors import ClusteringError, SparseCompatibilityError
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.sparse import make_edge_stream
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob, identity_batch_mapper, identity_mapper
from repro.mapreduce.shuffle import sort_grouped_keys
from repro.mapreduce.types import JobConf, JobTrace, stable_hash
from repro.minhash.sketch import MinHashSketch, sketch_matrix
from repro.minhash.wire import effective_threshold, pack_values, unpack_values
from repro.obs.trace import current_tracer

ENGINE_METHODS = ("hierarchical", "greedy")


# --------------------------------------------------------------- side data


@dataclass(frozen=True)
class SketchSideData:
    """Distributed-cache analogue: the sketch matrix every verify task reads.

    The verify reducer needs random access to all sketches, which Hadoop
    ships via the DistributedCache rather than the shuffle.  The payload
    is either the full-precision little-endian int64 matrix
    (``bits=None``, exact verification) or a b-bit packed plane from
    :func:`repro.minhash.wire.pack_values` (verification happens in
    low-bit space against :func:`effective_threshold`).  The CRC mirrors
    the wire frames' IFile-checksum model.
    """

    payload: bytes
    crc: int
    num_records: int
    num_hashes: int
    bits: int | None

    @classmethod
    def pack(cls, matrix: np.ndarray, bits: int | None = None) -> "SketchSideData":
        matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
        if matrix.ndim != 2:
            raise ClusteringError(
                f"expected a 2-D sketch matrix, got shape {matrix.shape}"
            )
        if bits is None:
            payload = matrix.astype("<i8").tobytes()
        else:
            payload = pack_values(matrix, bits)
        return cls(
            payload=payload,
            crc=zlib.crc32(payload),
            num_records=matrix.shape[0],
            num_hashes=matrix.shape[1],
            bits=bits,
        )

    def matrix(self) -> np.ndarray:
        """Decode (and CRC-verify) the payload back to an int64 matrix."""
        if zlib.crc32(self.payload) != self.crc:
            raise ClusteringError("sketch side data failed its CRC check")
        if self.bits is None:
            return (
                np.frombuffer(self.payload, dtype="<i8")
                .reshape(self.num_records, self.num_hashes)
                .astype(np.int64)
            )
        return unpack_values(
            self.payload, self.num_records, self.num_hashes, self.bits
        )

    @property
    def nbytes(self) -> int:
        return len(self.payload)


# ------------------------------------------------------------ job 1: bands


class LshBandMapper:
    """Emit ``((band_index, band_hash), sketch_index)`` for every band.

    ``band_size=1`` reproduces the collision join of
    :mod:`repro.cluster.sparse` exactly: the band hash *is* the min-hash
    value and the band index is the hash index.  Wider bands hash the
    component tuple with :func:`~repro.mapreduce.types.stable_hash` so
    keys stay process-stable across the multiprocess runner's workers.
    """

    def __init__(self, band_size: int = 1):
        self.band_size = band_size

    def __call__(self, key, values):
        r = self.band_size
        if r == 1:
            for h, value in enumerate(values):
                yield (h, int(value)), key
            return
        for b in range(len(values) // r):
            band = tuple(int(v) for v in values[b * r : (b + 1) * r])
            yield (b, stable_hash(band)), key


class CandidatePairReducer:
    """One collision group -> its deduplicated intra-group pairs.

    Emits ``((i, j), 1)`` with ``i < j``; the verify job sums the
    multiplicities into per-pair collision counts.  Groups larger than
    ``max_group`` are dropped — the degenerate-value cap real Hadoop LSH
    jobs apply, mirrored from :func:`repro.cluster.sparse.candidate_pairs`.
    :meth:`batch` is the whole-partition form the job runs.
    """

    def __init__(self, max_group: int | None = None):
        self.max_group = max_group

    def __call__(self, key, members):
        members = sorted(set(members))
        if len(members) < 2:
            return
        if self.max_group is not None and len(members) > self.max_group:
            return
        for pair in combinations(members, 2):
            yield pair, 1

    def batch(self, groups) -> list[tuple]:
        out: list[tuple] = []
        for _key, members in groups:
            members = sorted(set(members))
            if len(members) < 2:
                continue
            if self.max_group is not None and len(members) > self.max_group:
                continue
            out.extend(zip(combinations(members, 2), repeat(1)))
        return out


def lsh_candidates_job(
    band_size: int = 1, max_group: int | None = None
) -> MapReduceJob:
    """The chain's first round: band the sketches, emit colliding pairs."""
    reducer = CandidatePairReducer(max_group)
    return MapReduceJob(
        name="lsh-candidates",
        mapper=LshBandMapper(band_size),
        reducer=reducer,
        batch_reducer=reducer.batch,
    )


# ----------------------------------------------------------- job 2: verify


def sum_combiner(key, values):
    """Sum per-pair multiplicities map-side to shrink the shuffle."""
    yield key, sum(values)


def sum_batch_combiner(records) -> list[tuple]:
    """:func:`sum_combiner` over one map task's whole output."""
    totals: dict = defaultdict(int)
    for key, value in records:
        totals[key] += value
    return [(key, totals[key]) for key in sort_grouped_keys(totals)]


class VerifyReducer:
    """Aggregate collision counts and verify every candidate pair.

    Sums the pair's multiplicities into its collision count, drops pairs
    below ``min_shared``, then scores the pair against the side-data
    sketches: ``match`` is the positional match fraction — computed over
    the low b bits when the side data is b-bit packed, in which case the
    driver thresholds it at :func:`effective_threshold` rather than θ.
    Emits ``((i, j), (collisions, match))`` for *all* surviving
    candidates so the candidate set and the edge set both come out of one
    reduce pass.  :meth:`batch` is the whole-partition form the job runs:
    it scores the partition's pairs with one fancy-index compare per
    chunk of :attr:`chunk_pairs` pairs.
    """

    #: Pairs compared per fancy-index chunk (bounds the gathered rows).
    chunk_pairs = 1 << 15

    def __init__(self, side: SketchSideData, min_shared: int = 1):
        self.side = side
        self.min_shared = min_shared
        self._matrix: np.ndarray | None = None

    def __getstate__(self):
        # The decoded matrix is a per-process cache; ship only the frame.
        state = dict(self.__dict__)
        state["_matrix"] = None
        return state

    def _decoded(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.side.matrix()
        return self._matrix

    def __call__(self, pair, counts):
        matrix = self._decoded()
        collisions = int(sum(counts))
        if collisions < self.min_shared:
            return
        i, j = pair
        matches = int(np.count_nonzero(matrix[i] == matrix[j]))
        yield pair, (collisions, matches / self.side.num_hashes)

    def batch(self, groups) -> list[tuple]:
        matrix = self._decoded()
        pairs: list[tuple] = []
        collisions: list[int] = []
        for pair, counts in groups:
            total = int(sum(counts))
            if total >= self.min_shared:
                pairs.append(pair)
                collisions.append(total)
        out: list[tuple] = []
        for start in range(0, len(pairs), self.chunk_pairs):
            chunk = pairs[start : start + self.chunk_pairs]
            ends = np.fromiter(
                chain.from_iterable(chunk), dtype=np.int64, count=2 * len(chunk)
            )
            same = matrix[ends[0::2]] == matrix[ends[1::2]]
            matches = np.count_nonzero(same, axis=1)
            scores = (matches / self.side.num_hashes).tolist()
            out.extend(
                zip(chunk, zip(collisions[start : start + self.chunk_pairs], scores))
            )
        return out


def verify_candidates_job(
    side: SketchSideData, min_shared: int = 1
) -> MapReduceJob:
    """The chain's second round: sum collisions, score pairs on side data.

    One :class:`VerifyReducer` serves as both the per-record and the
    batch reducer, so each process decodes the side data once.
    """
    verifier = VerifyReducer(side, min_shared)
    return MapReduceJob(
        name="verify-candidates",
        mapper=identity_mapper,
        combiner=sum_combiner,
        reducer=verifier,
        batch_mapper=identity_batch_mapper,
        batch_combiner=sum_batch_combiner,
        batch_reducer=verifier.batch,
    )


# ----------------------------------------------------------------- driver


@dataclass
class SparseEngineRun:
    """Everything produced by one run of the two-job LSH chain."""

    pairs: dict[tuple[int, int], int]
    """Candidate pairs ``{(i, j): collisions}`` — equals
    :func:`repro.cluster.sparse.candidate_pairs` at ``band_size=1``."""

    matches: dict[tuple[int, int], float]
    """Verified positional match fraction per candidate pair."""

    edges: list[tuple[int, int]]
    """Candidate pairs whose verified match cleared the threshold."""

    assignment: ClusterAssignment | None
    """Final clustering (``None`` when run without a threshold)."""

    traces: list[JobTrace]
    counters: Counters
    timings: dict[str, float]
    threshold: float | None
    band_size: int = 1
    wire_bits: int | None = None
    side_data_bytes: int = 0
    candidate_pair_count: int = 0
    """Verified candidate pairs seen (equals ``len(pairs)`` when collected;
    the only pair accounting available in streamed runs)."""
    edge_count: int = 0
    """Above-threshold edges (equals ``len(edges)`` when collected)."""
    streamed: bool = False
    """True when the verify output was streamed straight into the
    clusterer — ``pairs``/``matches``/``edges`` are then left empty."""

    @property
    def rounds(self) -> int:
        """MapReduce rounds consumed (Ene et al.'s cost measure)."""
        return len(self.traces)

    @property
    def shuffle_bytes(self) -> int:
        """Total shuffle volume across the chain's jobs."""
        return sum(t.shuffle_bytes for t in self.traces)

    @property
    def wall_seconds(self) -> float:
        return sum(self.timings.values())


def run_sparse_jobs(
    sketches: Sequence[MinHashSketch],
    threshold: float | None = None,
    *,
    method: str = "hierarchical",
    runner=None,
    band_size: int = 1,
    min_shared: int = 1,
    max_group: int | None = None,
    wire_bits: int | None = None,
    num_map_tasks: int = 4,
    num_reduce_tasks: int = 4,
    stream: bool = False,
    spill_threshold_bytes: int | None = None,
) -> SparseEngineRun:
    """Run the LSH candidate chain, optionally through to a clustering.

    Parameters
    ----------
    threshold:
        Similarity threshold θ in ``(0, 1]``.  ``None`` stops after the
        verify job (candidate generation only, no assignment).
    method:
        ``"hierarchical"`` (exact single linkage via union-find over the
        edge stream) or ``"greedy"`` (Algorithm 1's sweep, positional
        estimator semantics).
    band_size:
        Sketch components per LSH band; must divide ``num_hashes``.
        ``1`` is exact w.r.t. the in-process collision join.
    wire_bits:
        Verify against b-bit packed side-data sketches instead of full
        precision; edges are thresholded at
        ``effective_threshold(threshold, wire_bits)``.
    stream:
        Feed the verify job's output records straight into the edge-stream
        clusterer (``output_sink``) instead of collecting them in the
        driver: the full candidate-pair list is never materialized
        (``pairs``/``matches``/``edges`` stay empty; the counts survive as
        ``candidate_pair_count``/``edge_count``).  Assignments are
        byte-identical to the collected path because both clusterers are
        edge-order/duplication independent.  Requires a ``threshold``.
    spill_threshold_bytes:
        Forwarded to both jobs' :class:`JobConf` as the spill threshold
        of their :class:`~repro.mapreduce.shuffle.SpillingShuffle` (every
        job runs through it; ``None`` never spills).  Spilling bounds
        the shuffle's buffers, not the chain: the driver still collects
        the whole LSH job output (one record per pair collision) and
        hands it to the verify job as a list.
    """
    from repro.mapreduce.runner import SerialRunner

    if not sketches:
        raise ClusteringError("no sketches to index")
    if stream and threshold is None:
        raise ClusteringError(
            "stream=True requires a threshold (edges stream into a clusterer)"
        )
    if min_shared < 1:
        raise ClusteringError(f"min_shared must be >= 1, got {min_shared}")
    if method not in ENGINE_METHODS:
        raise ClusteringError(
            f"unknown method {method!r}; expected one of {ENGINE_METHODS}"
        )
    matrix = sketch_matrix(sketches)  # validates family compatibility
    n, num_hashes = matrix.shape
    if band_size < 1 or num_hashes % band_size != 0:
        raise SparseCompatibilityError(
            f"band_size must be >= 1 and divide num_hashes "
            f"({num_hashes}), got {band_size}"
        )
    if threshold is not None and not 0.0 < threshold <= 1.0:
        raise ClusteringError(
            f"threshold must be in (0, 1] for the sparse path, got {threshold}"
        )
    theta = threshold
    if threshold is not None and wire_bits is not None:
        theta = effective_threshold(threshold, wire_bits)

    runner = runner or SerialRunner()
    tracer = current_tracer()
    counters = Counters()
    traces: list[JobTrace] = []
    timings: dict[str, float] = {}

    # ---- round 1: banding map + pair-emitting reduce ---------------------
    t0 = time.perf_counter()
    with tracer.span(
        "phase:lsh-candidates",
        kind="phase",
        band_size=band_size,
        num_records=n,
    ):
        band_job = lsh_candidates_job(band_size, max_group)
        inputs = [(i, s.values.tolist()) for i, s in enumerate(sketches)]
        band_result = runner.run(
            band_job,
            inputs,
            JobConf(
                num_map_tasks=num_map_tasks,
                num_reduce_tasks=num_reduce_tasks,
                spill_threshold_bytes=spill_threshold_bytes,
            ),
        )
        counters.merge(band_result.counters)
        if band_result.trace is not None:
            traces.append(band_result.trace)
    timings["lsh_candidates"] = time.perf_counter() - t0

    # ---- round 2: per-pair count aggregation + sketch verification -------
    t0 = time.perf_counter()
    with tracer.span(
        "phase:verify",
        kind="phase",
        candidate_records=len(band_result.output),
        wire_bits=wire_bits,
    ):
        side = SketchSideData.pack(matrix, wire_bits)
        verify_job = verify_candidates_job(side, min_shared)
        verify_conf = JobConf(
            num_map_tasks=num_map_tasks,
            num_reduce_tasks=num_reduce_tasks,
            spill_threshold_bytes=spill_threshold_bytes,
        )
        clusterer = None
        pair_count = 0
        if stream:
            # Edges flow from the reducers straight into the incremental
            # clusterer: the driver holds O(N) union-find / adjacency
            # state, never the O(pairs) candidate list.
            clusterer = make_edge_stream([s.read_id for s in sketches], method)

            def sink(record):
                nonlocal pair_count
                (i, j), (_collisions, match) = record
                pair_count += 1
                if float(match) >= theta:
                    clusterer.add(int(i), int(j))

            verify_result = runner.run(
                verify_job, band_result.output, verify_conf, output_sink=sink
            )
        else:
            verify_result = runner.run(
                verify_job, band_result.output, verify_conf
            )
        counters.merge(verify_result.counters)
        if verify_result.trace is not None:
            traces.append(verify_result.trace)
    timings["verify"] = time.perf_counter() - t0

    pairs: dict[tuple[int, int], int] = {}
    matches: dict[tuple[int, int], float] = {}
    edges: list[tuple[int, int]] = []
    if not stream:
        for (i, j), (collisions, match) in verify_result.output:
            pair = (int(i), int(j))
            pairs[pair] = int(collisions)
            matches[pair] = float(match)
        if theta is not None:
            edges = [pair for pair, match in matches.items() if match >= theta]
        pair_count = len(pairs)
    edge_count = clusterer.edges_seen if clusterer is not None else len(edges)

    # ---- driver: union-find / greedy sweep over the edge stream ----------
    assignment: ClusterAssignment | None = None
    if threshold is not None:
        t0 = time.perf_counter()
        with tracer.span("phase:cluster", kind="phase", num_edges=edge_count):
            if clusterer is None:
                clusterer = make_edge_stream([s.read_id for s in sketches], method)
                assignment = clusterer.cluster(edges)
            else:
                assignment = clusterer.finish()
        timings["cluster"] = time.perf_counter() - t0
        counters.increment("sparse_jobs", "clusters", assignment.num_clusters)

    shuffle_bytes = sum(t.shuffle_bytes for t in traces)
    counters.increment("sparse_jobs", "candidate_pairs", pair_count)
    counters.increment("sparse_jobs", "edges", edge_count)
    counters.increment("sparse_jobs", "rounds", len(traces))
    tracer.metrics.gauge("sparse_jobs.candidate_pairs").set(pair_count)
    tracer.metrics.gauge("sparse_jobs.edges").set(edge_count)
    tracer.metrics.gauge("sparse_jobs.rounds").set(len(traces))
    tracer.metrics.gauge("sparse_jobs.shuffle_bytes").set(shuffle_bytes)
    tracer.metrics.gauge("sparse_jobs.side_data_bytes").set(side.nbytes)

    return SparseEngineRun(
        pairs=pairs,
        matches=matches,
        edges=edges,
        assignment=assignment,
        traces=traces,
        counters=counters,
        timings=timings,
        threshold=threshold,
        band_size=band_size,
        wire_bits=wire_bits,
        side_data_bytes=side.nbytes,
        candidate_pair_count=pair_count,
        edge_count=edge_count,
        streamed=stream,
    )


def engine_candidate_pairs(
    sketches: Sequence[MinHashSketch],
    *,
    runner=None,
    band_size: int = 1,
    min_shared: int = 1,
    max_group: int | None = None,
    num_map_tasks: int = 4,
    num_reduce_tasks: int = 4,
    spill_threshold_bytes: int | None = None,
) -> tuple[dict[tuple[int, int], int], SparseEngineRun]:
    """Candidate pairs via the job chain; drop-in for
    :func:`repro.cluster.sparse.candidate_pairs` (returns the run too)."""
    run = run_sparse_jobs(
        sketches,
        None,
        runner=runner,
        band_size=band_size,
        min_shared=min_shared,
        max_group=max_group,
        num_map_tasks=num_map_tasks,
        num_reduce_tasks=num_reduce_tasks,
        spill_threshold_bytes=spill_threshold_bytes,
    )
    return run.pairs, run


def engine_sparse_cluster(
    sketches: Sequence[MinHashSketch],
    threshold: float,
    *,
    method: str = "hierarchical",
    runner=None,
    band_size: int = 1,
    max_group: int | None = None,
    wire_bits: int | None = None,
    num_map_tasks: int = 4,
    num_reduce_tasks: int = 4,
    stream: bool = False,
    spill_threshold_bytes: int | None = None,
) -> SparseEngineRun:
    """Cluster through the job chain.

    At ``band_size=1`` / ``wire_bits=None`` the assignment is
    byte-identical to :func:`repro.cluster.sparse.sparse_single_linkage`
    (``method="hierarchical"``) or
    :func:`repro.cluster.sparse.sparse_greedy_cluster`
    (``method="greedy"``) at the same ``max_group`` — streamed or not.
    """
    if threshold is None:
        raise ClusteringError("engine_sparse_cluster requires a threshold")
    return run_sparse_jobs(
        sketches,
        threshold,
        method=method,
        runner=runner,
        band_size=band_size,
        max_group=max_group,
        wire_bits=wire_bits,
        num_map_tasks=num_map_tasks,
        num_reduce_tasks=num_reduce_tasks,
        stream=stream,
        spill_threshold_bytes=spill_threshold_bytes,
    )
