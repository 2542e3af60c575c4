"""Property-test net over the dense <-> sparse <-> engine-sparse boundary.

On random sketch sets (hypothesis-generated matrices), the engine-sparse
job chain must produce exactly the in-process candidate pairs, and the
three similarity paths must agree on the final clustering wherever
exactness is guaranteed: byte-identical TSV for sparse vs engine-sparse
(single linkage and greedy), dict-equal labels for dense-positional vs
sparse greedy, and partition-equal clusters for dense vs sparse single
linkage (the dense dendrogram numbers clusters differently from the
union-find sweep, so equality is of the partition, not the label bytes).

The chain's batch hooks (whole-task combine and reduce) are also checked
against the per-record callables they replace: identical output and
identical ``job``/``shuffle`` counters.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.greedy import greedy_cluster
from repro.cluster.hierarchical import agglomerative_cluster
from repro.cluster.matrix import compute_similarity_matrix
from repro.cluster.sparse import (
    candidate_pairs,
    sparse_greedy_cluster,
    sparse_single_linkage,
)
from repro.cluster.sparse_jobs import (
    SketchSideData,
    VerifyReducer,
    engine_candidate_pairs,
    engine_sparse_cluster,
    lsh_candidates_job,
    sum_batch_combiner,
    sum_combiner,
    verify_candidates_job,
)
from repro.errors import MapReduceError
from repro.mapreduce.local import MultiprocessRunner
from repro.mapreduce.runner import SerialRunner
from repro.mapreduce.shuffle import (
    SpillingShuffle,
    default_partitioner,
    sort_grouped_keys,
)
from repro.mapreduce.types import JobConf
from repro.minhash.sketch import sketches_from_matrix

# Small universes force plenty of collisions; n in [4, 24] keeps the
# num_hashes/threshold grid interesting without slowing the suite.
matrices = st.integers(min_value=0, max_value=2**32 - 1).flatmap(
    lambda seed: st.tuples(
        st.integers(min_value=2, max_value=24),   # records
        st.integers(min_value=4, max_value=24),   # hashes
        st.integers(min_value=2, max_value=12),   # universe
    ).map(
        lambda dims: np.random.default_rng(seed).integers(
            0, dims[2], size=(dims[0], dims[1])
        ).astype(np.int64)
    )
)

thresholds = st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.75, 0.9, 1.0])


def make_sketches(values):
    n, num_hashes = values.shape
    return sketches_from_matrix(
        values, [f"r{i}" for i in range(n)], (num_hashes, 1 << 30, 0)
    )


@settings(max_examples=40, deadline=None)
@given(values=matrices)
def test_engine_pairs_exactly_equal_in_process_pairs(values):
    sketches = make_sketches(values)
    pairs, run = engine_candidate_pairs(sketches)
    assert pairs == candidate_pairs(sketches)
    assert run.rounds == 2


@settings(max_examples=25, deadline=None)
@given(values=matrices, min_shared=st.integers(1, 4))
def test_engine_pairs_respect_min_shared(values, min_shared):
    sketches = make_sketches(values)
    pairs, _ = engine_candidate_pairs(sketches, min_shared=min_shared)
    assert pairs == candidate_pairs(sketches, min_shared=min_shared)


@settings(max_examples=30, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_single_linkage_sparse_vs_engine_byte_identical(values, threshold):
    sketches = make_sketches(values)
    in_process = sparse_single_linkage(sketches, threshold)
    engine = engine_sparse_cluster(sketches, threshold, method="hierarchical")
    assert in_process.to_tsv() == engine.assignment.to_tsv()


@settings(max_examples=30, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_greedy_sparse_vs_engine_byte_identical(values, threshold):
    sketches = make_sketches(values)
    in_process = sparse_greedy_cluster(sketches, threshold)
    engine = engine_sparse_cluster(sketches, threshold, method="greedy")
    assert in_process.to_tsv() == engine.assignment.to_tsv()


@settings(max_examples=25, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_greedy_dense_positional_vs_sparse_identical(values, threshold):
    sketches = make_sketches(values)
    dense = greedy_cluster(sketches, threshold, estimator="positional")
    sparse = sparse_greedy_cluster(sketches, threshold)
    assert dict(dense.items()) == dict(sparse.items())


@settings(max_examples=25, deadline=None)
@given(values=matrices, threshold=thresholds)
def test_single_linkage_dense_vs_sparse_same_partition(values, threshold):
    sketches = make_sketches(values)
    similarity, _ = compute_similarity_matrix(sketches, estimator="positional")
    dense = agglomerative_cluster(
        similarity,
        [s.read_id for s in sketches],
        threshold,
        linkage="single",
    )
    sparse = sparse_single_linkage(sketches, threshold)

    def partition(assignment):
        clusters = {}
        for read_id, label in assignment.items():
            clusters.setdefault(label, set()).add(read_id)
        return {frozenset(members) for members in clusters.values()}

    assert partition(dense) == partition(sparse)


# ---- batch hooks vs per-record reference ---------------------------------


def strip_batch_hooks(job):
    return replace(job, batch_reducer=None, batch_combiner=None, batch_mapper=None)


def assert_same_run(job, inputs, conf, runner=None):
    """Run ``job`` with and without its batch hooks; outputs and the
    ``job``/``shuffle`` counters must be identical."""
    fast = (runner or SerialRunner()).run(job, inputs, conf)
    slow = SerialRunner().run(strip_batch_hooks(job), inputs, conf)
    assert fast.output == slow.output
    fast_counters, slow_counters = fast.counters.as_dict(), slow.counters.as_dict()
    for group in ("job", "shuffle"):
        assert fast_counters.get(group) == slow_counters.get(group)
    return fast


def run_chain_both_ways(
    values, *, band_size, max_group, wire_bits, min_shared, spill, runner=None
):
    # sort_output=False: reduce output order is compared too.
    conf = JobConf(
        num_map_tasks=3,
        num_reduce_tasks=3,
        sort_output=False,
        spill_threshold_bytes=spill,
    )
    inputs = [(i, row.tolist()) for i, row in enumerate(values)]
    band = assert_same_run(
        lsh_candidates_job(band_size, max_group), inputs, conf, runner
    )
    side = SketchSideData.pack(values, wire_bits)
    assert_same_run(
        verify_candidates_job(side, min_shared), band.output, conf, runner
    )


@settings(max_examples=40, deadline=None)
@given(
    values=matrices,
    band_size=st.sampled_from([1, 2, 4]),
    max_group=st.sampled_from([None, 2, 3, 6]),
    wire_bits=st.sampled_from([None, 1, 2, 8]),
    min_shared=st.integers(1, 3),
    spill=st.sampled_from([0, None]),
)
def test_batch_hooks_match_per_record_reference(
    values, band_size, max_group, wire_bits, min_shared, spill
):
    assume(values.shape[1] % band_size == 0)
    run_chain_both_ways(
        values,
        band_size=band_size,
        max_group=max_group,
        wire_bits=wire_bits,
        min_shared=min_shared,
        spill=spill,
    )


def test_batch_hooks_match_per_record_reference_on_pool():
    values = np.random.default_rng(7).integers(0, 4, size=(40, 8)).astype(np.int64)
    run_chain_both_ways(
        values,
        band_size=1,
        max_group=None,
        wire_bits=None,
        min_shared=1,
        spill=0,
        runner=MultiprocessRunner(num_workers=2),
    )


def test_verify_batch_scores_in_chunks():
    values = np.random.default_rng(3).integers(0, 3, size=(30, 6)).astype(np.int64)
    side = SketchSideData.pack(values)
    pairs = [
        ((i, j), [1] * (1 + (i * j) % 3)) for i in range(30) for j in range(i + 1, 30)
    ]
    reference = VerifyReducer(side, min_shared=2)
    expected = [rec for pair, counts in pairs for rec in reference(pair, counts)]
    chunked = VerifyReducer(side, min_shared=2)
    chunked.chunk_pairs = 7
    assert VerifyReducer(side, min_shared=2).batch(pairs) == expected
    assert chunked.batch(pairs) == expected


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(1, 3)),
        max_size=80,
    )
)
def test_sum_batch_combiner_matches_per_record_combiner(records):
    grouped = {}
    for key, value in records:
        grouped.setdefault(key, []).append(value)
    expected = [
        rec
        for key in sort_grouped_keys(grouped)
        for rec in sum_combiner(key, grouped[key])
    ]
    assert sum_batch_combiner(records) == expected


# ---- inlined default partitioner -----------------------------------------

shuffle_keys = st.one_of(
    st.integers(),
    st.text(max_size=6),
    st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(shuffle_keys, max_size=60), num_partitions=st.integers(1, 5))
def test_inlined_routing_matches_default_partitioner(keys, num_partitions):
    with SpillingShuffle(num_partitions, spill_threshold_bytes=None) as shuffle:
        shuffle.add_task_output([(key, None) for key in keys])
        partitions, moved = shuffle.finish()
    assert moved == len(keys)
    for part, groups in enumerate(partitions):
        for key, _values in groups:
            assert default_partitioner(key, num_partitions) == part


@pytest.mark.parametrize("spill", [0, None])
def test_unpicklable_key_raises_typed_error(spill):
    with SpillingShuffle(2, spill_threshold_bytes=spill) as shuffle:
        with pytest.raises(MapReduceError, match="is not picklable"):
            shuffle.add_task_output([(1, "ok"), (lambda: None, "bad")])
