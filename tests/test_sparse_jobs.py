"""Unit tests for the engine-sparse LSH job chain (repro.cluster.sparse_jobs)."""

import numpy as np
import pytest

from repro.cluster.pipeline import MrMCMinH, SPARSE_AUTO_CUTOFF
from repro.cluster.sparse import (
    candidate_pairs,
    sparse_greedy_cluster,
    sparse_single_linkage,
)
from repro.cluster.sparse_jobs import (
    LshBandMapper,
    SketchSideData,
    engine_candidate_pairs,
    engine_sparse_cluster,
    run_sparse_jobs,
)
from repro.errors import ClusteringError, SparseCompatibilityError
from repro.minhash.sketch import sketches_from_matrix
from repro.minhash.wire import effective_threshold


def make_sketches(n=30, num_hashes=16, universe=12, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, universe, size=(n, num_hashes)).astype(np.int64)
    return sketches_from_matrix(
        values, [f"r{i}" for i in range(n)], (num_hashes, 1 << 30, seed)
    )


class TestCandidateParity:
    def test_pairs_equal_in_process_join(self):
        sketches = make_sketches()
        pairs, run = engine_candidate_pairs(sketches)
        assert pairs == candidate_pairs(sketches)
        assert run.rounds == 2
        assert run.shuffle_bytes > 0

    def test_max_group_cap_applied_identically(self):
        sketches = make_sketches(universe=4)  # big collision groups
        pairs, _ = engine_candidate_pairs(sketches, max_group=8)
        assert pairs == candidate_pairs(sketches, max_group=8)

    def test_min_shared_filter(self):
        sketches = make_sketches()
        pairs, _ = engine_candidate_pairs(sketches, min_shared=3)
        assert pairs == candidate_pairs(sketches, min_shared=3)
        assert all(c >= 3 for c in pairs.values())

    def test_wider_bands_generate_a_subset(self):
        sketches = make_sketches()
        base, _ = engine_candidate_pairs(sketches)
        banded, _ = engine_candidate_pairs(sketches, band_size=4)
        assert set(banded) <= set(base)

    def test_verified_match_is_true_positional_fraction(self):
        sketches = make_sketches()
        run = run_sparse_jobs(sketches)
        matrix = np.stack([s.values for s in sketches])
        for (i, j), match in run.matches.items():
            expected = np.count_nonzero(matrix[i] == matrix[j]) / matrix.shape[1]
            assert match == expected


class TestClusteringParity:
    @pytest.mark.parametrize("threshold", [0.125, 0.25, 0.5, 0.75])
    def test_single_linkage_byte_identical(self, threshold):
        sketches = make_sketches()
        a = sparse_single_linkage(sketches, threshold)
        b = engine_sparse_cluster(sketches, threshold, method="hierarchical")
        assert a.to_tsv() == b.assignment.to_tsv()

    @pytest.mark.parametrize("threshold", [0.125, 0.25, 0.5, 0.75])
    def test_greedy_byte_identical(self, threshold):
        sketches = make_sketches()
        a = sparse_greedy_cluster(sketches, threshold)
        b = engine_sparse_cluster(sketches, threshold, method="greedy")
        assert a.to_tsv() == b.assignment.to_tsv()

    def test_wire_bits_thresholds_in_low_bit_space(self):
        sketches = make_sketches(universe=200)
        threshold = 0.5
        run = run_sparse_jobs(
            sketches, threshold, method="hierarchical", wire_bits=4
        )
        assert run.wire_bits == 4
        theta_eff = effective_threshold(threshold, 4)
        matrix = np.stack([s.values for s in sketches]) & 0xF
        for pair in run.edges:
            i, j = pair
            match = np.count_nonzero(matrix[i] == matrix[j]) / matrix.shape[1]
            assert match >= theta_eff

    def test_candidate_only_run_has_no_assignment(self):
        run = run_sparse_jobs(make_sketches())
        assert run.assignment is None
        assert run.edges == []
        assert run.threshold is None


class TestValidation:
    def test_empty_sketches_rejected(self):
        with pytest.raises(ClusteringError, match="no sketches"):
            run_sparse_jobs([])

    def test_band_size_must_divide_num_hashes(self):
        with pytest.raises(SparseCompatibilityError, match="band_size"):
            run_sparse_jobs(make_sketches(num_hashes=16), band_size=5)

    def test_band_size_must_be_positive(self):
        with pytest.raises(SparseCompatibilityError, match="band_size"):
            run_sparse_jobs(make_sketches(), band_size=0)

    def test_threshold_range(self):
        with pytest.raises(ClusteringError, match="threshold"):
            run_sparse_jobs(make_sketches(), 0.0)
        with pytest.raises(ClusteringError, match="threshold"):
            run_sparse_jobs(make_sketches(), 1.5)

    def test_unknown_method(self):
        with pytest.raises(ClusteringError, match="method"):
            run_sparse_jobs(make_sketches(), 0.5, method="kmeans")

    def test_min_shared_validated(self):
        with pytest.raises(ClusteringError, match="min_shared"):
            run_sparse_jobs(make_sketches(), min_shared=0)


class TestSideData:
    def test_full_precision_roundtrip(self):
        matrix = np.arange(24, dtype=np.int64).reshape(4, 6)
        side = SketchSideData.pack(matrix)
        assert np.array_equal(side.matrix(), matrix)

    def test_bbit_roundtrip_masks_low_bits(self):
        matrix = np.arange(24, dtype=np.int64).reshape(4, 6) * 7
        side = SketchSideData.pack(matrix, bits=4)
        assert np.array_equal(side.matrix(), matrix & 0xF)

    def test_crc_detects_corruption(self):
        side = SketchSideData.pack(np.zeros((2, 2), dtype=np.int64))
        corrupt = SketchSideData(
            payload=side.payload, crc=side.crc ^ 1,
            num_records=2, num_hashes=2, bits=None,
        )
        with pytest.raises(ClusteringError, match="CRC"):
            corrupt.matrix()


class TestMapperSemantics:
    def test_band1_key_is_hash_index_and_value(self):
        mapper = LshBandMapper(1)
        out = list(mapper(7, [10, 20, 30]))
        assert out == [((0, 10), 7), ((1, 20), 7), ((2, 30), 7)]

    def test_wide_bands_emit_one_key_per_band(self):
        mapper = LshBandMapper(2)
        out = list(mapper(3, [10, 20, 30, 40]))
        assert [k[0] for k, _ in out] == [0, 1]
        assert all(v == 3 for _, v in out)


class TestObservability:
    def test_traces_and_metrics_recorded(self):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.activate():
            run = run_sparse_jobs(make_sketches(), 0.5)
        names = [s.name for s in tracer.spans]
        assert "phase:lsh-candidates" in names
        assert "phase:verify" in names
        assert "phase:cluster" in names
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["sparse_jobs.candidate_pairs"] == len(run.pairs)
        assert gauges["sparse_jobs.rounds"] == 2
        assert gauges["sparse_jobs.shuffle_bytes"] == run.shuffle_bytes

    def test_counters_carry_pair_accounting(self):
        run = run_sparse_jobs(make_sketches(), 0.5)
        stats = run.counters.as_dict()["sparse_jobs"]
        assert stats["candidate_pairs"] == len(run.pairs)
        assert stats["rounds"] == 2


class TestPipelineIntegration:
    def test_engine_mode_matches_in_process_sparse(self, two_family_records):
        base = dict(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single", seed=1,
        )
        a = MrMCMinH(sparse=True, **base).fit(two_family_records)
        b = MrMCMinH(sparse="engine", **base).fit(two_family_records)
        assert a.assignment.to_tsv() == b.assignment.to_tsv()
        assert b.mode == "engine"
        assert b.sparse_stats["rounds"] == 2
        assert b.sparse_stats["shuffle_bytes"] > 0

    def test_auto_resolves_dense_below_cutoff(self, two_family_records):
        run = MrMCMinH(kmer_size=5, num_hashes=32, threshold=0.6).fit(
            two_family_records
        )
        assert run.mode == "dense"
        assert run.sparse_stats is None

    def test_auto_resolves_engine_above_cutoff(self, two_family_records):
        model = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="single", sparse_cutoff=4,
        )
        run = model.fit(two_family_records)
        assert run.mode == "engine"
        assert run.sparse_stats["candidate_pairs"] > 0

    def test_auto_stays_dense_for_inexact_shapes(self, two_family_records):
        # Average linkage is never sparse-exact: auto must not flip.
        run = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="hierarchical", linkage="average", sparse_cutoff=4,
        ).fit(two_family_records)
        assert run.mode == "dense"
        # An explicitly requested set estimator pins dense too.
        run = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="greedy", estimator="set", sparse_cutoff=4,
        ).fit(two_family_records)
        assert run.mode == "dense"

    def test_default_cutoff_exported(self):
        assert MrMCMinH().sparse_cutoff == SPARSE_AUTO_CUTOFF
        assert MrMCMinH().sparse == "auto"

    def test_engine_mode_with_wire_bits(self, two_family_records):
        run = MrMCMinH(
            kmer_size=5, num_hashes=32, threshold=0.6,
            method="greedy", estimator="positional",
            wire_bits=8, sparse="engine",
        ).fit(two_family_records)
        assert run.mode == "engine"
        assert run.assignment.num_sequences == len(two_family_records)
