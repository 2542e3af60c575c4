"""Tests for the in-process sparse pipeline mode."""

import pytest

from repro.errors import ClusteringError
from repro.cluster.pipeline import MrMCMinH
from repro.cluster.sparse import candidate_pairs
from repro.datasets import generate_whole_metagenome_sample
from repro.minhash.sketch import SketchingConfig, compute_sketches


@pytest.fixture(scope="module")
def sample():
    return generate_whole_metagenome_sample("S8", num_reads=60, genome_length=4000)


@pytest.fixture(scope="module")
def sketches(sample):
    return compute_sketches(sample, SketchingConfig(kmer_size=5, num_hashes=48, seed=0))


class TestSparsePipeline:
    def test_sparse_greedy_equals_dense(self, sample):
        dense = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78, method="greedy",
            estimator="positional", seed=0,
        ).fit(sample)
        sparse = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78, method="greedy",
            seed=0, sparse=True,
        ).fit(sample)
        assert dict(dense.assignment) == dict(sparse.assignment)

    def test_sparse_single_linkage_equals_dense(self, sample):
        def partition(assignment):
            groups = {}
            for rid, lbl in assignment.items():
                groups.setdefault(lbl, set()).add(rid)
            return {frozenset(g) for g in groups.values()}

        dense = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78,
            method="hierarchical", linkage="single", seed=0,
        ).fit(sample)
        sparse = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78,
            method="hierarchical", linkage="single", seed=0, sparse=True,
        ).fit(sample)
        assert partition(dict(dense.assignment)) == partition(dict(sparse.assignment))

    def test_sparse_traces_present(self, sample, sketches):
        run = MrMCMinH(
            kmer_size=5, num_hashes=48, threshold=0.78,
            method="greedy", seed=0, sparse=True,
        ).fit(sample)
        assert run.mode == "sparse"
        assert run.similarity is None  # no dense matrix materialised
        # The in-process join runs no engine job of its own.
        names = [t.job_name for t in run.traces]
        assert "sparse-candidates" not in names
        assert run.sparse_stats["candidate_pairs"] == len(candidate_pairs(sketches))

    def test_invalid_combinations(self):
        with pytest.raises(ClusteringError, match="single"):
            MrMCMinH(method="hierarchical", linkage="average", sparse=True)
        with pytest.raises(ClusteringError, match="positional"):
            MrMCMinH(method="greedy", estimator="set", sparse=True)
        with pytest.raises(ClusteringError, match="threshold"):
            MrMCMinH(method="greedy", threshold=0.0, sparse=True)

    def test_sparse_greedy_default_estimator(self):
        model = MrMCMinH(method="greedy", sparse=True)
        assert model.estimator == "positional"
