"""Tests for beta diversity and chimera injection."""

import numpy as np
import pytest

from repro.errors import DatasetError, EvaluationError
from repro.cluster.assignments import ClusterAssignment
from repro.datasets.chimera import inject_chimeras, is_chimera, make_chimera
from repro.eval.beta import (
    beta_diversity_matrix,
    bray_curtis,
    jaccard_distance,
    morisita_horn,
    otu_table,
)
from repro.seq.records import SequenceRecord


class TestBetaDiversity:
    def test_identical_samples(self):
        a = {0: 10, 1: 5}
        assert bray_curtis(a, dict(a)) == pytest.approx(0.0)
        assert jaccard_distance(a, dict(a)) == pytest.approx(0.0)
        assert morisita_horn(a, dict(a)) == pytest.approx(1.0)

    def test_disjoint_samples(self):
        a, b = {0: 10}, {1: 10}
        assert bray_curtis(a, b) == pytest.approx(1.0)
        assert jaccard_distance(a, b) == pytest.approx(1.0)
        assert morisita_horn(a, b) == pytest.approx(0.0)

    def test_bray_curtis_abundance_sensitivity(self):
        a = {0: 100, 1: 1}
        close = {0: 90, 1: 11}
        far = {0: 10, 1: 91}
        assert bray_curtis(a, close) < bray_curtis(a, far)

    def test_jaccard_ignores_abundance(self):
        a = {0: 100, 1: 1}
        b = {0: 1, 1: 100}
        assert jaccard_distance(a, b) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            bray_curtis({}, {0: 1})

    def test_matrix(self):
        samples = {"s1": {0: 5, 1: 5}, "s2": {0: 5, 1: 5}, "s3": {2: 10}}
        ids, m = beta_diversity_matrix(samples)
        assert ids == ["s1", "s2", "s3"]
        assert m[0, 1] == pytest.approx(0.0)
        assert m[0, 2] == pytest.approx(1.0)
        assert np.allclose(m, m.T)

    def test_matrix_validation(self):
        with pytest.raises(EvaluationError):
            beta_diversity_matrix({"only": {0: 1}})
        with pytest.raises(EvaluationError):
            beta_diversity_matrix({"a": {0: 1}, "b": {0: 1}}, metric="bogus")

    def test_otu_table(self):
        assignment = ClusterAssignment({"r1": 0, "r2": 0, "r3": 1, "r4": 1})
        sample_of = {"r1": "A", "r2": "B", "r3": "A", "r4": "A"}
        table = otu_table(assignment, sample_of)
        assert table == {"A": {0: 1, 1: 2}, "B": {0: 1}}

    def test_otu_table_missing_sample(self):
        assignment = ClusterAssignment({"r1": 0})
        with pytest.raises(EvaluationError):
            otu_table(assignment, {})


class TestChimeras:
    def _parents(self):
        return [
            SequenceRecord("a", "A" * 60, label="X"),
            SequenceRecord("b", "T" * 60, label="Y"),
        ]

    def test_make_chimera_structure(self):
        a, b = self._parents()
        chim = make_chimera(a, b, breakpoint_fraction=0.5, read_id="c1")
        assert chim.sequence.startswith("A" * 30)
        assert chim.sequence.endswith("T" * 30)
        assert is_chimera(chim)
        assert "X+Y" in chim.label

    def test_breakpoint_validation(self):
        a, b = self._parents()
        with pytest.raises(DatasetError):
            make_chimera(a, b, breakpoint_fraction=0.0, read_id="c")

    def test_injection_rate(self):
        reads = [
            SequenceRecord(f"r{i}", "ACGT" * 20, label=f"L{i % 3}") for i in range(100)
        ]
        out = inject_chimeras(reads, rate=0.1, rng=0)
        assert len(out) == 100
        n_chim = sum(1 for r in out if is_chimera(r))
        assert n_chim == 10

    def test_zero_rate_identity(self):
        reads = self._parents()
        assert inject_chimeras(reads, rate=0.0, rng=0) == reads

    def test_chimeras_prefer_cross_template(self):
        reads = [
            SequenceRecord(f"x{i}", "A" * 50, label="X") for i in range(20)
        ] + [SequenceRecord(f"y{i}", "T" * 50, label="Y") for i in range(20)]
        out = inject_chimeras(reads, rate=0.5, rng=1)
        cross = [
            r for r in out if is_chimera(r) and "X+Y" in r.label or "Y+X" in r.label
        ]
        assert len(cross) >= 10

    def test_validation(self):
        with pytest.raises(DatasetError):
            inject_chimeras(self._parents(), rate=1.5)
        with pytest.raises(DatasetError):
            inject_chimeras(self._parents()[:1], rate=0.5)

    def test_chimeras_inflate_otu_counts(self):
        """The biological effect: chimeras create extra clusters."""
        from repro.cluster.pipeline import MrMCMinH
        from repro.datasets import generate_environmental_sample

        reads = generate_environmental_sample("53R", num_reads=120, seed=3)
        chimeric = inject_chimeras(reads, rate=0.15, rng=3)
        model = lambda: MrMCMinH(
            kmer_size=15, num_hashes=50, threshold=0.95, seed=3
        )
        clean_clusters = model().fit(reads).assignment.num_clusters
        chim_clusters = model().fit(chimeric).assignment.num_clusters
        assert chim_clusters >= clean_clusters
