"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_domain_parentage(self):
        assert issubclass(errors.FastaParseError, errors.SequenceError)
        assert issubclass(errors.KmerError, errors.SequenceError)
        assert issubclass(errors.HdfsError, errors.MapReduceError)
        assert issubclass(errors.SimulationError, errors.MapReduceError)
        assert issubclass(errors.PigParseError, errors.PigError)

    def test_line_number_formatting(self):
        exc = errors.FastaParseError("bad record", line_number=7)
        assert "line 7" in str(exc)
        assert exc.line_number == 7
        plain = errors.FastaParseError("bad record")
        assert plain.line_number is None
        assert "line" not in str(plain)

    def test_pig_parse_error_line(self):
        exc = errors.PigParseError("oops", line_number=3)
        assert "line 3" in str(exc)

    def test_single_except_catches_library_errors(self):
        """The documented catch-all behaviour."""
        from repro.seq.alphabet import encode_dna
        from repro.minhash.universal import UniversalHashFamily

        for trigger in (
            lambda: encode_dna("XYZ"),
            lambda: UniversalHashFamily(0, 10),
        ):
            with pytest.raises(errors.ReproError):
                trigger()


class TestClusteringErrorTaxonomy:
    def test_parentage_chain(self):
        assert issubclass(errors.ClusterConfigError, errors.ClusteringError)
        assert issubclass(
            errors.SparseCompatibilityError, errors.ClusterConfigError
        )
        assert issubclass(
            errors.WireCompatibilityError, errors.ClusterConfigError
        )
        # Still inside the one-except contract.
        assert issubclass(errors.SparseCompatibilityError, errors.ReproError)

    def test_sparse_compatibility_error_carries_configuration(self):
        exc = errors.SparseCompatibilityError(
            "nope", method="hierarchical", linkage="average", estimator="set"
        )
        assert exc.method == "hierarchical"
        assert exc.linkage == "average"
        assert exc.estimator == "set"
        assert str(exc) == "nope"
        bare = errors.SparseCompatibilityError("bare")
        assert bare.method is bare.linkage is bare.estimator is None

    def test_pipeline_raises_typed_config_errors(self):
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.ClusterConfigError, match="method"):
            MrMCMinH(method="kmeans")
        with pytest.raises(errors.ClusterConfigError, match="linkage"):
            MrMCMinH(linkage="centroid")
        with pytest.raises(errors.ClusterConfigError, match="threshold"):
            MrMCMinH(threshold=1.5)

    def test_pipeline_raises_sparse_compatibility_with_attrs(self):
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.SparseCompatibilityError) as info:
            MrMCMinH(sparse=True, method="hierarchical", linkage="average")
        assert info.value.linkage == "average"
        assert "single" in str(info.value)

        with pytest.raises(errors.SparseCompatibilityError) as info:
            MrMCMinH(sparse="engine", method="greedy", estimator="set")
        assert info.value.estimator == "set"

        with pytest.raises(errors.SparseCompatibilityError) as info:
            MrMCMinH(sparse="engine", threshold=0.0)
        assert "threshold > 0" in str(info.value)

    def test_pipeline_raises_wire_compatibility(self):
        from repro.cluster.pipeline import MrMCMinH

        with pytest.raises(errors.WireCompatibilityError, match="positional"):
            MrMCMinH(method="greedy", estimator="set", wire_bits=4)

    def test_catching_clustering_error_covers_the_sparse_family(self):
        from repro.cluster.sparse_jobs import run_sparse_jobs

        with pytest.raises(errors.ClusteringError):
            run_sparse_jobs([])
        with pytest.raises(errors.ClusteringError):
            run_sparse_jobs([], band_size=0)
