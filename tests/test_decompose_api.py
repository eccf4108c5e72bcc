"""The unified façade: ``repro.decompose(graph, r, s, variant=...)``."""

import pytest

import repro
from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.directed import DirectedGraph
from repro.graph.temporal import TemporalGraph


@pytest.fixture
def tri_events():
    return ([(0, 1, t) for t in range(3)] + [(1, 2, 0), (0, 2, 0)])


class TestPlainVariant:
    def test_default_is_full_decomposition(self, social):
        result = repro.decompose(social, 1, 2)
        reference = repro.backends.decompose(social, 1, 2, algorithm="fnd")
        assert result.lam == reference.lam
        assert result.hierarchy is not None

    def test_algorithm_and_backend_pass_through(self, k4):
        result = repro.decompose(k4, 2, 3, algorithm="naive", backend="csr")
        assert result.lam == repro.decompose(k4, 2, 3).lam


class TestVariantDispatch:
    def test_weighted(self, k4):
        lam = repro.decompose(k4, variant="weighted", weights=[2.0] * 6)
        assert lam == repro.weighted_core_numbers(k4, [2.0] * 6)
        assert lam == [6.0] * 4

    def test_weighted_backend_selection(self, social):
        weights = [1.0 + (i % 3) * 0.5 for i in range(social.m)]
        assert repro.decompose(social, variant="weighted", weights=weights,
                               backend="object") == \
            repro.decompose(social, variant="weighted", weights=weights,
                            backend="csr")

    def test_directed(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        in_core, out_core = repro.decompose(g, variant="directed")
        assert in_core == [1, 1, 1] and out_core == [1, 1, 1]

    def test_uncertain(self, k4):
        lam = repro.decompose(k4, variant="uncertain",
                              probabilities=[1.0] * 6, eta=0.9)
        assert lam == repro.core_numbers(k4)

    def test_temporal(self, tri_events):
        g = TemporalGraph(3, tri_events)
        assert repro.decompose(g, variant="temporal", h=1) == [2, 2, 2]
        assert repro.decompose(g, variant="temporal", h=2) == [1, 1, 0]

    def test_temporal_profile(self, tri_events):
        g = TemporalGraph(3, tri_events)
        profile = repro.decompose(g, variant="temporal-profile")
        assert sorted(profile) == [1, 2, 3]
        assert profile[1] == [2, 2, 2]

    def test_workers_validated_through_facade(self, k4):
        with pytest.raises(InvalidParameterError):
            repro.decompose(k4, variant="weighted", weights=[1.0] * 6,
                            backend="csr", workers=0)


class TestFacadeErrors:
    def test_unknown_variant(self, k4):
        with pytest.raises(InvalidParameterError, match="unknown variant"):
            repro.decompose(k4, variant="fuzzy")

    def test_unknown_parameter(self, k4):
        with pytest.raises(InvalidParameterError,
                           match="unknown parameter"):
            repro.decompose(k4, variant="weighted", weights=[1.0] * 6,
                            smoothing=3)

    def test_missing_required_parameter(self, k4):
        with pytest.raises(InvalidParameterError, match="requires"):
            repro.decompose(k4, variant="weighted")
        with pytest.raises(InvalidParameterError, match="requires"):
            repro.decompose(k4, variant="uncertain")

    def test_variant_params_rejected_for_plain(self, k4):
        with pytest.raises(InvalidParameterError):
            repro.decompose(k4, weights=[1.0] * 6)

    def test_algorithm_is_plain_only(self, k4):
        with pytest.raises(InvalidParameterError, match="algorithm"):
            repro.decompose(k4, variant="weighted", weights=[1.0] * 6,
                            algorithm="naive")

    def test_variants_are_r1_s2(self, k4):
        with pytest.raises(InvalidParameterError, match=r"\(r, s\)"):
            repro.decompose(k4, 2, 3, variant="weighted",
                            weights=[1.0] * 6)

    def test_disk_backend_rejected_uniformly(self, tri_events):
        # the disk engine has no representation for the variant graphs:
        # both kinds must raise the same facade-style error naming the
        # graph class and the backends that do work
        directed = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        temporal = TemporalGraph(3, tri_events)
        expected = r"choose from \('object', 'csr'\)"
        with pytest.raises(InvalidParameterError, match=expected) as exc_dir:
            repro.decompose(directed, variant="directed", backend="disk")
        assert "DirectedGraph" in str(exc_dir.value)
        assert "directed graphs" in str(exc_dir.value)
        with pytest.raises(InvalidParameterError, match=expected) as exc_tmp:
            repro.decompose(temporal, variant="temporal", h=1,
                            backend="disk")
        assert "TemporalGraph" in str(exc_tmp.value)
        assert "temporal graphs" in str(exc_tmp.value)
        with pytest.raises(InvalidParameterError, match=expected):
            repro.decompose(temporal, variant="temporal-profile",
                            backend="disk")

    def test_wrong_graph_kind(self, k4, tri_events):
        with pytest.raises(InvalidParameterError, match="DirectedGraph"):
            repro.decompose(k4, variant="directed")
        with pytest.raises(InvalidParameterError, match="TemporalGraph"):
            repro.decompose(k4, variant="temporal")
        with pytest.raises(InvalidParameterError):
            repro.decompose(TemporalGraph(3, tri_events), variant="plain")


class TestExports:
    def test_facade_in_all(self):
        for name in ("decompose", "VARIANTS", "DirectedGraph",
                     "TemporalGraph", "eta_degree", "temporal_core_profile"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_variant_tuple(self):
        assert repro.VARIANTS == ("plain", "weighted", "directed",
                                  "uncertain", "temporal",
                                  "temporal-profile")

    def test_every_variant_covered_by_dispatch(self):
        # each non-plain variant has a backends dispatch function
        for fn in ("weighted_core_peel", "uncertain_core_peel",
                   "directed_core_peel", "temporal_core_peel",
                   "temporal_core_sweep"):
            assert fn in repro.backends.__all__
