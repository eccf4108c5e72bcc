"""Uncertain (k, η)-cores: reduction to classic cores, DP correctness."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.kcore import core_numbers
from repro.kcore.uncertain import (
    _tail_at_least,
    eta_degree,
    uncertain_core_numbers,
    uncertain_k_core,
)

from _graphs import small_graphs


def brute_force_tail(probs, k):
    """P[#live >= k] by enumerating all outcomes."""
    total = 0.0
    for outcome in itertools.product([0, 1], repeat=len(probs)):
        weight = 1.0
        for live, p in zip(outcome, probs):
            weight *= p if live else (1.0 - p)
        if sum(outcome) >= k:
            total += weight
    return total


class TestTailDp:
    def test_trivial_cases(self):
        assert _tail_at_least([0.5, 0.5], 0) == 1.0
        assert _tail_at_least([0.5], 2) == 0.0

    def test_certain_edges(self):
        assert _tail_at_least([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)
        assert _tail_at_least([1.0, 0.0], 2) == pytest.approx(0.0)

    @given(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=8),
           st.integers(0, 9))
    @settings(max_examples=60)
    def test_matches_brute_force(self, probs, k):
        assert _tail_at_least(probs, k) == pytest.approx(
            brute_force_tail(probs, k), abs=1e-9)


class TestEtaDegree:
    def test_certain_is_count(self):
        assert eta_degree([1.0] * 5, 0.9) == 5

    def test_impossible_is_zero(self):
        assert eta_degree([0.0, 0.0], 0.5) == 0

    def test_halves(self):
        # two p=0.5 edges: P[>=1] = .75, P[>=2] = .25
        assert eta_degree([0.5, 0.5], 0.7) == 1
        assert eta_degree([0.5, 0.5], 0.2) == 2

    def test_monotone_in_eta(self):
        probs = [0.9, 0.6, 0.3]
        degrees = [eta_degree(probs, eta) for eta in (0.1, 0.5, 0.9)]
        assert degrees == sorted(degrees, reverse=True)


class TestUncertainCores:
    def test_certain_reduces_to_classic(self, social):
        lam = uncertain_core_numbers(social, [1.0] * social.m, eta=0.5)
        assert lam == core_numbers(social)

    def test_low_probability_empties(self, k4):
        lam = uncertain_core_numbers(k4, [0.05] * 6, eta=0.9)
        assert lam == [0, 0, 0, 0]

    def test_eta_validation(self, k4):
        with pytest.raises(InvalidParameterError):
            uncertain_core_numbers(k4, [1.0] * 6, eta=0.0)

    def test_probability_validation(self, k4):
        with pytest.raises(InvalidParameterError):
            uncertain_core_numbers(k4, [1.5] * 6)
        with pytest.raises(InvalidParameterError):
            uncertain_core_numbers(k4, [0.5] * 3)

    def test_dict_probabilities(self):
        g = Graph(3, [(0, 1), (1, 2)])
        lam = uncertain_core_numbers(g, {(0, 1): 1.0, (2, 1): 1.0}, eta=0.5)
        assert lam == [1, 1, 1]

    def test_missing_probability(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidParameterError):
            uncertain_core_numbers(g, {(0, 1): 1.0})

    def test_reliable_clique_survives_unreliable_fringe(self):
        # K4 with p=0.95 plus a fringe vertex attached by p=0.1 edges
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                 (4, 0), (4, 1), (4, 2)]
        g = Graph(5, edges)
        probs = {e: 0.95 for e in g.edges()}
        probs[(0, 4)] = probs[(1, 4)] = probs[(2, 4)] = 0.1
        lam = uncertain_core_numbers(g, probs, eta=0.6)
        assert min(lam[:4]) >= 2
        assert lam[4] == 0

    def test_connected_uncertain_cores(self):
        # two reliable triangles joined by an unreliable bridge: structural
        # connectivity keeps one core; reliable connectivity splits it
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        probs = {e: 0.9 for e in g.edges()}
        probs[(2, 3)] = 0.05
        structural = uncertain_k_core(g, 2, probs, eta=0.5)
        assert structural == [[0, 1, 2, 3, 4, 5]]
        reliable = uncertain_k_core(g, 2, probs, eta=0.5,
                                    connectivity_threshold=0.5)
        assert reliable == [[0, 1, 2], [3, 4, 5]]


class TestBackendParity:
    def test_backends_agree(self, social):
        # dyadic probabilities keep the tail DP exact on every engine
        probs = [(0.25, 0.5, 0.75, 1.0)[i % 4] for i in range(social.m)]
        reference = uncertain_core_numbers(social, probs, eta=0.5,
                                           backend="object")
        for backend, workers in (("csr", 1), ("csr", 2), ("disk", 1)):
            assert uncertain_core_numbers(social, probs, eta=0.5,
                                          backend=backend,
                                          workers=workers) == reference


@given(small_graphs(max_n=9), st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=25, deadline=None)
def test_kernel_matches_object_random(g, eta):
    """λ parity: capped-downward η-degree kernel vs the object reference."""
    probs = [(0.25, 0.5, 0.75, 1.0)[(u + v) % 4] for u, v in g.edges()]
    assert uncertain_core_numbers(g, probs, eta=eta, backend="csr") == \
        uncertain_core_numbers(g, probs, eta=eta, backend="object")


@given(small_graphs(max_n=9))
@settings(max_examples=25, deadline=None)
def test_certain_probabilities_match_classic_random(g):
    lam = uncertain_core_numbers(g, [1.0] * g.m, eta=0.99)
    assert lam == core_numbers(g)


@given(small_graphs(max_n=8), st.floats(0.2, 0.9))
@settings(max_examples=25, deadline=None)
def test_eta_monotonicity_random(g, eta):
    """Stricter eta never raises a core number."""
    probs = [0.7] * g.m
    loose = uncertain_core_numbers(g, probs, eta=eta / 2)
    strict = uncertain_core_numbers(g, probs, eta=eta)
    assert all(s <= l for s, l in zip(strict, loose))
