"""Ablations of the paper's design choices.

Three of the implementation's choices are load-bearing; each is
measured here against the obvious alternative:

1. **Bucket queue vs binary heap** for peeling (§5.1: Matula & Beck's
   "appropriate priority queue" problem, resolved by bucket sort).
2. **Path compression in Find-r** (Alg. 7): the rooted forest keeps
   near-constant finds while preserving `parent` edges; turning
   compression off degrades toward linear chains.
3. **Deduplicating FND's ADJ list** before BuildHierarchy: the paper
   stores raw pairs (|c↓| of Table 3); dedup costs a hash pass but shrinks
   the replay — this quantifies that trade-off.
"""

import pytest

from repro.core.dft import dft_hierarchy
from repro.core.fnd import fnd_decomposition
from repro.core.peeling import peel
from repro.core.views import build_view

from conftest import get_dataset, run_once

DATASETS = ("stanford3", "twitter_hb", "uk2005")


@pytest.mark.benchmark(group="ablation-queue")
@pytest.mark.parametrize("queue_kind", ["bucket", "heap"])
@pytest.mark.parametrize("name", DATASETS)
def test_peel_queue_choice(benchmark, name, queue_kind):
    graph = get_dataset(name)
    view = build_view(graph, 2, 3)
    result = run_once(benchmark, peel, view, queue_kind=queue_kind)
    benchmark.extra_info["dataset"] = graph.name
    # correctness is independent of the queue
    assert result.max_lambda == peel(view).max_lambda


@pytest.mark.benchmark(group="ablation-path-compression")
@pytest.mark.parametrize("compress", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", DATASETS)
def test_dft_path_compression(benchmark, name, compress):
    graph = get_dataset(name)
    view = build_view(graph, 2, 3)
    peeling = peel(view)
    hierarchy = run_once(benchmark, dft_hierarchy, view, peeling,
                         path_compression=compress)
    benchmark.extra_info["dataset"] = graph.name
    hierarchy.validate()


@pytest.mark.benchmark(group="ablation-fnd-vs-parts")
@pytest.mark.parametrize("name", DATASETS)
def test_fnd_single_pass(benchmark, name):
    """FND end-to-end vs its own components: the 'avoid traversal' claim is
    that this single pass beats peel+DFT run separately (bench the pass;
    compare with ablation-path-compression + table5 numbers)."""
    graph = get_dataset(name)
    view = build_view(graph, 2, 3)
    peeling, hierarchy = run_once(benchmark, fnd_decomposition, view)
    benchmark.extra_info["dataset"] = graph.name
    assert hierarchy.num_subnuclei >= 0
