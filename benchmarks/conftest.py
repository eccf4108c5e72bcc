"""Shared fixtures for the benchmark suite.

Datasets are the synthetic stand-ins from :mod:`repro.graph.datasets`
(its module docstring gives the rationale for the substitution, and its
``PAPER_STATS`` the statistics they imitate).  Size is controlled by the
``REPRO_BENCH_SIZE`` environment variable: ``tiny`` | ``small`` (default) |
``medium``; the graph engine by ``REPRO_BENCH_BACKEND``: ``object``
(default) | ``csr``.  Graphs are built once per session and shared — every
algorithm is measured on the identical object, as in the paper.
"""

from __future__ import annotations

import os

import pytest

from repro.graph.datasets import dataset_names, load_dataset

BENCH_SIZE = os.environ.get("REPRO_BENCH_SIZE", "small")

#: graph engine the decomposition benchmarks run on: ``object`` | ``csr``
#: (see repro.backends; same λ either way, different constants)
BENCH_BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "object")

#: datasets ordered as in the paper's tables
ALL_DATASETS = dataset_names()

_CACHE: dict[str, object] = {}


def get_dataset(name: str):
    """Session-cached stand-in graph."""
    if name not in _CACHE:
        _CACHE[name] = load_dataset(name, BENCH_SIZE)
    return _CACHE[name]


@pytest.fixture(params=ALL_DATASETS)
def dataset(request):
    return get_dataset(request.param)


def run_once(benchmark, func, *args, **kwargs):
    """Single-shot measurement: each algorithm run is expensive and
    deterministic, so one round is the right trade-off."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
