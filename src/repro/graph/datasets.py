"""Scaled synthetic stand-ins for the paper's nine evaluation graphs.

The paper (Table 3) evaluates on real graphs between 6.4K and 3.1M vertices.
This repository has no network access and pure Python cannot peel 37M edges
inside a benchmark budget, so each graph is replaced by a *seeded synthetic
stand-in* whose qualitative statistics (edge density |E|/|V|, triangle
density |△|/|E|, four-clique density |K4|/|△|, sub-nucleus structure) mirror
the original at roughly 1/500 scale.  :data:`PAPER_STATS` holds the
originals' statistics, and ``benchmarks/run_paper_tables.py table3`` prints
the stand-ins' for comparison.

Three sizes are provided, so tests stay fast while benchmarks can be scaled
up: ``tiny`` (sanity), ``small`` (default for benches), ``medium``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import UnknownDatasetError
from repro.graph import generators
from repro.graph.adjacency import Graph

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "PAPER_STATS",
    "dataset_names",
    "load_dataset",
    "table1_datasets",
]


@dataclass(frozen=True)
class DatasetSpec:
    """A named stand-in with per-size generator configurations."""

    name: str
    paper_name: str
    kind: str  # which structural trait it imitates
    builders: dict[str, Callable[[], Graph]] = field(repr=False, default_factory=dict)

    def build(self, size: str = "small") -> Graph:
        if size not in self.builders:
            raise UnknownDatasetError(
                f"dataset {self.name!r} has no size {size!r}; "
                f"choose from {sorted(self.builders)}")
        graph = self.builders[size]()
        graph.name = f"{self.name}-{size}"
        return graph


#: Statistics of the original graphs (paper Table 3), for reporting only.
PAPER_STATS: dict[str, dict[str, float]] = {
    "skitter": {"V": 1.7e6, "E": 11.1e6, "tri": 28.8e6, "K4": 148.8e6,
                "E/V": 6.54, "tri/E": 2.59, "K4/tri": 5.17},
    "berkeley13": {"V": 22.9e3, "E": 852.4e3, "tri": 5.3e6, "K4": 26.6e6,
                   "E/V": 37.22, "tri/E": 6.30, "K4/tri": 4.96},
    "mit": {"V": 6.4e3, "E": 251.2e3, "tri": 2.3e6, "K4": 13.7e6,
            "E/V": 39.24, "tri/E": 9.44, "K4/tri": 5.77},
    "stanford3": {"V": 11.6e3, "E": 568.3e3, "tri": 5.8e6, "K4": 37.1e6,
                  "E/V": 49.05, "tri/E": 10.27, "K4/tri": 6.37},
    "texas84": {"V": 36.4e3, "E": 1.6e6, "tri": 11.2e6, "K4": 70.7e6,
                "E/V": 43.74, "tri/E": 7.03, "K4/tri": 6.33},
    "twitter_hb": {"V": 456.6e3, "E": 12.5e6, "tri": 83.0e6, "K4": 429.7e6,
                   "E/V": 27.39, "tri/E": 6.63, "K4/tri": 5.18},
    "google": {"V": 916.4e3, "E": 4.3e6, "tri": 13.4e6, "K4": 39.9e6,
               "E/V": 4.71, "tri/E": 3.10, "K4/tri": 2.98},
    "uk2005": {"V": 129.6e3, "E": 11.7e6, "tri": 837.9e6, "K4": 52.2e9,
               "E/V": 90.60, "tri/E": 71.35, "K4/tri": 62.36},
    "wiki_0611": {"V": 3.1e6, "E": 37.0e6, "tri": 88.8e6, "K4": 162.9e6,
                  "E/V": 11.76, "tri/E": 2.40, "K4/tri": 1.83},
}


def _facebook_like(n: int, m: int, seed: int) -> Callable[[], Graph]:
    # dropout breaks the attachment model's uniform degrees so the k-core
    # hierarchy has many shells, as the real facebook graphs do
    return lambda: generators.edge_dropout(
        generators.powerlaw_cluster(n, m, 0.7, seed=seed), 0.25, seed=seed + 1)


def _internet_like(n: int, m: int, seed: int) -> Callable[[], Graph]:
    return lambda: generators.edge_dropout(
        generators.powerlaw_cluster(n, m, 0.35, seed=seed), 0.3, seed=seed + 1)


def _web_like(n: int, out: int, seed: int) -> Callable[[], Graph]:
    return lambda: generators.copying_model(n, out_degree=out,
                                            copy_probability=0.6, seed=seed)


def _wiki_like(n: int, avg: float, seed: int) -> Callable[[], Graph]:
    return lambda: generators.chung_lu(n, exponent=2.3, average_degree=avg, seed=seed)


def _uk_like(cliques: int, size: int, seed: int) -> Callable[[], Graph]:
    return lambda: generators.planted_cliques(
        cliques, size, bridge_edges=1, noise_vertices=cliques * size // 2,
        noise_edges=cliques * size, seed=seed)


DATASETS: dict[str, DatasetSpec] = {
    "skitter": DatasetSpec("skitter", "as-skitter (SK)", "internet topology", {
        "tiny": _internet_like(220, 3, 11),
        "small": _internet_like(1400, 4, 11),
        "medium": _internet_like(5000, 4, 11),
    }),
    "berkeley13": DatasetSpec("berkeley13", "Berkeley13 (BE)", "facebook", {
        "tiny": _facebook_like(120, 10, 13),
        "small": _facebook_like(450, 16, 13),
        "medium": _facebook_like(1600, 22, 13),
    }),
    "mit": DatasetSpec("mit", "MIT (MIT)", "facebook", {
        "tiny": _facebook_like(100, 12, 17),
        "small": _facebook_like(320, 18, 17),
        "medium": _facebook_like(900, 26, 17),
    }),
    "stanford3": DatasetSpec("stanford3", "Stanford3 (ST)", "facebook", {
        "tiny": _facebook_like(130, 12, 19),
        "small": _facebook_like(420, 20, 19),
        "medium": _facebook_like(1200, 30, 19),
    }),
    "texas84": DatasetSpec("texas84", "Texas84 (TX)", "facebook", {
        "tiny": _facebook_like(150, 10, 23),
        "small": _facebook_like(600, 18, 23),
        "medium": _facebook_like(2000, 26, 23),
    }),
    "twitter_hb": DatasetSpec("twitter_hb", "twitter-hb (TW)", "social/follower", {
        "tiny": _internet_like(250, 5, 29),
        "small": _internet_like(1100, 8, 29),
        "medium": _internet_like(3600, 10, 29),
    }),
    "google": DatasetSpec("google", "web-Google (GO)", "web crawl", {
        "tiny": _web_like(300, 4, 31),
        "small": _web_like(1800, 4, 31),
        "medium": _web_like(6000, 5, 31),
    }),
    "uk2005": DatasetSpec("uk2005", "uk-2005 (UK)", "web/host, clique-heavy", {
        "tiny": _uk_like(4, 8, 37),
        "small": _uk_like(10, 13, 37),
        "medium": _uk_like(18, 18, 37),
    }),
    "wiki_0611": DatasetSpec("wiki_0611", "wiki-0611 (WK)", "wikipedia links", {
        "tiny": _wiki_like(300, 6.0, 41),
        "small": _wiki_like(2000, 9.0, 41),
        "medium": _wiki_like(7000, 11.0, 41),
    }),
}

#: Order used by the paper's tables.
_PAPER_ORDER = ["skitter", "berkeley13", "mit", "stanford3", "texas84",
                "twitter_hb", "google", "uk2005", "wiki_0611"]


def dataset_names() -> list[str]:
    """Dataset names in the paper's table order."""
    return list(_PAPER_ORDER)


def load_dataset(name: str, size: str = "small") -> Graph:
    """Build (deterministically) the stand-in for a paper dataset."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise UnknownDatasetError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None
    return spec.build(size)


def table1_datasets() -> list[str]:
    """The three datasets Table 1 reports on."""
    return ["stanford3", "twitter_hb", "uk2005"]
