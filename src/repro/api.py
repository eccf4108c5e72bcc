"""The unified front door: ``repro.decompose(graph, r, s, variant=...)``.

One call dispatches every decomposition this library implements — the
paper's plain (r, s) nucleus decompositions *and* the §3.1 scenario
variants — through :mod:`repro.backends`, with the standard
``backend=``/``workers=`` selection on all of them:

==================  =============================  =======================
variant             graph                          returns
==================  =============================  =======================
``plain``           ``Graph``/``CSRGraph``/disk    :class:`Decomposition`
``weighted``        ``Graph``/``CSRGraph``/disk    ``list[float]`` λʷ
``directed``        ``DirectedGraph``              ``(in λ, out λ)`` lists
``uncertain``       ``Graph``/``CSRGraph``/disk    ``list[int]`` η-core λ
``temporal``        ``TemporalGraph``              ``list[int]`` λ at ``h``
``temporal-profile``  ``TemporalGraph``            ``dict[h, list[int]]``
==================  =============================  =======================

Variant parameters travel as keywords: ``weights=`` (weighted),
``probabilities=``/``eta=`` (uncertain), ``h=`` (temporal).  Unknown
variants or parameters raise
:class:`~repro.errors.InvalidParameterError`.
"""

from __future__ import annotations

from typing import Any

from repro import backends
from repro.errors import InvalidParameterError
from repro.graph.directed import DirectedGraph
from repro.graph.temporal import TemporalGraph

__all__ = ["VARIANTS", "decompose"]

VARIANTS = ("plain", "weighted", "directed", "uncertain", "temporal",
            "temporal-profile")

_VARIANT_PARAMS: dict[str, tuple[str, ...]] = {
    "plain": (),
    "weighted": ("weights",),
    "directed": (),
    "uncertain": ("probabilities", "eta"),
    "temporal": ("h",),
    "temporal-profile": (),
}
_REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "weighted": ("weights",),
    "uncertain": ("probabilities",),
}


def decompose(graph: Any, r: int = 1, s: int = 2, *,
              variant: str = "plain",
              algorithm: str = "fnd",
              backend: str | None = None,
              workers: int | None = None,
              **variant_params: Any) -> Any:
    """Run any (r, s) nucleus decomposition or scenario variant.

    ``variant="plain"`` (the default) is exactly
    :func:`repro.backends.decompose` — full hierarchy construction with
    the chosen ``algorithm``.  Every other variant is a (1, 2) scenario
    peel routed through its :mod:`repro.backends` dispatch function; see
    the module table for the per-variant graph type, parameters and
    return shape.  ``backend=None`` follows the input representation,
    and ``workers=`` is validated exactly as on every other entry point
    (only the ``csr`` backend's clique listing uses it).
    """
    if variant not in VARIANTS:
        raise InvalidParameterError(
            f"unknown variant {variant!r}; choose from {VARIANTS}")
    allowed = _VARIANT_PARAMS[variant]
    unknown = sorted(set(variant_params) - set(allowed))
    if unknown:
        raise InvalidParameterError(
            f"unknown parameter(s) for variant {variant!r}: "
            f"{', '.join(unknown)}")
    for name in _REQUIRED_PARAMS.get(variant, ()):
        if name not in variant_params:
            raise InvalidParameterError(
                f"variant {variant!r} requires {name}=")
    if variant == "plain":
        if isinstance(graph, (DirectedGraph, TemporalGraph)):
            kind = type(graph).__name__
            hint = "directed" if isinstance(graph, DirectedGraph) \
                else "temporal"
            raise InvalidParameterError(
                f"variant 'plain' needs an undirected static graph, got "
                f"{kind}; use variant={hint!r}")
        return backends.decompose(graph, r, s, algorithm=algorithm,
                                  backend=backend, workers=workers)
    if algorithm != "fnd":
        raise InvalidParameterError(
            "algorithm= selects a hierarchy algorithm and applies to "
            "variant='plain' only")
    if (r, s) != (1, 2):
        raise InvalidParameterError(
            f"variant {variant!r} is defined for (r, s) = (1, 2), "
            f"got ({r}, {s})")
    if variant == "weighted":
        return backends.weighted_core_peel(
            graph, variant_params["weights"],
            backend=backend, workers=workers).lam
    if variant == "directed":
        in_result, out_result = backends.directed_core_peel(
            graph, backend=backend, workers=workers)
        return in_result.lam, out_result.lam
    if variant == "uncertain":
        return backends.uncertain_core_peel(
            graph, variant_params["probabilities"],
            eta=variant_params.get("eta", 0.5),
            backend=backend, workers=workers).lam
    if variant == "temporal":
        return backends.temporal_core_peel(
            graph, h=variant_params.get("h", 1),
            backend=backend, workers=workers).lam
    sweep = backends.temporal_core_sweep(graph, backend=backend,
                                         workers=workers)
    return {h: result.lam for h, result in sweep.items()}
