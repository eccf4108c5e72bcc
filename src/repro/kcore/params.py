"""Shared parameter normalisation for the scenario-variant layer.

Every variant accepts per-edge values (weights, existence probabilities)
either as ``Mapping[(u, v), float]`` — keyed by endpoint pair in either
orientation — or as ``Sequence[float]`` indexed by lexicographic edge id
(the id convention shared by the object, CSR and disk representations,
so the same sequence is valid on every backend).  All validation raises
:class:`~repro.errors.InvalidParameterError` with one message shape per
failure, regardless of which variant rejected the input.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from repro.errors import InvalidParameterError

__all__ = ["EdgeValues", "edge_values", "require_count", "require_fraction"]

#: the accepted spellings of per-edge values on every variant entry point
EdgeValues = Union[Mapping[tuple[int, int], float], Sequence[float]]


def edge_values(graph, values: EdgeValues, *, kind: str = "weight",
                plural: str | None = None,
                lo: float | None = None,
                hi: float | None = None) -> list[float]:
    """Normalise per-edge values to a list indexed by edge id.

    ``kind``/``plural`` name the quantity in error messages; ``lo``/``hi``
    bound the accepted range (``lo`` alone means non-negative).
    """
    plural = plural or kind + "s"
    if isinstance(values, Mapping):
        out = []
        # every representation iterates its edges in id (lexicographic) order
        for u, v in graph.edges():
            if (u, v) in values:
                out.append(float(values[(u, v)]))
            elif (v, u) in values:
                out.append(float(values[(v, u)]))
            else:
                raise InvalidParameterError(
                    f"missing {kind} for edge ({u},{v})")
    else:
        out = [float(value) for value in values]
        if len(out) != graph.m:
            raise InvalidParameterError(
                f"expected {graph.m} {plural}, got {len(out)}")
    if lo is not None and hi is not None:
        if any(not lo <= value <= hi for value in out):
            raise InvalidParameterError(
                f"{plural} must lie in [{lo:g}, {hi:g}]")
    elif lo is not None and any(value < lo for value in out):
        raise InvalidParameterError(
            f"edge {plural} must be non-negative" if lo == 0.0
            else f"{plural} must be >= {lo:g}")
    return out


def require_fraction(name: str, value: float) -> float:
    """Validate a half-open (0, 1] threshold (η and friends)."""
    if not 0.0 < value <= 1.0:
        raise InvalidParameterError(f"{name} must be in (0, 1], got {value}")
    return value


def require_count(name: str, value: int, minimum: int = 1) -> int:
    """Validate an integer threshold with a lower bound (h and friends)."""
    if value < minimum:
        raise InvalidParameterError(
            f"{name} must be >= {minimum}, got {value}")
    return value
