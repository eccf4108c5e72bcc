"""Zero-copy shared-memory transport for the flat peeling state.

The whole point of the CSR layout is that every piece of peeling state
is a homogeneous typed array.  This module moves those arrays across
process boundaries without serialising them: :class:`SharedArrayBundle`
exports a dict of numpy arrays into one ``multiprocessing.shared_memory``
segment per array; its picklable :attr:`SharedArrayBundle.spec` lets a
worker :meth:`attach <SharedArrayBundle.attach>` numpy views over the
*same* pages — no copy, no pickle of the payload, writes visible to
every process.

Owners must call :meth:`SharedArrayBundle.unlink` (workers only
:meth:`SharedArrayBundle.close`); :class:`SharedArrayBundle` is a context
manager that does the right one.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import KeysView

import numpy as np

__all__ = ["SharedArrayBundle"]


def _attach_segment(name: str, untrack: bool) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup responsibility.

    CPython (< 3.13) registers attached segments with the resource
    tracker as if this process had created them (bpo-39959).  In a
    *spawn*-started worker that tracker is private, so at worker exit it
    would "clean up" — unlink — arrays the owner is still using; such
    workers pass ``untrack=True`` to undo the registration.  Fork-started
    workers share the owner's tracker, where the duplicate registration
    is harmless (and unregistering would drop the owner's own entry).
    """
    seg = shared_memory.SharedMemory(name=name)
    if untrack:
        try:
            resource_tracker.unregister(
                seg._name, "shared_memory")  # type: ignore[attr-defined]
        # the tracker API is private and varies across CPython versions;
        # failing to unregister only re-creates the bpo-39959 noise the
        # call is trying to avoid, so any error here is safe to drop
        except Exception:  # pragma: no cover  # repro-lint: disable=no-swallowed-worker-errors
            pass
    return seg


class SharedArrayBundle:
    """A named set of numpy arrays backed by shared-memory segments.

    Created by the owner with :meth:`create` (contents are copied into the
    segments once); any process holding the picklable :attr:`spec` can
    :meth:`attach` zero-copy views.  Indexing by key returns the live
    ``np.ndarray`` view.
    """

    def __init__(self, segments: dict[str, shared_memory.SharedMemory],
                 arrays: dict[str, np.ndarray],
                 spec: tuple, owner: bool) -> None:
        self._segments = segments
        self._arrays = arrays
        self.spec = spec
        self._owner = owner

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Export ``arrays`` into fresh shared-memory segments (one copy)."""
        segments: dict[str, shared_memory.SharedMemory] = {}
        views: dict[str, np.ndarray] = {}
        spec: list[tuple[str, str, str, tuple[int, ...]]] = []
        try:
            for key, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                seg = shared_memory.SharedMemory(
                    create=True, size=max(arr.nbytes, 1))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                segments[key] = seg
                views[key] = view
                spec.append((key, seg.name, arr.dtype.str, arr.shape))
        except Exception:
            for seg in segments.values():
                seg.close()
                seg.unlink()
            raise
        return cls(segments, views, tuple(spec), owner=True)

    @classmethod
    def attach(cls, spec: tuple, untrack: bool = False) -> "SharedArrayBundle":
        """Zero-copy views over the segments another process created.

        ``untrack=True`` is for spawn-started workers whose private
        resource tracker must not adopt the segments (see
        :func:`_attach_segment`).
        """
        segments: dict[str, shared_memory.SharedMemory] = {}
        views: dict[str, np.ndarray] = {}
        try:
            for key, name, dtype, shape in spec:
                seg = _attach_segment(name, untrack)
                segments[key] = seg
                views[key] = np.ndarray(shape, dtype=np.dtype(dtype),
                                        buffer=seg.buf)
        except Exception:
            for seg in segments.values():
                seg.close()
            raise
        return cls(segments, views, tuple(spec), owner=False)

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def keys(self) -> KeysView[str]:
        return self._arrays.keys()

    def close(self) -> None:
        """Drop this process's mapping (the segments live on)."""
        self._arrays = {}
        for seg in self._segments.values():
            seg.close()
        self._segments = {}

    def unlink(self) -> None:
        """Free the segments (owner only); implies :meth:`close`."""
        segments = list(self._segments.values())
        self.close()
        for seg in segments:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()
