"""Hierarchy persistence and visualisation exports.

The paper's closing discussion (§6) suggests the hierarchy-skeleton itself —
not only the condensed nuclei — is an analysis object.  These helpers make
both portable:

* :func:`hierarchy_to_json` / :func:`hierarchy_from_json` — lossless
  round-trip of a :class:`~repro.core.hierarchy.Hierarchy`;
* :func:`save_hierarchy_npz` / :func:`load_hierarchy_npz` — the same
  round-trip as flat binary arrays (fast to load, no JSON parse), the
  build-once half of the build-once/serve-many workflow —
  :func:`save_hierarchy` / :func:`load_hierarchy` dispatch on the
  ``.npz`` suffix;

  both loaders reject a skeleton that is not one hierarchy with
  :class:`~repro.errors.GraphFormatError`, naming the array
  (:func:`~repro.core.hierarchy.check_skeleton`);
* :func:`tree_to_dot` — Graphviz rendering of the condensed nucleus tree;
* :func:`skeleton_to_dot` — Graphviz rendering of the raw skeleton
  (sub-nuclei and their parent links), the structure in the paper's Fig. 5.
"""

from __future__ import annotations

import json
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from repro.core.hierarchy import Hierarchy, NucleusTree, check_skeleton
from repro.errors import GraphFormatError

__all__ = [
    "hierarchy_to_json",
    "hierarchy_from_json",
    "save_hierarchy",
    "load_hierarchy",
    "save_hierarchy_npz",
    "load_hierarchy_npz",
    "tree_to_dot",
    "skeleton_to_dot",
]

#: on-disk schema version of the ``.npz`` hierarchy payload
HIERARCHY_NPZ_FORMAT = 1

_NPZ_KEYS = ("format", "r", "s", "algorithm", "lam", "node_lambda",
             "parent", "comp", "root")

#: the skeleton arrays, in :func:`check_skeleton`'s argument order
_SKELETON_KEYS = ("lam", "node_lambda", "parent", "comp")


def _checked(source: str, r: int, s: int, arrays: list, root: int,
             algorithm: str) -> Hierarchy:
    """The hierarchy of the skeleton ``arrays`` (in ``_SKELETON_KEYS``
    order), once :func:`check_skeleton` has passed them."""
    # an empty list reads as a float array, but it holds no value to check
    arrays = [array.astype(np.int64) if array.size == 0 else array
              for array in arrays]
    check_skeleton(source, *arrays, root)
    return Hierarchy(r, s, *arrays, root, algorithm=algorithm)


def hierarchy_to_json(hierarchy: Hierarchy) -> str:
    """Serialise a hierarchy (λ values, skeleton, membership) to JSON."""
    payload = {
        "r": hierarchy.r,
        "s": hierarchy.s,
        "algorithm": hierarchy.algorithm,
        "lam": hierarchy.lam_array.tolist(),
        "node_lambda": hierarchy.node_lambda_array.tolist(),
        "parent": hierarchy.parent_array.tolist(),
        "comp": hierarchy.comp_array.tolist(),
        "root": hierarchy.root,
    }
    return json.dumps(payload)


def hierarchy_from_json(text: str) -> Hierarchy:
    """Inverse of :func:`hierarchy_to_json`."""
    try:
        payload = json.loads(text)
        r, s, root = (int(payload[key]) for key in ("r", "s", "root"))
        arrays = [np.asarray(payload[key]) for key in _SKELETON_KEYS]
        algorithm = str(payload.get("algorithm", ""))
    except (KeyError, TypeError, ValueError, OverflowError,
            json.JSONDecodeError) as exc:
        raise GraphFormatError(f"malformed hierarchy JSON: {exc}") from exc
    return _checked("hierarchy JSON", r, s, arrays, root, algorithm)


def save_hierarchy(hierarchy: Hierarchy, path: str | Path) -> None:
    """Write a hierarchy to disk (``.npz`` → binary, anything else JSON)."""
    path = Path(path)
    if path.suffix == ".npz":
        save_hierarchy_npz(hierarchy, path)
        return
    path.write_text(hierarchy_to_json(hierarchy))


def load_hierarchy(path: str | Path) -> Hierarchy:
    """Read a hierarchy from disk (``.npz`` → binary, anything else JSON)."""
    path = Path(path)
    if path.suffix == ".npz":
        return load_hierarchy_npz(path)
    return hierarchy_from_json(path.read_text())


def save_hierarchy_npz(hierarchy: Hierarchy, path: str | Path) -> None:
    """Persist a hierarchy-skeleton as flat binary arrays (``.npz``).

    The payload is an uncompressed zip of ``.npy`` members — one
    contiguous binary blob per array, so loading is an ``fread`` per
    array instead of a JSON parse over every int.
    """
    with open(path, "wb") as handle:  # savez would append ".npz"
        _save_hierarchy_arrays(handle, hierarchy)


def _save_hierarchy_arrays(handle, hierarchy: Hierarchy) -> None:
    np.savez(
        handle,
        format=np.int64(HIERARCHY_NPZ_FORMAT),
        r=np.int64(hierarchy.r),
        s=np.int64(hierarchy.s),
        algorithm=np.str_(hierarchy.algorithm),
        lam=hierarchy.lam_array,
        node_lambda=hierarchy.node_lambda_array,
        parent=hierarchy.parent_array,
        comp=hierarchy.comp_array,
        root=np.int64(hierarchy.root),
    )


def load_hierarchy_npz(path: str | Path) -> Hierarchy:
    """Inverse of :func:`save_hierarchy_npz`."""
    try:
        with np.load(path, allow_pickle=False) as payload:
            missing = [key for key in _NPZ_KEYS if key not in payload.files]
            if missing:
                raise GraphFormatError(
                    f"{path}: not a hierarchy .npz "
                    f"(missing {', '.join(missing)})")
            version = int(payload["format"])
            if version != HIERARCHY_NPZ_FORMAT:
                raise GraphFormatError(
                    f"{path}: unsupported hierarchy format {version} "
                    f"(this build reads {HIERARCHY_NPZ_FORMAT})")
            r, s, root = (int(payload[key]) for key in ("r", "s", "root"))
            arrays = [payload[key] for key in _SKELETON_KEYS]
            algorithm = str(payload["algorithm"])
    except (OSError, ValueError, TypeError, BadZipFile) as exc:
        raise GraphFormatError(
            f"{path}: malformed hierarchy .npz: {exc}") from exc
    return _checked(str(path), r, s, arrays, root, algorithm)


def tree_to_dot(tree: NucleusTree, name: str = "nuclei") -> str:
    """Graphviz DOT for the condensed nucleus tree.

    Node labels show k and the nucleus size (own + descendant cells);
    deeper nuclei are darker.
    """
    top = max((node.k for node in tree.nodes), default=1) or 1
    lines = [f"digraph {name} {{", "  rankdir=TB;",
             '  node [shape=box, style=filled, fontname="Helvetica"];']
    for node in tree.nodes:
        size = len(tree.subtree_cells(node.id))
        share = node.k / top
        gray = int(95 - 55 * share)
        label = "root" if node.id == tree.root else f"k={node.k}\\n{size} cells"
        lines.append(f'  n{node.id} [label="{label}", fillcolor="gray{gray}"];')
    for node in tree.nodes:
        if node.parent is not None:
            lines.append(f"  n{node.parent} -> n{node.id};")
    lines.append("}")
    return "\n".join(lines)


def skeleton_to_dot(hierarchy: Hierarchy, name: str = "skeleton") -> str:
    """Graphviz DOT for the raw hierarchy-skeleton (paper Fig. 5 style).

    Equal-λ parent links (disjoint-set 'thin edges') are drawn dashed;
    containment links solid.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;",
             '  node [shape=ellipse, fontname="Helvetica"];']
    for node in range(hierarchy.num_nodes):
        members = len(hierarchy.members(node))
        label = ("root" if node == hierarchy.root
                 else f"λ={hierarchy.node_lambda[node]} ({members})")
        lines.append(f'  n{node} [label="{label}"];')
    for node, parent in enumerate(hierarchy.parent):
        if parent is None:
            continue
        style = ("dashed"
                 if hierarchy.node_lambda[node] == hierarchy.node_lambda[parent]
                 else "solid")
        lines.append(f"  n{node} -> n{parent} [style={style}];")
    lines.append("}")
    return "\n".join(lines)
