"""k-d tree (de)serialization.

Flattens a node-and-pointer :class:`~repro.kdtree.node.KdTree` into
plain numpy arrays and back (:func:`save_tree` / :func:`load_tree`),
for saving to ``.npz`` or shipping across processes; the object graph
is reconstructed on load for the arch models and per-query searches.
The array layout mirrors the hardware's word-addressable tree cache:
one fixed-width record per node.  Flat trees have their own format,
:class:`repro.kdtree.snapshot.Snapshot`.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.kdtree.node import KdNode, KdTree

_FORMAT_VERSION = 1


def tree_to_arrays(tree: KdTree) -> dict[str, np.ndarray]:
    """Flatten a tree into a dict of arrays (the ``.npz`` payload)."""
    n = tree.n_nodes
    parent = np.empty(n, dtype=np.int64)
    depth = np.empty(n, dtype=np.int64)
    dim = np.empty(n, dtype=np.int64)
    threshold = np.empty(n, dtype=np.float64)
    left = np.empty(n, dtype=np.int64)
    right = np.empty(n, dtype=np.int64)
    bucket_id = np.empty(n, dtype=np.int64)
    for node in tree.nodes:
        i = node.index
        parent[i], depth[i] = node.parent, node.depth
        dim[i], threshold[i] = node.dim, node.threshold
        left[i], right[i], bucket_id[i] = node.left, node.right, node.bucket_id

    # Buckets become one concatenated array plus offsets (ragged layout).
    offsets = np.zeros(len(tree.buckets) + 1, dtype=np.int64)
    for b, members in enumerate(tree.buckets):
        offsets[b + 1] = offsets[b] + members.size
    members = (
        np.concatenate(tree.buckets)
        if tree.buckets and offsets[-1] > 0
        else np.empty(0, dtype=np.int64)
    )

    return {
        "version": np.array([_FORMAT_VERSION], dtype=np.int64),
        "points": tree.points,
        "parent": parent,
        "depth": depth,
        "dim": dim,
        "threshold": threshold,
        "left": left,
        "right": right,
        "bucket_id": bucket_id,
        "bucket_offsets": offsets,
        "bucket_members": members.astype(np.int64),
    }


def tree_from_arrays(arrays: dict[str, np.ndarray]) -> KdTree:
    """Rebuild a tree from :func:`tree_to_arrays` output."""
    version = int(arrays["version"][0])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported tree format version {version}")
    tree = KdTree(points=np.asarray(arrays["points"], dtype=np.float64))
    n = arrays["parent"].shape[0]
    for i in range(n):
        tree.nodes.append(
            KdNode(
                index=i,
                parent=int(arrays["parent"][i]),
                depth=int(arrays["depth"][i]),
                dim=int(arrays["dim"][i]),
                threshold=float(arrays["threshold"][i]),
                left=int(arrays["left"][i]),
                right=int(arrays["right"][i]),
                bucket_id=int(arrays["bucket_id"][i]),
            )
        )
    offsets = arrays["bucket_offsets"]
    members = arrays["bucket_members"]
    for b in range(offsets.shape[0] - 1):
        tree.buckets.append(members[offsets[b]: offsets[b + 1]].astype(np.int64))
    tree.invalidate_caches()
    return tree


def save_tree(tree: KdTree, path: str | Path | io.IOBase) -> None:
    """Write a tree to an ``.npz`` file (or writable binary stream)."""
    np.savez_compressed(path, **tree_to_arrays(tree))


def load_tree(path: str | Path | io.IOBase) -> KdTree:
    """Read a tree written by :func:`save_tree`."""
    with np.load(path) as payload:
        return tree_from_arrays({key: payload[key] for key in payload.files})
