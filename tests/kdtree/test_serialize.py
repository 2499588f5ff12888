"""Unit tests for k-d tree serialization."""

import io

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_cloud
from repro.kdtree import (
    KdTreeConfig,
    Snapshot,
    build_flat,
    build_tree,
    check_tree,
    knn_approx,
    knn_exact_batched,
    load_tree,
    save_tree,
    tree_from_arrays,
    tree_to_arrays,
)


@pytest.fixture
def tree(rng):
    cloud = uniform_cloud(1_000, rng=rng)
    tree, _ = build_tree(cloud, KdTreeConfig(bucket_capacity=64))
    return tree


class TestArrays:
    def test_roundtrip_preserves_structure(self, tree):
        clone = tree_from_arrays(tree_to_arrays(tree))
        check_tree(clone)
        assert clone.n_nodes == tree.n_nodes
        assert clone.n_leaves == tree.n_leaves
        for a, b in zip(tree.nodes, clone.nodes):
            assert (a.dim, a.left, a.right, a.bucket_id) == (
                b.dim, b.left, b.right, b.bucket_id
            )
            assert a.threshold == b.threshold or (
                np.isnan(a.threshold) and np.isnan(b.threshold)
            )

    def test_roundtrip_preserves_search(self, tree, rng):
        clone = tree_from_arrays(tree_to_arrays(tree))
        queries = uniform_cloud(50, rng=rng).xyz
        original = knn_approx(tree, queries, 5)
        restored = knn_approx(clone, queries, 5)
        assert np.array_equal(original.indices, restored.indices)

    def test_version_check(self, tree):
        arrays = tree_to_arrays(tree)
        arrays["version"] = np.array([99], dtype=np.int64)
        with pytest.raises(ValueError, match="version"):
            tree_from_arrays(arrays)

    def test_empty_bucket_roundtrip(self, rng):
        # Degenerate data produces empty buckets; they must survive.
        points = np.tile([[0.0, 0.0, 0.0]], (100, 1))
        degenerate, _ = build_tree(points, KdTreeConfig(bucket_capacity=16))
        clone = tree_from_arrays(tree_to_arrays(degenerate))
        assert int(clone.bucket_sizes().sum()) == 100


class TestFileIo:
    def test_save_load_stream(self, tree):
        buffer = io.BytesIO()
        save_tree(tree, buffer)
        buffer.seek(0)
        clone = load_tree(buffer)
        check_tree(clone)
        assert clone.n_points == tree.n_points

    def test_save_load_path(self, tree, tmp_path):
        path = tmp_path / "tree.npz"
        save_tree(tree, path)
        clone = load_tree(path)
        assert clone.n_nodes == tree.n_nodes


class TestFlatSnapshots:
    """Flat-tree snapshots through the Snapshot handle."""

    @pytest.fixture
    def flat(self, rng):
        cloud = uniform_cloud(1_500, rng=rng)
        flat, _ = build_flat(cloud, KdTreeConfig(bucket_capacity=64))
        return flat

    def test_arrays_roundtrip_bit_identical(self, flat):
        clone = Snapshot.from_payload(Snapshot.from_flat(flat).to_payload()).to_flat()
        for name in ("points", "dim", "threshold", "left", "right",
                     "is_leaf", "bucket_id", "bucket_offsets", "bucket_members"):
            a, b = getattr(flat, name), getattr(clone, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), name

    def test_file_roundtrip_bit_identical(self, flat, tmp_path):
        path = tmp_path / "flat.npz"
        Snapshot.from_flat(flat).save(path)
        clone = Snapshot.load(path).to_flat()
        for name in ("points", "threshold", "bucket_members"):
            assert np.array_equal(getattr(flat, name), getattr(clone, name))

    def test_loaded_flat_answers_identically(self, flat, rng, tmp_path):
        path = tmp_path / "flat.npz"
        Snapshot.from_flat(flat).save(path)
        clone = Snapshot.load(path).to_flat()
        queries = uniform_cloud(200, rng=rng).xyz
        a, _ = knn_exact_batched(flat, queries, 6)
        b, _ = knn_exact_batched(clone, queries, 6)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)

    def test_extras_roundtrip(self, flat, tmp_path):
        path = tmp_path / "flat.npz"
        ids = np.arange(0, 1_500, 3, dtype=np.int64)
        Snapshot.from_flat(flat, extra={"global_ids": ids}).save(path)
        snap = Snapshot.load(path)
        assert np.array_equal(snap.extras["global_ids"], ids)
        assert np.array_equal(snap.to_flat().points, flat.points)
        # The tree itself ignores extras.
        assert isinstance(snap.to_flat(), type(flat))

    def test_extra_name_collision_rejected(self, flat):
        with pytest.raises(ValueError, match="collides"):
            Snapshot.from_flat(flat, extra={"points": np.zeros(3)})

    def test_version_check(self, flat):
        payload = Snapshot.from_flat(flat).to_payload()
        payload["flat_version"] = np.array([99], dtype=np.int64)
        with pytest.raises(ValueError, match="version"):
            Snapshot.from_payload(payload)

    def test_stream_roundtrip(self, flat):
        buffer = io.BytesIO()
        Snapshot.from_flat(flat).save(buffer)
        buffer.seek(0)
        clone = Snapshot.load(buffer).to_flat()
        assert np.array_equal(clone.bucket_offsets, flat.bucket_offsets)


class TestIndexSnapshots:
    @pytest.fixture
    def reference(self, rng):
        return uniform_cloud(1_200, rng=rng).xyz

    @pytest.mark.parametrize("name", ["kd-approx", "kd-exact"])
    def test_adapter_roundtrip_identical(self, name, reference, rng, tmp_path):
        from repro.index import make_index

        index = make_index(name, reference)
        path = tmp_path / "snap.npz"
        index.save_snapshot(path)
        restored = type(index).from_snapshot(path)
        queries = uniform_cloud(100, rng=rng).xyz
        a = index.query(queries, 5)
        b = restored.query(queries, 5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)
        assert restored.stats()["n_reference"] == 1_200

    def test_bbf_snapshot_unsupported(self, reference, tmp_path):
        from repro.index import make_index
        from repro.index.adapters import KdBbfIndex

        index = make_index("kd-bbf", reference)
        path = tmp_path / "snap.npz"
        index.save_snapshot(path)  # saving works: the flat layout exists
        with pytest.raises(NotImplementedError, match="kd-bbf"):
            KdBbfIndex.from_snapshot(path)
