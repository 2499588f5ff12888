"""Tests for the batched vectorized query engine (repro.kdtree.engine).

The engine's contract is strict: not just "close", but element-for-
element identical results to the per-query loop paths, for both the
approximate and the exact search.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.datasets import lidar_frame_pair
from repro.kdtree import (
    FlatKdTree,
    KdTreeConfig,
    build_tree,
    knn_approx,
    knn_approx_loop,
    knn_exact,
    update_tree,
)
from repro.kdtree.engine import knn_approx_batched, knn_exact_batched


@pytest.fixture(scope="module")
def workload():
    ref, qry = lidar_frame_pair(4_000, seed=3)
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=128))
    return tree, ref, qry.xyz[:1_000]


class TestFlatLayout:
    def test_descend_matches_tree(self, workload):
        tree, _, queries = workload
        assert np.array_equal(tree.flat().descend(queries), tree.descend_batch(queries))

    def test_csr_buckets_match_tree(self, workload):
        tree, _, _ = workload
        flat = tree.flat()
        assert flat.n_buckets == len(tree.buckets)
        for bucket_id, members in enumerate(tree.buckets):
            assert np.array_equal(flat.bucket(bucket_id), members)

    def test_cached_and_invalidated(self, workload):
        tree, _, _ = workload
        assert tree.flat() is tree.flat()
        tree.invalidate_caches()
        assert isinstance(tree.flat(), FlatKdTree)

    def test_stats(self, workload):
        tree, _, _ = workload
        stats = tree.flat().stats()
        assert stats["n_points"] == tree.n_points
        assert stats["n_leaves"] == tree.n_leaves

    def test_rejects_empty_tree(self, workload):
        _, ref, _ = workload
        from repro.kdtree.node import KdTree

        with pytest.raises(ValueError):
            FlatKdTree.from_tree(KdTree(points=ref.xyz))


class TestApproxIdentity:
    @pytest.mark.parametrize("k", [1, 4, 8, 16])
    def test_identical_to_loop(self, workload, k):
        tree, _, queries = workload
        fast = knn_approx(tree, queries, k)
        slow = knn_approx_loop(tree, queries, k)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_identical_when_k_exceeds_buckets(self, workload):
        tree, _, queries = workload
        # k far beyond the bucket capacity: every row ends in padding.
        fast = knn_approx(tree, queries, 200)
        slow = knn_approx_loop(tree, queries, 200)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_direct_entrypoint(self, workload):
        tree, _, queries = workload
        result = knn_approx_batched(tree.flat(), queries, 4)
        assert np.array_equal(result.indices, knn_approx_loop(tree, queries, 4).indices)

    def test_rejects_bad_k(self, workload):
        tree, _, queries = workload
        with pytest.raises(ValueError):
            knn_approx_batched(tree.flat(), queries, 0)


class TestOffsetCloudIdentity:
    """Regression: frames far from the origin (UTM-style coordinates).

    The BLAS selection expansion's cancellation error grows with
    ``|q|^2`` on raw coordinates, which used to corrupt candidate
    selection for off-origin clouds; the engine now centers the
    selection stage on the cloud centroid, so the identity contract
    must hold at any offset.
    """

    @pytest.fixture(scope="class", params=[100.0, 1_000.0, 1e5])
    def offset_workload(self, request):
        ref, qry = lidar_frame_pair(3_000, seed=7)
        shift = np.full(3, request.param)
        tree, _ = build_tree(ref.xyz + shift, KdTreeConfig(bucket_capacity=64))
        return tree, ref.xyz + shift, qry.xyz[:600] + shift

    def test_approx_identical_to_loop(self, offset_workload):
        tree, _, queries = offset_workload
        fast = knn_approx(tree, queries, 8)
        slow = knn_approx_loop(tree, queries, 8)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_exact_identical_to_loop(self, offset_workload):
        tree, _, queries = offset_workload
        fast = knn_exact(tree, queries, 5)
        slow = knn_exact(tree, queries, 5, engine=False)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_exact_matches_scipy(self, offset_workload):
        tree, ref_xyz, queries = offset_workload
        result = knn_exact(tree, queries, k=4)
        d, _ = cKDTree(ref_xyz).query(queries, k=4)
        assert np.allclose(result.distances, d)


class TestExactIdentity:
    @pytest.mark.parametrize("k", [1, 5, 8])
    def test_identical_to_loop(self, workload, k):
        tree, _, queries = workload
        fast = knn_exact(tree, queries, k)
        slow = knn_exact(tree, queries, k, engine=False)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_matches_scipy(self, workload):
        tree, ref, queries = workload
        result = knn_exact(tree, queries, k=5)
        d, _ = cKDTree(ref.xyz).query(queries, k=5)
        assert np.allclose(result.distances, d)

    def test_visit_counts(self, workload):
        tree, _, queries = workload
        _, visits = knn_exact_batched(tree, queries, 8)
        assert (visits >= 1).all()
        # The radius test must settle at least some queries in one bucket.
        assert (visits == 1).any()

    def test_after_incremental_update(self, workload):
        tree, _, queries = workload
        _, qry2 = lidar_frame_pair(4_000, seed=11)
        new_tree, _ = update_tree(tree, qry2, KdTreeConfig(bucket_capacity=128))
        fast = knn_approx(new_tree, queries, 4)
        slow = knn_approx_loop(new_tree, queries, 4)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)


class TestVisitBudget:
    """The max_visits knob: bounded backtracking for graceful degradation."""

    def test_zero_budget_equals_approx(self, workload):
        tree, _, queries = workload
        budgeted, _ = knn_exact_batched(tree, queries, 8, max_visits=0)
        approx = knn_approx_batched(tree.flat(), queries, 8)
        assert np.array_equal(budgeted.indices, approx.indices)
        assert np.array_equal(budgeted.distances, approx.distances)

    def test_unbounded_budget_is_exact(self, workload):
        tree, _, queries = workload
        exact, _ = knn_exact_batched(tree, queries, 8)
        huge, _ = knn_exact_batched(tree, queries, 8, max_visits=10**9)
        assert np.array_equal(exact.indices, huge.indices)
        assert np.array_equal(exact.distances, huge.distances)

    def test_recall_monotone_in_budget(self, workload):
        tree, ref, queries = workload
        exact, _ = knn_exact_batched(tree, queries, 8)
        recalls = []
        for budget in (0, 1, 4, 16):
            got, _ = knn_exact_batched(tree, queries, 8, max_visits=budget)
            hits = sum(
                np.intersect1d(got.indices[i], exact.indices[i]).size
                for i in range(queries.shape[0])
            )
            recalls.append(hits / exact.indices.size)
        assert recalls == sorted(recalls)
        assert recalls[-1] > recalls[0]

    def test_budget_bounds_visits(self, workload):
        tree, _, queries = workload
        _, visits = knn_exact_batched(tree, queries, 8, max_visits=3)
        # home leaf + at most 3 budgeted extra buckets
        assert visits.max() <= 4

    def test_negative_budget_rejected(self, workload):
        tree, _, queries = workload
        with pytest.raises(ValueError, match="max_visits"):
            knn_exact_batched(tree, queries, 8, max_visits=-1)


class TestSelectionTieOverflow:
    """Float32 score ties must not drop a true neighbor.

    An unsplittable bucket of duplicates collapses to one float32
    selection score, hiding a strictly closer point whose margin (here
    2^-9 in z) is representable in float64 but below float32 resolution
    at the centered magnitude.  The select-then-exact prefilter keeps
    every candidate within its float32 error of the bound, so the
    exact re-derivation still sees it.
    """

    @pytest.fixture()
    def degenerate(self):
        g = np.float64(2.0) ** -9
        points = np.full((128, 3), g)
        points[0] = [g, g, 0.0]            # the strictly nearest point
        points[1] = [-997.0, 69.0, 0.0]    # outlier: inflates the centered scale
        points[2] = [-322.0, 1.0, g]
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=8))
        return points, tree

    def test_approx_self_query_finds_duplicate_buried_point(self, degenerate):
        points, tree = degenerate
        result = knn_approx_batched(tree.flat(), points[0][None, :], 1)
        assert result.indices[0, 0] == 0
        assert result.distances[0, 0] == 0.0

    def test_exact_self_query_finds_duplicate_buried_point(self, degenerate):
        points, tree = degenerate
        result, _ = knn_exact_batched(tree, points[0][None, :], 1)
        assert result.indices[0, 0] == 0
        assert result.distances[0, 0] == 0.0

    def test_exact_matches_loop_path_on_duplicate_cloud(self, degenerate):
        points, tree = degenerate
        batched, _ = knn_exact_batched(tree, points[:8], 4)
        loop = knn_exact(tree, points[:8], 4, engine=False)
        assert np.array_equal(batched.indices, loop.indices)
        assert np.array_equal(batched.distances, loop.distances)


class TestSelectionSurvivors:
    def test_survivor_counter(self, workload):
        from repro.obs import MetricsRegistry, use_registry

        tree, _, queries = workload
        with use_registry(MetricsRegistry()) as reg:
            knn_approx_batched(tree.flat(), queries, 4)
        # Every row keeps at least its k neighbors for re-derivation.
        assert reg.as_dict()["engine.select.survivors"] >= 4 * queries.shape[0]
        with use_registry(MetricsRegistry()) as reg:
            knn_exact_batched(tree, queries, 4)
        assert reg.as_dict()["engine.select.survivors"] >= 4 * queries.shape[0]


class TestLazySelectionArrays:
    def test_knn_does_not_build_radius_arrays(self):
        from repro.kdtree import build_flat
        from repro.query import radius_batched, radius_reference

        ref, qry = lidar_frame_pair(3_000, seed=4)
        flat, _ = build_flat(ref.xyz, KdTreeConfig(bucket_capacity=64))
        queries = qry.xyz[:200]
        knn_approx_batched(flat, queries, 4)
        knn_exact_batched(flat, queries, 4)
        assert flat._points_c is None
        assert flat._point_sq_c is None
        got = radius_batched(flat, queries, 0.5)
        want = radius_reference(flat, queries, 0.5)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)
