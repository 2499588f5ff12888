"""Differential tests of the select-then-exact kNN kernel.

Exact k-NN is compared against ``scipy.spatial.cKDTree`` — distances
bit for bit, ids wherever a row has no exact-distance ties — and
against a brute-force canonical reference (ascending distance, ties by
ascending index) everywhere.  Approximate k-NN and the ``max_visits``
ladder are compared against the per-query loop references.  Inputs
favour the shapes that stress a float32 prefilter: all-duplicate,
collinear and coplanar clouds, a frame offset by 1e6 m, ``k`` at or
beyond the bucket size and beyond ``n``, and trees after
``update_tree``.  A five-fold duplicate cloud, where every answer is an
exact-distance tie, pins the canonical tie order across the loop
references, the engine and sharded serving.

A ``tracemalloc`` test bounds the exact call's peak allocation for
queries far from the reference, where rows visit tens of buckets.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.datasets import lidar_frame, lidar_frame_pair
from repro.kdtree import (
    KdTreeConfig,
    build_tree,
    knn_approx,
    knn_approx_loop,
    knn_exact,
    update_tree,
)
from repro.kdtree.engine import knn_exact_batched
from repro.kdtree.search import PAD_INDEX

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHAPES = ("random", "duplicates", "collinear", "coplanar", "offset")


def _cloud(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if shape == "duplicates":
        distinct = rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 4)), 3))
        return distinct[rng.integers(0, distinct.shape[0], size=n)]
    if shape == "collinear":
        t = rng.uniform(-10.0, 10.0, size=(n, 1)).round(2)
        return np.array([1.0, -2.0, 0.5]) + t * np.array([0.6, 0.0, -0.8])
    if shape == "coplanar":
        xy = rng.uniform(-10.0, 10.0, size=(n, 2)).round(2)
        return np.column_stack([xy, np.full(n, 3.25)])
    xyz = rng.uniform(-20.0, 20.0, size=(n, 3))
    return xyz + 1e6 if shape == "offset" else xyz


@st.composite
def workloads(draw, max_points=150):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    points = _cloud(shape, n, rng)
    # Queries: reference points themselves (exact ties) plus jittered ones.
    m = draw(st.integers(1, 40))
    queries = points[rng.integers(0, n, size=m)]
    queries = queries + rng.normal(scale=draw(st.sampled_from([0.0, 1e-3, 1.0])),
                                   size=queries.shape)
    bucket = draw(st.integers(1, 24))
    k = draw(st.integers(1, max(1, min(n + 3, 2 * bucket + 2))))
    return points, queries, bucket, k


def _canonical_knn(points, queries, k):
    """Brute-force canonical k-NN with the per-query paths' kernel."""
    diff = queries[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    ids = np.broadcast_to(np.arange(points.shape[0]), d.shape)
    order = np.lexsort((ids, d), axis=1)[:, :k]
    idx = np.full((queries.shape[0], k), PAD_INDEX, dtype=np.int64)
    dst = np.full((queries.shape[0], k), np.inf)
    idx[:, : order.shape[1]] = order
    dst[:, : order.shape[1]] = np.take_along_axis(d, order, axis=1)
    return idx, dst


def _assert_oracle_equal(points, queries, result):
    """Distances bit-equal to cKDTree; ids equal on rows without ties."""
    k = result.indices.shape[1]
    ref_d, ref_i = cKDTree(points).query(queries, k=k)
    ref_d = ref_d.reshape(queries.shape[0], k)
    ref_i = np.where(ref_i.reshape(queries.shape[0], k) == points.shape[0],
                     PAD_INDEX, ref_i.reshape(queries.shape[0], k))
    assert np.array_equal(result.distances, ref_d)
    # A row's ids are pinned only when its k+1 nearest distances differ.
    diff = queries[:, None, :] - points[None, :, :]
    near = np.sort(np.sqrt((diff * diff).sum(axis=2)), axis=1)[:, : k + 1]
    untied = (np.diff(near, axis=1) > 0).all(axis=1)
    assert np.array_equal(result.indices[untied], ref_i[untied])


def _assert_canonical(points, queries, result):
    idx, dst = _canonical_knn(points, queries, result.indices.shape[1])
    assert np.array_equal(result.indices, idx)
    assert np.array_equal(result.distances, dst)


class TestDuplicateCloudCanonicalTies:
    """Every point five times over: all answers are exact-distance ties,
    so every path must break them the same way (ascending index)."""

    @pytest.fixture(scope="class")
    def dup(self):
        base = lidar_frame_pair(400, seed=5)[0].xyz
        points = np.tile(base, (5, 1))
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=16))
        rng = np.random.default_rng(2)
        queries = np.concatenate(
            [base[:60], base[60:120] + rng.normal(scale=0.05, size=(60, 3))]
        )
        return points, tree, queries

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_approx_matches_loop(self, dup, k):
        _, tree, queries = dup
        fast = knn_approx(tree, queries, k)
        slow = knn_approx_loop(tree, queries, k)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_exact_paths_are_canonical(self, dup, k):
        points, tree, queries = dup
        _assert_canonical(points, queries, knn_exact(tree, queries, k))
        _assert_canonical(points, queries, knn_exact(tree, queries, k, engine=False))

    def test_serving_is_canonical_at_one_and_two_shards(self, dup):
        from repro.serve import KnnServer, ServeConfig

        points, _, queries = dup
        for n_shards in (1, 2):
            with KnnServer(points, ServeConfig(n_shards=n_shards)) as server:
                _assert_canonical(points, queries, server.query(queries, 7))


class TestExactAgainstOracles:
    @common
    @given(workload=workloads())
    def test_exact(self, workload):
        points, queries, bucket, k = workload
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=bucket))
        result = knn_exact(tree, queries, k)
        _assert_oracle_equal(points, queries, result)
        _assert_canonical(points, queries, result)

    @common
    @given(workload=workloads(), shift=st.floats(-3.0, 3.0))
    def test_exact_after_update(self, workload, shift):
        points, queries, bucket, k = workload
        config = KdTreeConfig(bucket_capacity=bucket)
        tree, _ = build_tree(points, config)
        moved = points + shift
        new_tree, _ = update_tree(tree, moved, config)
        result = knn_exact(new_tree, queries, k)
        _assert_oracle_equal(moved, queries, result)
        _assert_canonical(moved, queries, result)


class TestApproxAgainstLoop:
    @common
    @given(workload=workloads())
    def test_approx(self, workload):
        points, queries, bucket, k = workload
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=bucket))
        fast = knn_approx(tree, queries, k)
        slow = knn_approx_loop(tree, queries, k)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    @common
    @given(workload=workloads(), shift=st.floats(-3.0, 3.0))
    def test_approx_after_update(self, workload, shift):
        points, queries, bucket, k = workload
        config = KdTreeConfig(bucket_capacity=bucket)
        tree, _ = build_tree(points, config)
        new_tree, _ = update_tree(tree, points + shift, config)
        fast = knn_approx(new_tree, queries, k)
        slow = knn_approx_loop(new_tree, queries, k)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)


class TestVisitLadder:
    """``max_visits`` 0/1/4: each rung sees a superset of the last one's
    buckets, so every row's sorted distances can only shrink toward the
    exact answer; rung 0 is the approximate loop reference."""

    @common
    @given(workload=workloads())
    def test_ladder(self, workload):
        points, queries, bucket, k = workload
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=bucket))
        rungs = [knn_exact_batched(tree, queries, k, max_visits=v)[0]
                 for v in (0, 1, 4, None)]
        approx = knn_approx_loop(tree, queries, k)
        assert np.array_equal(rungs[0].indices, approx.indices)
        assert np.array_equal(rungs[0].distances, approx.distances)
        _assert_canonical(points, queries, rungs[-1])
        for loose, tight in zip(rungs, rungs[1:]):
            assert (tight.distances <= loose.distances).all()
        for rung in rungs:
            valid = rung.indices != PAD_INDEX
            diff = queries[:, None, :] - points[np.where(valid, rung.indices, 0)]
            again = np.sqrt((diff * diff).sum(axis=2))
            assert np.array_equal(rung.distances[valid], again[valid])


class TestExactPeakMemory:
    """Queries shifted 50 m sideways across a lidar frame: the home k-th
    distance is metres and rows visit tens of buckets, so a prefilter bound that did
    not tighten would keep whole buckets per visit.  The traced peak of
    the exact call must stay within a fixed multiple of ``m * k``
    output entries (16 bytes each: an int64 id and a float64 distance).
    """

    #: Allowed peak, in units of the ``(m, k)`` result's 16 bytes per entry.
    PEAK_MULTIPLE = 64

    def test_far_queries_peak(self):
        ref = lidar_frame(30_000, seed=3).xyz
        tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=64))
        rng = np.random.default_rng(0)
        m, k = 4_000, 8
        queries = ref[rng.integers(0, ref.shape[0], size=m)]
        queries = queries + np.array([50.0, 0.0, 0.0])
        knn_exact_batched(tree, queries[:8], k)        # lazy arrays, warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result, visits = knn_exact_batched(tree, queries, k)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.median(visits) >= 10
        assert peak <= self.PEAK_MULTIPLE * m * k * 16
        d, _ = cKDTree(ref).query(queries[:200], k=k)
        assert np.array_equal(result.distances[:200], d)
