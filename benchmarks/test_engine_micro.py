"""Micro-benchmark of the batched query engine vs. the per-query loop.

The engine's reason to exist is wall-clock: identical answers to the
loop paths, much faster.  This file measures both sides on the paper's
workload shape (10k queries against a 30k-point frame), records the
ratio in ``extra_info``, and smoke-asserts the engine is not slower —
the hard >=5x claim lives in the PR notes, not in CI, so noisy shared
runners cannot flake the suite.  Each test also records a trajectory
point (queries/second) with the ``bench_engine`` recorder; with
``QUICKNN_BENCH_DIR`` set the session writes ``BENCH_engine.json``
for the ``bench-diff`` regression gate.
"""

import time

import numpy as np

from repro.kdtree import KdTreeConfig, build_tree, knn_approx, knn_approx_loop, knn_exact
from repro.kdtree.search import knn_exact_instrumented


def _timed_runs(fn, rounds: int) -> list[float]:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _best_of(fn, rounds: int) -> float:
    return min(_timed_runs(fn, rounds))


def test_engine_vs_loop_approx(benchmark, frames_30k, bench_engine):
    ref, qry = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=256))
    queries = qry.xyz[:10_000]
    k = 8

    fast = knn_approx(tree, queries, k)
    slow = knn_approx_loop(tree, queries, k)
    assert np.array_equal(fast.indices, slow.indices)
    assert np.array_equal(fast.distances, slow.distances)

    loop_s = _best_of(lambda: knn_approx_loop(tree, queries, k), rounds=2)
    benchmark(lambda: knn_approx(tree, queries, k))
    engine_times = _timed_runs(lambda: knn_approx(tree, queries, k), rounds=3)
    engine_s = min(engine_times)
    speedup = loop_s / engine_s
    benchmark.extra_info["loop_ms"] = round(loop_s * 1e3, 2)
    benchmark.extra_info["engine_ms"] = round(engine_s * 1e3, 2)
    benchmark.extra_info["speedup_vs_loop"] = round(speedup, 2)
    bench_engine.add(
        "approx_batched", work=queries.shape[0], times_s=engine_times,
        k=k, points=int(ref.xyz.shape[0]), speedup_vs_loop=round(speedup, 2),
    )
    print(f"\napprox engine: loop {loop_s * 1e3:.1f} ms, "
          f"engine {engine_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.0


def test_engine_vs_loop_exact(benchmark, frames_30k, bench_engine):
    ref, qry = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=256))
    queries = qry.xyz[:3_000]
    k = 8

    fast = knn_exact(tree, queries, k)
    slow, _ = knn_exact_instrumented(tree, queries, k)
    assert np.array_equal(fast.indices, slow.indices)
    assert np.array_equal(fast.distances, slow.distances)

    loop_s = _best_of(lambda: knn_exact_instrumented(tree, queries, k), rounds=1)
    benchmark(lambda: knn_exact(tree, queries, k))
    engine_times = _timed_runs(lambda: knn_exact(tree, queries, k), rounds=2)
    engine_s = min(engine_times)
    speedup = loop_s / engine_s
    benchmark.extra_info["loop_ms"] = round(loop_s * 1e3, 2)
    benchmark.extra_info["engine_ms"] = round(engine_s * 1e3, 2)
    benchmark.extra_info["speedup_vs_loop"] = round(speedup, 2)
    bench_engine.add(
        "exact_batched", work=queries.shape[0], times_s=engine_times,
        k=k, points=int(ref.xyz.shape[0]), speedup_vs_loop=round(speedup, 2),
    )
    print(f"\nexact engine: loop {loop_s * 1e3:.1f} ms, "
          f"engine {engine_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.0


SWEEP_ROWS = (1, 8, 64, 512, 4096)


def _sweep_rounds(rows: int) -> int:
    """Enough repeats that small batches are timed over ~4k rows."""
    return max(3, min(50, 4096 // rows))


def test_engine_batch_sweep(frames_30k, bench_engine):
    """Batch sizes serving actually produces, not only 4096 rows.

    Every batch is a prefix of one 4096-row query set, so each row's
    answer must equal its answer in the full batch: the kernel's
    result for a row may not depend on which rows share its call.
    """
    from repro.kdtree.engine import knn_approx_batched, knn_exact_batched

    ref, qry = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=256))
    flat = tree.flat()
    queries = qry.xyz[: SWEEP_ROWS[-1]]
    k = 8
    full_exact, _ = knn_exact_batched(tree, queries, k)
    full_approx = knn_approx_batched(flat, queries, k)
    for rows in SWEEP_ROWS:
        q = queries[:rows]
        exact, _ = knn_exact_batched(tree, q, k)
        approx = knn_approx_batched(flat, q, k)
        assert np.array_equal(exact.indices, full_exact.indices[:rows])
        assert np.array_equal(exact.distances, full_exact.distances[:rows])
        assert np.array_equal(approx.indices, full_approx.indices[:rows])
        assert np.array_equal(approx.distances, full_approx.distances[:rows])
        rounds = _sweep_rounds(rows)
        bench_engine.add(
            f"exact_batched@{rows}", work=rows,
            times_s=_timed_runs(lambda: knn_exact_batched(tree, q, k), rounds),
            k=k, points=int(ref.xyz.shape[0]), rows=rows,
        )
        bench_engine.add(
            f"approx_batched@{rows}", work=rows,
            times_s=_timed_runs(lambda: knn_approx_batched(flat, q, k), rounds),
            k=k, points=int(ref.xyz.shape[0]), rows=rows,
        )


def test_engine_approx_k1_icp(frames_30k, bench_engine):
    """The ICP correspondence call: k=1 over a whole 30k-row frame
    against 128-point buckets (``IcpConfig``'s default tree)."""
    ref, qry = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=128))
    queries = qry.xyz
    fast = knn_approx(tree, queries, 1)
    slow = knn_approx_loop(tree, queries, 1)
    assert np.array_equal(fast.indices, slow.indices)
    assert np.array_equal(fast.distances, slow.distances)
    bench_engine.add(
        "approx_k1_icp", work=queries.shape[0],
        times_s=_timed_runs(lambda: knn_approx(tree, queries, 1), rounds=5),
        k=1, points=int(ref.xyz.shape[0]), bucket_capacity=128,
    )
