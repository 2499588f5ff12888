"""``blocked_map``: exact 8-NN over a million-point map larger than the cache.

Set-up runs ``build_blocked`` on the map's ``.npy`` file with 125k-point
blocks (8 blocks) and two build workers, under a two-block residency
budget.  Then one thread runs a closed loop of 2048-row exact 8-NN
batches; each batch samples a successive stretch of the map in drive
order, jittered by 5 cm, so the working set walks through every block.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import layers
from common import (Outcome, Stopwatch, cache_dir, median, peak_rss_mb, percentile,
                    reset_peak_rss)
from inputs import city_map
from oracle import Oracle
from spans import install_wrappers, unit_self_times

K = 8
BATCH_ROWS = 2048
STRETCH = 40_000           # map rows per stretch (about one drive frame)
JITTER_M = 0.05
ORACLE_ROWS_PER_BATCH = 16
SETUP_REPEATS = 3


def run(args, recorder, registry) -> Outcome:
    import repro.kdtree.blocked as blocked_mod
    from repro.kdtree.blocked import BlockedBuildConfig, build_blocked

    points = 50_000 if args.smoke else 1_000_000
    block_points = points // 8
    batch_rows = 256 if args.smoke else BATCH_ROWS
    stretch = points // 25 if args.smoke else STRETCH
    cloud = city_map(points)
    reset_peak_rss()
    map_path = cache_dir() / f"city-{points}.npy"
    rng = np.random.default_rng(args.seed)
    out = Outcome()
    out.info["inputs"] = {"map": {"points": points, "map_seed": 0,
                                  "query_seed": args.seed,
                                  "batch_rows": batch_rows}}
    config = BlockedBuildConfig(target_block_points=block_points, workers=2)
    work_dir = cache_dir() / f"blocked-{os.getpid()}"

    def batch(b: int, start: int) -> np.ndarray:
        lo = (start + b * stretch) % (points - stretch)
        rows = rng.integers(lo, lo + stretch, size=batch_rows)
        return cloud[rows] + rng.normal(0.0, JITTER_M, size=(batch_rows, 3))

    setups, build_s = [], []
    index = None
    try:
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            index = build_blocked(map_path, config, block_dir=work_dir / str(rep),
                                  max_resident_blocks=2)
            build_s.append(time.perf_counter() - start)
            index.query(cloud[:1], K)
            setups.append(time.perf_counter() - start)
        out.info["n_blocks"] = index.n_blocks

        start_row = int(rng.integers(0, points - stretch))
        index.query(batch(0, start_row), K)      # untimed warm-up batch
        if args.trace:
            registry.reset()
        before = index.stats()
        watch = Stopwatch()
        batch_s, roots, checks = [], [], []
        wrappers = [(blocked_mod, "knn_exact_batched", "kdtree.engine.exact")]
        with install_wrappers(recorder, wrappers if args.trace else []):
            b = 1
            while watch.elapsed < args.seconds:
                q = batch(b, start_row)
                with watch, recorder.span("unattributed") as root:
                    t0 = time.perf_counter()
                    with recorder.span("kdtree.blocked"):
                        result = index.query(q, K)
                    batch_s.append(time.perf_counter() - t0)
                roots.append(root)
                keep = rng.choice(batch_rows, ORACLE_ROWS_PER_BATCH, replace=False)
                checks.append((q[keep], result.indices[keep], result.distances[keep]))
                b += 1
        after = index.stats()
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    oracle = Oracle(np.asarray(cloud))
    for q, idx, dst in checks:
        out.failed += bool(oracle.check_knn(q, idx, dst))
    out.oracle_checked = oracle.checked
    out.oracle_mismatches = oracle.mismatches
    n = len(batch_s)
    out.attempted = n

    out.put("setup_s", median(setups), "s")
    out.put("throughput_per_s", n * batch_rows / watch.elapsed, "1/s")
    out.put_latency(1e3 * median(batch_s), 1e3 * percentile(batch_s, 90.0),
                    1e3 * percentile(batch_s, 99.0))
    out.put("peak_rss_mb", rss, "MB")
    loads = after["block_loads"] - before["block_loads"]
    visits = after["block_visits"] - before["block_visits"]
    out.info["samples"] = {"batches": n, "rows": n * batch_rows,
                           "setup_repeats": SETUP_REPEATS,
                           "block_loads": loads, "latency_unit": "batch",
                           "p90_note": "nearest rank; the maximum below ten batches"}

    if args.trace:
        lay = layers.from_registry(registry)
        lay["blocked.build_ms"] = 1e3 * median(build_s)
        lay["blocked.block_loads_per_batch"] = loads / n
        lay["blocked.hit_share"] = 1.0 - loads / visits if visits else 0.0
        lay["blocked.block_visits_per_row"] = visits / (n * batch_rows)
        totals, errs = unit_self_times(recorder.spans, roots)
        for name, sec in totals.items():
            lay[f"self.{name}"] = 1e3 * sec / n
        lay["trace.coverage_err"] = max(errs)
        lay["trace.units"] = float(n)
        out.layers = lay
    return out
