"""``odometry``: the paper's use case, offline and closed loop on one thread.

For each frame t of a seeded drive of ~30k-point ground-removed
frames: (1) ICP-register frame t onto frame t-1 with the default
``IcpConfig``; (2) exact 8-NN of every point of frame t against frame
t-1's tree; (3) incrementally update that tree to frame t and flatten
it; (4) 1024 farthest-point samples of frame t fused onto the new
tree, then a capped 0.3 m radius query around each sample.
"""

from __future__ import annotations

import time

import numpy as np

import layers
from common import Outcome, Stopwatch, median, peak_rss_mb, percentile, reset_peak_rss
from inputs import drive_frames
from oracle import Oracle
from spans import install_wrappers, unit_self_times

K = 8
FPS_SAMPLES = 1024
RADIUS = 0.3
RADIUS_CAP = 32
ORACLE_ROWS = 128
SETUP_REPEATS = 15


class TimedIndex:
    """A ``NeighborIndex`` proxy over kd-approx that spans build and query."""

    def __init__(self, recorder, tree_config, inner=None, counts=None):
        self.recorder = recorder
        self.tree_config = tree_config
        self.inner = inner
        self.counts = {"rows": 0, "calls": 0} if counts is None else counts

    def build(self, reference) -> "TimedIndex":
        from repro.index import make_index

        with self.recorder.span("index.build"):
            inner = make_index("kd-approx", reference, tree=self.tree_config)
        return TimedIndex(self.recorder, self.tree_config, inner, self.counts)

    def query(self, queries, k: int):
        self.counts["rows"] += len(queries)
        self.counts["calls"] += 1
        with self.recorder.span("index.query"):
            return self.inner.query(queries, k)


def run(args, recorder, registry) -> Outcome:
    import repro.kdtree.engine as engine_mod
    from repro.icp import IcpConfig, icp_register
    from repro.kdtree import FlatKdTree, KdTreeConfig, build_tree, update_tree
    from repro.kdtree.engine import knn_exact_batched
    from repro.query import radius_batched, sample_fps

    points = 3_000 if args.smoke else 30_000
    fps_m = 128 if args.smoke else FPS_SAMPLES
    n_frames = 2 + max(2, int(np.ceil(args.seconds / 4.0)))
    frames = drive_frames(args.seed, n_frames, points)
    reset_peak_rss()
    rng = np.random.default_rng(args.seed)
    out = Outcome()
    out.info["inputs"] = {
        "drive": {"frames_generated": len(frames), "points_per_frame": points,
                  "seed": args.seed, "scene_seed": 0},
    }

    icp_config = IcpConfig()
    proxy = TimedIndex(recorder, icp_config.tree)
    if args.trace:
        icp_config = IcpConfig(knn=proxy)
    tree_config = KdTreeConfig()

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tree, _ = build_tree(frames.clouds[0], tree_config)
        knn_exact_batched(tree, frames.clouds[1][:1], K)
        setups.append(time.perf_counter() - start)

    if args.trace:
        registry.reset()
    frame_s, pose_err_cm, iterations = [], [], []
    checks = []   # sampled answers, checked once the clock has stopped
    rebuilt = []
    watch = Stopwatch()
    wrappers = [(engine_mod, "knn_approx_batched", "kdtree.engine.approx")]
    roots = []
    with install_wrappers(recorder, wrappers if args.trace else []):
        t = 1
        while watch.elapsed < args.seconds:
            if t >= len(frames):
                frames = drive_frames(args.seed, 2 * len(frames), points)
            source, target = frames.clouds[t], frames.clouds[t - 1]
            with watch, recorder.span("unattributed") as root:
                start = time.perf_counter()
                with recorder.span("icp"):
                    reg = icp_register(source, target, icp_config)
                with recorder.span("kdtree.engine.exact"):
                    knn, _ = knn_exact_batched(tree, source, K)
                with recorder.span("kdtree.incremental"):
                    new_tree, update = update_tree(tree, source, tree_config)
                with recorder.span("kdtree.flat"):
                    flat = FlatKdTree.from_tree(new_tree)
                with recorder.span("query.fps"):
                    picks = sample_fps(source, fps_m, flat=flat)
                with recorder.span("query.radius"):
                    ball = radius_batched(flat, source[picks], RADIUS,
                                          max_neighbors=RADIUS_CAP)
                frame_s.append(time.perf_counter() - start)
            roots.append(root)
            truth = frames.relative_translation(t)
            pose_err_cm.append(100.0 * float(np.linalg.norm(
                reg.transform.translation - truth)))
            iterations.append(reg.iterations)
            rebuilt.append(update.points_rebuilt / source.shape[0])
            rows = rng.choice(source.shape[0], size=min(ORACLE_ROWS, source.shape[0]),
                              replace=False)
            sub = picks[:ORACLE_ROWS]
            cut = int(ball.offsets[sub.size])
            checks.append((t, rows, knn.indices[rows], knn.distances[rows], sub,
                           ball.indices[:cut].copy(), ball.distances[:cut].copy(),
                           ball.offsets[:sub.size + 1].copy()))
            tree = new_tree
            t += 1
    rss = peak_rss_mb()

    for t, rows, knn_idx, knn_dst, sub, ball_idx, ball_dst, ball_off in checks:
        oracle = Oracle(frames.clouds[t - 1])
        bad = oracle.check_knn(frames.clouds[t][rows], knn_idx, knn_dst)
        here = Oracle(frames.clouds[t])
        bad += here.check_radius(frames.clouds[t][sub], RADIUS, RADIUS_CAP,
                                 ball_idx, ball_dst, ball_off)
        out.oracle_checked += oracle.checked + here.checked
        out.oracle_mismatches += oracle.mismatches + here.mismatches
        out.failed += bool(bad)

    n = len(frame_s)
    out.attempted = n
    wall = watch.elapsed
    out.put("setup_s", median(setups), "s")
    out.put("throughput_per_s", n / wall, "1/s")
    out.put_latency(1e3 * median(frame_s), 1e3 * percentile(frame_s, 90.0),
                    1e3 * percentile(frame_s, 99.0))
    out.put("peak_rss_mb", rss, "MB")
    out.info["samples"] = {"frames": n, "setup_repeats": SETUP_REPEATS,
                           "latency_unit": "frame",
                           "p90_note": "nearest rank; the maximum below ten frames"}
    out.info["pose_err_cm"] = float(np.mean(pose_err_cm))

    if args.trace:
        totals, errs = unit_self_times(recorder.spans, roots)
        lay = layers.from_registry(registry)
        lay["icp.iterations"] = float(np.mean(iterations))
        lay["icp.self_ms"] = 1e3 * totals.get("icp", 0.0) / n
        lay["icp.pose_err_cm"] = float(np.mean(pose_err_cm))
        lay["index.build_ms"] = 1e3 * layers.span_mean(recorder.spans, "index.build")
        lay["index.query_ms"] = 1e3 * layers.span_mean(recorder.spans, "index.query")
        lay["index.rows_per_call"] = proxy.counts["rows"] / proxy.counts["calls"]
        lay["update.ms"] = 1e3 * layers.span_mean(recorder.spans, "kdtree.incremental")
        lay["update.points_rebuilt_share"] = float(np.mean(rebuilt))
        lay["fps.ms"] = 1e3 * layers.span_mean(recorder.spans, "query.fps")
        lay["trace.coverage_err"] = max(errs)
        lay["trace.units"] = float(n)
        for name, sec in totals.items():
            lay[f"self.{name}"] = 1e3 * sec / n
        out.info["trace_wall_s"] = sum(frame_s)
        out.layers = lay
    return out
