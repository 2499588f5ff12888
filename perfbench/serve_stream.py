"""``serve_stream``: mixed reads beside 10 Hz reference updates, process backend.

``KnnServer`` with 2 shards on the process backend (shared-memory
shard snapshots) takes a Poisson stream at a fixed 100 req/s: 70%
1-row exact 8-NN, 20% 16-row approximate 8-NN and 10% 8-row capped
radius requests (0.3 m, at most 32 neighbours), drawn from the frame
after the served ones.  The same generator thread calls
``update_reference_async`` with the next reference frame ten times a
second; a handoff is timed from its due time until its future
resolves, which means the new generation is live.
"""

from __future__ import annotations

import contextlib

import numpy as np

import layers
import serving
from common import Outcome, median, peak_rss_mb, reset_peak_rss
from inputs import drive_frames
from loadgen import Phase, drain, run_phase
from oracle import Oracle

K = 8
RATE = 100.0
UPDATE_HZ = 10.0
RADIUS = 0.3
RADIUS_CAP = 32
MIX = (("knn", 0.7, 1), ("approx", 0.2, 16), ("radius", 0.1, 8))
REFERENCE_FRAMES = 4
ORACLE_EVERY = 10
SETUP_REPEATS = 5


def merged_phase(rng, seconds: float, pool_size: int, next_frame) -> Phase:
    """Poisson queries of the mix plus updates every 1/UPDATE_HZ s."""
    queries = serving.schedule(rng, RATE, seconds, lambda n: [None] * n)
    kinds = rng.choice(len(MIX), size=len(queries.ops),
                       p=[share for _, share, _ in MIX])
    ops = [(MIX[c][0], rng.integers(0, pool_size, size=MIX[c][2])) for c in kinds]
    start = queries.due[0] - 0.05 if len(queries.ops) else 0.0
    update_due = start + np.arange(1, int(seconds * UPDATE_HZ) + 1) / UPDATE_HZ
    due = np.concatenate([queries.due, update_due])
    ops += [("update", next_frame()) for _ in update_due]
    order = np.argsort(due, kind="stable")
    return Phase(due=due[order], ops=[ops[i] for i in order])


def run(args, recorder, registry) -> Outcome:
    from repro.serve import ExecutionConfig, KnnServer, ServeConfig

    points = 3_000 if args.smoke else 30_000
    frames = drive_frames(args.seed, REFERENCE_FRAMES + 1, points)
    references = frames.clouds[:REFERENCE_FRAMES]
    pool = frames.clouds[REFERENCE_FRAMES]
    reset_peak_rss()
    rng = np.random.default_rng(args.seed)
    out = Outcome()
    out.info["inputs"] = {"drive": {"frames": REFERENCE_FRAMES + 1,
                                    "points_per_frame": points,
                                    "seed": args.seed, "scene_seed": 0}}
    config = ServeConfig(n_shards=2, execution=ExecutionConfig(backend="process"))
    cursor = iter(range(1, 1 << 30))

    def next_frame() -> int:
        return next(cursor) % REFERENCE_FRAMES

    server, setups = serving.boot_repeated(
        lambda: KnnServer(references[0], config), pool[:1], SETUP_REPEATS
    )

    def send(op):
        kind, arg = op
        if kind == "update":
            return server.update_reference_async(references[arg])
        if kind == "radius":
            return server.submit_radius(pool[arg], RADIUS, max_neighbors=RADIUS_CAP)
        return server.submit(pool[arg], K, mode="approx" if kind == "approx" else "exact")

    warmup_s = 0.5 if args.smoke else serving.WARMUP_S
    sampler = serving.QueueSampler(server)
    try:
        warm = merged_phase(rng, warmup_s, pool.shape[0], next_frame)
        run_phase(warm, send)
        drain(warm, timeout_s=20.0)
        if args.trace:
            registry.reset()
        with sampler if args.trace else contextlib.nullcontext():
            phase = merged_phase(rng, args.seconds, pool.shape[0], next_frame)
            run_phase(phase, send)
            drain(phase, timeout_s=20.0)
    finally:
        server.close()
    rss = peak_rss_mb()

    oracles = {f: Oracle(references[f]) for f in range(REFERENCE_FRAMES)}
    is_update = np.array([op[0] == "update" for op in phase.ops])
    check_answers(warm, phase, is_update, oracles, pool)
    out.oracle_checked = sum(o.checked for o in oracles.values())
    out.oracle_mismatches = sum(o.mismatches for o in oracles.values())
    out.attempted = len(phase.ops)
    out.failed = int(phase.errors.sum())
    handoff_ms = 1e3 * phase.latency_s[is_update & ~phase.errors]

    summary = serving.latency_summary(phase, ~is_update, args.seconds)
    out.put("setup_s", median(setups), "s")
    out.put("throughput_per_s", summary["throughput_per_s"], "1/s")
    out.put_latency(summary["latency_p50_ms"], summary["latency_p90_ms"],
                    summary["latency_p99_ms"])
    out.put("peak_rss_mb", rss, "MB")
    out.info["samples"] = {
        "requests": summary["samples"], "rate_per_s": RATE,
        "latency_windows": summary["windows"],
        "window_p50_ms": summary["window_p50_ms"],
        "min_window_samples": summary["min_window_samples"],
        "supported_tail_percentile": summary["supported_tail_percentile"],
        "handoffs": int(handoff_ms.size), "handoff_p50_ms": median(handoff_ms),
        "setup_repeats": SETUP_REPEATS, "warmup_s": warmup_s,
        "latency_unit": "request, from its due time",
    }
    out.info["loadgen_lag_p99_ms"] = serving.lag_p99_ms(phase)

    if args.trace:
        lay = layers.from_registry(registry)
        lay["loadgen.lag_p99_ms"] = serving.lag_p99_ms(phase)
        lay["serve.handoff_p50_ms"] = median(handoff_ms)
        lay["serve.queue_rows"] = sampler.mean
        lay["serve.admit_us"] = 1e6 * float(np.nanmean(
            (phase.admitted - phase.sent)[~is_update]))
        rebuild_ms = 1e3 * registry.as_dict().get("serve.rebuild.seconds.mean", 0.0)
        update_ms = [1e3 * phase.futures[i].result()["rebuild_s"]
                     for i in np.flatnonzero(is_update & ~phase.errors)]
        lay["serve.publish_ms"] = float(np.mean(update_ms)) - rebuild_ms
        lay["serve.ipc_ms"] = ipc_ms(registry)
        out.layers = lay
    return out


def check_answers(warm, phase, is_update, oracles, pool) -> None:
    """Check every ORACLE_EVERY-th query against the oracle of the
    reference frame its generation served; mismatches become errors."""
    generation_frame = {0: 0}
    for p in (warm, phase):
        for op, future, failed in zip(p.ops, p.futures, p.errors):
            if op[0] == "update" and not failed:
                generation_frame[future.result()["generation"]] = op[1]
    for i in np.flatnonzero(~is_update)[::ORACLE_EVERY]:
        if phase.errors[i]:
            continue
        kind, rows = phase.ops[i]
        resp = phase.futures[i].result()
        oracle = oracles[generation_frame[resp.generation]]
        if kind == "radius":
            bad = oracle.check_radius(pool[rows], RADIUS, RADIUS_CAP, resp.indices,
                                      resp.distances, resp.offsets)
        elif kind == "approx":
            bad = oracle.check_approx(pool[rows], resp.indices, resp.distances)
        else:
            bad = oracle.check_knn(pool[rows], resp.indices, resp.distances)
        phase.errors[i] |= bool(bad)


def ipc_ms(registry) -> float:
    """Mean per job of (dispatch end to merge start) minus the slowest
    shard's worker-side search: time spent crossing processes."""
    import os

    pid = os.getpid()
    dispatched, merged, search = {}, {}, {}
    for ev in registry.events:
        args = ev.get("args") or {}
        job = args.get("job_id")
        if ev.get("ph") != "X" or job is None:
            continue
        if ev["name"] == "serve.dispatch" and ev["pid"] == pid:
            dispatched[job] = (ev["ts"] + ev["dur"]) / 1e3
        elif ev["name"] == "serve.merge" and ev["pid"] == pid:
            merged[job] = ev["ts"] / 1e3
        elif ev["name"] == "serve.worker.search":
            search[job] = max(search.get(job, 0.0), ev["dur"] / 1e3)
    gaps = [merged[j] - dispatched[j] - search[j]
            for j in merged if j in dispatched and j in search]
    return float(np.mean(gaps)) if gaps else 0.0
