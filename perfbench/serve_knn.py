"""``serve_knn``: open-loop 1-row exact 8-NN requests against a 2-shard server.

``KnnServer(frame, ServeConfig(n_shards=2))`` on the thread backend
serves rows drawn from the next frame of the drive, sent by one
generator thread as a Poisson stream at a fixed rate after a warm-up.
Tree build happens only in set-up.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import layers
import serving
from common import Outcome, median, peak_rss_mb, percentile, reset_peak_rss
from inputs import drive_frames
from loadgen import drain, run_phase
from oracle import Oracle
from spans import Span, install_wrappers, nest_by_containment, obs_spans, self_times

K = 8
RATE = 100.0
ORACLE_EVERY = 10
SETUP_REPEATS = 15

PHASE_NAMES = {
    "serve.dispatch": "serve.server.dispatch",
    "serve.worker.search": "serve.worker.search",
    "serve.merge": "serve.server.merge",
}


def run(args, recorder, registry) -> Outcome:
    import repro.serve.server as server_mod
    import repro.serve.sharding as sharding_mod
    from repro.serve import KnnServer, ServeConfig

    points = 3_000 if args.smoke else 30_000
    frames = drive_frames(args.seed, 2, points)
    reference, pool = frames.clouds[0], frames.clouds[1]
    reset_peak_rss()
    rng = np.random.default_rng(args.seed)
    out = Outcome()
    out.info["inputs"] = {"drive": {"frames": 2, "points_per_frame": points,
                                    "seed": args.seed, "scene_seed": 0}}
    config = ServeConfig(n_shards=2)
    server, setups = serving.boot_repeated(
        lambda: KnnServer(reference, config), pool[:1], SETUP_REPEATS
    )

    def ops(count):
        return list(rng.integers(0, pool.shape[0], size=count))

    def send(row):
        return server.submit(pool[row:row + 1], K)

    wrappers = [
        (sharding_mod, "knn_exact_batched", "kdtree.engine.exact"),
        (server_mod, "merge_topk", "serve.sharding.merge_topk"),
    ]
    sampler = serving.QueueSampler(server)
    warmup_s = 0.5 if args.smoke else serving.WARMUP_S
    try:
        serving.warm_up(rng, RATE, warmup_s, ops, send)
        with install_wrappers(recorder, wrappers if args.trace else []), (
            sampler if args.trace else contextlib.nullcontext()
        ):
            if args.trace:
                registry.reset()
                t0 = time.perf_counter()   # the registry's clock origin
            phase = serving.schedule(rng, RATE, args.seconds, ops)
            run_phase(phase, send)
            drain(phase, timeout_s=10.0)
    finally:
        server.close()
    rss = peak_rss_mb()

    oracle = Oracle(reference)
    for i in range(0, len(phase.ops), ORACLE_EVERY):
        if phase.errors[i]:
            continue
        response = phase.futures[i].result()
        row = phase.ops[i]
        if response.served != "exact" or oracle.check_knn(
            pool[row:row + 1], response.indices, response.distances
        ):
            phase.errors[i] = True
    out.oracle_checked = oracle.checked
    out.oracle_mismatches = oracle.mismatches
    out.attempted = len(phase.ops)
    out.failed = int(phase.errors.sum())

    summary = serving.latency_summary(phase, np.ones(len(phase.ops), bool),
                                      args.seconds)
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
        "setup_repeats": SETUP_REPEATS, "warmup_s": warmup_s,
        "latency_unit": "request, from its due time",
    }
    out.info["loadgen_lag_p99_ms"] = serving.lag_p99_ms(phase)

    if args.trace:
        lay = layers.from_registry(registry)
        lay["loadgen.lag_p99_ms"] = serving.lag_p99_ms(phase)
        lay["serve.admit_us"] = 1e6 * float(np.nanmean(phase.admitted - phase.sent))
        lay["serve.queue_rows"] = sampler.mean
        totals, errs = request_self_times(phase, recorder, registry, t0)
        for name, sec in totals.items():
            lay[f"self.{name}"] = 1e3 * sec / len(errs)
        lay["trace.coverage_err"] = percentile(errs, 99.0)
        lay["trace.units"] = float(len(errs))
        out.info["trace_coverage_err_median"] = median(errs)
        out.layers = lay
    return out


def request_self_times(phase, recorder, registry, t0: float):
    """Per-layer self time summed over the phase's requests, and the
    per-request coverage errors.

    Each request's tree, added to the recorder under the request's id:
    the request (due time to resolution) over generator lag, admission,
    and the program's dispatch, shard search and merge phases that name
    its request id, with the benchmark's kernel and merge wrappers
    nested inside them.  Of the two shard searches only the one that
    finished last is on the request's critical path, so only it counts.
    """
    events = obs_spans(registry, t0, PHASE_NAMES)
    program = [Span(-(i + 1), e["name"], e["start"], e["end"], 0, -1, e["tid"])
               for i, e in enumerate(events)]
    wrapped = [s for s in recorder.spans if s.parent == 0]
    nest_by_containment(program + wrapped)
    children: dict[int, list[Span]] = {}
    for s in wrapped:
        children.setdefault(s.parent, []).append(s)
    by_request: dict[int, list[Span]] = {}
    for span, event in zip(program, events):
        for rid in event["args"].get("request_ids", ()):
            by_request.setdefault(rid, []).append(span)

    totals: dict[str, float] = {}
    errs = []
    for i, future in enumerate(phase.futures):
        if phase.errors[i]:
            continue
        rid = future.result().request_id
        parts = by_request.get(rid, [])
        searches = [s for s in parts if s.name == "serve.worker.search"]
        critical = [s for s in parts if s.name != "serve.worker.search"]
        if searches:
            critical.append(max(searches, key=lambda s: s.end))
        root = recorder.add("unattributed", phase.due[i], phase.done[i],
                            request_id=rid)
        tree = [root,
                recorder.add("loadgen.lag", phase.due[i], phase.sent[i],
                             parent=root.span_id, request_id=rid),
                recorder.add("serve.batcher.admit", phase.sent[i], phase.admitted[i],
                             parent=root.span_id, request_id=rid)]
        for span in critical:
            node = recorder.add(span.name, span.start, span.end,
                                parent=root.span_id, request_id=rid, tid=span.tid)
            tree.append(node)
            for child in children.get(span.span_id, []):
                tree.append(recorder.add(child.name, child.start, child.end,
                                         parent=node.span_id, request_id=rid,
                                         tid=child.tid))
        per, err = self_times(tree, tree[0])
        errs.append(err)
        for name, sec in per.items():
            totals[name] = totals.get(name, 0.0) + sec
    return totals, errs
