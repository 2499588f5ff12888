"""The per-layer metrics of a traced run: names, units, and derivations.

Every traced run reports every metric below; a layer a workload does
not exercise reports 0 (no work done there).
"""

from __future__ import annotations

import numpy as np

#: Layers whose per-unit self time is reported as ``self.<layer>``
#: (milliseconds per frame, request or batch).  ``unattributed`` is the
#: unit's own self time: for a served request, the time it waited in
#: queues outside any layer's span.
SELF_LAYERS = (
    "unattributed",
    "icp",
    "index.build",
    "index.query",
    "kdtree.engine.approx",
    "kdtree.engine.exact",
    "kdtree.incremental",
    "kdtree.flat",
    "kdtree.blocked",
    "query.fps",
    "query.radius",
    "loadgen.lag",
    "serve.batcher.admit",
    "serve.server.dispatch",
    "serve.worker.search",
    "serve.server.merge",
    "serve.sharding.merge_topk",
)

PER_LAYER = (
    ("icp.iterations", "count"),
    ("icp.self_ms", "ms"),
    ("icp.pose_err_cm", "cm"),
    ("index.build_ms", "ms"),
    ("index.query_ms", "ms"),
    ("index.rows_per_call", "rows"),
    ("engine.approx.rows_per_s", "rows/s"),
    ("engine.approx.rows_per_call", "rows"),
    ("engine.exact.rows_per_s", "rows/s"),
    ("engine.exact.rows_per_call", "rows"),
    ("engine.exact.bucket_scans_per_row", "count"),
    ("update.ms", "ms"),
    ("update.points_rebuilt_share", "share"),
    ("build.ms", "ms"),
    ("build.points_per_s", "points/s"),
    ("fps.ms", "ms"),
    ("fps.bucket_pruned_share", "share"),
    ("radius.rows_per_s", "rows/s"),
    ("radius.pairs_per_row", "count"),
    ("serve.admit_us", "us"),
    ("serve.batch_fill_rows", "rows"),
    ("serve.queue_rows", "rows"),
    ("serve.merge_ms", "ms"),
    ("serve.jobs_per_request", "count"),
    ("serve.worker.search_ms", "ms"),
    ("serve.ipc_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.handoff_p50_ms", "ms"),
    ("blocked.build_ms", "ms"),
    ("blocked.block_loads_per_batch", "count"),
    ("blocked.hit_share", "share"),
    ("blocked.block_visits_per_row", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("error_rate", "share"),
    ("trace.coverage_err", "share"),
    ("trace.units", "count"),
    ("traced.setup_s", "s"),
    ("traced.throughput_per_s", "1/s"),
    ("latency.p50_ms", "ms"),
    ("latency.p90_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("traced.peak_rss_mb", "MB"),
) + tuple((f"self.{layer}", "ms") for layer in SELF_LAYERS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_registry(registry) -> dict[str, float]:
    """Metrics the program's own ``repro.obs`` registry already counts."""
    m = registry.as_dict()

    def get(name: str) -> float:
        return float(m.get(name, 0.0))

    visits = get("build.fps.bucket_visits")
    pruned = get("build.fps.bucket_pruned")
    build_s = get("build.vectorized.seconds.total") + get("build.legacy.seconds.total")
    builds = get("build.vectorized.seconds.count") + get("build.legacy.seconds.count")
    return {
        "engine.approx.rows_per_s": _ratio(get("engine.approx.queries"),
                                           get("engine.approx.seconds.total")),
        "engine.approx.rows_per_call": _ratio(get("engine.approx.queries"),
                                              get("engine.approx.calls")),
        "engine.exact.rows_per_s": _ratio(get("engine.exact.queries"),
                                          get("engine.exact.seconds.total")),
        "engine.exact.rows_per_call": _ratio(get("engine.exact.queries"),
                                             get("engine.exact.calls")),
        "engine.exact.bucket_scans_per_row": _ratio(get("engine.exact.bucket_scans"),
                                                    get("engine.exact.queries")),
        "build.ms": 1e3 * _ratio(build_s, builds),
        "build.points_per_s": _ratio(get("build.points"), build_s),
        "fps.bucket_pruned_share": _ratio(pruned, visits + pruned),
        "radius.rows_per_s": _ratio(get("engine.radius.queries"),
                                    get("engine.radius.seconds.total")),
        "radius.pairs_per_row": _ratio(get("engine.radius.pairs"),
                                       get("engine.radius.queries")),
        "serve.batch_fill_rows": _ratio(get("serve.rows"), get("serve.batches")),
        "serve.merge_ms": 1e3 * get("serve.merge.seconds.mean"),
        "serve.jobs_per_request": _ratio(get("serve.dispatch.seconds.count"),
                                         get("serve.requests")),
        "serve.worker.search_ms": 1e3 * get("serve.worker.search.seconds.mean"),
    }


def span_mean(spans, name: str) -> float:
    """Mean duration (s) of the recorder's spans called ``name``."""
    durations = [s.duration for s in spans if s.name == name]
    return float(np.mean(durations)) if durations else 0.0


def complete(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric with its unit; absent layers report 0."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
