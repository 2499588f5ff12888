"""What the two serving workloads share: boot, warm-up, latency summary."""

from __future__ import annotations

import threading
import time

import numpy as np

from common import median, percentile, supported_tail
from loadgen import Phase, drain, poisson_offsets, run_phase

#: The serving latency limit: a request answered later counts as missed.
LIMIT_MS = 50.0
#: Load sent before measuring, so lazy set-up and warm-up stay out of it.
WARMUP_S = 3.0
#: Latency percentiles are taken per window of this many seconds of due
#: times; the reported value is their median across windows, so a burst
#: of host contention moves one window, not the run.
WINDOW_S = 2.0


class QueueSampler:
    """Samples the server's queued rows every 50 ms on its own thread."""

    def __init__(self, server):
        self.server = server
        self.rows: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-queue-sampler")

    def _run(self) -> None:
        while not self._stop.wait(0.05):
            self.rows.append(self.server.stats()["queue_rows"])

    def __enter__(self) -> "QueueSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    @property
    def mean(self) -> float:
        return float(np.mean(self.rows)) if self.rows else 0.0


def boot(make_server, probe):
    """Server from scratch to its first answer; returns (server, seconds)."""
    start = time.perf_counter()
    server = make_server()
    server.query(probe, 8)
    return server, time.perf_counter() - start


def boot_repeated(make_server, probe, repeats: int):
    """Boot ``repeats`` times, keep the last server; (server, [seconds])."""
    server, setups = None, []
    for _ in range(repeats):
        if server is not None:
            server.close()
        server, seconds = boot(make_server, probe)
        setups.append(seconds)
    return server, setups


def schedule(rng, rate: float, seconds: float, ops) -> Phase:
    """The Poisson arrivals of ``rate``/s that fall within ``seconds``;
    ``ops(count)`` draws the operation specs."""
    offsets = poisson_offsets(rng, rate, int(rate * seconds * 1.5) + 50)
    offsets = offsets[offsets < seconds]
    due = time.perf_counter() + 0.05 + offsets
    return Phase(due=due, ops=ops(offsets.size))


def warm_up(rng, rate: float, seconds: float, ops, send) -> None:
    phase = schedule(rng, rate, seconds, ops)
    run_phase(phase, send)
    drain(phase, timeout_s=10.0)


def latency_summary(phase: Phase, mask, seconds: float) -> dict:
    """End-to-end serving metrics over the requests selected by ``mask``.

    ``latency_p50_ms``/``latency_p90_ms`` are medians over
    :data:`WINDOW_S` windows of each window's percentile; the p99 is
    over every selected request (too few samples per window for it).
    ``throughput_per_s`` counts requests answered within the limit per
    second of the phase's ``seconds``.
    """
    ok = mask & ~phase.errors
    lat_ms = 1e3 * phase.latency_s[ok]
    window = np.floor((phase.due[ok] - phase.due[0]) / WINDOW_S).astype(int)
    groups = [lat_ms[window == w] for w in np.unique(window)]
    groups = [g for g in groups if g.size >= 10] or [lat_ms]
    good = int((lat_ms <= LIMIT_MS).sum())
    return {
        "throughput_per_s": good / seconds,
        "latency_p50_ms": median([median(g) for g in groups]),
        "latency_p90_ms": median([percentile(g, 90.0) for g in groups]),
        "latency_p99_ms": percentile(lat_ms, 99.0),
        "samples": int(lat_ms.size),
        "windows": len(groups),
        "window_p50_ms": [round(median(g), 3) for g in groups],
        "min_window_samples": min(g.size for g in groups),
        "supported_tail_percentile": supported_tail(lat_ms.size),
        "within_limit": good,
    }


def lag_p99_ms(phase: Phase) -> float:
    return 1e3 * percentile(phase.lag_s[~np.isnan(phase.lag_s)], 99.0)
