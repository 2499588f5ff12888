"""Shared helpers: percentiles, memory, machine fingerprint, result rows."""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Where generated inputs are cached, relative to the checkout root.
CACHE_DIR = ".bench_cache"

#: Percentiles a tail is chosen from, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def cache_dir() -> Path:
    path = checkout_root() / CACHE_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return float("nan")
    rank = int(np.ceil(q / 100.0 * arr.size)) - 1
    return float(arr[min(max(rank, 0), arr.size - 1)])


def supported_tail(n: int) -> float | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs``), so
    the input generation before it stays out of :func:`peak_rss_mb`."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS of this process since :func:`reset_peak_rss`, plus that
    of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    oracle_checked: int = 0
    oracle_mismatches: int = 0
    #: Free-form context printed with the result (sizes, seeds, samples).
    info: dict = field(default_factory=dict)
    #: Per-layer values of a traced run, by name (units in ``layers``).
    layers: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def put_latency(self, p50_ms: float, p90_ms: float, p99_ms: float) -> None:
        """Latency per unit of work: printed with every run and reported
        by the traced run, but not gated (see ``run.py``)."""
        self.info["latency_ms"] = {"p50": p50_ms, "p90": p90_ms, "p99": p99_ms}

    @property
    def correct(self) -> bool:
        return self.oracle_mismatches == 0 and self.oracle_checked > 0


class Stopwatch:
    """Accumulates wall time of the measured loop, excluding pauses."""

    def __init__(self):
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += time.perf_counter() - self._start
        self._start = None
