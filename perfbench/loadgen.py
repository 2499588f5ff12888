"""Open-loop load: one generator thread, Poisson arrivals from the seed.

Each operation is timed from the moment it was *due*, not from when
the generator got round to sending it, so a stall is charged to every
operation it delayed; how late the generator ran is reported beside
the latencies.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """``count`` arrival offsets (seconds from phase start) at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class Phase:
    """The operations of one open-loop phase and what became of them."""

    due: np.ndarray                      # absolute perf-counter due times
    ops: list                            # opaque per-operation specs
    sent: np.ndarray = None              # when ``send`` was entered
    admitted: np.ndarray = None          # when ``send`` returned
    done: np.ndarray = None              # when the future resolved
    futures: list = field(default_factory=list)
    errors: np.ndarray = None            # refused at send, or failed

    def __post_init__(self):
        n = len(self.ops)
        self.sent = np.full(n, np.nan)
        self.admitted = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.errors = np.zeros(n, dtype=bool)
        self.futures = [None] * n

    @property
    def latency_s(self) -> np.ndarray:
        return self.done - self.due

    @property
    def lag_s(self) -> np.ndarray:
        return self.sent - self.due


def run_phase(phase: Phase, send) -> None:
    """Send every operation of ``phase`` at its due time, in this thread.

    ``send(op)`` returns a :class:`Future`; raising counts as a refusal.
    Returns once the last operation was sent; use :func:`drain` to wait
    for completions.
    """
    clock = time.perf_counter
    for i, due in enumerate(phase.due):
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        phase.sent[i] = clock()
        try:
            future: Future = send(phase.ops[i])
        except Exception:
            phase.admitted[i] = clock()
            phase.errors[i] = True
            continue
        phase.admitted[i] = clock()
        phase.futures[i] = future
        future.add_done_callback(_stamp(phase.done, i, clock))


def _stamp(done: np.ndarray, i: int, clock):
    def callback(_future) -> None:
        done[i] = clock()

    return callback


def drain(phase: Phase, timeout_s: float) -> None:
    """Wait for outstanding futures; failures and stragglers are errors."""
    deadline = time.perf_counter() + timeout_s
    for i, future in enumerate(phase.futures):
        if future is None:
            continue
        try:
            future.result(timeout=max(deadline - time.perf_counter(), 0.0))
        except Exception:
            phase.errors[i] = True
    # A future's waiters wake before its callbacks run: give the stamps
    # of resolved futures a moment to land.
    settle = time.perf_counter() + 1.0
    while (np.isnan(phase.done) & ~phase.errors).any() and time.perf_counter() < settle:
        time.sleep(0.001)
    phase.errors |= np.isnan(phase.done)
