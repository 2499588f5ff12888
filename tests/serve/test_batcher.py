"""MicroBatcher: admission control and batch-formation policy.

Uses a fake clock everywhere timing matters, so the deadline logic is
tested deterministically rather than with sleeps.
"""

import threading

import numpy as np
import pytest

from repro.serve import MicroBatcher, Overloaded, ServeRequest, ServerClosed
from repro.serve.server import KnnCall


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def request(rows: int = 1, k: int = 4) -> ServeRequest:
    return ServeRequest(
        xyz=np.zeros((rows, 3)), call=KnnCall(k), mode="exact",
        allow_degraded=False,
    )


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def batcher(clock):
    return MicroBatcher(
        max_batch_size=8, max_delay_s=0.01, max_queue=16, clock=clock
    )


class TestAdmission:
    def test_counts_rows_not_requests(self, batcher):
        batcher.submit(request(rows=10))
        batcher.submit(request(rows=6))  # 16 rows: exactly full
        assert batcher.depth() == 16
        with pytest.raises(Overloaded) as excinfo:
            batcher.submit(request(rows=1))
        assert excinfo.value.queue_depth == 16
        assert excinfo.value.max_queue == 16

    def test_shed_is_synchronous_and_costless(self, batcher):
        batcher.submit(request(rows=16))
        shed = request(rows=1)
        with pytest.raises(Overloaded):
            batcher.submit(shed)
        # The shed request never entered the queue.
        assert batcher.depth() == 16
        assert not shed.future.done()

    def test_fill_fraction(self, batcher):
        assert batcher.fill_fraction() == 0.0
        batcher.submit(request(rows=8))
        assert batcher.fill_fraction() == 0.5

    def test_submit_after_close_raises(self, batcher):
        batcher.close()
        with pytest.raises(ServerClosed):
            batcher.submit(request())


class TestFormation:
    def test_full_batch_dispatches_immediately(self, batcher):
        for _ in range(8):
            batcher.submit(request())
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and len(batch) == 8
        assert batcher.depth() == 0

    def test_partial_batch_waits_for_deadline(self, batcher, clock):
        batcher.submit(request())
        assert batcher.next_batch(timeout=0) is None  # deadline not reached
        clock.now += 0.011
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and len(batch) == 1

    def test_batch_respects_row_cap(self, batcher, clock):
        for _ in range(3):
            batcher.submit(request(rows=3))  # 9 rows queued >= cap of 8
        batch = batcher.next_batch(timeout=0)
        # 3+3 fits, +3 would exceed 8: two requests ship, one stays.
        assert len(batch) == 2
        assert batcher.depth() == 3

    def test_oversized_request_ships_alone(self, batcher, clock):
        batcher.submit(request(rows=12))  # larger than max_batch_size
        batch = batcher.next_batch(timeout=0)
        assert len(batch) == 1 and batch[0].n_rows == 12

    def test_fifo_order(self, batcher, clock):
        first, second = request(), request()
        batcher.submit(first)
        batcher.submit(second)
        clock.now += 0.02
        batch = batcher.next_batch(timeout=0)
        assert batch[0] is first and batch[1] is second

    def test_blocking_wakeup_on_submit(self, clock):
        # A real-threads smoke: the dispatcher blocked in next_batch
        # must wake when a full batch arrives.
        import time

        batcher = MicroBatcher(
            max_batch_size=1, max_delay_s=5.0, max_queue=8, clock=time.monotonic
        )
        got = []

        def consume():
            got.append(batcher.next_batch(timeout=2.0))

        t = threading.Thread(target=consume)
        t.start()
        batcher.submit(request())
        t.join(timeout=3.0)
        assert not t.is_alive()
        assert got and got[0] is not None and len(got[0]) == 1


class TestExpiry:
    def test_expire_removes_past_deadline(self, batcher, clock):
        alive, doomed = request(rows=2), request(rows=3)
        doomed.deadline = 0.5
        batcher.submit(alive)
        batcher.submit(doomed)
        clock.now = 1.0
        expired = batcher.expire(clock.now)
        assert expired == [doomed]
        assert batcher.depth() == 2  # doomed's rows were freed

    def test_expire_noop_without_deadlines(self, batcher, clock):
        batcher.submit(request())
        assert batcher.expire(clock.now) == []
        assert batcher.depth() == 1


class TestClose:
    def test_close_drains_queue(self, batcher):
        batcher.submit(request())
        batcher.submit(request())
        drained = batcher.close()
        assert len(drained) == 2
        assert batcher.depth() == 0

    def test_next_batch_returns_none_after_close(self, batcher):
        batcher.close()
        assert batcher.next_batch(timeout=0) is None
