"""Ragged radius requests through the server, both execution backends.

The radius path rides the same admission/batching/shard-merge spine as
kNN, so its contract is checked at the same three levels: bit-identity
of the merged answer with the monolithic batched kernel (thread AND
process execution, round-robin AND spatial sharding), honest admission
(each request is charged its worst-case answer size, ``rows x
max_neighbors``), and the no-degradation policy — a truncated ball has
no honest meaning, so radius requests reject rather than degrade.
"""

import numpy as np
import pytest

from repro.kdtree import build_flat
from repro.query import radius_batched
from repro.serve import (
    ExecutionConfig,
    KnnServer,
    Overloaded,
    RadiusServeResponse,
    ServeConfig,
    ServeRequest,
    ServerClosed,
)
from repro.serve.server import KnnCall, RadiusCall

RADIUS = 3.0
CAP = 6


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(77)
    ref = rng.uniform(-30.0, 30.0, size=(3_000, 3))
    queries = np.concatenate(
        [rng.uniform(-30.0, 30.0, size=(100, 3)), ref[:28]]
    )
    return ref, queries


@pytest.fixture(scope="module")
def monolithic(cloud):
    ref, queries = cloud
    flat, _ = build_flat(ref)
    return radius_batched(flat, queries, RADIUS, max_neighbors=CAP)


def _config(backend: str, sharding: str, **overrides) -> ServeConfig:
    defaults = dict(
        n_shards=3,
        sharding=sharding,
        max_queue=8192,
        max_batch_size=8192,
        execution=ExecutionConfig(backend=backend),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("sharding", ["round-robin", "spatial"])
    def test_matches_monolithic(self, cloud, monolithic, backend, sharding):
        ref, queries = cloud
        with KnnServer(ref, _config(backend, sharding)) as server:
            response = server.query_radius(
                queries, RADIUS, max_neighbors=CAP, timeout=60
            )
        assert isinstance(response, RadiusServeResponse)
        assert response.served == "exact"
        assert response.degrade_level == 0
        result = response.as_ragged()
        np.testing.assert_array_equal(result.offsets, monolithic.offsets)
        np.testing.assert_array_equal(result.indices, monolithic.indices)
        np.testing.assert_array_equal(result.distances, monolithic.distances)

    def test_split_across_submissions(self, cloud, monolithic):
        """Row slicing back to each request preserves per-request CSR."""
        ref, queries = cloud
        with KnnServer(ref, _config("thread", "round-robin")) as server:
            futures = [
                server.submit_radius(queries[i:i + 16], RADIUS,
                                     max_neighbors=CAP)
                for i in range(0, queries.shape[0], 16)
            ]
            parts = [f.result(timeout=60).as_ragged() for f in futures]
        row = 0
        for part in parts:
            for i in range(part.n_queries):
                idx, dst = part.row(i)
                want_idx, want_dst = monolithic.row(row)
                np.testing.assert_array_equal(idx, want_idx)
                np.testing.assert_array_equal(dst, want_dst)
                row += 1
        assert row == queries.shape[0]

    def test_mixed_knn_and_radius_traffic(self, cloud, monolithic):
        """Exact, approx and radius requests in one batch: three calls,
        each answered exactly as if it had been served alone."""
        ref, queries = cloud
        senders = [
            lambda server: server.submit(queries[:32], 4),
            lambda server: server.submit(queries[32:48], 4, mode="approx"),
            lambda server: server.submit_radius(
                queries, RADIUS, max_neighbors=CAP
            ),
        ]
        for backend in ("thread", "process"):
            config = _config(backend, "round-robin", max_delay_s=0.2)
            with KnnServer(ref, config) as server:
                alone = [send(server).result(timeout=60) for send in senders]
                batches = server.stats()["counters"]["serve.batches"]
                futures = [send(server) for send in senders]
                mixed = [f.result(timeout=60) for f in futures]
                assert server.stats()["counters"]["serve.batches"] == batches + 1
            for want, got in zip(alone, mixed):
                np.testing.assert_array_equal(got.indices, want.indices)
                np.testing.assert_array_equal(got.distances, want.distances)
            assert mixed[0].indices.shape == (32, 4)
            assert mixed[1].served == "approx"
            ragged = mixed[2].as_ragged()
            np.testing.assert_array_equal(ragged.offsets, monolithic.offsets)
            np.testing.assert_array_equal(ragged.indices, monolithic.indices)


class TestAdmission:
    def test_cost_rows_charges_worst_case(self):
        request = ServeRequest(
            xyz=np.zeros((10, 3)), call=RadiusCall(radius=1.0, max_neighbors=7),
            mode="exact", allow_degraded=False,
        )
        assert request.cost_rows == 70
        knn = ServeRequest(
            xyz=np.zeros((10, 3)), call=KnnCall(k=7), mode="exact",
            allow_degraded=True,
        )
        assert knn.cost_rows == 10

    def test_queue_overload_counts_expanded_rows(self, cloud):
        ref, queries = cloud
        # 50 queries x cap 6 = 300 worst-case rows > max_queue of 128.
        config = _config("thread", "round-robin", max_queue=128,
                         max_delay_s=0.5)
        with KnnServer(ref, config) as server:
            with pytest.raises(Overloaded):
                for _ in range(8):
                    server.submit_radius(queries[:50], RADIUS,
                                         max_neighbors=CAP)

    def test_validation(self, cloud):
        ref, queries = cloud
        with KnnServer(ref, _config("thread", "round-robin")) as server:
            with pytest.raises(ValueError, match="radius"):
                server.submit_radius(queries[:2], -1.0, max_neighbors=4)
            with pytest.raises(ValueError, match="max_neighbors"):
                server.submit_radius(queries[:2], 1.0, max_neighbors=0)
        with pytest.raises(ServerClosed):
            server.submit_radius(queries[:2], 1.0, max_neighbors=4)


class TestNoDegradation:
    def test_radius_never_degrades_under_pressure(self, cloud, monolithic):
        """Same overload that degrades kNN leaves radius answers exact."""
        ref, queries = cloud
        config = _config(
            "thread", "round-robin",
            degrade_thresholds=(0.01, 0.02, 0.03), approx_budget=4,
        )
        with KnnServer(ref, config) as server:
            futures = [
                server.submit_radius(queries, RADIUS, max_neighbors=CAP)
                for _ in range(6)
            ]
            responses = [f.result(timeout=60) for f in futures]
        for response in responses:
            assert response.served == "exact"
            assert response.degrade_level == 0
            result = response.as_ragged()
            np.testing.assert_array_equal(result.indices, monolithic.indices)
            np.testing.assert_array_equal(
                result.distances, monolithic.distances
            )
