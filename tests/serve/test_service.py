"""The inference service end to end: warm/cold, batching, correlation.

Every test runs a real server (``start_in_thread``: the actual asyncio
loop, the actual TCP protocol, the actual executor) against micro-scale
datasets so a cold training dispatch completes in well under a second.
"""

import threading

import pytest

from repro.evaluation.context import EvalContext
from repro.runtime.store import ArtifactStore
from repro.serve import (
    ServeClient,
    ServeRequest,
    ServeSettings,
    start_in_thread,
)

#: Micro scales: each cold dispatch trains in a fraction of a second.
MICRO_SCALES = {"cora": 0.06, "citeseer": 0.05}


def micro_ctx(store=None) -> EvalContext:
    ctx = EvalContext(profile="fast", store=store)
    ctx.dataset_scales = dict(MICRO_SCALES)
    return ctx


@pytest.fixture
def server():
    srv = start_in_thread(micro_ctx(), ServeSettings(
        port=0, max_batch=4, max_wait_ms=40.0))
    try:
        yield srv
    finally:
        srv.stop()


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


def test_ping(client):
    assert client.ping()


def test_cold_then_warm(client):
    first = client.query("cora")
    assert first.source == "cold"
    assert first.kernel_backend == "vectorized"
    assert first.batch_id >= 0
    assert first.batch_size == 1
    assert isinstance(first.result, dict) and first.result

    second = client.query("cora")
    assert second.source == "warm"
    assert second.batch_id == -1
    assert second.result == first.result

    stats = client.stats()
    assert stats["gcod_runs"] == 1
    assert stats["warm_hits"] == 1
    assert stats["cold_misses"] == 1


def test_pipelined_identical_queries_share_one_dispatch(client):
    responses = client.query_many([("cora", "gcn")] * 4)
    stats = client.stats()
    assert stats["gcod_runs"] == 1
    assert {r.source for r in responses} == {"cold"}
    assert {r.batch_id for r in responses} == {responses[0].batch_id}
    assert {r.batch_size for r in responses} == {4}
    assert len({r.id for r in responses}) == 4
    # every rider gets the same payload the dispatch produced
    assert all(r.result == responses[0].result for r in responses)


def test_distinct_keys_get_distinct_batches(client):
    responses = client.query_many([("cora", "gcn"), ("citeseer", "gcn")])
    assert {r.source for r in responses} == {"cold"}
    assert responses[0].batch_id != responses[1].batch_id
    assert client.stats()["gcod_runs"] == 2


def test_responses_correlate_out_of_order(client):
    """A warm answer overtakes a cold one; the client reorders by id."""
    client.query("cora")  # warm the key
    responses = client.query_many([("citeseer", "gcn"), ("cora", "gcn")])
    # request order is preserved in the returned list...
    assert responses[0].dataset == "citeseer"
    assert responses[1].dataset == "cora"
    # ...even though the warm cora answer finished first
    assert responses[0].source == "cold"
    assert responses[1].source == "warm"


def test_unknown_dataset_errors_but_server_survives(client):
    with pytest.raises(Exception, match="unknown dataset"):
        client.query("no-such-dataset")
    assert client.ping()
    assert client.stats()["errors"] == 1
    # and real queries still work afterwards
    assert client.query("cora").status == "ok"


def test_failed_query_counts_as_error_not_miss(client):
    """A failing dispatch is an `errors`, never a served hit/miss.

    The miss counters (and batch sizes) used to be bumped before the
    query could still fail, so every error also over-reported a miss.
    """
    with pytest.raises(Exception, match="unknown dataset"):
        client.query("no-such-dataset")
    stats = client.stats()
    assert stats["errors"] == 1
    assert stats["cold_misses"] == 0
    assert stats["warm_hits"] == 0
    assert stats["batched_requests"] == 0
    assert stats["coalesced_requests"] == 0

    # A real served miss still counts exactly once after the failure.
    assert client.query("cora").source == "cold"
    stats = client.stats()
    assert stats["errors"] == 1
    assert stats["cold_misses"] == 1
    assert stats["batched_requests"] == 1


def test_failed_pipelined_queries_count_only_errors(client):
    """Racing requests that all fail report errors only: no coalesced or
    batched requests survive in the stats, and later successful batches
    still report their true size."""
    responses = client.query_many([("no-such-dataset", "gcn")] * 3)
    assert {r.status for r in responses} == {"error"}
    stats = client.stats()
    assert stats["errors"] == 3
    assert stats["cold_misses"] == 0
    assert stats["batched_requests"] == 0
    assert stats["coalesced_requests"] == 0

    responses = client.query_many([("cora", "gcn")] * 2)
    assert {r.batch_size for r in responses} == {2}


def test_malformed_line_gets_error_response(server):
    import socket

    with socket.create_connection((server.host, server.port),
                                  timeout=30) as sock:
        sock.sendall(b"this is not json\n")
        line = sock.makefile("r").readline()
    assert '"status":"error"' in line
    assert "malformed" in line


def test_unregistered_backend_gets_error_response(client):
    """A query naming an unregistered backend is answered with an error
    naming ``KernelError``: it counts as an error and trains nothing."""
    before = client.stats()
    response = client.call(ServeRequest(id="q-bad-backend", dataset="cora",
                                        kernel_backend="compiled"))
    assert response.status == "error"
    assert response.error.startswith("KernelError:")
    assert "'compiled'" in response.error
    after = client.stats()
    assert after["errors"] - before["errors"] == 1
    assert after["gcod_runs"] - before["gcod_runs"] == 0


def test_store_backed_server_answers_warm_across_restarts(tmp_path):
    """A second server process-equivalent (fresh service, same store)
    serves the first server's training without running a dispatch."""
    store_root = str(tmp_path)
    srv1 = start_in_thread(micro_ctx(ArtifactStore(store_root)),
                           ServeSettings(port=0))
    try:
        with ServeClient(srv1.host, srv1.port) as c:
            assert c.query("cora").source == "cold"
    finally:
        srv1.stop()

    srv2 = start_in_thread(micro_ctx(ArtifactStore(store_root)),
                           ServeSettings(port=0))
    try:
        with ServeClient(srv2.host, srv2.port) as c:
            response = c.query("cora")
            assert response.source == "warm"
            assert c.stats()["gcod_runs"] == 0
    finally:
        srv2.stop()


def test_concurrent_clients_on_one_cold_key(server):
    """N separate connections racing the same cold key still cost one
    training dispatch (batch window or in-flight join, either path)."""
    results = [None] * 3

    def hit(idx: int) -> None:
        with ServeClient(server.host, server.port) as c:
            results[idx] = c.query("citeseer")

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is not None and r.status == "ok" for r in results)
    payloads = [r.result for r in results]
    assert all(p == payloads[0] for p in payloads)
    with ServeClient(server.host, server.port) as c:
        assert c.stats()["gcod_runs"] == 1


def test_request_level_api_matches_helper(client):
    raw = client.call(ServeRequest(id="explicit-1", dataset="cora"))
    assert raw.id == "explicit-1"
    assert raw.status == "ok"
