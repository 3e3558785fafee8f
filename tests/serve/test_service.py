"""The inference service end to end: warm/cold, batching, correlation.

Every test runs a real server (``start_in_thread``: the actual asyncio
loop, the actual TCP protocol, the actual executor) against micro-scale
datasets so a cold training dispatch completes in well under a second.
"""

import asyncio
import gc
import threading

import pytest

from repro.algorithm.pipeline import GCoDResult
from repro.evaluation.context import EvalContext
from repro.runtime.store import ArtifactStore
from repro.serve import (
    ServeClient,
    ServeRequest,
    ServeSettings,
    start_in_thread,
)
from repro.serve.service import InferenceService

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


def test_warm_queries_answer_from_the_memo(server, client, monkeypatch):
    """After the one training, warm queries neither summarise the result
    again nor submit anything to the executor."""
    summaries = []
    summarise = GCoDResult.to_summary_dict

    def counting_summary(result):
        summaries.append(result)
        return summarise(result)

    monkeypatch.setattr(GCoDResult, "to_summary_dict", counting_summary)
    cold = client.query("cora")
    assert cold.source == "cold"

    executor = server.service._executor
    submits = []
    submit = executor.submit

    def counting_submit(fn, *args, **kwargs):
        submits.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(executor, "submit", counting_submit)
    responses = client.query_many([("cora", "gcn")] * 50)
    assert {r.source for r in responses} == {"warm"}
    assert all(r.result == cold.result for r in responses)
    assert len(summaries) <= 1
    assert submits == []
    assert client.stats()["warm_hits"] == 50


def test_warm_query_answered_while_another_key_trains(server, client,
                                                      monkeypatch):
    """A warm key is answered while the executor is blocked training a
    different key: warm hits never queue behind a dispatch."""
    client.query("cora")
    service = server.service
    entered, release = threading.Event(), threading.Event()
    train = service._train_summary

    def held_train(key):
        if key[0] == "citeseer":
            entered.set()
            release.wait(timeout=60)
        return train(key)

    monkeypatch.setattr(service, "_train_summary", held_train)
    cold = []

    def ask_cold() -> None:
        with ServeClient(server.host, server.port) as c:
            cold.append(c.query("citeseer"))

    thread = threading.Thread(target=ask_cold)
    thread.start()
    try:
        assert entered.wait(timeout=60)
        # A short socket timeout: without the memo this query would wait
        # for the held training and fail here instead of hanging.
        with ServeClient(server.host, server.port, timeout=10) as c:
            warm = c.query("cora")
        assert warm.source == "warm"
        assert not release.is_set()
    finally:
        release.set()
        thread.join(timeout=60)
    assert [r.source for r in cold] == ["cold"]


def test_restarted_server_loads_each_key_once(tmp_path, monkeypatch):
    """A fresh service over a warm store loads each key through
    ``_warm_summary`` once, then answers from its memo."""
    store_root = str(tmp_path)
    srv1 = start_in_thread(micro_ctx(ArtifactStore(store_root)),
                           ServeSettings(port=0))
    try:
        with ServeClient(srv1.host, srv1.port) as c:
            c.query_many([("cora", "gcn"), ("citeseer", "gcn")])
    finally:
        srv1.stop()

    loads = []
    warm_summary = InferenceService._warm_summary

    def counting_load(service, ctx, dataset, arch):
        loads.append(dataset)
        return warm_summary(service, ctx, dataset, arch)

    monkeypatch.setattr(InferenceService, "_warm_summary", counting_load)
    srv2 = start_in_thread(micro_ctx(ArtifactStore(store_root)),
                           ServeSettings(port=0))
    try:
        with ServeClient(srv2.host, srv2.port) as c:
            assert c.query("cora").source == "warm"
            assert c.query("citeseer").source == "warm"
            responses = c.query_many([("cora", "gcn"),
                                      ("citeseer", "gcn")] * 5)
            assert {r.source for r in responses} == {"warm"}
            assert c.stats()["gcod_runs"] == 0
    finally:
        srv2.stop()
    assert sorted(loads) == ["citeseer", "cora"]


def test_failed_training_is_not_memoised(server, client, monkeypatch):
    """A training that raises leaves no memo entry; the next query for
    the key dispatches again, and only a success is served warm."""
    service = server.service
    train = service._train_summary
    dispatches = []

    def failing_once(key):
        dispatches.append(key)
        if len(dispatches) == 1:
            raise RuntimeError("injected training failure")
        return train(key)

    monkeypatch.setattr(service, "_train_summary", failing_once)
    with pytest.raises(Exception, match="injected training failure"):
        client.query("cora")
    assert service._summaries == {}
    assert client.query("cora").source == "cold"
    assert client.query("cora").source == "warm"
    assert len(dispatches) == 2


def test_connection_keeps_only_unfinished_request_tasks(server, client):
    """A long-lived connection does not hold on to the tasks of the
    requests it already answered."""
    client.query("cora")
    responses = client.query_many([("cora", "gcn")] * 3000)
    assert {r.source for r in responses} == {"warm"}
    loop = server._loop

    async def census():
        gc.collect()
        # all_tasks() lists unfinished tasks only; a finished task that
        # something still references shows up among the live objects.
        live = [obj for obj in gc.get_objects()
                if isinstance(obj, asyncio.Task) and obj.get_loop() is loop]
        return len(asyncio.all_tasks()), len(live)

    unfinished, live = asyncio.run_coroutine_threadsafe(
        census(), loop).result(timeout=60)
    assert unfinished <= 8
    assert live <= 8
