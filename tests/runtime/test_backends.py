"""Store backends: local atomicity, the HTTP backend, fault injection.

The remote tier runs a real :class:`StoreServer` (stdlib, in-thread, on a
free port) and injects faults through the handler's ``fault_hook`` — so
every failure mode the client claims to survive (5xx bursts, timeouts,
dropped connections mid-PUT, corrupted bodies, claim races) is exercised
over an actual socket, not a mock.
"""

import http.client
import os
import socket
import threading
import time

import pytest

from repro.runtime import keys as rkeys
from repro.runtime.backends import (
    SHA_HEADER,
    HTTPStoreBackend,
    LocalDirBackend,
    StoreBackendError,
    is_remote_locator,
    open_backend,
    _sha256,
)
from repro.runtime.runner import pool_context
from repro.runtime.server import StoreRequestHandler, make_store_server
from repro.runtime.store import ArtifactStore


def _gcod_key():
    from repro.algorithm import GCoDConfig

    return rkeys.gcod_key("cora", 0.1, "gcn", GCoDConfig(), None, 0, "fast")


@pytest.fixture
def served(tmp_path):
    """``(server, url, root)`` of a live store server; hookable handler."""
    handler = type("Handler", (StoreRequestHandler,), {})
    server = make_store_server(str(tmp_path / "served"), port=0,
                               handler=handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, server.url, str(tmp_path / "served")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _client(url, **kw):
    kw.setdefault("timeout_s", 5.0)
    kw.setdefault("backoff_s", 0.001)
    return HTTPStoreBackend(url, **kw)


# ---------------------------------------------------------------------------
# locator routing
# ---------------------------------------------------------------------------

def test_open_backend_routes_locators(tmp_path):
    local = open_backend(str(tmp_path))
    assert isinstance(local, LocalDirBackend) and not local.shared
    remote = open_backend("http://127.0.0.1:1/")
    assert isinstance(remote, HTTPStoreBackend) and remote.shared
    assert remote.locator == "http://127.0.0.1:1"
    assert is_remote_locator("https://store:8750")
    assert not is_remote_locator(str(tmp_path))


# ---------------------------------------------------------------------------
# local backend: the atomic claim primitive under real process races
# ---------------------------------------------------------------------------

def _race_local_claim(root, barrier, queue):
    backend = LocalDirBackend(root)
    barrier.wait()
    queue.put(backend.put_if_absent("claim", "point-x.json", b"{}"))


def test_local_put_if_absent_two_processes(tmp_path):
    ctx = pool_context()
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_race_local_claim,
                    args=(str(tmp_path), barrier, queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=30) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    assert sorted(results) == [False, True]  # exactly one winner
    # and the winning blob is intact, with no temp debris left behind
    assert LocalDirBackend(str(tmp_path)).read("claim", "point-x.json") == b"{}"
    assert list(LocalDirBackend(str(tmp_path)).temp_files()) == []


# ---------------------------------------------------------------------------
# HTTP backend: the happy path over a real socket
# ---------------------------------------------------------------------------

def test_http_store_roundtrip(served):
    _server, url, _root = served
    store = ArtifactStore(url)
    assert store.is_remote
    assert store.root == url
    key = _gcod_key()
    assert store.get(key) is None
    store.put(key, {"speedup": 1.5}, summary={"dataset": "cora"})
    assert store.contains(key)
    assert store.get(key) == {"speedup": 1.5}
    [entry] = list(store.entries())
    assert entry.kind == "gcod" and entry.digest == key.digest
    assert entry.meta["summary"] == {"dataset": "cora"}
    stats = store.stats()
    assert stats["gcod"]["entries"] == 1
    assert store.invalidate(key)
    assert store.get(key) is None

    # the claim protocol end-to-end
    assert store.claim("point-abc", {"worker": "w1"})
    assert not store.claim("point-abc", {"worker": "w2"})  # lost the race
    assert store.read_claim("point-abc")["worker"] == "w1"
    assert store.release_claim("point-abc")
    assert store.read_claim("point-abc") is None


def test_http_put_is_one_put(served):
    server, url, _root = served
    requests = []

    def hook(handler, method, kind, name):
        requests.append((method, kind, name))
        return None

    server.RequestHandlerClass.fault_hook = staticmethod(hook)
    key = _gcod_key()
    ArtifactStore(url).put(key, {"speedup": 1.5}, summary={"n": 1})
    assert [r for r in requests if r[0] == "PUT"] == \
        [("PUT", "gcod", key.digest + ".pkl")]


def test_http_entries_and_stats_read_the_header(served):
    _server, url, _root = served
    store = ArtifactStore(url)
    key = _gcod_key()
    store.put(key, {"speedup": 1.5}, summary={"dataset": "cora", "n": 2})
    [entry] = list(ArtifactStore(url).entries())
    assert (entry.kind, entry.digest) == ("gcod", key.digest)
    assert entry.meta["summary"] == {"dataset": "cora", "n": 2}
    assert entry.meta["key"] == key.payload
    assert entry.created > 0
    stats = ArtifactStore(url).stats()
    assert stats["gcod"] == {"entries": 1, "bytes": entry.size_bytes}
    assert stats["total"]["entries"] == 1


def test_http_and_local_share_one_root(served):
    """A blob PUT over HTTP is the same entry a local store reads."""
    _server, url, root = served
    remote = ArtifactStore(url)
    key = _gcod_key()
    remote.put(key, [1, 2, 3])
    local = ArtifactStore(root)
    assert local.get(key) == [1, 2, 3]


# ---------------------------------------------------------------------------
# fault injection: 5xx, timeouts, dropped connections, corruption
# ---------------------------------------------------------------------------

def test_get_retries_through_transient_500(served):
    server, url, _root = served
    failures = {"left": 2}

    def hook(handler, method, kind, name):
        if method == "GET" and kind == "gcod" and failures["left"]:
            failures["left"] -= 1
            return 500
        return None

    key = _gcod_key()
    ArtifactStore(url).put(key, "precious")
    server.RequestHandlerClass.fault_hook = staticmethod(hook)
    got = ArtifactStore(_client(url, retries=3)).get(key)
    assert got == "precious"  # two 500s burned, third attempt landed
    assert failures["left"] == 0


def test_persistent_500_degrades_to_miss_and_put_degrades(served, capsys):
    server, url, _root = served
    server.RequestHandlerClass.fault_hook = staticmethod(
        lambda handler, method, kind, name: 500 if kind == "gcod" else None
    )
    store = ArtifactStore(_client(url, retries=2))
    key = _gcod_key()
    # reads: degrade to a miss -> the caller recomputes locally
    assert store.get(key) is None
    assert not store.contains(key)
    # writes: degrade with the stderr note, never raise
    store.put(key, {"expensive": True})
    assert "could not persist" in capsys.readouterr().err
    # a run that recomputed can still finish: the artifact only ever
    # lived in memory, exactly like a --no-cache run
    assert store.get(key) is None


def test_get_timeout_degrades_to_miss(served):
    server, url, _root = served

    def hook(handler, method, kind, name):
        if method == "GET" and kind == "gcod":
            time.sleep(0.4)  # well past the client's budget
        return None

    key = _gcod_key()
    ArtifactStore(url).put(key, "slow")
    server.RequestHandlerClass.fault_hook = staticmethod(hook)
    store = ArtifactStore(_client(url, timeout_s=0.05, retries=2))
    assert store.get(key) is None  # timed out twice -> miss, not a hang


def test_connection_drop_mid_put_commits_nothing(served):
    """A PUT whose connection dies mid-body must leave no partial entry."""
    server, url, root = served
    host, port = server.server_address[0], server.server_address[1]
    blob = b"x" * 4096
    conn = http.client.HTTPConnection(host, port, timeout=5)
    conn.putrequest("PUT", "/gcod/deadbeef.pkl")
    conn.putheader("Content-Length", str(len(blob)))
    conn.putheader(SHA_HEADER, _sha256(blob))
    conn.endheaders()
    conn.send(blob[:100])  # ... and the sender dies here
    conn.sock.shutdown(socket.SHUT_WR)
    try:
        response = conn.getresponse()
        assert response.status == 400  # short body refused
    except (http.client.HTTPException, OSError):
        pass  # server may just drop the half-request; equally fine
    finally:
        conn.close()

    deadline = time.time() + 5
    backend = LocalDirBackend(root)
    while time.time() < deadline and list(backend.temp_files()):
        time.sleep(0.01)
    assert backend.read("gcod", "deadbeef.pkl") is None  # nothing committed
    assert not os.path.exists(os.path.join(root, "gcod", "deadbeef.pkl"))
    # the server is still healthy for the next client
    assert ArtifactStore(url).get(_gcod_key()) is None


def test_sha_mismatch_put_commits_nothing(served):
    _server, url, _root = served
    client = _client(url)
    got = client._request(
        "PUT", client._url("gcod", "cafe.pkl"), body=b"corrupted-in-flight",
        headers={SHA_HEADER: "0" * 64},
    )
    assert got[0] == 400
    assert not client.exists("gcod", "cafe.pkl")


def _race_http_claim(url, barrier, queue):
    backend = HTTPStoreBackend(url, timeout_s=5.0, backoff_s=0.001)
    barrier.wait()
    queue.put(backend.put_if_absent("claim", "point-y.json", b"{}"))


def test_http_put_if_absent_race_two_processes(served):
    _server, url, _root = served
    ctx = pool_context()
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_race_http_claim, args=(url, barrier, queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=30) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    assert sorted(results) == [False, True]  # exactly one 201


def test_truncated_remote_pickle_invalidates(served):
    """Corruption that slips past transport checks dies at unpickling."""
    _server, url, root = served
    store = ArtifactStore(url)
    key = _gcod_key()
    store.put(key, {"fine": True})
    data_path = os.path.join(root, "gcod", f"{key.digest}.pkl")
    with open(data_path, "wb") as fh:
        fh.write(b"\x80\x05 definitely not a pickle")
    assert store.get(key) is None  # corrupted -> miss
    assert not store.contains(key)  # ... and the remote entry was dropped
    store.put(key, {"fine": "again"})  # recompute-and-recache recovers
    assert store.get(key) == {"fine": "again"}
