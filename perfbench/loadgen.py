"""Seeded request schedules and the wire clients that play them.

Schedules are pure functions of the seed (unit-tested). The clients speak
the ``repro serve`` line protocol on one TCP connection:

* :func:`closed_loop` keeps a fixed number of requests outstanding and
  sends the next one only when a response arrives;
* :class:`OpenLoop` sends on a schedule from one thread and reads on a
  second, so a slow server faces a growing queue. Each request's latency
  is timed from when it was *due*, and how late the sender ran is
  recorded per request. Cold bursts can be chained: burst ``k+1`` falls
  due a seeded gap after burst ``k``'s last answer.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

Key = Tuple[str, str]  # (dataset, arch)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def poisson_offsets(rng: random.Random, rate: float, count: int) -> List[float]:
    """``count`` arrival offsets (seconds) of a Poisson process at ``rate``."""
    out, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def key_mix(rng: random.Random, keys: Sequence[Key], count: int) -> List[Key]:
    return [keys[rng.randrange(len(keys))] for _ in range(count)]


@dataclass(frozen=True)
class Burst:
    """``size`` identical cold queries for ``key``, due ``gap`` seconds
    after the previous burst's last answer (or the phase start)."""

    key: Key
    size: int
    gap: float


def burst_plan(rng: random.Random, keys: Sequence[Key]) -> List[Burst]:
    """One burst per cold key, in seeded order, sizes 4-8, gaps 0.2-0.5 s."""
    order = list(keys)
    rng.shuffle(order)
    return [Burst(key, rng.randint(4, 8), round(rng.uniform(0.2, 0.5), 3))
            for key in order]


# ----------------------------------------------------------------------
# wire
# ----------------------------------------------------------------------
class Conn:
    """One line-protocol connection (send from one thread, read from one)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")
        self._ids = 0

    def send_query(self, key: Key) -> str:
        self._ids += 1
        rid = f"r{self._ids}"
        self.send({"id": rid, "op": "query", "dataset": key[0],
                   "arch": key[1]})
        return rid

    def send(self, request: dict) -> None:
        self.sock.sendall((json.dumps(request) + "\n").encode())

    def recv(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        """Send one request and read responses until its own arrives."""
        self.send(request)
        while True:
            response = self.recv()
            if response.get("id") == request["id"]:
                return response

    def stats(self) -> dict:
        self._ids += 1
        return self.call({"id": f"s{self._ids}", "op": "stats"})["result"]

    def query(self, key: Key) -> dict:
        self._ids += 1
        return self.call({"id": f"q{self._ids}", "op": "query",
                          "dataset": key[0], "arch": key[1]})

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Record:
    """One request's life: what, when due, when sent, when answered."""

    kind: str  # "warm" or "burst<k>"
    key: Key
    due: float
    sent: float = 0.0
    recv: float = 0.0
    response: Optional[dict] = None

    @property
    def latency(self) -> float:
        return self.recv - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def closed_loop(conn: Conn, keys: Sequence[Key], outstanding: int,
                seconds: float) -> Tuple[List[Record], float]:
    """Keep ``outstanding`` requests in flight for ``seconds``.

    Returns every record and the measured window; only responses received
    inside the window count towards its throughput.
    """
    pending: Dict[str, Record] = {}
    records: List[Record] = []
    it = iter(keys)

    def send_next() -> None:
        key = next(it)
        now = time.perf_counter()
        rec = Record("warm", key, now, now)
        pending[conn.send_query(key)] = rec
        records.append(rec)

    start = time.perf_counter()
    end = start + seconds
    for _ in range(outstanding):
        send_next()
    while pending:
        response = conn.recv()
        rec = pending.pop(response["id"])
        rec.recv = time.perf_counter()
        rec.response = response
        if rec.recv < end:
            send_next()
    return records, end - start


@dataclass
class OpenLoop:
    """Play a warm schedule (and optional chained bursts) on one connection."""

    conn: Conn
    warm: Sequence[Tuple[float, Key]]
    bursts: Sequence[Burst] = ()
    #: keep the warm stream going this long after the last burst's answer
    tail: float = 0.3
    records: Dict[str, Record] = field(default_factory=dict)
    burst_windows: List[Tuple[float, float]] = field(default_factory=list)

    def run(self, timeout: float = 120.0) -> None:
        self._cv = threading.Condition()
        self._sent = 0
        self._received = 0
        self._sender_done = False
        self._burst_due: Optional[float] = None
        self._burst_left = 0
        self._stop_at: Optional[float] = None
        self._error: Optional[BaseException] = None
        self.t0 = time.perf_counter() + 0.05
        if self.bursts:
            self._burst_due = self.t0 + self.bursts[0].gap
        reader = threading.Thread(target=self._read, name="perfbench-recv",
                                  daemon=True)
        reader.start()
        try:
            self._send()
        finally:
            with self._cv:
                self._sender_done = True
                self._cv.notify_all()
            reader.join(timeout)
        if reader.is_alive():
            raise TimeoutError("responses still missing after the timeout")
        if self._error is not None:
            raise self._error

    # -- sender thread (the caller's) ---------------------------------------
    def _send(self) -> None:
        i, k = 0, 0
        while True:
            with self._cv:
                if self._error is not None:
                    return
                warm_due = (self.t0 + self.warm[i][0]
                            if i < len(self.warm) else None)
                # Without bursts the warm schedule alone sets the end; with
                # them, the warm stream runs until a tail after the last one.
                stop = self._stop_at if self.bursts else float("inf")
                if stop is not None and (warm_due is None or warm_due >= stop):
                    return
                due = min((d for d in (warm_due, self._burst_due)
                           if d is not None), default=None)
                if due is None:  # only a burst's answers are outstanding
                    self._cv.wait()
                    continue
                wait = due - time.perf_counter()
                if wait > 0:
                    self._cv.wait(wait)
                    continue
                if self._burst_due is not None and due == self._burst_due:
                    burst = self.bursts[k]
                    self._burst_due = None
                    self._burst_left = burst.size
                    batch = [(f"burst{k}", burst.key, due)] * burst.size
                    self.burst_windows.append((due, float("nan")))
                    k += 1
                else:
                    batch = [("warm", self.warm[i][1], due)]
                    i += 1
                for kind, key, d in batch:
                    rec = Record(kind, key, d)
                    rid = f"r{len(self.records) + 1}"
                    self.records[rid] = rec
                    self._sent += 1
                    rec.sent = time.perf_counter()
                    self.conn.send({"id": rid, "op": "query",
                                    "dataset": key[0], "arch": key[1]})
                self._cv.notify_all()

    # -- reader thread ------------------------------------------------------
    def _read(self) -> None:
        try:
            while True:
                with self._cv:
                    while (self._received >= self._sent
                           and not self._sender_done):
                        self._cv.wait()
                    if self._received >= self._sent:
                        return  # the sender is done and nothing is owed
                response = self.conn.recv()
                now = time.perf_counter()
                with self._cv:
                    rec = self.records[response["id"]]
                    rec.recv, rec.response = now, response
                    self._received += 1
                    if rec.kind.startswith("burst"):
                        self._burst_left -= 1
                        if self._burst_left == 0:
                            k = len(self.burst_windows) - 1
                            self.burst_windows[k] = (
                                self.burst_windows[k][0], now)
                            if k + 1 < len(self.bursts):
                                self._burst_due = now + self.bursts[k + 1].gap
                            else:
                                self._stop_at = now + self.tail
                    self._cv.notify_all()
        except BaseException as exc:  # reported by run() in the caller
            with self._cv:
                self._error = exc
                self._cv.notify_all()
