"""A blocking, pipelining client for the ``repro serve`` protocol.

:class:`ServeClient` keeps one TCP connection. Because the service
answers in completion order (warm responses overtake cold ones), the
client keeps a small reorder buffer: :meth:`call` reads lines until the
response for *its* request id shows up, parking any other responses for
the requests that are still waiting. :meth:`query_many` exploits this to
pipeline a whole batch of queries on one connection — which is exactly
how requests end up sharing a server-side micro-batch.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeProtocolError
from repro.serve.schema import (
    OP_PING,
    OP_QUERY,
    OP_STATS,
    ServeRequest,
    ServeResponse,
    parse_response,
)


class ServeClient:
    """A synchronous client for one ``repro serve`` endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 timeout: float = 300.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8",
                                           newline="\n")
        self._ids = itertools.count(1)
        #: responses read while waiting for a different id
        self._parked: Dict[str, ServeResponse] = {}

    # ------------------------------------------------------------------
    # wire primitives
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return f"q{next(self._ids)}"

    def _send(self, request: ServeRequest) -> None:
        self._sock.sendall((request.to_json() + "\n").encode("utf-8"))

    def _recv_for(self, request_id: str) -> ServeResponse:
        """The response for ``request_id``, parking out-of-order ones."""
        if request_id in self._parked:
            return self._parked.pop(request_id)
        while True:
            line = self._reader.readline()
            if not line:
                raise ServeProtocolError(
                    "server closed the connection mid-request"
                )
            response = parse_response(line.strip())
            if response.id == request_id:
                return response
            self._parked[response.id] = response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def call(self, request: ServeRequest) -> ServeResponse:
        """Send one request and block for its response."""
        self._send(request)
        return self._recv_for(request.id)

    def query(self, dataset: str, arch: str = "gcn",
              kernel_backend: Optional[str] = None) -> ServeResponse:
        """One graph query (raises on an error response)."""
        response = self.call(ServeRequest(
            id=self._next_id(), op=OP_QUERY, dataset=dataset, arch=arch,
            kernel_backend=kernel_backend,
        ))
        if response.status != "ok":
            raise ServeProtocolError(
                f"query {dataset}/{arch} failed: {response.error}"
            )
        return response

    def query_many(
        self, specs: Sequence[Tuple[str, str]],
        kernel_backend: Optional[str] = None,
    ) -> List[ServeResponse]:
        """Pipeline several ``(dataset, arch)`` queries on this connection.

        All requests go out before any response is read, so identical
        cold queries land in the same server-side micro-batch window.
        Responses come back in request order regardless of the order the
        server finished them in.
        """
        requests = [
            ServeRequest(id=self._next_id(), op=OP_QUERY, dataset=ds,
                         arch=arch, kernel_backend=kernel_backend)
            for ds, arch in specs
        ]
        for request in requests:
            self._send(request)
        return [self._recv_for(request.id) for request in requests]

    def stats(self) -> Dict[str, Any]:
        """The service's counters (requests, warm hits, gcod runs, ...)."""
        response = self.call(ServeRequest(id=self._next_id(), op=OP_STATS))
        if response.status != "ok" or response.result is None:
            raise ServeProtocolError(f"stats failed: {response.error}")
        return response.result

    def ping(self) -> bool:
        """True if the server answers."""
        response = self.call(ServeRequest(id=self._next_id(), op=OP_PING))
        return response.status == "ok"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass  # repro: lint-ok[except-swallow] — already closed

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
