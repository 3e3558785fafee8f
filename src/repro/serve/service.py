"""The batched asyncio inference service behind ``repro serve``.

Request flow (one asyncio task per incoming line, so a connection can
pipeline freely):

1. **join an in-flight dispatch** — if a training dispatch for this
   (dataset, arch, resolved backend) key is already executing, the
   request attaches to it: it will be answered by the same dispatch and
   counted into its batch size. No new work is created.
2. **warm** — a key whose summary is already in the service's per-key
   memo is answered inline on the event loop: no executor hop, no
   store lookup, no ``to_summary_dict``. The memo is filled when a
   training dispatch succeeds, and by the first warm query for a key the
   context can answer without training (:meth:`EvalContext.has_gcod`:
   process memo or artifact store), which loads the pipeline once on the
   executor.
3. **cold** — otherwise the request enters the micro-batch window for
   its key. The window flushes when it holds ``max_batch`` requests or
   ``max_wait_ms`` after its first request, whichever comes first; the
   flush runs **one** training dispatch on the executor and resolves
   every waiter. Identical queries that race each other therefore cost
   one pipeline run, not N.

The executor, a small thread pool (default width 1), has two jobs
only: training dispatches and the first store load of each key. Memo
hits never wait behind either, so the loop keeps answering them while a
dispatch trains. A trained result is immutable and the context keeps it
for the life of the process anyway, so the memo (one entry per key)
adds no staleness. Results land in the artifact store through the
normal :meth:`EvalContext.gcod` path, so the *next* server process
starts warm too.

Nothing here touches wall clocks for payload content — responses carry
no timestamps — so repeated identical queries produce byte-identical
``result`` payloads, which is what the bench's warm-hit gate asserts.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.evaluation.context import EvalContext
from repro.runtime import counters
from repro.serve.schema import (
    OP_PING,
    OP_QUERY,
    OP_STATS,
    SOURCE_COLD,
    SOURCE_WARM,
    STATUS_ERROR,
    STATUS_OK,
    ServeRequest,
    ServeResponse,
    parse_request,
)
from repro.errors import ServeProtocolError
from repro.sparse.kernels import get_backend

#: A batch key: the unit one training dispatch serves.
BatchKey = Tuple[str, str, str]  # (dataset, arch, resolved backend)


@dataclass
class ServeSettings:
    """Service knobs (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8731
    #: flush a cold micro-batch at this many requests ...
    max_batch: int = 16
    #: ... or this many milliseconds after its first request.
    max_wait_ms: float = 5.0
    #: training executor width. 1 serializes dispatches (one kernel
    #: dispatch at a time, zero duplicate-training risk); >1 overlaps
    #: distinct keys at the cost of racing identical ones that arrive
    #: after their batch flushed (the store keeps results identical).
    workers: int = 1
    verbose: bool = False


class _Batch:
    """One open micro-batch window: waiters + a mutable size box.

    The size box is shared with requests that join the dispatch after
    the flush (while training is still in flight), so every response —
    early member or late joiner — reports the same final batch size.
    """

    __slots__ = ("key", "batch_id", "waiters", "size_box", "timer")

    def __init__(self, key: BatchKey, batch_id: int):
        self.key = key
        self.batch_id = batch_id
        self.waiters: List[asyncio.Future] = []
        self.size_box = [0]
        self.timer: Optional[asyncio.TimerHandle] = None


@dataclass
class _Inflight:
    """A dispatched (still running) batch other requests can join."""

    batch_id: int
    size_box: List[int]
    done: asyncio.Future = field(repr=False)


class InferenceService:
    """Answer graph queries from the store; micro-batch the cold ones."""

    def __init__(self, ctx: EvalContext, settings: ServeSettings):
        self.ctx = ctx
        self.settings = settings
        self.stats: Dict[str, int] = {
            "requests": 0,
            "warm_hits": 0,
            "cold_misses": 0,
            "batches": 0,
            "batched_requests": 0,
            "coalesced_requests": 0,
            "errors": 0,
        }
        self._batches: Dict[BatchKey, _Batch] = {}
        self._inflight: Dict[BatchKey, _Inflight] = {}
        #: Per-key summary of every trained or loaded pipeline.
        self._summaries: Dict[BatchKey, dict] = {}
        # The counter is process-global; report runs relative to this
        # service's start so embedded servers (tests, examples) see only
        # their own training.
        self._gcod_runs_at_start = counters.gcod_run_count()
        self._batch_ids = itertools.count()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, settings.workers),
            thread_name_prefix="repro-serve",
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # context / key plumbing
    # ------------------------------------------------------------------
    def _resolve(self, req: ServeRequest) -> Tuple[BatchKey, EvalContext]:
        backend = get_backend(
            req.kernel_backend
            if req.kernel_backend is not None
            else self.ctx.kernel_backend
        ).name
        # replace() shares the memo dicts deliberately: memo keys include
        # the resolved backend name, so contexts on different backends
        # never collide. An unregistered name raises KernelError above,
        # which handle() answers as an error response.
        ctx = (
            self.ctx
            if backend == self.ctx._backend_name()
            else replace(self.ctx, kernel_backend=backend)
        )
        return (req.dataset, req.arch, backend), ctx

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def handle(self, req: ServeRequest) -> ServeResponse:
        """Answer one parsed request (any op)."""
        self.stats["requests"] += 1
        if req.op == OP_PING:
            return ServeResponse(id=req.id, status=STATUS_OK, op=OP_PING,
                                 result={"pong": True})
        if req.op == OP_STATS:
            payload = dict(self.stats)
            payload["gcod_runs"] = (counters.gcod_run_count()
                                    - self._gcod_runs_at_start)
            payload["open_batches"] = len(self._batches)
            payload["inflight_batches"] = len(self._inflight)
            return ServeResponse(id=req.id, status=STATUS_OK, op=OP_STATS,
                                 result=payload)
        try:
            return await self._handle_query(req)
        except Exception as exc:
            self.stats["errors"] += 1
            print(f"repro serve: query {req.id!r} failed: {exc}",
                  file=sys.stderr)
            return ServeResponse(
                id=req.id, status=STATUS_ERROR, dataset=req.dataset,
                arch=req.arch, error=f"{type(exc).__name__}: {exc}",
            )

    async def _handle_query(self, req: ServeRequest) -> ServeResponse:
        key, ctx = self._resolve(req)
        dataset, arch, backend = key

        summary = self._summaries.get(key)
        if summary is not None:
            self.stats["warm_hits"] += 1
            return self._ok(req, key, SOURCE_WARM, summary, -1, None)

        # Miss/hit counters (and the shared batch-size box) must reflect
        # only *committed* responses: every await below can raise, and a
        # failed query is reported through `errors`, not as a served miss.
        inflight = self._inflight.get(key)
        if inflight is not None:
            # A dispatch for this key is already training: ride it. The
            # size box is bumped before the await so every member of the
            # dispatch reports the same final batch size, and rolled
            # back if this request never becomes a response.
            inflight.size_box[0] += 1
            try:
                summary = await asyncio.shield(inflight.done)
            except BaseException:
                inflight.size_box[0] -= 1
                raise
            self.stats["cold_misses"] += 1
            self.stats["coalesced_requests"] += 1
            return self._ok(req, key, SOURCE_COLD, summary,
                            inflight.batch_id, inflight.size_box)

        if ctx.has_gcod(dataset, arch):
            loop = asyncio.get_running_loop()
            summary = await loop.run_in_executor(
                self._executor, self._warm_summary, ctx, dataset, arch
            )
            self._summaries[key] = summary
            self.stats["warm_hits"] += 1
            return self._ok(req, key, SOURCE_WARM, summary, -1, None)

        # Cold: enter (or open) the micro-batch window for this key.
        loop = asyncio.get_running_loop()
        batch = self._batches.get(key)
        if batch is None:
            batch = _Batch(key, next(self._batch_ids))
            self._batches[key] = batch
            self.stats["batches"] += 1
            batch.timer = loop.call_later(
                self.settings.max_wait_ms / 1000.0,
                self._flush, key, batch,
            )
        waiter: asyncio.Future = loop.create_future()
        batch.waiters.append(waiter)
        batch.size_box[0] += 1
        if len(batch.waiters) >= self.settings.max_batch:
            self._flush(key, batch)
        try:
            summary = await asyncio.shield(waiter)
        except BaseException:
            batch.size_box[0] -= 1
            raise
        self.stats["cold_misses"] += 1
        self.stats["batched_requests"] += 1
        return self._ok(req, key, SOURCE_COLD, summary,
                        batch.batch_id, batch.size_box)

    def _ok(self, req, key, source, summary, batch_id, size_box):
        dataset, arch, backend = key
        return ServeResponse(
            id=req.id, status=STATUS_OK, source=source, dataset=dataset,
            arch=arch, kernel_backend=backend, batch_id=batch_id,
            batch_size=size_box[0] if size_box is not None else 0,
            result=summary,
        )

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------
    def _flush(self, key: BatchKey, batch: _Batch) -> None:
        """Close the window and dispatch one training run for it."""
        if self._batches.get(key) is not batch:
            return  # already flushed by the size trigger
        del self._batches[key]
        if batch.timer is not None:
            batch.timer.cancel()
        loop = asyncio.get_running_loop()
        done: asyncio.Future = loop.create_future()
        self._inflight[key] = _Inflight(batch.batch_id, batch.size_box,
                                        done)
        if self.settings.verbose:
            print(f"repro serve: dispatch batch #{batch.batch_id} "
                  f"{key[0]}/{key[1]}/{key[2]} "
                  f"({len(batch.waiters)} request(s))", file=sys.stderr)
        task = loop.run_in_executor(
            self._executor, self._train_summary, key
        )
        task.add_done_callback(
            lambda fut: self._settle(key, batch, done, fut)
        )

    def _settle(self, key, batch, done, fut) -> None:
        self._inflight.pop(key, None)
        exc = fut.exception()
        if exc is not None:
            done.set_exception(exc)
            for waiter in batch.waiters:
                if not waiter.done():
                    waiter.set_exception(exc)
            # `done` may have no joiners; mark it retrieved so the loop
            # does not log "exception was never retrieved".
            done.exception()
            return
        summary = fut.result()
        self._summaries[key] = summary
        done.set_result(summary)
        for waiter in batch.waiters:
            if not waiter.done():
                waiter.set_result(summary)

    # ------------------------------------------------------------------
    # executor-side (synchronous) work
    # ------------------------------------------------------------------
    def _warm_summary(self, ctx: EvalContext, dataset, arch):
        return ctx.gcod(dataset, arch).to_summary_dict()

    def _train_summary(self, key: BatchKey):
        dataset, arch, backend = key
        ctx = (
            self.ctx
            if backend == self.ctx._backend_name()
            else replace(self.ctx, kernel_backend=backend)
        )
        return ctx.gcod(dataset, arch).to_summary_dict()

    # ------------------------------------------------------------------
    # wire handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        # Only unfinished requests: a long-lived connection must not keep
        # every response it ever sent.
        tasks: Set[asyncio.Task] = set()

        async def serve_line(line: str) -> None:
            try:
                req = parse_request(line)
            except ServeProtocolError as exc:
                self.stats["errors"] += 1
                resp = ServeResponse(id="", status=STATUS_ERROR,
                                     error=str(exc))
            else:
                resp = await self.handle(req)
            payload = (resp.to_json() + "\n").encode("utf-8")
            try:
                async with write_lock:
                    writer.write(payload)
                    await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # repro: lint-ok[except-swallow] — client hung up
                # mid-response; its in-flight work is still cached for
                # the next query, nothing to report.

        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                task = asyncio.ensure_future(serve_line(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            try:
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # repro: lint-ok[except-swallow] — torn down mid-
                # drain (loop shutdown or client gone); nothing to save.

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start accepting; returns the asyncio server."""
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._on_connection, self.settings.host, self.settings.port
        )
        self.settings.port = server.sockets[0].getsockname()[1]
        return server

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False)


async def _serve_forever(ctx: EvalContext, settings: ServeSettings) -> None:
    service = InferenceService(ctx, settings)
    server = await service.start()
    # The readiness line benches and CI scripts wait for (stdout, since
    # it is the command's one piece of machine-readable output).
    print(f"repro serve: listening on {settings.host}:{settings.port} "
          f"(max_batch={settings.max_batch}, "
          f"max_wait_ms={settings.max_wait_ms:g}, "
          f"workers={settings.workers})", flush=True)
    try:
        async with server:
            await server.serve_forever()
    finally:
        service.shutdown()


def run_serve(ctx: EvalContext, settings: ServeSettings) -> int:
    """Blocking entry point for the CLI; returns an exit code."""
    try:
        asyncio.run(_serve_forever(ctx, settings))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


class InProcessServer:
    """A service running on a background thread (tests, examples).

    Exposes the bound ``port`` once :meth:`start` returns; ``stop()``
    tears the loop down and joins the thread.
    """

    def __init__(self, ctx: EvalContext, settings: ServeSettings):
        self.service = InferenceService(ctx, settings)
        self.settings = settings
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        return self.settings.port

    @property
    def host(self) -> str:
        return self.settings.host

    def start(self) -> "InProcessServer":
        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            self._server = loop.run_until_complete(self.service.start())
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
                pending = [t for t in asyncio.all_tasks(loop)
                           if not t.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True))
                loop.close()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve loop failed to start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.shutdown()

    def __enter__(self) -> "InProcessServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(ctx: EvalContext,
                    settings: Optional[ServeSettings] = None
                    ) -> InProcessServer:
    """Start an :class:`InProcessServer` (port 0 = pick a free port)."""
    if settings is None:
        settings = ServeSettings(port=0)
    return InProcessServer(ctx, settings).start()
