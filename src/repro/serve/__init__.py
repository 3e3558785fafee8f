"""Batched inference serving for the GCoD reproduction.

``repro serve`` turns the cached, content-addressed experiment runtime
into a request-driven service: clients send JSON graph queries
(dataset / arch / kernel backend) over a line-delimited TCP protocol,
and the service answers

* **warm** — the (dataset, arch, backend) pipeline is already in the
  attached :class:`~repro.runtime.store.ArtifactStore` (or this
  process's memo): the response is served straight from the cache, no
  training, sub-millisecond service time;
* **cold** — the pipeline must be trained: requests are micro-batched
  per (dataset, arch, resolved backend) inside a max-batch / max-wait
  window, one training dispatch serves every request in the window (and
  any request that arrives while the dispatch is still in flight), and
  each response carries its batch id and final batch size.

Responses stream back as they complete, correlated to requests by id —
a client may pipeline many queries on one connection and read the
answers in whatever order the warm/cold split produces them.

Layers:

* :mod:`repro.serve.schema` — the wire dataclasses
  (:class:`ServeRequest` / :class:`ServeResponse`) and their JSON codec;
  these shapes are covered by the schema-drift lint golden.
* :mod:`repro.serve.service` — the stdlib-asyncio server
  (:class:`InferenceService`), the batching window, and
  :func:`start_in_thread` for in-process embedding (tests, examples).
* :mod:`repro.serve.client` — :class:`ServeClient`, a blocking
  socket client with pipelining, used by ``benchmarks/bench_serve.py``
  to drive closed-loop sustained-throughput load.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".schema": ("ServeRequest", "ServeResponse", "parse_request",
                "parse_response"),
    ".service": ("InferenceService", "ServeSettings", "run_serve",
                 "start_in_thread"),
    ".client": ("ServeClient",),
})
