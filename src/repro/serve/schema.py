"""The ``repro serve`` wire format: request/response dataclasses + codec.

One JSON document per line in each direction. Requests and responses are
plain dataclasses round-tripped through :func:`json.dumps` with sorted
keys, so a given message always serializes to the same bytes; both
shapes are part of the schema-drift lint golden
(``analysis/schema_golden.json``) — changing a field here without
bumping ``CODE_SCHEMA_VERSION`` is a lint error, exactly like the
store's pickled dataclasses.

Correlation is by ``id``: the service answers requests in completion
order (warm answers overtake cold ones), and a pipelining client
reassembles by matching ``response.id`` to ``request.id``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.errors import ServeProtocolError

#: Request operations the service understands.
OP_QUERY = "query"
OP_STATS = "stats"
OP_PING = "ping"
ALL_OPS = (OP_QUERY, OP_STATS, OP_PING)

#: Response status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Response sources for ``op=query``.
SOURCE_WARM = "warm"
SOURCE_COLD = "cold"


def _dumps(message) -> str:
    # A shallow field dict: ``asdict`` would deep-copy ``result`` on every
    # response for the same bytes.
    return json.dumps({f.name: getattr(message, f.name)
                       for f in fields(message)},
                      sort_keys=True, separators=(",", ":"))


@dataclass
class ServeRequest:
    """One client query: which trained pipeline to answer from.

    ``kernel_backend`` is a registered backend name
    (:func:`repro.sparse.kernels.backend_choices`); ``None`` means the
    server process's default, and the response reports the resolved
    name. Any other name gets an error response naming ``KernelError``.
    """

    id: str
    op: str = OP_QUERY
    dataset: str = ""
    arch: str = "gcn"
    kernel_backend: Optional[str] = None

    def to_json(self) -> str:
        """The request as one compact JSON line (no trailing newline)."""
        return _dumps(self)


@dataclass
class ServeResponse:
    """One service answer, correlated to its request by ``id``.

    For ``op=query`` successes, ``result`` is the trained pipeline's
    summary dict (the same scalars ``repro cache ls`` surfaces),
    ``source`` says whether the store answered (``warm``) or a training
    dispatch ran (``cold``), and ``batch_id`` / ``batch_size`` identify
    the micro-batch a cold request rode in (warm answers use batch id -1
    and size 0: no dispatch happened).
    """

    id: str
    status: str
    op: str = OP_QUERY
    source: str = ""
    dataset: str = ""
    arch: str = ""
    kernel_backend: str = ""
    batch_id: int = -1
    batch_size: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def to_json(self) -> str:
        """The response as one compact JSON line (no trailing newline)."""
        return _dumps(self)


def _decode_line(line: str, what: str) -> Dict[str, Any]:
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ServeProtocolError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ServeProtocolError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    return data


def parse_request(line: str) -> ServeRequest:
    """Decode and validate one request line."""
    data = _decode_line(line, "request")
    req_id = data.get("id")
    if not isinstance(req_id, str) or not req_id:
        raise ServeProtocolError("request needs a non-empty string 'id'")
    op = data.get("op", OP_QUERY)
    if op not in ALL_OPS:
        raise ServeProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(ALL_OPS)}"
        )
    dataset = data.get("dataset", "")
    if op == OP_QUERY and (not isinstance(dataset, str) or not dataset):
        raise ServeProtocolError("query requests need a 'dataset'")
    arch = data.get("arch", "gcn")
    backend = data.get("kernel_backend", None)
    if backend is not None and not isinstance(backend, str):
        raise ServeProtocolError("'kernel_backend' must be a string or null")
    if not isinstance(arch, str) or not arch:
        raise ServeProtocolError("'arch' must be a non-empty string")
    return ServeRequest(id=req_id, op=op, dataset=dataset, arch=arch,
                        kernel_backend=backend)


def parse_response(line: str) -> ServeResponse:
    """Decode one response line (client side)."""
    data = _decode_line(line, "response")
    known = {f for f in ServeResponse.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ServeProtocolError(
            f"response carries unknown fields: {', '.join(sorted(unknown))}"
        )
    if not isinstance(data.get("id"), str):
        raise ServeProtocolError("response needs a string 'id'")
    if data.get("status") not in (STATUS_OK, STATUS_ERROR):
        raise ServeProtocolError("response needs status 'ok' or 'error'")
    return ServeResponse(**data)
