"""The serve wire format: round-trips and validation failures."""

import json
from dataclasses import asdict

import pytest

from repro.errors import ServeProtocolError
from repro.serve import (
    ServeRequest,
    ServeResponse,
    parse_request,
    parse_response,
)


def test_request_round_trip():
    req = ServeRequest(id="q1", dataset="cora", arch="gin",
                       kernel_backend="tiled")
    back = parse_request(req.to_json())
    assert back == req


def test_request_defaults():
    back = parse_request(json.dumps({"id": "q2", "dataset": "cora"}))
    assert back.op == "query"
    assert back.arch == "gcn"
    assert back.kernel_backend is None


def test_request_json_is_deterministic():
    req = ServeRequest(id="q1", dataset="cora")
    assert req.to_json() == req.to_json()
    assert "\n" not in req.to_json()


def test_response_round_trip():
    resp = ServeResponse(id="q1", status="ok", source="warm",
                         dataset="cora", arch="gcn",
                         kernel_backend="vectorized",
                         result={"accuracy": 0.8})
    back = parse_response(resp.to_json())
    assert back == resp


@pytest.mark.parametrize("message", [
    ServeRequest(id="q1", dataset="cora", arch="gin", kernel_backend="tiled"),
    ServeResponse(id="q2", status="ok", source="warm", dataset="cora",
                  arch="gcn", kernel_backend="vectorized",
                  result={"accuracy_final": 0.8, "early_bird_epoch": None,
                          "seed": 0}),
    ServeResponse(id="q3", status="ok", source="cold", dataset="cora",
                  arch="gat", kernel_backend="tiled", batch_id=4,
                  batch_size=3, result={"dense_fraction": 0.25}),
    ServeResponse(id="q4", status="error", dataset="nope", arch="gcn",
                  error="KeyError: 'unknown dataset'"),
], ids=["request", "warm", "cold", "error"])
def test_to_json_matches_asdict_encoding(message):
    """The shallow field dict encodes to the same bytes as ``asdict``."""
    assert message.to_json() == json.dumps(
        asdict(message), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("line,fragment", [
    ("not json", "malformed request JSON"),
    ("[1, 2]", "must be a JSON object"),
    (json.dumps({"op": "query", "dataset": "cora"}), "non-empty string 'id'"),
    (json.dumps({"id": "q", "op": "reboot"}), "unknown op"),
    (json.dumps({"id": "q", "op": "query"}), "need a 'dataset'"),
    (json.dumps({"id": "q", "dataset": "cora", "arch": ""}),
     "'arch' must be"),
    (json.dumps({"id": "q", "dataset": "cora", "kernel_backend": 7}),
     "'kernel_backend' must be"),
])
def test_request_validation_errors(line, fragment):
    with pytest.raises(ServeProtocolError, match=fragment):
        parse_request(line)


@pytest.mark.parametrize("line,fragment", [
    ("nope", "malformed response JSON"),
    (json.dumps({"id": "q", "status": "ok", "bogus": 1}),
     "unknown fields"),
    (json.dumps({"status": "ok"}), "string 'id'"),
    (json.dumps({"id": "q", "status": "maybe"}), "'ok' or 'error'"),
])
def test_response_validation_errors(line, fragment):
    with pytest.raises(ServeProtocolError, match=fragment):
        parse_response(line)


def test_stats_and_ping_requests_need_no_dataset():
    for op in ("stats", "ping"):
        back = parse_request(json.dumps({"id": "s1", "op": op}))
        assert back.op == op
        assert back.dataset == ""
