"""Differential tier: the round-robin schedule against the event-queue oracle.

``EventDrivenAggregator.run`` computes the aggregation schedule directly:
DMA requests are served round-robin in ``pe_rate`` order and each chunk's
compute is a per-tile recurrence. The oracle below is the discrete-event
simulation it replaced — a heap of (time, seq) events, a FCFS DMA channel
and double buffering — kept verbatim so every report field can be compared
with ``==``, including the key order of ``chunk_finish_cycles``.
"""

import heapq
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.hardware.event_sim import (
    EventDrivenAggregator,
    EventSimReport,
    WorkTile,
)


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    kind: str = field(compare=False)
    payload: dict = field(compare=False, default_factory=dict)


def heap_run(pe_rate: Dict[str, float], dma_rate: float,
             sync_cycles: float, tiles: List[WorkTile]) -> EventSimReport:
    """The event-queue simulation: FCFS DMA, double-buffered compute."""
    queues: Dict[str, List[WorkTile]] = {name: [] for name in pe_rate}
    for tile in tiles:
        if tile.owner not in queues:
            raise KeyError(f"tile owner {tile.owner!r} has no PE rate")
        queues[tile.owner].append(tile)

    events: List[_Event] = []
    seq = 0

    def push(time: float, kind: str, **payload):
        nonlocal seq
        heapq.heappush(events, _Event(time, seq, kind, payload))
        seq += 1

    dma_free_at = 0.0
    compute_free_at = {name: 0.0 for name in pe_rate}
    finished_at = {name: 0.0 for name in pe_rate}
    dma_busy = 0.0
    processed = 0

    for name, queue in queues.items():
        if queue:
            push(0.0, "dma-request", chunk=name, index=0)

    while events:
        event = heapq.heappop(events)
        processed += 1
        chunk = event.payload["chunk"]
        index = event.payload["index"]
        queue = queues[chunk]
        if event.kind == "dma-request":
            tile = queue[index]
            start = max(event.time, dma_free_at)
            duration = tile.dma_bytes / max(dma_rate, 1e-12)
            dma_free_at = start + duration
            dma_busy += duration
            push(dma_free_at, "tile-ready", chunk=chunk, index=index)
            if index + 1 < len(queue):
                push(dma_free_at, "dma-request", chunk=chunk, index=index + 1)
        elif event.kind == "tile-ready":
            tile = queue[index]
            start = max(event.time, compute_free_at[chunk])
            duration = tile.macs / max(pe_rate[chunk], 1e-12)
            compute_free_at[chunk] = start + duration
            push(compute_free_at[chunk], "tile-done", chunk=chunk, index=index)
        else:
            finished_at[chunk] = event.time

    total = max(finished_at.values(), default=0.0) + sync_cycles
    return EventSimReport(
        cycles=total,
        chunk_finish_cycles=finished_at,
        dma_busy_cycles=dma_busy,
        events_processed=processed,
    )


def assert_same_schedule(pe_rate, dma_rate, sync_cycles, tiles):
    expected = heap_run(pe_rate, dma_rate, sync_cycles, tiles)
    got = EventDrivenAggregator(pe_rate, dma_rate, sync_cycles).run(tiles)
    assert got.cycles == expected.cycles
    assert got.dma_busy_cycles == expected.dma_busy_cycles
    assert got.events_processed == expected.events_processed
    assert got.chunk_finish_cycles == expected.chunk_finish_cycles
    assert (list(got.chunk_finish_cycles)
            == list(expected.chunk_finish_cycles))


RATES = {"chunk0": 10.0, "chunk1": 3.0, "sparse": 5.0}


@pytest.mark.parametrize("sync_cycles", [0.0, 64.0])
@pytest.mark.parametrize("tiles", [
    [],
    [WorkTile("chunk0", 100, 10)],
    [WorkTile("chunk0", 100, 10), WorkTile("chunk0", 7, 900),
     WorkTile("chunk0", 0, 0)],
    # uneven queues, interleaved owners, zero-byte and zero-MAC tiles
    [WorkTile("sparse", 50, 0), WorkTile("chunk1", 0, 40),
     WorkTile("chunk0", 30, 30), WorkTile("chunk1", 90, 0),
     WorkTile("chunk1", 12, 7), WorkTile("sparse", 0, 0)],
], ids=["empty", "one-tile", "one-chunk", "uneven"])
def test_examples_match_oracle(tiles, sync_cycles):
    assert_same_schedule(RATES, 4.0, sync_cycles, tiles)


@pytest.mark.parametrize("rate", [0.0, 1e-15])
def test_degenerate_rates_match_oracle(rate):
    tiles = [WorkTile("chunk0", 5, 3), WorkTile("chunk1", 2, 0),
             WorkTile("chunk0", 0, 8)]
    assert_same_schedule({"chunk0": rate, "chunk1": 1.0}, rate, 64.0, tiles)


def test_unknown_owner_raises_like_oracle():
    tiles = [WorkTile("chunk0", 1, 1), WorkTile("chunk9", 1, 1)]
    with pytest.raises(KeyError, match="chunk9"):
        heap_run(RATES, 4.0, 0.0, tiles)
    with pytest.raises(KeyError, match="chunk9"):
        EventDrivenAggregator(RATES, 4.0, 0.0).run(tiles)


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

rates = st.one_of(
    st.sampled_from([0.0, 1e-15, 1.0]),
    st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def schedules(draw):
    """A PE-rate table (some chunks left idle) and tiles over its chunks."""
    names = [f"chunk{i}" for i in range(draw(st.integers(0, 4)))]
    names.append("sparse")
    pe_rate = {name: draw(rates) for name in names}
    tiles = draw(st.lists(
        st.builds(
            WorkTile,
            owner=st.sampled_from(names),
            macs=st.one_of(st.just(0), st.integers(0, 10**6)),
            dma_bytes=st.one_of(st.just(0), st.integers(0, 10**5)),
        ),
        max_size=40,
    ))
    return pe_rate, draw(rates), draw(st.sampled_from([0.0, 64.0])), tiles


@settings(max_examples=400, deadline=None)
@given(schedules())
def test_round_robin_equals_event_queue(case):
    assert_same_schedule(*case)
