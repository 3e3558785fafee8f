"""The distributed sweep work ledger: claim, work, release, expire.

When many ``repro sweep`` workers — on one host or many — share a single
artifact store, the store itself becomes the coordination substrate: the
grid's missing points and training runs are the work queue, store
membership is the "done" signal, and *claims* (atomic put-if-absent
entries under the ``claim`` kind, :meth:`ArtifactStore.claim`) are the
mutual exclusion that keeps every item worked exactly once.

A :class:`WorkLedger` is the claim source of the one executor loop,
:func:`repro.runtime.runner.drain`: the serial path, each pool child and
each ledger worker run the same loop and the same work functions, and
only a ledger worker passes ``claims``. Each process runs one drainer;
parallelism is the worker fleet itself.

The protocol, per work item:

1. if the item's result is already stored (or a peer just produced it),
   it is done — skip;
2. otherwise try to claim ``<name>``; the backend's put-if-absent
   guarantees exactly one of N racing workers wins;
3. the winner does the work, persists the result, and releases the
   claim; losers move on to the next item;
4. a claim older than its TTL is *stale* — its worker died mid-point —
   and any worker may break it and re-claim, so a pulled plug delays a
   point by at most one TTL instead of stranding it forever.

Exactly-once is guaranteed for live workers (the claim race has one
winner, and results are checked before claiming). The stale-expiry path
is at-least-once by design: if a "dead" worker was merely slow, the
point is evaluated twice — but results are content-addressed and
byte-identical, so the second write is a no-op semantically. TTLs only
bound *crash recovery* latency; they are not a correctness knob.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict

from repro.runtime.runner import drain
from repro.runtime.store import ArtifactStore

#: default age at which a claim is considered abandoned by a dead worker.
DEFAULT_CLAIM_TTL_S = 600.0
#: default pause between passes over a fully-claimed pending set.
DEFAULT_POLL_S = 0.5


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per live worker process, debuggable."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class LedgerStats:
    """What one worker's ledger did (surfaced via ``--stats-out``)."""

    claimed: int = 0
    lost: int = 0
    stale_reclaimed: int = 0
    released: int = 0
    polls: int = 0
    waited_s: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {**asdict(self), "waited_s": round(self.waited_s, 3)}


@dataclass
class WorkLedger:
    """Claim-based work distribution over one shared :class:`ArtifactStore`."""

    store: ArtifactStore
    worker: str = field(default_factory=default_worker_id)
    ttl_s: float = DEFAULT_CLAIM_TTL_S
    poll_s: float = DEFAULT_POLL_S
    stats: LedgerStats = field(default_factory=LedgerStats)

    # ------------------------------------------------------------------
    # claim primitives
    # ------------------------------------------------------------------
    def _payload(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "claimed_at": time.time(),
            "ttl_s": self.ttl_s,
        }

    def try_claim(self, name: str) -> bool:
        """Try to become ``name``'s owner; True iff this worker won.

        A claim whose age exceeds its own recorded TTL is broken and
        re-claimed (the stale-expiry path for dead workers).
        """
        if self.store.claim(name, self._payload()):
            self.stats.claimed += 1
            return True
        existing = self.store.read_claim(name)
        if existing is None:
            # Released (or unreadable — treated as stale) between our
            # put-if-absent and the read: race for it once more.
            if self.store.claim(name, self._payload()):
                self.stats.claimed += 1
                return True
            self.stats.lost += 1
            return False
        try:
            age = time.time() - float(existing.get("claimed_at", 0.0))
            ttl = float(existing.get("ttl_s", self.ttl_s))
        except (TypeError, ValueError):
            age, ttl = float("inf"), 0.0  # garbled claim: stale
        if age > ttl:
            # The owner died mid-work. Break the claim and race for the
            # replacement; at most one of the racing breakers wins the
            # put-if-absent that follows.
            self.store.release_claim(name)
            if self.store.claim(name, self._payload()):
                self.stats.stale_reclaimed += 1
                return True
        self.stats.lost += 1
        return False

    def release(self, name: str) -> None:
        """Give up ``name`` (after its result landed in the store)."""
        self.store.release_claim(name)
        self.stats.released += 1

    def wait(self) -> None:
        """Pause before re-scanning a fully-claimed pending set."""
        self.stats.polls += 1
        self.stats.waited_s += self.poll_s
        time.sleep(self.poll_s)

    def drain(
        self,
        items: Dict[str, object],
        is_done: Callable[[object], bool],
        work: Callable[[object], None],
    ) -> int:
        """:func:`~repro.runtime.runner.drain` ``items`` under this
        ledger's claims; returns the number this worker worked."""
        return drain(items, is_done, work, claims=self)
