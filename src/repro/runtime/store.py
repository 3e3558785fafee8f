"""The content-addressed artifact store, over a pluggable byte backend.

Layout: each entry is one blob, ``<kind>/<digest>.pkl``. Its first line
is the canonical-JSON metadata (the key payload, creation time, payload
size, plus any artifact summary the producer attached); a ``\n``
follows, then the pickled artifact. Everything is addressed by the
stable keys built in :mod:`repro.runtime.keys`, so a second process — or
a second machine with the same code — computes the same digests and
reuses the same entries.

Where the bytes live is a :class:`~repro.runtime.backends.StoreBackend`:
the default is the original local directory layout; an ``http(s)://``
locator (``--store-url`` / ``$REPRO_STORE_URL``) selects the client for
the object store behind ``repro store serve``, letting many hosts share
one cache (and one sweep work ledger — :mod:`repro.sweep.ledger`).

Robustness rules:

* a put is one atomic backend write, so a killed process never leaves a
  half-written entry under a valid name, and an entry is never visible
  without its metadata: both are in the same blob;
* reads of corrupted entries (a missing or garbled header line, a
  truncated pickle, a stale class layout) are treated as a cache miss —
  the entry is deleted and the caller recomputes; reads and writes that
  fail for environmental reasons (permissions, disk errors, memory
  pressure, an unreachable store server) also degrade to misses but
  leave the stored bytes alone;
* ``put`` never raises: unpicklable artifacts/summaries and unwritable
  backends degrade to not persisting, with a note on stderr — the store
  never makes a run fail;
* the root directory is created lazily on first write, so read-only
  users never touch the filesystem; opening a local store lazily sweeps
  ``.tmp-*.part`` orphans left by killed writers (reported by
  ``repro cache stats``), so an unattended cache cannot leak disk.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.runtime.backends import (
    STALE_TMP_S,
    LocalDirBackend,
    StoreBackend,
    StoreBackendError,
    open_backend,
)
from repro.runtime.keys import (
    ArtifactKey,
    CODE_SCHEMA_VERSION,
    KIND_CLAIM,
    canonical_json,
    dumps_canonical,
    jsonable,
)

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable selecting a shared store server URL.
STORE_URL_ENV = "REPRO_STORE_URL"


def default_cache_dir() -> str:
    """``$REPRO_STORE_URL`` or ``$REPRO_CACHE_DIR`` if set, else
    ``~/.cache/repro-gcod``."""
    url = os.environ.get(STORE_URL_ENV)
    if url:
        return url
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(xdg, "repro-gcod")


@dataclass
class StoreEntry:
    """One artifact as listed by :meth:`ArtifactStore.entries`."""

    kind: str
    digest: str
    size_bytes: int
    created: float
    meta: Dict[str, Any]


def _split_entry(blob: bytes) -> Tuple[Dict[str, Any], memoryview]:
    """The metadata header and a zero-copy view of the pickled payload.

    Raises :class:`ValueError` when the blob has no ``\\n`` or its first
    line is not a JSON object (``UnicodeDecodeError`` is a ValueError).
    """
    end = blob.find(b"\n")
    if end < 0:
        raise ValueError("entry has no metadata header")
    meta = json.loads(blob[:end])
    if not isinstance(meta, dict):
        raise ValueError("entry header is not a JSON object")
    return meta, memoryview(blob)[end + 1:]


class ArtifactStore:
    """Content-addressed pickle store over one backend.

    ``root`` is a *locator*: a local directory path (the default), an
    ``http(s)://`` store URL, or an already-built
    :class:`~repro.runtime.backends.StoreBackend`. ``store.root`` always
    round-trips — ``ArtifactStore(other.root)`` opens the same store, so
    pool workers and remote hosts can be handed the locator string.
    """

    #: age after which a ``.tmp-*.part`` file is an orphan (local roots).
    _STALE_TMP_S = STALE_TMP_S

    def __init__(self, root: Optional[str] = None):
        if isinstance(root, StoreBackend):
            self.backend = root
        else:
            self.backend = open_backend(root or default_cache_dir())
        self.root = self.backend.locator
        #: stale temp files reclaimed when this (local) store was opened.
        self.reclaimed_tmp = 0
        self.reclaimed_tmp_bytes = 0
        if isinstance(self.backend, LocalDirBackend):
            # Lazy crash-debris sweep: a killed writer's orphaned
            # .tmp-*.part files used to be invisible to everything but
            # `repro cache clear` and leaked disk forever.
            self.reclaimed_tmp, self.reclaimed_tmp_bytes = (
                self.backend.sweep_stale_temps(self._STALE_TMP_S)
            )

    @property
    def is_remote(self) -> bool:
        """True when this store is shared across hosts (a served store)."""
        return self.backend.shared

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    @staticmethod
    def _entry_name(digest: str) -> str:
        return digest + ".pkl"

    @staticmethod
    def _claim_name(name: str) -> str:
        return name + ".json"

    # Local-path helpers kept for tooling/tests that inspect the on-disk
    # layout directly; only meaningful for directory-backed stores.
    def _dir(self, kind: str) -> str:
        return os.path.join(self.root, kind)

    def _entry_path(self, key: ArtifactKey) -> str:
        return os.path.join(self._dir(key.kind), self._entry_name(key.digest))

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def contains(self, key: ArtifactKey) -> bool:
        """True if an entry for ``key`` exists."""
        return self.backend.exists(key.kind, self._entry_name(key.digest))

    def contains_digest(self, kind: str, digest: str) -> bool:
        """True if an entry of ``kind`` with ``digest`` exists.

        Lets a consumer that recorded only digests (a sweep manifest's
        planned-point list) check membership without rebuilding the full
        key payloads.
        """
        return self.backend.exists(kind, self._entry_name(digest))

    def get(self, key: ArtifactKey) -> Optional[Any]:
        """The stored artifact, or ``None`` on a miss *or* corrupted entry."""
        blob = self.backend.read(key.kind, self._entry_name(key.digest))
        if blob is None:
            # Miss, or a transient backend failure (EIO, permissions, an
            # unreachable server): treat as a miss, keep the entry.
            return None
        try:
            return pickle.loads(_split_entry(blob)[1])
        except MemoryError:
            return None  # memory pressure: the stored bytes may be fine
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            # The concrete ways a stored blob fails to load: a missing or
            # garbled header line (ValueError), a truncated or garbled
            # pickle (UnpicklingError/EOFError/IndexError/ValueError/
            # KeyError) and a stale class layout from an older code
            # version (AttributeError/ImportError/TypeError).
            # Recover by dropping the entry so the caller recomputes it —
            # with a note, so corruption is visible instead of reading as
            # an ordinary miss. Anything outside this set propagates:
            # swallowing an unexpected error here hid real bugs before.
            import sys

            print(f"artifact store: dropping corrupted entry {key.short} "
                  f"({type(exc).__name__}: {exc}); recomputing",
                  file=sys.stderr)
            self.invalidate(key)
            return None

    def put(
        self,
        key: ArtifactKey,
        artifact: Any,
        summary: Optional[Dict[str, Any]] = None,
    ) -> ArtifactKey:
        """Atomically persist ``artifact`` under ``key``; returns ``key``.

        Best-effort: an unwritable cache (permissions, disk full, a dead
        store server) *or an unserializable artifact/summary* must not
        crash the run that just produced an expensive result — the store
        degrades to not persisting, with a note on stderr.
        """
        try:
            blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            meta = {
                "kind": key.kind,
                "digest": key.digest,
                "schema": CODE_SCHEMA_VERSION,
                "created": time.time(),
                "size_bytes": len(blob),
                "key": key.payload,
            }
            if summary:
                meta["summary"] = jsonable(summary)
            # make_key walked key.payload; escaped newlines keep one line
            entry = b"\n".join((dumps_canonical(meta).encode("utf-8"), blob))
        except Exception as exc:
            # pickle.PicklingError, RecursionError, a TypeError from an
            # unserializable summary: the artifact exists only in memory,
            # which is exactly where the caller already has it.
            self._degrade_note(key, exc)
            return key
        try:
            self.backend.write(key.kind, self._entry_name(key.digest), entry)
        except (OSError, StoreBackendError) as exc:
            self._degrade_note(key, exc)
        return key

    @staticmethod
    def _degrade_note(key: ArtifactKey, exc: Exception) -> None:
        import sys

        print(f"artifact store: could not persist {key.short} "
              f"({exc}); continuing without caching it",
              file=sys.stderr)

    # ------------------------------------------------------------------
    # work-ledger claims (atomic put-if-absent entries)
    # ------------------------------------------------------------------
    def claim(self, name: str, payload: Dict[str, Any]) -> bool:
        """Atomically create claim ``name``; True iff this caller won.

        Claims are tiny canonical-JSON blobs under the ``claim`` kind —
        the mutual-exclusion primitive the distributed sweep ledger
        (:mod:`repro.sweep.ledger`) builds on. A backend failure counts
        as a lost claim (somebody has to not win; the cautious answer).
        """
        blob = canonical_json(payload).encode("utf-8")
        try:
            return self.backend.put_if_absent(
                KIND_CLAIM, self._claim_name(name), blob
            )
        except StoreBackendError:
            return False

    def read_claim(self, name: str) -> Optional[Dict[str, Any]]:
        """The payload of claim ``name``, or ``None``."""
        blob = self.backend.read(KIND_CLAIM, self._claim_name(name))
        if blob is None:
            return None
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None  # garbled claim: callers treat it as stale
        return payload if isinstance(payload, dict) else None

    def release_claim(self, name: str) -> bool:
        """Delete claim ``name``; True iff it existed."""
        return self.backend.delete(KIND_CLAIM, self._claim_name(name))

    # ------------------------------------------------------------------
    # invalidation / introspection
    # ------------------------------------------------------------------
    def invalidate(self, key: ArtifactKey) -> bool:
        """Remove the entry for ``key``; True if anything was deleted."""
        return self.backend.delete(key.kind, self._entry_name(key.digest))

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete every entry (of ``kind``, or all kinds); returns the count.

        On local roots this also reclaims stale ``.tmp-*.part`` orphans
        (another process's *fresh* in-flight write survives).
        """
        removed = 0
        for entry_kind in self.backend.list_kinds():
            if kind is not None and entry_kind != kind:
                continue
            for name in self.backend.list_names(entry_kind):
                if self.backend.delete(entry_kind, name) and \
                        name.endswith(".pkl"):
                    removed += 1
        if kind is None and isinstance(self.backend, LocalDirBackend):
            self.backend.sweep_stale_temps(self._STALE_TMP_S)
        return removed

    def entries(self, kind: Optional[str] = None) -> Iterator[StoreEntry]:
        """Iterate over stored entries (newest first within each kind)."""
        for entry_kind in self.backend.list_kinds():
            if kind is not None and entry_kind != kind:
                continue
            names = self.backend.list_names(entry_kind)
            found = []
            for fname in names:
                if not fname.endswith(".pkl"):
                    continue
                blob = self.backend.read(entry_kind, fname)
                if blob is None:
                    continue  # deleted concurrently (clear/invalidate race)
                try:
                    meta = _split_entry(blob)[0]
                except ValueError:
                    meta = {}
                created = meta.get("created")
                if created is None:  # garbled header: fall back to mtime
                    stat = self.backend.stat(entry_kind, fname)
                    created = stat.mtime if stat is not None else 0.0
                found.append(
                    StoreEntry(
                        kind=entry_kind,
                        digest=fname[: -len(".pkl")],
                        size_bytes=len(blob),
                        created=created,
                        meta=meta,
                    )
                )
            yield from sorted(found, key=lambda e: e.created, reverse=True)

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-kind ``{"entries": n, "bytes": total}`` plus a ``total`` row.

        Local stores also report crash debris under a ``tmp`` pseudo-kind
        (in-flight/orphaned ``.tmp-*.part`` files, excluded from
        ``total``) so leaked temp space is visible in ``repro cache
        stats`` instead of silently accumulating.
        """
        out: Dict[str, Dict[str, float]] = {}
        total_n, total_b = 0, 0
        for entry in self.entries():
            bucket = out.setdefault(entry.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.size_bytes
            total_n += 1
            total_b += entry.size_bytes
        if isinstance(self.backend, LocalDirBackend):
            tmp_n, tmp_b = 0, 0
            for _path, st in self.backend.temp_files():
                tmp_n += 1
                tmp_b += st.st_size
            if tmp_n:
                out["tmp"] = {"entries": tmp_n, "bytes": tmp_b}
        out["total"] = {"entries": total_n, "bytes": total_b}
        return out


def get_or_compute(
    store: Optional[ArtifactStore],
    key: ArtifactKey,
    compute: Callable[[], Any],
    summary: Optional[Callable[[Any], Dict[str, Any]]] = None,
) -> Any:
    """The artifact under ``key``: read from ``store``, or computed and put.

    The one fetch/produce/persist protocol every stored kind goes through.
    ``store=None`` only computes. ``summary`` maps a freshly computed
    artifact to the summary in its metadata header. A corrupted entry
    reads as a miss (and is dropped by ``get``) and an unwritable store
    still returns the artifact, so neither ever fails the caller.
    """
    artifact = store.get(key) if store is not None else None
    if artifact is None:
        artifact = compute()
        if store is not None:
            store.put(key, artifact,
                      summary=summary(artifact) if summary else None)
    return artifact
