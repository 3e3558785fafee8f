"""Pluggable storage backends behind the :class:`ArtifactStore`.

The store's durability contract is expressed as a tiny set of blob
primitives — :class:`StoreBackend` — so the *same* content-addressed cache
logic (keys, pickling, corruption recovery, crash-safety) runs against any
byte transport:

* :class:`LocalDirBackend` — the reference implementation: the original
  ``<root>/<kind>/<name>`` on-disk layout with atomic temp-file +
  ``os.replace`` writes and hard-link-based atomic put-if-absent;
* :class:`HTTPStoreBackend` — a thin ``urllib`` client for the object
  store served by ``repro store serve`` (:mod:`repro.runtime.server`),
  with bounded retry/backoff, per-request timeouts, SHA-256-verified
  uploads, and reads that degrade to misses on any transport failure.

Backend rules (what the store relies on):

* ``read`` never raises: a miss, a timeout, a half-served response, and a
  dead server all return ``None`` — the caller recomputes;
  ``read_head`` (a blob's first line and size, for listings) reads the
  same way, and only a prefix where the backend can;
* ``write`` is atomic (a killed writer leaves no partial blob under a
  valid name) and raises :class:`StoreBackendError` on environmental
  failure so the store can degrade with its "continuing without caching"
  note;
* ``put_if_absent`` is the *claim* primitive: exactly one of N racing
  writers of the same name observes ``True``. The sweep engine's
  distributed work ledger (:mod:`repro.sweep.ledger`) is built on it.

``open_backend`` picks the implementation from a locator string: an
``http(s)://`` URL selects the HTTP client, anything else is a local
directory path.
"""

from __future__ import annotations

import abc
import http.client
import json
import os
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: age after which a ``.tmp-*.part`` file is considered an orphan of a
#: killed writer (atomic writes complete in seconds).
STALE_TMP_S = 600.0
#: bytes per read when :meth:`LocalDirBackend.read_head` looks for the
#: end of a blob's first line (a store header is about 1 KB).
HEAD_CHUNK = 4096


class StoreBackendError(Exception):
    """An environmental backend failure (I/O, network); callers degrade."""


@dataclass(frozen=True)
class BlobStat:
    """Size and modification time of one stored blob."""

    size_bytes: int
    mtime: float


class StoreBackend(abc.ABC):
    """Blob primitives every store backend provides.

    Blobs live in a two-level namespace: a ``kind`` (one of the artifact
    kinds in :mod:`repro.runtime.keys`, plus ``claim`` for the work
    ledger) and a ``name`` (digest plus extension). Names are restricted
    to ``[A-Za-z0-9._-]`` so every backend can map them to paths/URLs
    verbatim.
    """

    #: locator string that reconstructs this backend in another process
    #: (a directory path, or a store URL) — what pool workers are handed.
    locator: str

    #: True when many hosts observe the same bytes (a served store); the
    #: sweep engine turns its distributed work ledger on by default then.
    shared: bool = False

    @abc.abstractmethod
    def read(self, kind: str, name: str) -> Optional[bytes]:
        """The blob's bytes, or ``None`` on a miss *or* any failure."""

    def read_head(self, kind: str, name: str) -> Optional[Tuple[bytes, int]]:
        """The blob's first line, with its ``\\n`` (the whole blob when it
        has none), and the blob's size; ``None`` like :meth:`read`.

        This default reads the whole blob. A backend that can read a
        prefix overrides it, so listing a store reads only headers.
        """
        blob = self.read(kind, name)
        if blob is None:
            return None
        return blob[:blob.find(b"\n") + 1 or len(blob)], len(blob)

    @abc.abstractmethod
    def write(self, kind: str, name: str, blob: bytes) -> None:
        """Atomically persist ``blob``; :class:`StoreBackendError` on failure."""

    @abc.abstractmethod
    def put_if_absent(self, kind: str, name: str, blob: bytes) -> bool:
        """Atomically create ``name`` unless it exists; True iff we won."""

    @abc.abstractmethod
    def exists(self, kind: str, name: str) -> bool:
        """True if the blob exists (False on any failure)."""

    @abc.abstractmethod
    def delete(self, kind: str, name: str) -> bool:
        """Remove the blob; True iff something was deleted."""

    @abc.abstractmethod
    def stat(self, kind: str, name: str) -> Optional[BlobStat]:
        """Size/mtime of the blob, or ``None``."""

    @abc.abstractmethod
    def list_names(self, kind: str) -> List[str]:
        """Every blob name under ``kind`` (no in-flight temp files)."""

    @abc.abstractmethod
    def list_kinds(self) -> List[str]:
        """Every kind with at least one blob (or an empty directory)."""


# ----------------------------------------------------------------------
# local directory (the reference implementation)
# ----------------------------------------------------------------------
class LocalDirBackend(StoreBackend):
    """The original one-directory-per-kind on-disk layout."""

    shared = False

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.locator = self.root
        #: ``root`` with one trailing separator: kinds and names are
        #: plain components, so :meth:`path` can concatenate.
        self._prefix = os.path.join(self.root, "")

    def path(self, kind: str, name: str) -> str:
        return self._prefix + kind + os.sep + name

    def _dir(self, kind: str) -> str:
        return os.path.join(self.root, kind)

    def read(self, kind: str, name: str) -> Optional[bytes]:
        try:
            # unbuffered: the whole file in one read, no buffer object
            with open(self.path(kind, name), "rb", buffering=0) as fh:
                return fh.read()
        except (OSError, MemoryError):
            # Miss, or a transient failure (EIO, fd exhaustion,
            # permissions): either way the caller treats it as a miss and
            # the bytes on disk are left alone.
            return None

    def read_head(self, kind: str, name: str) -> Optional[Tuple[bytes, int]]:
        """Reads :data:`HEAD_CHUNK` bytes at a time up to the first line's
        end, so a large entry costs no more than its header."""
        line = b""
        try:
            with open(self.path(kind, name), "rb", buffering=0) as fh:
                size = os.fstat(fh.fileno()).st_size
                while True:
                    chunk = fh.read(HEAD_CHUNK)
                    end = chunk.find(b"\n")
                    if end >= 0:
                        return line + chunk[:end + 1], size
                    if not chunk:
                        return line, size
                    line += chunk
        except (OSError, MemoryError):
            return None  # as in read: the caller treats it as a miss

    def write(self, kind: str, name: str, blob: bytes) -> None:
        try:
            os.makedirs(self._dir(kind), exist_ok=True)
            self._atomic_write(self.path(kind, name), blob)
        except OSError as exc:
            raise StoreBackendError(str(exc)) from exc

    def put_if_absent(self, kind: str, name: str, blob: bytes) -> bool:
        path = self.path(kind, name)
        if os.path.exists(path):
            return False
        try:
            os.makedirs(self._dir(kind), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self._dir(kind), prefix=".tmp-", suffix=".part"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                # A hard link is the atomic create-exclusive rename: it
                # fails (FileExistsError) iff another writer already
                # linked the name, and never exposes a partial blob.
                os.link(tmp, path)
            except FileExistsError:
                return False
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            raise StoreBackendError(str(exc)) from exc
        return True

    def exists(self, kind: str, name: str) -> bool:
        return os.path.exists(self.path(kind, name))

    def delete(self, kind: str, name: str) -> bool:
        try:
            os.unlink(self.path(kind, name))
            return True
        except OSError:
            return False

    def stat(self, kind: str, name: str) -> Optional[BlobStat]:
        try:
            st = os.stat(self.path(kind, name))
        except OSError:
            return None
        return BlobStat(size_bytes=st.st_size, mtime=st.st_mtime)

    def list_names(self, kind: str) -> List[str]:
        try:
            return sorted(
                f for f in os.listdir(self._dir(kind))
                if not f.startswith(".tmp-")
            )
        except OSError:
            return []

    def list_kinds(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            d for d in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, d))
        )

    # ------------------------------------------------------------------
    # local-only maintenance
    # ------------------------------------------------------------------
    def temp_files(self):
        """Yield ``(path, stat)`` of every in-flight/orphaned temp file."""
        for kind in self.list_kinds():
            directory = self._dir(kind)
            try:
                fnames = os.listdir(directory)
            except OSError:
                continue
            for fname in fnames:
                if not fname.startswith(".tmp-"):
                    continue
                path = os.path.join(directory, fname)
                try:
                    yield path, os.stat(path)
                except OSError:
                    continue  # completed or reclaimed concurrently

    def sweep_stale_temps(self, stale_s: float = STALE_TMP_S):
        """Reclaim ``.tmp-*.part`` orphans of killed writers.

        Only temps older than ``stale_s`` are touched — a fresh temp is
        another process's in-flight atomic write. Returns
        ``(files_removed, bytes_reclaimed)``.
        """
        removed, freed = 0, 0
        now = time.time()
        for path, st in self.temp_files():
            if now - st.st_mtime < stale_s:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue  # reclaimed concurrently
            removed += 1
            freed += st.st_size
        return removed, freed

    @staticmethod
    def _atomic_write(path: str, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ----------------------------------------------------------------------
# HTTP object store client
# ----------------------------------------------------------------------

#: header carrying the SHA-256 of a PUT body; the server refuses to
#: commit a blob whose received bytes do not match (no partial entries).
SHA_HEADER = "X-Repro-Sha256"
#: header marking a PUT as create-exclusive (the claim primitive).
IF_ABSENT_HEADER = "X-Repro-If-Absent"
#: header carrying a blob's server-side mtime on GET/HEAD responses.
MTIME_HEADER = "X-Repro-Mtime"


def _sha256(blob: bytes) -> str:
    import hashlib

    return hashlib.sha256(blob).hexdigest()


class HTTPStoreBackend(StoreBackend):
    """``urllib`` client for the object store behind ``repro store serve``.

    Every request is bounded by ``timeout_s`` and retried ``retries``
    times with exponential backoff on transport failures and 5xx
    responses. Reads degrade to misses (truncated bodies — detected via
    ``Content-Length`` — timeouts, resets, HTTP 5xx all return ``None``);
    writes raise :class:`StoreBackendError` after the retry budget so the
    store can fall back to not caching.
    """

    shared = True

    def __init__(
        self,
        url: str,
        timeout_s: float = 10.0,
        retries: int = 3,
        backoff_s: float = 0.05,
    ):
        self.base = url.rstrip("/")
        self.locator = self.base
        self.timeout_s = timeout_s
        self.retries = max(1, retries)
        self.backoff_s = backoff_s

    def _url(self, kind: str, name: str = "", query: str = "") -> str:
        path = "/" + urllib.parse.quote(kind)
        if name:
            path += "/" + urllib.parse.quote(name)
        return self.base + path + (("?" + query) if query else "")

    def _request(
        self,
        method: str,
        url: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
        miss_codes=(404,),
    ):
        """One retried request; ``(status, body, headers)`` or ``None``
        on a miss.

        Raises :class:`StoreBackendError` once the retry budget is spent.
        4xx responses other than ``miss_codes`` are returned to the
        caller (they are protocol answers — e.g. 409 for a lost claim —
        not transport failures) and never retried.
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            req = urllib.request.Request(
                url, data=body, method=method, headers=headers or {}
            )
            try:
                with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                    # .read() raises IncompleteRead on a body shorter
                    # than Content-Length — a dropped connection can
                    # never hand back truncated bytes as a valid blob.
                    return resp.status, resp.read(), dict(resp.headers)
            except urllib.error.HTTPError as exc:
                if exc.code in miss_codes:
                    return None
                if exc.code < 500:
                    return exc.code, exc.read(), dict(exc.headers or {})
                last_error = exc  # 5xx: retry
            except (OSError, http.client.HTTPException) as exc:
                # URLError, timeouts, resets, IncompleteRead: retry.
                last_error = exc
        raise StoreBackendError(
            f"{method} {url} failed after {self.retries} attempts: "
            f"{type(last_error).__name__}: {last_error}"
        )

    def read(self, kind: str, name: str) -> Optional[bytes]:
        try:
            got = self._request("GET", self._url(kind, name))
        except StoreBackendError:
            return None  # reads degrade to misses; the caller recomputes
        if got is None or got[0] not in (200,):
            return None
        return got[1]

    def write(self, kind: str, name: str, blob: bytes) -> None:
        got = self._request(
            "PUT", self._url(kind, name), body=blob,
            headers={SHA_HEADER: _sha256(blob)},
        )
        if got is None or got[0] not in (200, 201, 204):
            status = "miss" if got is None else got[0]
            raise StoreBackendError(
                f"PUT {kind}/{name} rejected by store server ({status})"
            )

    def put_if_absent(self, kind: str, name: str, blob: bytes) -> bool:
        got = self._request(
            "PUT", self._url(kind, name), body=blob,
            headers={SHA_HEADER: _sha256(blob), IF_ABSENT_HEADER: "1"},
        )
        if got is not None and got[0] in (200, 201, 204):
            return True
        if got is not None and got[0] == 409:
            return False  # another writer won the race
        status = "miss" if got is None else got[0]
        raise StoreBackendError(
            f"conditional PUT {kind}/{name} rejected ({status})"
        )

    def exists(self, kind: str, name: str) -> bool:
        return self.stat(kind, name) is not None

    def delete(self, kind: str, name: str) -> bool:
        try:
            got = self._request("DELETE", self._url(kind, name))
        except StoreBackendError:
            return False
        return got is not None and got[0] in (200, 204)

    def stat(self, kind: str, name: str) -> Optional[BlobStat]:
        try:
            got = self._request("HEAD", self._url(kind, name))
        except StoreBackendError:
            return None
        if got is None or got[0] != 200:
            return None
        headers = got[2]
        try:
            size = int(headers.get("Content-Length", 0))
            mtime = float(headers.get(MTIME_HEADER, 0.0))
        except ValueError:
            return None
        return BlobStat(size_bytes=size, mtime=mtime)

    def _list(self, url: str) -> List[str]:
        try:
            got = self._request("GET", url)
        except StoreBackendError:
            return []
        if got is None or got[0] != 200:
            return []
        try:
            names = json.loads(got[1].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return []
        return [str(n) for n in names] if isinstance(names, list) else []

    def list_names(self, kind: str) -> List[str]:
        return self._list(self._url(kind, query="list=1"))

    def list_kinds(self) -> List[str]:
        return self._list(self.base + "/?list=1")


def is_remote_locator(locator: str) -> bool:
    """True when ``locator`` names a served store rather than a directory."""
    return locator.startswith(("http://", "https://"))


def open_backend(locator: str) -> StoreBackend:
    """The backend for ``locator``: a store URL or a local directory."""
    if is_remote_locator(locator):
        return HTTPStoreBackend(locator)
    return LocalDirBackend(locator)
