"""Content-addressed caching of validation results.

A corpus re-validated after nothing changed should cost one hash per
document, not one full Definition 2.4 pass.  The cache key is the
SHA-256 over the document text plus the schema fingerprint (itself the
SHA-256 of ``DTDC.describe()``, which covers both ``S`` and Σ
deterministically), so a hit is only possible when neither the document
bytes nor the schema changed in any observable way.  File inputs are
keyed on their *raw bytes* (:func:`result_key_bytes`) — never on a
parse→serialize round-trip, and never through text-mode newline
translation — while in-memory trees are keyed on their deterministic
serialization.  The value is the :class:`~repro.dtd.validate.ValidationReport`
in its :meth:`to_dict` form — loss-free for codes, messages,
constraints and vertex ids.

:class:`ResultCache` layers an in-memory LRU over an optional on-disk
store, so warm re-runs survive process restarts when a directory is
given.  The store is one append-only log per directory
(``DIR/results.log``), one record per line:

- ``P <key> <crc32> <json>`` — a put: the report's JSON, with a CRC-32
  (8 hex digits) over the key and the JSON;
- ``T <key>`` — a disk hit, which makes the key the most recently used.

Every record is written between newlines with a single ``write()`` on a
descriptor opened with ``O_APPEND`` for that record, so writers in
several processes append whole records one after another (on a local
file system), and a record torn by a crash ends at the next record's
leading newline instead of swallowing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from repro.dtd.dtdc import DTDC
from repro.dtd.validate import ValidationReport
from repro.xmlio import encode_document

__all__ = ["ResultCache", "result_key", "result_key_bytes",
           "result_key_hasher", "schema_fingerprint"]

_LOG = "results.log"
_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT
# a complete put record; group 1 is its key
_PUT = re.compile(rb"^P (\S+) [^\n]*\n", re.M)


def schema_fingerprint(dtd: DTDC) -> str:
    """SHA-256 of the schema's deterministic description (S and Σ)."""
    return hashlib.sha256(dtd.describe().encode("utf-8")).hexdigest()


def result_key_hasher(hasher, fingerprint: str) -> str:
    """Finish a SHA-256 hasher that has consumed the document bytes
    into the cache key for ``fingerprint``.

    This is the zero-rehash admission path of ``repro-xic serve``: the
    transport hashes the body as it reads it, and the daemon only pays
    the copy + two-short-update tail here.  ``hasher`` is left
    untouched (it is copied), so one read can be keyed against several
    schemas.
    """
    h = hasher.copy()
    h.update(b"\x00")
    h.update(fingerprint.encode("ascii"))
    return h.hexdigest()


def result_key_bytes(data: bytes, fingerprint: str) -> str:
    """The content address of one (document bytes, schema) validation.

    This is the key for file inputs: the raw on-disk bytes, so a CRLF
    and an LF spelling of the same document get distinct keys (they are
    distinct byte streams) and no parse or re-serialization is needed to
    address the cache.
    """
    h = hashlib.sha256()
    h.update(data)
    return result_key_hasher(h, fingerprint)


def result_key(xml_text: str, fingerprint: str) -> str:
    """The content address of one (document text, schema) validation:
    the key of its UTF-8 bytes.  A text holding a lone surrogate has no
    such bytes and raises :class:`~repro.errors.XMLSyntaxError`
    (:func:`~repro.xmlio.encode_document`)."""
    return result_key_bytes(encode_document(xml_text), fingerprint)


def _crc(key: bytes, body: bytes) -> bytes:
    return b"%08x" % zlib.crc32(body, zlib.crc32(key))


def _checked(line: bytes) -> "Optional[tuple[bytes, bytes]]":
    """``(key, json)`` of a put record whose CRC holds, else None."""
    parts = line.split(b" ", 3)
    if len(parts) != 4 or parts[0] != b"P" \
            or parts[2] != _crc(parts[1], parts[3]):
        return None
    return parts[1], parts[3]


class ResultCache:
    """In-memory LRU of validation reports, optionally disk-backed.

    ``capacity`` bounds the in-memory entry count.  With a
    ``directory``, every :meth:`put` appends one record to the
    directory's log, and a :meth:`get` that misses the LRU looks the key
    up in an index of the log: the instance indexes only the bytes
    appended since it last looked (by any process), and starts over
    when the log was replaced or shrank.  The index holds each key's
    hash and the offset and length of its last put record; the record
    read back must carry the same key, a matching CRC, JSON and a
    rebuildable report, otherwise the lookup is a miss.  A key that
    contains whitespace is never answered from disk (every
    :func:`result_key` is a hex digest).

    ``max_bytes`` bounds the log: a put that leaves it larger runs
    :meth:`prune`, which keeps the most recently used entries that fit.
    ``max_bytes=None`` keeps the historical unbounded behavior.
    ``get`` returns a *fresh* report object per call — cached state is
    never shared mutably with callers.
    """

    def __init__(self, capacity: int = 4096,
                 directory: Union[str, os.PathLike, None] = None,
                 max_bytes: Optional[int] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None "
                             "for an unbounded disk store)")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max_bytes
        self._lru: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_evictions = 0
        self._log = os.path.join(directory, _LOG) \
            if directory is not None else None
        # hash(key) -> offset << 32 | length of the key's last put
        # record, over the first _indexed bytes of log inode _inode
        self._index: dict[int, int] = {}
        self._inode: Optional[int] = None
        self._indexed = 0

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: str) -> Optional[ValidationReport]:
        """The cached report for ``key``, or None on a miss."""
        payload = self._lru.get(key)
        if payload is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            return ValidationReport.from_dict(payload)
        found = self._read(key) if self._log is not None else None
        if found is not None:
            payload, report = found
            self._remember(key, payload)
            self.hits += 1
            self.disk_hits += 1
            try:
                self._append(b"T " + key.encode())
            except OSError:
                pass  # a read-only store still answers
            return report
        self.misses += 1
        return None

    def put(self, key: str, report: ValidationReport) -> None:
        """Store ``report`` under ``key`` (write-through to disk)."""
        payload = report.to_dict()
        self._remember(key, payload)
        if self._log is not None:
            kb = key.encode()
            body = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode()
            end = self._append(b"P %s %s %s" % (kb, _crc(kb, body), body))
            if self.max_bytes is not None and end > self.max_bytes:
                self.prune()

    def _append(self, record: bytes) -> int:
        """Append ``record`` between newlines with one ``write()``;
        returns the log's size just after it."""
        try:
            fd = os.open(self._log, _APPEND, 0o666)
        except FileNotFoundError:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._log, _APPEND, 0o666)
        try:
            os.write(fd, b"\n" + record + b"\n")
            return os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)

    def _read(self, key: str) -> "Optional[tuple[dict, ValidationReport]]":
        """``(payload, report)`` of ``key``'s last put in the log."""
        kb = key.encode()
        try:
            fd = os.open(self._log, os.O_RDONLY)
        except OSError:
            self._inode = None  # a later log starts a new index
            return None
        try:
            st = os.fstat(fd)
            if st.st_ino != self._inode or st.st_size < self._indexed:
                self._index.clear()
                self._inode, self._indexed = st.st_ino, 0
            if st.st_size > self._indexed:
                self._scan(os.pread(fd, st.st_size - self._indexed,
                                    self._indexed))
            where = self._index.get(hash(kb))
            if where is None:
                return None
            line = os.pread(fd, where & 0xFFFFFFFF, where >> 32)
        except OSError:
            return None
        finally:
            os.close(fd)
        checked = _checked(line)
        if checked is None or checked[0] != kb:
            return None
        try:
            payload = json.loads(checked[1])
            return payload, ValidationReport.from_dict(payload)
        except (ValueError, TypeError, KeyError, AttributeError):
            return None

    def _scan(self, data: bytes) -> None:
        """Index the put records in ``data``, the log's bytes from
        offset ``_indexed`` on.  A last line without its newline may
        still be being written: it waits for the next scan."""
        end = data.rfind(b"\n") + 1
        base, index = self._indexed, self._index
        for m in _PUT.finditer(data, 0, end):
            index[hash(m.group(1))] = \
                (base + m.start()) << 32 | (m.end() - 1 - m.start())
        self._indexed = base + end

    def disk_bytes(self) -> int:
        """Current on-disk footprint of the store: the log's size."""
        try:
            return os.stat(self._log or "").st_size
        except FileNotFoundError:
            return 0

    def prune(self, max_bytes: Optional[int] = None) -> "dict[str, int]":
        """Rewrite the log with the most recently used entries that fit
        ``max_bytes`` (default: the cache's own budget; ``0`` empties
        the store).  Returns ``{"evicted": n, "freed_bytes": b,
        "kept": n, "kept_bytes": b}``.

        A key's most recent use is the last record that names it.  The
        new log is written to a temporary file and renamed over the old
        one, so a concurrent reader sees one log or the other; a record
        another process appends while the prune runs may be lost, which
        is a later miss.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        try:
            with open(self._log or "", "rb") as fh:
                data = fh.read()
        except FileNotFoundError:  # no directory, or nothing put yet
            return {"evicted": 0, "freed_bytes": 0,
                    "kept": 0, "kept_bytes": 0}
        last: dict[bytes, bytes] = {}  # key -> put record, by last use
        for line in data.split(b"\n"):
            if line[:2] == b"T ":
                if line[2:] in last:
                    last[line[2:]] = last.pop(line[2:])
            else:
                checked = _checked(line)
                if checked is not None:
                    last.pop(checked[0], None)
                    last[checked[0]] = line
        kept: list[bytes] = []
        size = 0
        for line in reversed(last.values()):
            if budget is not None and size + len(line) + 2 > budget:
                break
            kept.append(line)
            size += len(line) + 2
        tmp = f"{self._log}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(b"".join(b"\n" + line + b"\n"
                              for line in reversed(kept)))
        os.replace(tmp, self._log)
        evicted = len(last) - len(kept)
        self.disk_evictions += evicted
        return {"evicted": evicted, "freed_bytes": len(data) - size,
                "kept": len(kept), "kept_bytes": size}

    def _remember(self, key: str, payload: dict) -> None:
        self._lru[key] = payload
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def stats(self) -> dict:
        """Hit/miss counters plus current size, JSON-safe."""
        return {"hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits, "entries": len(self._lru),
                "capacity": self.capacity,
                "max_bytes": self.max_bytes,
                "disk_evictions": self.disk_evictions,
                "directory": str(self.directory)
                if self.directory is not None else None}

    def clear(self) -> None:
        """Drop the in-memory entries (the disk store is untouched)."""
        self._lru.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<ResultCache {len(self._lru)}/{self.capacity} "
                f"hits={self.hits} misses={self.misses}>")
