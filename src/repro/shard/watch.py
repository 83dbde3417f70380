"""Incremental ``--watch`` mode over a sharded corpus.

A :class:`WatchSession` keeps a manifest of ``(path, size, mtime_ns,
sha256)`` for every corpus file.  Each :meth:`poll` re-stats the
corpus; files whose ``(size, mtime_ns)`` are unchanged are trusted
without re-reading, files whose stat moved are re-hashed, and only
files whose *content* hash actually changed (plus new files) are
revalidated — everything else is answered from the coordinator's
result/aggregate caches, so a steady-state poll is stat calls and
nothing more.  Every wake-up with changes emits exactly one
incremental report: the full corpus fold (cross-document ``L_id``
findings must be recomputed when any document moves) with a
:attr:`WatchDelta.changed` list naming what was actually revalidated.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.shard.coordinator import ShardReport, ShardedCorpusValidator

__all__ = ["WatchDelta", "WatchSession"]


@dataclass
class ManifestEntry:
    """What the watcher remembers about one corpus file."""

    size: int
    mtime_ns: int
    sha256: str


@dataclass
class WatchDelta:
    """One wake-up's outcome: the refreshed report plus what moved."""

    #: poll sequence number (1 = the cold full pass)
    cycle: int
    #: full corpus report (verdicts for *all* files, corpus fold redone)
    report: ShardReport
    #: paths revalidated this cycle (content changed, or new)
    changed: "list[str]" = field(default_factory=list)
    #: paths dropped from the corpus since the last cycle
    removed: "list[str]" = field(default_factory=list)
    #: paths answered from cache without re-reading content
    unchanged: "list[str]" = field(default_factory=list)

    @property
    def delta_verdicts(self):
        """The changed files' verdicts only — the incremental slice."""
        changed = set(self.changed)
        return [v for v in self.report.verdicts if v.doc_id in changed]

    def to_dict(self) -> dict:
        return {"cycle": self.cycle,
                "changed": list(self.changed),
                "removed": list(self.removed),
                "unchanged": len(self.unchanged),
                "corpus_ok": self.report.corpus_ok,
                "verdicts": [v.to_dict() for v in self.delta_verdicts],
                "corpus_violations": [v.to_dict() for v in
                                      self.report.corpus_violations]}

    def __str__(self) -> str:
        head = (f"watch cycle {self.cycle}: {len(self.changed)} "
                f"changed, {len(self.unchanged)} unchanged"
                + (f", {len(self.removed)} removed"
                   if self.removed else ""))
        if not self.changed and not self.removed:
            return head
        lines = [head]
        lines.extend(f"  ~ {v}" for v in self.delta_verdicts)
        if self.report.corpus_violations:
            lines.append(f"  corpus-level findings: "
                         f"{len(self.report.corpus_violations)}")
            lines.extend(f"    - {v}"
                         for v in self.report.corpus_violations)
        return "\n".join(lines)


def _expand(paths: "Iterable[str | os.PathLike]") -> "list[str]":
    """Corpus file list: directories expand to their sorted ``*.xml``
    members on every poll (new files are picked up), plain files pass
    through.  Mirrors ``check-corpus``'s directory handling."""
    out: list[str] = []
    for p in paths:
        p = os.fspath(p)
        if os.path.isdir(p):
            out.extend(sorted(
                os.path.join(p, name) for name in os.listdir(p)
                if name.endswith(".xml")))
        else:
            out.append(p)
    return out


class WatchSession:
    """Poll-driven incremental revalidation of an on-disk corpus.

    The session owns no timer: :meth:`poll` does one wake-up and
    returns its :class:`WatchDelta` (or ``None`` when nothing changed),
    so tests and the CLI loop drive it however they like;
    :meth:`run` is the convenience sleep-loop behind
    ``check-corpus --watch``.
    """

    def __init__(self, validator: ShardedCorpusValidator,
                 paths: "Iterable[str | os.PathLike]", obs=None):
        self.validator = validator
        self.paths = [os.fspath(p) for p in paths]
        self.obs = obs or validator.obs
        self.manifest: dict[str, ManifestEntry] = {}
        self.cycle = 0

    # -- change detection ---------------------------------------------

    def _scan(self) -> "tuple[list[str], list[str], list[str], list[str]]":
        """One manifest pass: ``(files, changed, unchanged, removed)``.

        Stat is the fast path — a file whose ``(size, mtime_ns)`` both
        match the manifest is trusted unchanged without opening it.  A
        moved stat triggers a re-hash; only a changed sha256 (or a new
        file) marks the file changed, so ``touch`` alone does not
        revalidate anything.
        """
        files = _expand(self.paths)
        changed: list[str] = []
        unchanged: list[str] = []
        seen: set[str] = set()
        for path in files:
            seen.add(path)
            st = os.stat(path)
            entry = self.manifest.get(path)
            if entry is not None and entry.size == st.st_size \
                    and entry.mtime_ns == st.st_mtime_ns:
                unchanged.append(path)
                continue
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if entry is not None and entry.sha256 == digest:
                entry.size = st.st_size
                entry.mtime_ns = st.st_mtime_ns
                unchanged.append(path)
                continue
            self.manifest[path] = ManifestEntry(
                st.st_size, st.st_mtime_ns, digest)
            changed.append(path)
        removed = sorted(set(self.manifest) - seen)
        for path in removed:
            del self.manifest[path]
        return files, changed, unchanged, removed

    # -- one wake-up --------------------------------------------------

    def poll(self) -> Optional[WatchDelta]:
        """One wake-up.  Returns ``None`` on a steady-state poll (no
        content changed, nothing removed, not the first pass);
        otherwise one :class:`WatchDelta` for the whole wake-up."""
        self.cycle += 1
        with self.obs.span("watch.poll", cycle=self.cycle):
            files, changed, unchanged, removed = self._scan()
            if self.obs.metrics.enabled:
                self.obs.counter(
                    "watch_polls", help="watch-mode wake-ups").add(1)
                self.obs.counter(
                    "watch_files_revalidated",
                    help="corpus files revalidated by watch wake-ups "
                    "(content actually changed)").add(len(changed))
                self.obs.counter(
                    "watch_files_unchanged",
                    help="corpus files answered from the manifest "
                    "without revalidation").add(len(unchanged))
            if not changed and not removed and self.cycle > 1:
                return None
            # the validator's caches answer every unchanged file; only
            # the changed ones travel to a node
            report = self.validator.validate(files)
            return WatchDelta(self.cycle, report, changed=changed,
                              removed=removed, unchanged=unchanged)

    def run(self, interval: float = 1.0,
            max_cycles: Optional[int] = None,
            on_delta: "Callable[[WatchDelta], None] | None" = None,
            sleep: "Callable[[float], None]" = time.sleep
            ) -> Optional[WatchDelta]:
        """The CLI loop: poll, report deltas, sleep, repeat.

        ``max_cycles`` bounds the loop (tests, ``--max-cycles``);
        ``None`` runs until interrupted.  Returns the last delta seen.
        """
        last: Optional[WatchDelta] = None
        cycles = 0
        while max_cycles is None or cycles < max_cycles:
            delta = self.poll()
            cycles += 1
            if delta is not None:
                last = delta
                if on_delta is not None:
                    on_delta(delta)
            if max_cycles is not None and cycles >= max_cycles:
                break
            sleep(interval)
        return last
