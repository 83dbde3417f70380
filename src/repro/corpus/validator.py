"""Sharded validation of many documents against one ``DTD^C``.

Definition 2.4 validity is per-document, which makes a corpus
embarrassingly parallel: partition the documents into chunks, validate
each chunk in a worker that holds Σ and the structure already parsed,
and recombine the verdicts in corpus order.  The coordinator does the
parts that must be globally consistent — normalizing inputs to
``(doc_id, xml_text)`` pairs, content-addressing each pair against the
schema fingerprint, consulting the result cache, and merging the
per-worker observability exports into one report.

``jobs=1`` bypasses ``multiprocessing`` entirely but runs the *same*
worker functions in-process, so serial and pooled runs produce
byte-identical verdicts (see ``CorpusReport.verdicts_json``).

The key step (:func:`prepare_entries`) and the verdict write-through
(:func:`to_verdict`) are module-level because the sharded coordinator
(:mod:`repro.shard.coordinator`) runs the same two functions around its
nodes: one verdict shape travels from worker to coordinator whether the
worker is a pool process or a shard node.
"""

from __future__ import annotations

import math
import os
import time
from typing import Iterable, Optional, Union

from repro import engines as _engines
from repro.corpus.cache import ResultCache, result_key, result_key_bytes
from repro.corpus.report import CorpusReport, DocumentVerdict
from repro.corpus.worker import _STATE as _WORKER_STATE
from repro.corpus.worker import init_worker, stream_chunk, validate_chunk
from repro.obs import NULL_OBS, TraceContext, activate, current_context
from repro.datamodel.tree import DataTree
from repro.dtd.dtdc import DTDC
from repro.dtd.validate import ValidationReport
from repro.errors import ReproError, XMLSyntaxError
from repro.server.registry import SchemaHandle, as_handle
from repro.xmlio import decode_document
from repro.xmlio.serializer import serialize

__all__ = ["CorpusValidator", "normalize_docs", "prepare_entries",
           "resolve_engine", "resolve_jobs", "to_verdict"]

#: One corpus document, as accepted by :meth:`CorpusValidator.validate`:
#: a filesystem path, an in-memory tree, or an explicit (id, xml) pair.
CorpusDoc = Union[str, os.PathLike, DataTree, "tuple[str, str]"]


def resolve_jobs(jobs: int, flag: str = "jobs") -> int:
    """Resolve a worker/shard count: ``0`` means auto
    (``os.cpu_count()``), negatives are rejected with the flag named.
    Shared by ``jobs=`` and ``shards=`` so the two spellings cannot
    drift."""
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"{flag} must be >= 1, or 0 for auto (cpu count); "
            f"got {jobs}")
    return jobs


def normalize_docs(docs: Iterable[CorpusDoc]
                   ) -> "list[tuple[str, str, str]]":
    """Each document as a ``(doc_id, kind, value)`` triple, where
    ``kind`` is ``"text"`` (``value`` is XML text) or ``"path"``
    (``value`` is a filesystem path, not yet read).

    Trees are serialized (the serializer is deterministic: sorted
    attributes, stable indentation) and explicit pairs pass through;
    both are keyed on their text.  Paths are keyed on their raw
    on-disk bytes — what is hashed is exactly what is validated, with
    no parse/serialize round-trip in between.

    Module-level because doc-id assignment is part of the verdict
    byte-identity contract: the sharded coordinator normalizes with
    exactly this function, so its reassembled ``verdicts_json`` can
    never disagree with a serial run over the same input.
    """
    entries: list[tuple[str, str, str]] = []
    for i, doc in enumerate(docs):
        if isinstance(doc, DataTree):
            entries.append((f"doc[{i}]", "text", serialize(doc)))
        elif isinstance(doc, tuple):
            doc_id, text = doc
            entries.append((str(doc_id), "text", text))
        elif isinstance(doc, (str, os.PathLike)):
            entries.append((os.fspath(doc), "path", os.fspath(doc)))
        else:
            raise TypeError(
                f"corpus document #{i} has unsupported type "
                f"{type(doc)!r} (expected path, DataTree, or "
                "(doc_id, xml_text) pair)")
    return entries


def resolve_engine(name: str) -> str:
    """The per-document backend a corpus run (or a shard node) uses for
    the engine ``name``: ``"batch"`` or ``"codegen"`` (``"auto"`` runs
    as codegen); any other name is a :class:`ReproError`."""
    engine = _engines.resolve(name)
    if engine not in ("batch", "codegen"):
        raise ReproError(
            f"unknown engine {engine!r} for corpus runs "
            "(known: auto, batch, codegen)")
    return engine


def prepare_entries(entries: "list[tuple[str, str, str]]",
                    fingerprint: str, *, decode: bool, key_paths: bool
                    ) -> "list[Optional[str]]":
    """Resolve cache keys; returns one key (or None) per entry.

    Text inputs are keyed on their UTF-8 bytes; a text holding a lone
    surrogate has none, so its entry is rewritten to
    ``("error", message)`` with an empty key.  A path input is read
    when ``decode`` or ``key_paths`` is set, and keyed on its raw
    bytes.  With ``decode`` its entry is rewritten to ``("text", ...)``
    from the same read, or to ``("error", message)`` when its bytes are
    not UTF-8 (the document's verdict is then that error).  A path that
    is not read stays on disk with key None: the worker that reads it
    hashes the bytes it reads anyway, and its verdict carries the key.
    """
    keys: list[Optional[str]] = []
    for i, (doc_id, kind, value) in enumerate(entries):
        if kind == "text":
            try:
                keys.append(result_key(value, fingerprint))
            except XMLSyntaxError as exc:
                keys.append("")
                entries[i] = (doc_id, "error", str(exc))
        elif not (decode or key_paths):
            keys.append(None)
        else:
            with open(value, "rb") as handle:
                data = handle.read()
            keys.append(result_key_bytes(data, fingerprint))
            if decode:
                try:
                    entries[i] = (doc_id, "text", decode_document(data))
                except XMLSyntaxError as exc:
                    entries[i] = (doc_id, "error", str(exc))
    return keys


def to_verdict(key: Optional[str], verdict_dict: dict,
               cache: Optional[ResultCache]) -> DocumentVerdict:
    """Rebuild one worker verdict dict (a pool chunk's or a shard
    node's) and write a clean or invalid result, never an error,
    through ``cache``.  ``key`` None takes the key the worker hashed
    from the bytes it read."""
    doc_id = verdict_dict["doc"]
    if key is None:
        key = verdict_dict.get("key") or ""
    if verdict_dict["error"] is not None:
        return DocumentVerdict(doc_id, key, False,
                               error=verdict_dict["error"])
    report = ValidationReport.from_dict(verdict_dict["report"])
    if cache is not None:
        cache.put(key, report)
    return DocumentVerdict(doc_id, key, report.ok, list(report.violations))


class CorpusValidator:
    """Validate an iterable of documents against one ``DTD^C``.

    Parameters
    ----------
    dtd:
        The schema — a :class:`DTDC` or a compiled
        :class:`~repro.server.registry.SchemaHandle` (the uniform
        contract).  Either way the validator works off a handle, so the
        fingerprint and the streaming plan are computed once per schema
        per process and shared with every other handle-routed call
        site; the schema itself is shipped once per worker.
    jobs:
        Worker process count.  ``1`` (the default) stays in-process.
    cache:
        ``None`` (no caching), a directory path (persistent store under
        it), or a prebuilt :class:`ResultCache` to share across runs.
    obs:
        Optional :class:`repro.obs.Observability`; per-worker metrics
        and spans are merged into it under a ``corpus.validate`` span.
    engine:
        Per-document backend: ``"batch"`` (parse-then-validate, the
        default) or ``"codegen"`` (the single-pass engine; each worker
        builds its scanners once from the plan it is shipped, and
        validates file inputs over raw bytes).  ``"auto"`` resolves to
        ``"codegen"`` through :func:`repro.engines.resolve`.  Verdicts
        are byte-identical across engines.  On the codegen engine file
        inputs stay as paths so workers read them from disk, hashing
        the raw bytes for the cache key as part of the same read.

    Pool tasks carry ``ceil(n / (4 * jobs))`` documents each, capped at
    32 — large enough to amortize task dispatch, small enough to keep
    all workers busy on uneven documents.
    """

    def __init__(self, dtd: "DTDC | SchemaHandle", jobs: int = 1,
                 cache: "ResultCache | str | os.PathLike | None" = None,
                 *, obs=None, engine: Optional[str] = None):
        try:
            self.handle = as_handle(dtd)
        except TypeError:
            raise TypeError(
                f"CorpusValidator needs a DTDC or SchemaHandle, got "
                f"{type(dtd)!r}") from None
        self.dtd = self.handle.dtd
        self.jobs = resolve_jobs(jobs)
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(directory=cache)
        self.obs = obs or NULL_OBS
        #: the resolved per-document backend, "batch" or "codegen"
        #: ("auto" never survives construction)
        self.engine = resolve_engine(engine or "batch")
        self.fingerprint = self.handle.fingerprint

    # -- chunking ----------------------------------------------------

    def _chunk_size(self, n_docs: int) -> int:
        if n_docs == 0:
            return 1
        return max(1, min(32, math.ceil(n_docs / (4 * self.jobs))))

    @staticmethod
    def _chunks(items: list, size: int) -> "list[list]":
        return [items[i:i + size] for i in range(0, len(items), size)]

    # -- the run -----------------------------------------------------

    def validate(self, docs: Iterable[CorpusDoc]) -> CorpusReport:
        """Validate the corpus; verdicts come back in input order.

        When the validator's obs tracer is enabled, the whole run sits
        under one ``corpus.validate`` span belonging to the ambient
        :class:`~repro.obs.TraceContext` (a fresh one is minted when
        none is active), and that span's context travels to every
        worker — so pooled chunk spans come back with the run's
        trace_id and re-parent under it on merge.
        """
        if self.obs.tracer.enabled and current_context() is None:
            with activate(TraceContext.new()):
                return self._run(docs)
        return self._run(docs)

    def _run(self, docs: Iterable[CorpusDoc]) -> CorpusReport:
        phases: dict[str, float] = {}
        t_start = time.perf_counter()
        obs = self.obs
        with obs.span("corpus.validate", jobs=self.jobs) as run_span:
            entries = normalize_docs(docs)
            keys = prepare_entries(
                entries, self.fingerprint,
                decode=self.engine == "batch",
                key_paths=self.cache is not None)
            phases["prepare"] = time.perf_counter() - t_start

            # Cache lookups happen in the coordinator so a pooled run
            # never ships an already-known document to a worker.
            t0 = time.perf_counter()
            verdicts: list[Optional[DocumentVerdict]] = \
                [None] * len(entries)
            pending: list[int] = []
            for i, (doc_id, kind, value) in enumerate(entries):
                if kind == "error":
                    verdicts[i] = DocumentVerdict(doc_id, keys[i], False,
                                                  error=value)
                    continue
                cached = self.cache.get(keys[i]) \
                    if self.cache is not None else None
                if cached is not None:
                    verdicts[i] = DocumentVerdict(
                        doc_id, keys[i], cached.ok,
                        list(cached.violations), cached=True)
                else:
                    pending.append(i)
            phases["cache"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            payloads = self._run_pending(entries, pending,
                                         run_span.context())
            phases["validate"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            with obs.span("corpus.merge"):
                flat: list[dict] = []
                for payload in payloads:
                    flat.extend(payload["verdicts"])
                    obs.absorb(payload)
                for i, verdict_dict in zip(pending, flat):
                    verdicts[i] = to_verdict(keys[i], verdict_dict,
                                             self.cache)
            phases["merge"] = time.perf_counter() - t0
            phases["total"] = time.perf_counter() - t_start

            done = [v for v in verdicts if v is not None]
            if obs.metrics.enabled:
                obs.counter("corpus_documents_validated",
                            help="documents processed by corpus runs"
                            ).add(len(done))
                obs.counter("corpus_cache_hits",
                            help="corpus documents answered from the "
                            "result cache").add(sum(v.cached for v in done))
            return CorpusReport(
                done, jobs=self.jobs, phases=phases,
                cache_stats=self.cache.stats()
                if self.cache is not None else None,
                obs=obs or None)

    def _run_pending(self, entries: "list[tuple[str, str, str]]",
                     pending: "list[int]",
                     run_ctx: "TraceContext | None" = None
                     ) -> "list[dict]":
        """Validate the cache-missing documents, chunked; one payload
        per chunk, in chunk order.  ``run_ctx`` (the ``corpus.validate``
        span's context) ships to every worker as a traceparent string so
        chunk spans join the run's trace."""
        if not pending:
            return []
        if self.engine == "codegen":
            work = [entries[i] for i in pending]
            worker = stream_chunk
            # the handle builds its scanners once per process, before
            # any fork: each worker builds its own from the plan, and a
            # forked one inherits the compiled regexes and matchers
            plan = self.handle.codegen.plan
        else:
            # the batch worker takes (doc_id, xml_text) pairs;
            # prepare_entries already rewrote every path entry to text
            work = [(entries[i][0], entries[i][2]) for i in pending]
            worker = validate_chunk
            plan = None
        chunks = self._chunks(work, self._chunk_size(len(work)))
        collect_obs = bool(self.obs)
        traceparent = run_ctx.to_traceparent() \
            if run_ctx is not None else None
        initargs = (self.dtd, collect_obs, plan, self.fingerprint,
                    traceparent)
        if self.jobs == 1:
            if plan is not None:
                # in-process, the worker runs the handle's own scanners
                # (init_worker keeps a compiled schema of the same plan)
                _WORKER_STATE["compiled"] = self.handle.codegen
            init_worker(*initargs)
            return [worker(chunk) for chunk in chunks]
        import multiprocessing

        with multiprocessing.Pool(
                processes=min(self.jobs, len(chunks)),
                initializer=init_worker,
                initargs=initargs) as pool:
            return pool.map(worker, chunks)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<CorpusValidator root={self.dtd.structure.root!r} "
                f"jobs={self.jobs} "
                f"cache={'on' if self.cache is not None else 'off'}>")
