"""The long-lived validation daemon behind ``repro-xic serve``.

One :class:`ValidationServer` hosts a :class:`~repro.server.registry.SchemaRegistry`
(compiled schemas, hot-swappable), an optional content-addressed
:class:`~repro.corpus.ResultCache`, and a server-lifetime
:class:`~repro.obs.Observability` handle, behind two transports that
share one dispatcher:

- **HTTP** (hand-rolled on ``asyncio.start_server``, zero new deps —
  see :mod:`repro.server.http`)::

      GET    /healthz                     liveness + loaded schemas
      GET    /metrics                     Prometheus text exposition
      GET    /v1/schemas                  registry listing
      PUT    /v1/schemas/<name>[?root=r]  load or hot-reload (body = DTD^C)
      DELETE /v1/schemas/<name>           unload
      POST   /v1/validate/<name>[?engine=auto|batch|codegen]
                                          body = XML bytes
      POST   /v1/lint/<name>[?select=..&ignore=..]
      POST   /v1/synth/<name>
      POST   /v1/shutdown                 wind the daemon down

- **JSONL** (stdin/stdout, or any stream pair): one request object per
  line in, one response object per line out, same operations spelled
  ``{"op": "validate", "schema": "book", "document": "<book>..."}`` —
  plus ``ping``, ``schemas``, ``load``/``reload``/``unload``,
  ``metrics`` and ``shutdown``.  EOF on stdin is a clean shutdown.

Request lifecycle (the admission path the whole design serves):

1. resolve the schema name to its current :class:`SchemaHandle` — this
   pin is what makes reloads zero-downtime: the in-flight request keeps
   the old handle while new admissions see the new version;
2. SHA-256 the incoming document bytes *during the read* (the HTTP
   framing layer hashes as it reads; JSONL hashes the line's document
   once) and finish the hash into the
   :func:`~repro.corpus.cache.result_key_hasher` cache key;
3. answer from the :class:`ResultCache` on a hit — a warm byte-identical
   re-submission costs one hash, no parse, no validation;
4. on a miss, validate with the engine the request named — ``auto``
   (the default) and ``codegen`` run the single-pass engine over the
   raw bytes, with the handle's scanners; ``batch`` parses, then
   validates — the report is byte-identical across engines — and write
   it through the cache.

Per-request :class:`~repro.obs.Observability` spans and counters are
absorbed into the server-lifetime handle after every request (the
lifetime tracer is disabled by default so span storage cannot grow
without bound); ``GET /metrics`` exports the merged registry in
Prometheus text format.

Validation reports are byte-identical to the CLI: the ``report`` field
of a validate response is exactly ``ValidationReport.to_dict()``, the
payload ``repro-xic validate --format json`` splices into its output.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import sys
import time
from typing import Optional

from repro.errors import ParseError, ReproError
from repro.obs import (
    NULL_TRACER, EventLog, Observability, TraceContext, activate,
    parse_traceparent, trace_events,
)
from repro.obs.metrics import Histogram
from repro.server.http import (
    HttpError, HttpRequest, HttpResponse, read_request, write_response,
)
from repro.server.registry import SchemaNotFound, SchemaRegistry
from repro.server.telemetry import RequestWindow, SlowLog, TraceStore
from repro.xmlio import encode_document

__all__ = ["ValidationServer"]

#: StreamReader limit for the transports: JSONL lines carry whole
#: documents, so the default 64 KiB readline limit is far too small.
STREAM_LIMIT = 64 * 1024 * 1024

#: request latency histogram buckets (seconds)
_LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


class ValidationServer:
    """The daemon: registry + cache + metrics behind HTTP and JSONL.

    Parameters
    ----------
    registry:
        The :class:`SchemaRegistry` to serve (default: a fresh empty
        one, populated at runtime via the registry operations).
    cache:
        ``None``, a directory path, or a prebuilt
        :class:`~repro.corpus.ResultCache` for cache-aware admission.
    obs:
        The server-lifetime :class:`~repro.obs.Observability`.  Default:
        metrics enabled, tracer disabled (bounded memory); pass a fully
        enabled handle to also retain per-request span trees.
    default_mode:
        The engine for validate requests that do not name one —
        ``"auto"`` (the default: the single-pass codegen engine),
        ``"codegen"``, ``"batch"``, or any engine registered through
        :func:`repro.engines.register` before the server starts.
    sample:
        Trace sampling rate in ``[0, 1]``: the fraction of requests
        that get a per-request tracer and land in the trace store.
        Requests carrying a sampled ``traceparent`` or ``?trace=1``
        are always traced regardless (default ``0.0``).
    slow_ms:
        Requests slower than this (wall-clock, milliseconds) are
        recorded in the slow log and emit a ``slow-request`` event.
    events:
        The :class:`~repro.obs.EventLog` to emit structured events
        into (default: a fresh ring-only log).
    trace_capacity:
        Bound on the trace store (``GET /v1/traces/<id>``).
    """

    def __init__(self, registry: Optional[SchemaRegistry] = None,
                 cache=None, obs=None, default_mode: str = "auto",
                 sample: float = 0.0, slow_ms: float = 500.0,
                 events: Optional[EventLog] = None,
                 trace_capacity: int = 256):
        from repro import engines as _engines
        from repro.corpus.cache import ResultCache

        if default_mode not in _engines.names():
            raise ValueError(
                f"unknown default_mode {default_mode!r} "
                f"(known: {', '.join(_engines.names())})")
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be within [0, 1]")
        self.registry = registry if registry is not None \
            else SchemaRegistry()
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(directory=cache)
        self.obs = obs if obs is not None \
            else Observability(tracer=NULL_TRACER)
        self.default_mode = default_mode
        self.sample = float(sample)
        self.slow_ms = float(slow_ms)
        self.events = events if events is not None else EventLog()
        # Share one event log with everything holding the obs handle
        # (the registry's reload events, notably) — unless the caller
        # already attached their own.
        if self.obs.enabled and not self.obs.events:
            self.obs.events = self.events
        self.traces = TraceStore(trace_capacity)
        self.slow = SlowLog()
        self.window = RequestWindow()
        self._started = time.monotonic()
        #: optional test/instrumentation hook, called as
        #: ``hook(op, handle)`` right after admission resolves the
        #: schema handle — the hot-reload tests swap the registry here
        #: to prove in-flight requests finish on the old plan
        self.admission_hook = None
        self._http: Optional[asyncio.AbstractServer] = None
        self.http_address: "tuple[str, int] | None" = None
        self._shutdown = asyncio.Event()
        #: live HTTP connections as (task, writer) pairs, so ``close()``
        #: can end keep-alive handlers instead of leaving them to be
        #: cancelled (and noisily logged) at loop teardown
        self._conns: set = set()

    # ------------------------------------------------------------------
    # the dispatcher (shared by both transports)
    # ------------------------------------------------------------------

    def handle_request(self, req: dict) -> "tuple[dict, int]":
        """Dispatch one request dict; returns ``(payload, http_status)``.

        Never raises for request-level problems: schema-not-found maps
        to 404/``not-found``, unparseable documents and schema text to
        422/``invalid-document``, everything else malformed to
        400/``bad-request``.  The response always echoes a request
        ``id`` (the JSONL correlation field) when one was sent.

        Every request is admitted under a :class:`TraceContext` —
        adopted from an incoming ``traceparent`` header/field, or
        freshly minted — so events emitted anywhere below correlate by
        trace_id.  *Sampled* requests (``--sample`` rate, a sampled
        traceparent, or ``?trace=1``) additionally run under a
        per-request tracer whose span tree lands in the bounded trace
        store (``GET /v1/traces/<id>``) and, with ``?trace=1``, inline
        in the response.
        """
        op = str(req.get("op", ""))
        t0 = time.perf_counter()
        ctx = self._admit_context(req)
        sampled = ctx.sampled and bool(self.obs)
        if sampled:
            req_obs: Optional[Observability] = Observability()
        elif self.obs:
            req_obs = Observability(tracer=NULL_TRACER)
        else:
            req_obs = None
        req["_ctx"] = ctx
        req["_obs"] = req_obs
        with activate(ctx):
            try:
                handler = self._OPS.get(op)
                if handler is None:
                    raise ReproError(
                        f"unknown op {op!r} (known: "
                        f"{', '.join(sorted(self._OPS))})")
                if sampled:
                    with req_obs.span(f"serve.{op or '?'}",
                                      op=op or "?") as root:
                        with activate(root.context()):
                            payload, status = handler(self, req)
                else:
                    payload, status = handler(self, req)
            except SchemaNotFound as exc:
                payload, status = _error("not-found", exc), 404
                self.events.warn("admission-reject", str(exc), op=op)
            except ParseError as exc:
                payload, status = _error("invalid-document", exc), 422
            except (ReproError, UnicodeDecodeError) as exc:
                payload, status = _error("bad-request", exc), 400
            except OSError as exc:
                payload, status = _error("bad-request", exc), 400
            elapsed = time.perf_counter() - t0
            trace_payload = self._finish_request(
                req, op, payload, status, elapsed, ctx, sampled, req_obs)
        if trace_payload is not None and req.get("_want_trace"):
            payload = {**payload, "trace": trace_payload}
        if sampled:
            payload.setdefault("trace_id", ctx.trace_id)
        if "id" in req:
            payload = {"id": req["id"], **payload}
        return payload, status

    def _admit_context(self, req: dict) -> TraceContext:
        """The request's :class:`TraceContext`: adopt a ``traceparent``
        header/field when one parses, mint a fresh one otherwise; the
        sampling decision is the caller's when they made one, else a
        ``--sample`` coin flip.  ``?trace=1`` (HTTP) / ``"trace": true``
        (JSONL) forces sampling on."""
        forced = bool(req.get("_want_trace") or req.get("trace"))
        if forced:
            req["_want_trace"] = True
        ctx = parse_traceparent(req.get("traceparent"))
        if ctx is None:
            sampled = forced or (self.sample > 0.0
                                 and random.random() < self.sample)
            return TraceContext.new(sampled=sampled)
        if forced and not ctx.sampled:
            ctx = ctx.with_sampled(True)
        return ctx

    def _finish_request(self, req: dict, op: str, payload: dict,
                        status: int, elapsed: float, ctx: TraceContext,
                        sampled: bool,
                        req_obs: Optional[Observability]
                        ) -> Optional[dict]:
        """Post-dispatch bookkeeping: lifetime metrics (with a latency
        exemplar for sampled requests), trace-store insert, request
        window, slow log.  Returns the trace-event payload when the
        request was sampled."""
        trace_payload = None
        if sampled and req_obs is not None and req_obs.tracer.roots:
            if req.get("_want_trace"):
                trace_payload = trace_events(req_obs.tracer.roots,
                                             trace_id=ctx.trace_id)
                self.traces.put(ctx.trace_id, trace_payload)
            else:
                # Nobody asked for the export inline; keep the raw span
                # tree and render trace events on first fetch.
                self.traces.put(ctx.trace_id, req_obs.tracer.roots)
        if self.obs:
            outcome = "ok" if payload.get("ok") else "error"
            self.obs.counter(
                "serve_requests_total", {"op": op or "?",
                                         "outcome": outcome},
                help="requests served, by operation and outcome").add(1)
            self.obs.histogram(
                "serve_request_seconds", {"op": op or "?"},
                help="request wall-clock latency",
                buckets=_LATENCY_BUCKETS).observe(
                    elapsed, trace_id=ctx.trace_id if sampled else None)
            if sampled:
                self.obs.counter(
                    "serve_traces_sampled",
                    help="requests that ran under a per-request "
                    "tracer").add(1)
            if req_obs is not None:
                # Spans stay per-request (trace store); only metrics
                # fold into the server-lifetime registry.
                self.obs.absorb(
                    {"metrics": req_obs.metrics.to_dicts()})
        self.window.mark()
        ms = elapsed * 1000.0
        if ms >= self.slow_ms:
            record = {
                "ts": round(time.time(), 3),
                "op": op or "?",
                "schema": req.get("schema"),
                "ms": round(ms, 3),
                "status": status,
                "trace_id": ctx.trace_id if sampled else None,
            }
            self.slow.add(record)
            self.events.warn("slow-request",
                             f"{op or '?'} took {ms:.1f} ms",
                             op=op or "?", ms=record["ms"],
                             schema=req.get("schema"))
        return trace_payload

    # -- operations ----------------------------------------------------

    def _op_ping(self, req: dict) -> "tuple[dict, int]":
        import repro

        return {"ok": True, "server": "repro-xic serve",
                "version": repro.__version__,
                "schemas": self.registry.names()}, 200

    def _op_schemas(self, req: dict) -> "tuple[dict, int]":
        return {"ok": True,
                "schemas": [h.to_dict()
                            for h in self.registry.handles()]}, 200

    def _op_load(self, req: dict) -> "tuple[dict, int]":
        handle = self.registry.load(_required(req, "name"),
                                    _required(req, "schema"),
                                    root=req.get("root"))
        return {"ok": True, "schema": handle.to_dict()}, 201

    def _op_reload(self, req: dict) -> "tuple[dict, int]":
        handle = self.registry.reload(_required(req, "name"),
                                      req.get("schema"),
                                      root=req.get("root"))
        return {"ok": True, "schema": handle.to_dict()}, 200

    def _op_put(self, req: dict) -> "tuple[dict, int]":
        name = _required(req, "name")
        created = name not in self.registry
        handle = self.registry.put(name, _required(req, "schema"),
                                   root=req.get("root"))
        return {"ok": True,
                "schema": handle.to_dict()}, 201 if created else 200

    def _op_unload(self, req: dict) -> "tuple[dict, int]":
        handle = self.registry.unload(_required(req, "name"))
        return {"ok": True, "schema": handle.to_dict()}, 200

    def _op_metrics(self, req: dict) -> "tuple[dict, int]":
        fmt = req.get("format", "prom")
        if fmt == "json":
            return {"ok": True, "format": "json",
                    "metrics": self.obs.to_dict()}, 200
        if fmt == "prom":
            return {"ok": True, "format": "prom",
                    "metrics": self.obs.to_prometheus()}, 200
        raise ReproError(f"unknown metrics format {fmt!r} "
                        "(known: prom, json)")

    def _op_shutdown(self, req: dict) -> "tuple[dict, int]":
        self.request_shutdown()
        return {"ok": True, "shutting_down": True}, 200

    def _op_validate(self, req: dict) -> "tuple[dict, int]":
        from repro.corpus.cache import result_key_hasher

        handle = self.registry.get(_required(req, "schema"))
        if self.admission_hook is not None:
            self.admission_hook("validate", handle)
        data, hasher = self._document_bytes(req)
        key = result_key_hasher(hasher, handle.fingerprint)
        report = self.cache.get(key) if self.cache is not None else None
        cached = report is not None
        engine_used = None
        if cached:
            self.events.debug("cache-hit", f"{handle.name} {key[:12]}",
                              schema=handle.name, key=key)
        else:
            engine = req.get("engine") or self.default_mode
            t_engine = time.perf_counter()
            report, engine_used = self._validate_bytes(
                handle, data, engine, req.get("_obs"))
            if self.obs:
                self.obs.histogram(
                    "serve_engine_seconds", {"engine": engine_used},
                    help="validate latency by resolved engine",
                    buckets=_LATENCY_BUCKETS).observe(
                        time.perf_counter() - t_engine)
            if self.cache is not None:
                self.cache.put(key, report)
        if not report.ok:
            self.events.info(
                "validation-violations",
                f"{handle.name}: {len(report.violations)} violation(s)",
                schema=handle.name, violations=len(report.violations),
                cached=cached)
        if self.obs:
            self.obs.counter(
                "serve_documents_validated",
                help="validate requests admitted").add(1)
            if cached:
                self.obs.counter(
                    "serve_cache_hits",
                    help="validate requests answered from the "
                    "result cache").add(1)
            self.obs.counter(
                "serve_bytes_read",
                help="document bytes admitted").add(len(data))
            self.obs.counter(
                "serve_schema_requests_total",
                {"schema": handle.name},
                help="validate requests per schema").add(1)
        return {"ok": True, "valid": report.ok, "cached": cached,
                "key": key, "engine": engine_used,
                "schema": {"name": handle.name,
                           "version": handle.version,
                           "fingerprint": handle.fingerprint},
                "report": report.to_dict()}, 200

    def _validate_bytes(self, handle, data: bytes, engine: str,
                        req_obs: Optional[Observability]
                        ) -> "tuple[object, str]":
        """One cache-missing validation; returns ``(report, resolved)``
        where ``resolved`` is the engine that actually ran, as
        :func:`repro.engines.resolve` names it (``auto`` never survives
        resolution).  Reports are byte-identical across engines (the
        E19/E23 equivalence), so the choice is purely a performance
        knob.  Spans/metrics land on the per-request
        handle; :meth:`_finish_request` folds the metrics into the
        lifetime registry."""
        from repro import engines as _engines
        from repro.xmlio import decode_document

        engine = _engines.resolve(engine)
        if engine == "codegen":
            from repro.codegen import CodegenValidator

            validator = CodegenValidator(handle.codegen, obs=req_obs)
            return validator.validate_bytes(data), "codegen"
        if engine == "batch":
            from repro.dtd.validate import validate
            from repro.xmlio.parser import parse_document

            tree = parse_document(decode_document(data),
                                  handle.dtd.structure, obs=req_obs)
            return validate(tree, handle.dtd, obs=req_obs), "batch"
        # third-party engines (and the unknown-name error) route
        # through the registry
        backend = _engines.create(engine, handle, obs=req_obs)
        return backend.validate(decode_document(data)), engine

    def _op_check_corpus(self, req: dict) -> "tuple[dict, int]":
        """Validate many documents in one request — optionally across
        worker processes (``jobs``), whose chunk spans come back under
        this request's trace (the pool boundary crossing)."""
        from repro.corpus import CorpusValidator

        handle = self.registry.get(_required(req, "schema"))
        if self.admission_hook is not None:
            self.admission_hook("check-corpus", handle)
        docs = req.get("documents")
        if not isinstance(docs, list) or not docs:
            raise ReproError(
                "check-corpus needs 'documents': a non-empty list of "
                "xml strings or [doc_id, xml] pairs")
        pairs: "list[tuple[str, str]]" = []
        for i, doc in enumerate(docs):
            if isinstance(doc, str):
                pairs.append((f"doc[{i}]", doc))
            elif isinstance(doc, (list, tuple)) and len(doc) == 2:
                pairs.append((str(doc[0]), str(doc[1])))
            else:
                raise ReproError(
                    f"documents[{i}] must be an xml string or a "
                    "[doc_id, xml] pair")
        try:
            jobs = int(req.get("jobs", 1))
        except (TypeError, ValueError):
            raise ReproError("jobs must be an integer >= 1") from None
        if jobs < 1:
            raise ReproError("jobs must be an integer >= 1")
        engine = req.get("engine") or self.default_mode
        validator = CorpusValidator(
            handle, jobs=jobs, cache=self.cache,
            obs=req.get("_obs"), engine=engine)
        report = validator.validate(pairs)
        if self.obs:
            self.obs.counter(
                "serve_documents_validated",
                help="validate requests admitted").add(len(pairs))
            self.obs.counter(
                "serve_schema_requests_total",
                {"schema": handle.name},
                help="validate requests per schema").add(1)
        data = json.loads(report.to_json())
        return {"ok": True, "valid": report.ok,
                "documents": len(pairs), "jobs": jobs,
                "engine": validator.engine,
                "schema": {"name": handle.name,
                           "version": handle.version,
                           "fingerprint": handle.fingerprint},
                "report": data}, 200

    def _op_check_shard(self, req: dict) -> "tuple[dict, int]":
        """One shard node's unit of work in a sharded corpus run: the
        corpus worker's per-document loop (:mod:`repro.corpus.worker`)
        over this node's documents, on the handle's own scanners (or
        schema, on batch), recording into the request's obs.  Verdicts
        are the pool worker's, so the coordinator's reassembled
        ``verdicts_json`` is byte-identical to a serial run.

        When Σ has merge-class (``L_id``) constraints, every validated
        document exports the aggregates the coordinator folds, taken
        from the run that produced its verdict; an unparseable one
        exports nothing (its verdict carries the error).  The node
        consults no result cache: the coordinator answers its hits
        before shipping and writes every verdict through its own."""
        from repro.corpus.validator import resolve_engine
        from repro.corpus.worker import stream_docs, validate_docs
        from repro.shard.locality import Locality, classify_sigma

        handle = self.registry.get(_required(req, "schema"))
        if self.admission_hook is not None:
            self.admission_hook("check-shard", handle)
        docs = req.get("documents")
        if not isinstance(docs, list) or not docs:
            raise ReproError(
                "check-shard needs 'documents': a non-empty list of "
                "[doc_id, xml] pairs")
        pairs: "list[tuple[str, str]]" = []
        for i, doc in enumerate(docs):
            if isinstance(doc, (list, tuple)) and len(doc) == 2:
                pairs.append((str(doc[0]), str(doc[1])))
            else:
                raise ReproError(
                    f"documents[{i}] must be a [doc_id, xml] pair")
        engine = resolve_engine(req.get("engine") or self.default_mode)
        merge = classify_sigma(handle.dtd)[Locality.MERGE]
        req_obs = req.get("_obs")
        if engine == "codegen":
            verdicts = stream_docs(
                [(doc_id, "text", text) for doc_id, text in pairs],
                handle.codegen, merge, req_obs)
        else:
            verdicts = validate_docs(pairs, handle.dtd, merge, req_obs)
        aggregates = {v["doc"]: v.pop("aggregates")
                      for v in verdicts if "aggregates" in v}
        if self.obs:
            self.obs.counter(
                "serve_documents_validated",
                help="validate requests admitted").add(len(pairs))
            self.obs.counter(
                "serve_schema_requests_total",
                {"schema": handle.name},
                help="validate requests per schema").add(1)
        metrics = []
        if req_obs:
            req_obs.counter(
                "corpus_documents_validated",
                help="documents processed by corpus runs").add(len(pairs))
            metrics = req_obs.metrics.to_dicts()
        return {"ok": True, "documents": len(pairs), "engine": engine,
                "schema": {"name": handle.name,
                           "version": handle.version,
                           "fingerprint": handle.fingerprint},
                "verdicts": verdicts, "aggregates": aggregates,
                "metrics": metrics}, 200

    def _op_lint(self, req: dict) -> "tuple[dict, int]":
        from repro.analysis import LintConfig, analyze

        handle = self.registry.get(_required(req, "schema"))
        if self.admission_hook is not None:
            self.admission_hook("lint", handle)
        config = LintConfig(select=tuple(req.get("select") or ()),
                            ignore=tuple(req.get("ignore") or ()))
        report = analyze(handle.dtd, config, obs=req.get("_obs"))
        return {"ok": True, "clean": report.clean,
                "schema": {"name": handle.name,
                           "version": handle.version},
                "report": json.loads(report.to_json())}, 200

    def _op_synth(self, req: dict) -> "tuple[dict, int]":
        from repro.synthesis import check_satisfiability
        from repro.xmlio.serializer import serialize

        handle = self.registry.get(_required(req, "schema"))
        if self.admission_hook is not None:
            self.admission_hook("synth", handle)
        report = check_satisfiability(handle.dtd, obs=req.get("_obs"))
        return {"ok": True,
                "schema": {"name": handle.name,
                           "version": handle.version},
                **report.to_dict(),
                "witness": serialize(report.witness)
                if report.witness is not None else None}, 200

    def _op_stats(self, req: dict) -> "tuple[dict, int]":
        return self.stats(), 200

    def _op_trace(self, req: dict) -> "tuple[dict, int]":
        trace_id = str(_required(req, "trace_id")).lower()
        payload = self.traces.get(trace_id)
        if payload is None:
            return _error(
                "not-found",
                f"no stored trace {trace_id!r} "
                f"({len(self.traces)} of {self.traces.capacity} "
                "slots in use; traces are stored only for sampled "
                "requests)"), 404
        if not isinstance(payload, dict):  # raw span tree: render once
            payload = trace_events(payload, trace_id=trace_id)
            self.traces.put(trace_id, payload)
        return {"ok": True, "trace_id": trace_id,
                "trace": payload}, 200

    _OPS = {
        "ping": _op_ping,
        "schemas": _op_schemas,
        "load": _op_load,
        "reload": _op_reload,
        "put": _op_put,
        "unload": _op_unload,
        "metrics": _op_metrics,
        "shutdown": _op_shutdown,
        "validate": _op_validate,
        "check-corpus": _op_check_corpus,
        "check-shard": _op_check_shard,
        "lint": _op_lint,
        "synth": _op_synth,
        "stats": _op_stats,
        "trace": _op_trace,
    }

    def stats(self) -> dict:
        """The live-health snapshot behind ``GET /v1/stats`` and
        ``repro-xic top``: request rate, latency quantiles (overall and
        per-op), cache hit ratio, per-schema counts, slow-request tail,
        trace-store and event-log occupancy."""
        requests = errors = 0
        by_schema: "dict[str, float]" = {}
        validated = hits = 0.0
        by_op: "dict[str, dict]" = {}
        overall = Histogram("serve_request_seconds", (),
                            buckets=_LATENCY_BUCKETS)
        if self.obs and self.obs.metrics.enabled:
            m = self.obs.metrics
            for labels, value in m.values("serve_requests_total").items():
                requests += value
                if dict(labels).get("outcome") == "error":
                    errors += value
            for labels, value in m.values(
                    "serve_schema_requests_total").items():
                by_schema[dict(labels).get("schema", "?")] = value
            validated = m.total("serve_documents_validated")
            hits = m.total("serve_cache_hits")
            for inst in m.collect():
                if inst.name != "serve_request_seconds" or \
                        not isinstance(inst, Histogram):
                    continue
                op = inst.label_dict().get("op", "?")
                by_op[op] = _latency_summary(inst)
                overall.count += inst.count
                overall.total += inst.total
                for i, n in enumerate(inst.bucket_counts):
                    overall.bucket_counts[i] += n
                if inst.min is not None and (overall.min is None
                                             or inst.min < overall.min):
                    overall.min = inst.min
                if inst.max is not None and (overall.max is None
                                             or inst.max > overall.max):
                    overall.max = inst.max
        return {
            "ok": True,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "rps": round(self.window.rate(), 3),
            "requests": {"total": int(requests), "errors": int(errors)},
            "latency": {"overall": _latency_summary(overall),
                        "by_op": by_op},
            "cache": {
                "enabled": self.cache is not None,
                "validated": int(validated),
                "hits": int(hits),
                "hit_ratio": round(hits / validated, 4)
                if validated else None,
            },
            "schemas": {"loaded": self.registry.names(),
                        "requests": by_schema},
            "slow": {"threshold_ms": self.slow_ms,
                     "total": self.slow.total,
                     "recent": self.slow.tail(10)},
            "traces": {"sample_rate": self.sample,
                       "stored": len(self.traces),
                       "capacity": self.traces.capacity,
                       "recent_ids": self.traces.ids()[-5:]},
            "events": {"emitted": self.events.emitted,
                       "dropped": self.events.dropped,
                       "buffered": len(self.events),
                       "by_level": self.events.counts()},
        }

    def _document_bytes(self, req: dict) -> "tuple[bytes, object]":
        """The document bytes of a validate request plus a SHA-256
        hasher that has consumed exactly those bytes.

        HTTP requests arrive with the hasher already fed by the framing
        layer (``_hasher``); JSONL requests carry inline ``document``
        text or a server-local ``document_path`` (read in binary so the
        key matches the corpus path-input convention byte for byte).
        """
        if "_body" in req:
            return req["_body"], req["_hasher"]
        if "document" in req:
            data = encode_document(str(req["document"]))
        elif "document_path" in req:
            with open(req["document_path"], "rb") as fh:
                data = fh.read()
        else:
            raise ReproError(
                "validate needs 'document' (inline XML text) or "
                "'document_path' (server-local file)")
        hasher = hashlib.sha256()
        hasher.update(data)
        return data, hasher

    # ------------------------------------------------------------------
    # HTTP transport
    # ------------------------------------------------------------------

    async def start_http(self, host: str = "127.0.0.1",
                         port: int = 0) -> "tuple[str, int]":
        """Bind the HTTP front door; returns ``(host, port)`` (the
        ephemeral port is resolved when ``port=0``)."""
        self._http = await asyncio.start_server(
            self._handle_http_conn, host, port, limit=STREAM_LIMIT)
        self.http_address = self._http.sockets[0].getsockname()[:2]
        return self.http_address

    async def _handle_http_conn(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        entry = (asyncio.current_task(), writer)
        self._conns.add(entry)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(writer, HttpResponse(
                        status=exc.status,
                        body=_json_bytes(_error("bad-request",
                                                exc.message))),
                        keep_alive=False)
                    break
                if request is None:
                    break
                response = self._route_http(request)
                await write_response(writer, response,
                                     request.keep_alive)
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._conns.discard(entry)
            await _close_writer(writer)

    def _route_http(self, request: HttpRequest) -> HttpResponse:
        """Map an HTTP request onto the shared dispatcher."""
        try:
            return self._route_http_inner(request)
        except UnicodeDecodeError as exc:
            return HttpResponse(status=400,
                                body=_json_bytes(_error("bad-request",
                                                        exc)))

    def _route_http_inner(self, request: HttpRequest) -> HttpResponse:
        method, seg = request.method, request.segments
        if seg == ["healthz"]:
            req: dict = {"op": "ping"}
        elif seg == ["metrics"]:
            if method != "GET":
                return _method_not_allowed(method)
            return HttpResponse(
                body=self.obs.to_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        elif seg == ["v1", "schemas"]:
            req = {"op": "schemas"}
        elif seg == ["v1", "stats"]:
            if method != "GET":
                return _method_not_allowed(method)
            req = {"op": "stats"}
        elif len(seg) == 3 and seg[:2] == ["v1", "traces"]:
            if method != "GET":
                return _method_not_allowed(method)
            req = {"op": "trace", "trace_id": seg[2]}
        elif seg == ["v1", "shutdown"]:
            if method != "POST":
                return _method_not_allowed(method)
            req = {"op": "shutdown"}
        elif len(seg) == 3 and seg[:2] == ["v1", "schemas"]:
            if method == "PUT":
                req = {"op": "put", "name": seg[2],
                       "schema": request.body.decode("utf-8"),
                       "root": request.query.get("root")}
            elif method == "DELETE":
                req = {"op": "unload", "name": seg[2]}
            else:
                return _method_not_allowed(method)
        elif len(seg) == 3 and seg[:2] == ["v1", "check-corpus"]:
            if method != "POST":
                return _method_not_allowed(method)
            try:
                body = json.loads(request.body.decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                return HttpResponse(status=400, body=_json_bytes(_error(
                    "bad-request",
                    f"unparseable check-corpus body: {exc}")))
            req = {"op": "check-corpus", "schema": seg[2]}
            for field in ("documents", "jobs", "engine"):
                if field in body:
                    req[field] = body[field]
        elif len(seg) == 3 and seg[0] == "v1" and \
                seg[1] in ("validate", "lint", "synth"):
            if method != "POST":
                return _method_not_allowed(method)
            req = {"op": seg[1], "schema": seg[2]}
            if seg[1] == "validate":
                req["_body"] = request.body
                req["_hasher"] = request.hasher
                if "engine" in request.query:
                    req["engine"] = request.query["engine"]
            elif seg[1] == "lint":
                for flag in ("select", "ignore"):
                    if request.query.get(flag):
                        req[flag] = [s for s in
                                     request.query[flag].split(",") if s]
        else:
            return HttpResponse(status=404, body=_json_bytes(_error(
                "not-found", f"no route {method} {request.path}")))
        # Telemetry admission inputs, uniform across every dict route:
        # the W3C traceparent header, and ``?trace=1`` forcing sampling
        # plus an inline trace in the response.
        traceparent = request.headers.get("traceparent")
        if traceparent:
            req.setdefault("traceparent", traceparent)
        if request.query.get("trace", "0").lower() not in ("0", "false",
                                                           "no", ""):
            req["_want_trace"] = True
        payload, status = self.handle_request(req)
        return HttpResponse(status=status, body=_json_bytes(payload))

    # ------------------------------------------------------------------
    # JSONL transport
    # ------------------------------------------------------------------

    async def serve_jsonl(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """One request object per line in, one response per line out.

        Returns on EOF, on a ``shutdown`` op, or when the server is
        shutting down, closing ``writer`` on every way out.  It is a
        connection handler for a TCP JSONL listener
        (``asyncio.start_server(server.serve_jsonl, …)``); the stdio mode
        has its own loop, :meth:`serve_stdio`.
        """
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    payload = _error("bad-request",
                                     "request line too long")
                    writer.write(_json_bytes(payload) + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    payload = _error("bad-request", f"unparseable request: "
                                     f"{exc}")
                else:
                    payload, _status = self.handle_request(req)
                writer.write(_json_bytes(payload) + b"\n")
                await writer.drain()
        finally:
            await _close_writer(writer)

    async def serve_stdio(self) -> None:
        """JSONL over this process's stdin/stdout.

        Reads happen on a dedicated *daemon* thread feeding an asyncio
        queue — a TTY, a pipe, and a test double all work, and a thread
        still blocked in ``readline`` cannot hang interpreter shutdown
        the way a default-executor worker would.  The loop ends at EOF
        (closing stdin is the clean way to stop a ``repro-xic serve
        --stdio`` daemon), on a ``shutdown`` op, or when the server
        shuts down through another transport.
        """
        import threading

        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Optional[str]]" = asyncio.Queue()

        def _pump() -> None:
            try:
                for raw in sys.stdin:
                    loop.call_soon_threadsafe(queue.put_nowait, raw)
                loop.call_soon_threadsafe(queue.put_nowait, None)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

        threading.Thread(target=_pump, daemon=True,
                         name="repro-serve-stdin").start()
        while not self._shutdown.is_set():
            getter = asyncio.ensure_future(queue.get())
            stopper = asyncio.ensure_future(self._shutdown.wait())
            done, pending = await asyncio.wait(
                {getter, stopper}, return_when=asyncio.FIRST_COMPLETED)
            for task in pending:
                task.cancel()
            if getter not in done:
                break
            line = getter.result()
            if line is None:
                break
            line = line.strip()
            if not line:
                continue
            try:
                req = json.loads(line)
                if not isinstance(req, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                payload = _error("bad-request",
                                 f"unparseable request: {exc}")
            else:
                payload, _status = self.handle_request(req)
            print(json.dumps(payload, sort_keys=True), flush=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the serve loops to wind down (idempotent)."""
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def close(self) -> None:
        """Stop accepting connections, end open keep-alive exchanges,
        and release the listening socket."""
        self.request_shutdown()
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
            self._http = None
        conns = list(self._conns)
        for _task, writer in conns:
            writer.close()  # handlers see EOF and finish cleanly
        if conns:
            await asyncio.wait({task for task, _w in conns}, timeout=5)
        self.events.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<ValidationServer schemas={self.registry.names()} "
                f"http={self.http_address} "
                f"cache={'on' if self.cache is not None else 'off'}>")


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a connection's writer and wait until its socket is closed,
    so it is not left to the collector."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover
        pass


def _required(req: dict, field: str) -> str:
    value = req.get(field)
    if value is None:
        raise ReproError(f"request is missing the {field!r} field")
    return value


def _error(code: str, exc) -> dict:
    return {"ok": False, "code": code, "error": str(exc)}


def _latency_summary(hist: Histogram) -> dict:
    """count + mean/p50/p90/p99/max in milliseconds for ``/v1/stats``."""

    def _ms(value: Optional[float]) -> Optional[float]:
        return round(value * 1000.0, 3) if value is not None else None

    return {
        "count": hist.count,
        "mean_ms": _ms(hist.mean),
        "p50_ms": _ms(hist.quantile(0.5)),
        "p90_ms": _ms(hist.quantile(0.9)),
        "p99_ms": _ms(hist.quantile(0.99)),
        "max_ms": _ms(hist.max),
    }


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _method_not_allowed(method: str) -> HttpResponse:
    return HttpResponse(status=405, body=_json_bytes(_error(
        "bad-request", f"method {method} not allowed here")))
