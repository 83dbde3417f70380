"""The per-worker half of corpus validation.

Everything here is module-level so ``multiprocessing`` can pickle it by
reference.  The pool initializer receives the ``DTD^C`` once per worker
(pickled by ``multiprocessing`` itself), so Σ and the structure are
materialized a single time per process; chunk tasks then carry only
``(doc_id, xml_text)`` pairs (or ``(doc_id, kind, value)`` triples for
the single-pass path) in and JSON-safe dicts out.

``jobs=1`` runs the exact same two functions in-process, which is what
makes the serial fallback bit-identical to the pooled path.

When Σ has merge-class (``L_id``) constraints, each verdict of a
validated document also carries its ``"aggregates"`` — the
:func:`~repro.shard.aggregates.aggregates_of` view of the evaluators
(on the single-pass path: the constraint kernels and evaluators) that
produced the verdict — so a shard node exports them without
validating the document a second time.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.corpus.cache import result_key, result_key_bytes, \
    schema_fingerprint
from repro.dtd.dtdc import DTDC
from repro.dtd.validate import validate
from repro.errors import ReproError
from repro.obs import Observability, activate, parse_traceparent
from repro.xmlio.parser import parse_document

__all__ = ["init_worker", "stream_chunk", "validate_chunk"]

#: Per-process state seeded by :func:`init_worker`.
_STATE: dict = {}


def init_worker(dtd: DTDC, collect_obs: bool, plan=None,
                fingerprint: "str | None" = None,
                traceparent: "str | None" = None) -> None:
    """Install the schema (and obs policy) for this worker process.

    ``plan`` is the coordinator's compiled
    :class:`~repro.stream.StreamPlan` when the run is single-pass —
    shipped once per worker, which builds the codegen scanners from it
    here, once, for every :func:`stream_chunk` call to share (a serial
    run that calls this again with the same plan keeps them).  The
    coordinator likewise ships its ``fingerprint`` so workers never
    re-hash the schema (recomputed only when an old caller omits it),
    and — when the run happens under a request — the ``traceparent``
    wire form of its :class:`~repro.obs.TraceContext`, so every chunk
    span this worker produces carries the originating request's
    trace_id and re-parents under it on merge.

    Whether verdicts carry merge aggregates follows Σ alone: the
    merge-class positions (:func:`~repro.shard.locality.classify_sigma`)
    are resolved here, once per worker.
    """
    # repro.shard imports the corpus package, so every repro.shard
    # import in this module is deferred to call time
    from repro.shard.locality import Locality, classify_sigma

    _STATE["dtd"] = dtd
    _STATE["collect_obs"] = collect_obs
    _STATE["fingerprint"] = fingerprint or schema_fingerprint(dtd)
    _STATE["traceparent"] = traceparent
    _STATE["merge"] = classify_sigma(dtd)[Locality.MERGE]
    compiled = _STATE.get("compiled")
    if plan is not None and (compiled is None or compiled.plan is not plan):
        from repro.codegen import compile_schema

        _STATE["compiled"] = compile_schema(plan, _STATE["fingerprint"])


def _chunk_obs(n_docs: int) -> "tuple[Optional[Observability], object]":
    """The per-chunk obs handle and its open ``corpus.chunk`` span
    (entered; the caller must exit).  ``(None, None)`` when the run
    does not collect observability."""
    if not _STATE.get("collect_obs"):
        return None, None
    obs = Observability()
    ctx = parse_traceparent(_STATE.get("traceparent"))
    with activate(ctx):
        # The span captures the ambient context while it is active;
        # the context itself need not stay installed for the body.
        span = obs.span("corpus.chunk", pid=os.getpid(), docs=n_docs)
        span.__enter__()
    return obs, span


def validate_chunk(chunk: "list[tuple[str, str]]") -> dict:
    """Validate a chunk of ``(doc_id, xml_text)`` pairs.

    Returns ``{"verdicts": [...], "metrics": [...], "spans": [...]}``:
    one verdict dict per document *in chunk order* (``report`` is a
    :meth:`~repro.constraints.violations.ViolationReport.to_dict`
    payload, or ``None`` with ``error`` set when the document failed to
    parse; ``aggregates`` rides along when Σ has merge-class
    constraints), plus this call's observability export for the
    coordinator to merge.
    """
    from repro.shard.aggregates import extract_aggregates

    dtd: DTDC = _STATE["dtd"]
    merge = _STATE["merge"]
    obs, span = _chunk_obs(len(chunk))
    verdicts = []
    try:
        for doc_id, text in chunk:
            try:
                tree = parse_document(text, dtd.structure, obs=obs)
                report = validate(tree, dtd, obs=obs)
                verdict = {"doc": doc_id, "report": report.to_dict(),
                           "error": None}
                if merge:
                    verdict["aggregates"] = extract_aggregates(dtd, tree)
                verdicts.append(verdict)
            except ReproError as exc:
                verdicts.append({"doc": doc_id, "report": None,
                                 "error": str(exc)})
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    return {
        "verdicts": verdicts,
        "metrics": obs.metrics.to_dicts() if obs else [],
        "spans": obs.tracer.to_dicts() if obs else [],
    }


def stream_chunk(chunk: "list[tuple[str, str, str]]") -> dict:
    """Single-pass-validate a chunk of ``(doc_id, kind, value)`` triples.

    ``kind`` is ``"path"`` (the worker reads the file itself, hashing the
    raw bytes for the cache key during the same read) or ``"text"``.
    The payload shape matches :func:`validate_chunk`, with one addition:
    each verdict carries its ``"key"`` so the coordinator can fill in
    keys it chose not to compute up front.  Merge aggregates come from
    the finished run that produced the verdict (``sv.last_run``): the
    ``L_id`` kernels' state, or an evaluator's where the constraint
    stays on one (an ``IDInverse``, a sub-element reference).
    """
    from repro.codegen import CodegenValidator
    from repro.shard.aggregates import aggregates_of

    fingerprint: str = _STATE["fingerprint"]
    merge = _STATE["merge"]
    obs, span = _chunk_obs(len(chunk))
    sv = CodegenValidator(_STATE["compiled"], obs=obs)
    verdicts = []
    try:
        for doc_id, kind, value in chunk:
            key: Optional[str] = None
            try:
                if kind == "path":
                    with open(value, "rb") as handle:
                        data = handle.read()
                    key = result_key_bytes(data, fingerprint)
                    report = sv.validate_bytes(data)
                else:
                    key = result_key(value, fingerprint)
                    report = sv.validate_text(value)
                verdict = {"doc": doc_id, "key": key, "error": None}
                if merge:
                    verdict["aggregates"] = aggregates_of(
                        sv.last_run.evaluators, merge)
                # the run outlives the call only to hand over its
                # aggregates; free it before the report is serialized
                # so it does not add to the worker's peak memory
                sv.last_run = None
                verdict["report"] = report.to_dict()
                verdicts.append(verdict)
            except ReproError as exc:
                verdicts.append({"doc": doc_id, "key": key,
                                 "report": None, "error": str(exc)})
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    return {
        "verdicts": verdicts,
        "metrics": obs.metrics.to_dicts() if obs else [],
        "spans": obs.tracer.to_dicts() if obs else [],
    }
