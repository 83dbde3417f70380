"""The per-document half of corpus validation.

One loop per engine validates a list of documents and returns one
JSON-safe verdict dict per document, taking everything it needs as
arguments: :func:`validate_docs` (parse, then validate) and
:func:`stream_docs` (one codegen pass over text or raw file bytes).
Two callers run them:

- the process pool, through :func:`validate_chunk` and
  :func:`stream_chunk`.  They read the per-process state
  :func:`init_worker` installed, run the loop under a ``corpus.chunk``
  span and export the chunk's metrics and spans for the coordinator to
  merge.  Everything here is module-level so ``multiprocessing`` can
  pickle it by reference; the initializer receives the ``DTD^C`` once
  per worker, so chunk tasks carry only ``(doc_id, xml_text)`` pairs
  (or ``(doc_id, kind, value)`` triples for the single-pass path) in
  and JSON-safe dicts out.  ``jobs=1`` runs the exact same functions
  in-process, which is what makes the serial fallback bit-identical to
  the pooled path;
- a shard node's ``check-shard`` (:mod:`repro.server.daemon`), with its
  own schema handle, Σ's merge-class (``L_id``) positions and the
  request's obs.

Given merge-class positions, the verdict of a validated document also
carries its ``"aggregates"``: the
:func:`~repro.shard.aggregates.aggregates_of` view of the evaluators
(on the single-pass path: the constraint kernels and evaluators) that
produced the verdict, so a node exports them without validating the
document a second time.  The pool passes none, because nothing folds
them.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.corpus.cache import result_key_bytes, schema_fingerprint
from repro.dtd.dtdc import DTDC
from repro.dtd.validate import validate
from repro.errors import ReproError
from repro.obs import Observability, activate, parse_traceparent
from repro.xmlio.parser import parse_document

__all__ = ["init_worker", "stream_chunk", "stream_docs", "validate_chunk",
           "validate_docs"]

#: Per-process state seeded by :func:`init_worker`.
_STATE: dict = {}


def validate_docs(pairs: "list[tuple[str, str]]", dtd: DTDC,
                  merge: Sequence[int] = (),
                  obs: Optional[Observability] = None) -> "list[dict]":
    """Parse and validate ``(doc_id, xml_text)`` pairs, in order.

    One verdict dict per document: ``report`` is a
    :meth:`~repro.constraints.violations.ViolationReport.to_dict`
    payload, or ``None`` with ``error`` set when the document failed to
    parse.  With ``merge`` positions, a validated document's verdict
    also carries its ``"aggregates"`` from the parsed tree.
    """
    # repro.shard imports the corpus package, so every repro.shard
    # import in this module is deferred to call time
    from repro.shard.aggregates import extract_aggregates

    verdicts = []
    for doc_id, text in pairs:
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
    return verdicts


def stream_docs(entries: "list[tuple[str, str, str]]", compiled,
                merge: Sequence[int] = (),
                obs: Optional[Observability] = None) -> "list[dict]":
    """Single-pass-validate ``(doc_id, kind, value)`` triples, in order,
    with ``compiled``'s scanners (a
    :class:`~repro.codegen.CompiledSchema`).

    ``kind`` is ``"path"`` (the file is read here, hashing the raw
    bytes for the cache key during the same read) or ``"text"``.  The
    verdicts are :func:`validate_docs`'s, with one addition: each
    carries its ``"key"`` so the coordinator can fill in keys it chose
    not to compute up front.  A text's is None: every coordinator keys
    the text it ships (:func:`~repro.corpus.validator.prepare_entries`).
    Merge aggregates come from the finished run that produced the
    verdict (``sv.last_run``): the ``L_id`` kernels' state, or an
    evaluator's where the constraint stays on one (an ``IDInverse``, a
    sub-element reference).
    """
    from repro.codegen import CodegenValidator
    from repro.shard.aggregates import aggregates_of

    fingerprint: str = compiled.fingerprint
    sv = CodegenValidator(compiled, obs=obs)
    verdicts = []
    for doc_id, kind, value in entries:
        key: Optional[str] = None
        try:
            if kind == "path":
                with open(value, "rb") as handle:
                    data = handle.read()
                key = result_key_bytes(data, fingerprint)
                report = sv.validate_bytes(data)
            else:
                report = sv.validate_text(value)
            verdict = {"doc": doc_id, "key": key, "error": None}
            if merge:
                verdict["aggregates"] = aggregates_of(
                    sv.last_run.evaluators, merge)
            # the run outlives the call only to hand over its
            # aggregates; free it before the report is serialized so
            # it does not add to the worker's peak memory
            sv.last_run = None
            verdict["report"] = report.to_dict()
            verdicts.append(verdict)
        except ReproError as exc:
            verdicts.append({"doc": doc_id, "key": key,
                             "report": None, "error": str(exc)})
    return verdicts


def init_worker(dtd: DTDC, collect_obs: bool, plan=None,
                fingerprint: "str | None" = None,
                traceparent: "str | None" = None) -> None:
    """Install the schema (and obs policy) for this worker process.

    ``plan`` is the coordinator's compiled
    :class:`~repro.codegen.StreamPlan` when the run is single-pass —
    shipped once per worker, which builds the codegen scanners from it
    here, once, for every :func:`stream_chunk` call to share (a serial
    run that calls this again with the same plan keeps them).  The
    coordinator likewise ships its ``fingerprint`` so workers never
    re-hash the schema (recomputed only when a caller omits it), and —
    when the run happens under a request — the ``traceparent`` wire
    form of its :class:`~repro.obs.TraceContext`, so every chunk span
    this worker produces carries the originating request's trace_id and
    re-parents under it on merge.
    """
    _STATE["dtd"] = dtd
    _STATE["collect_obs"] = collect_obs
    _STATE["traceparent"] = traceparent
    compiled = _STATE.get("compiled")
    if plan is not None and (compiled is None or compiled.plan is not plan):
        from repro.codegen import compile_schema

        _STATE["compiled"] = compile_schema(
            plan, fingerprint or schema_fingerprint(dtd))


def _chunk(chunk: list, loop) -> dict:
    """``loop(obs)`` over one pool chunk, packaged for the coordinator:
    ``{"verdicts": [...], "metrics": [...], "spans": [...]}``.  When the
    run collects observability, the loop records into a fresh handle
    under a ``corpus.chunk`` span that joins the run's trace."""
    if not _STATE.get("collect_obs"):
        return {"verdicts": loop(None), "metrics": [], "spans": []}
    obs = Observability()
    with activate(parse_traceparent(_STATE.get("traceparent"))), \
            obs.span("corpus.chunk", pid=os.getpid(), docs=len(chunk)):
        verdicts = loop(obs)
    return {"verdicts": verdicts, "metrics": obs.metrics.to_dicts(),
            "spans": obs.tracer.to_dicts()}


def validate_chunk(chunk: "list[tuple[str, str]]") -> dict:
    """The pool entry of :func:`validate_docs`: one chunk of
    ``(doc_id, xml_text)`` pairs, verdicts in chunk order plus this
    call's observability export."""
    dtd: DTDC = _STATE["dtd"]
    return _chunk(chunk, lambda obs: validate_docs(chunk, dtd, obs=obs))


def stream_chunk(chunk: "list[tuple[str, str, str]]") -> dict:
    """The pool entry of :func:`stream_docs`: one chunk of
    ``(doc_id, kind, value)`` triples, with :func:`validate_chunk`'s
    payload shape."""
    compiled = _STATE["compiled"]
    return _chunk(chunk, lambda obs: stream_docs(chunk, compiled, obs=obs))
