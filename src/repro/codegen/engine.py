"""Build a schema's scanners and run documents through them.

:func:`compile_schema` is the one producer of :class:`CompiledSchema`
objects: it builds the scanners of :mod:`repro.codegen.runtime`
in-process from a compiled :class:`~repro.stream.plan.StreamPlan` —
once per :class:`~repro.server.registry.SchemaHandle` (memoized on
``handle.codegen``) and once per corpus worker process.
:class:`CodegenValidator` is the document-facing wrapper with the
``validate``/``validate_text``/``validate_path`` surface, plus the
zero-copy ``validate_bytes``/``mmap`` file path: pure-ASCII input
(checked with ``bytes.isascii()`` over slices of at most
:data:`_ASCII_SLICE` bytes) is validated directly over the byte buffer
without decoding; anything else is decoded as UTF-8
(:func:`~repro.xmlio.decode_document`) and takes the ``str`` scanner,
so reports — error messages and line numbers included — are the same
for every input form.
"""

from __future__ import annotations

import mmap
import os

from repro.codegen.runtime import RunState, run_labels, scanners
from repro.obs import NULL_OBS
from repro.xmlio import decode_document

__all__ = ["CodegenValidator", "CompiledSchema", "compile_schema"]

#: the pre-scan copies an ``mmap`` out in slices of this many bytes; any
#: byte outside ASCII forces the decoded-str scanner (regex \w and
#: str.strip() Unicode semantics, and the decode error's parity)
_ASCII_SLICE = 1 << 16


def _is_ascii(buf) -> bool:
    """Whether every byte of ``buf`` (``bytes`` or ``mmap``) is ASCII; a
    map is copied out one bounded slice at a time, never whole."""
    if type(buf) is bytes:
        return buf.isascii()
    for i in range(0, len(buf), _ASCII_SLICE):
        if not buf[i:i + _ASCII_SLICE].isascii():
            return False
    return True


class CompiledSchema:
    """One schema's scanners, bound to its plan."""

    __slots__ = ("fingerprint", "runs", "plan", "scan_str", "scan_bytes")

    def __init__(self, fingerprint: str, runs: "dict[str, bool]", plan,
                 scan_str, scan_bytes):
        self.fingerprint = fingerprint
        #: the labels whose runs take the scanners' fast path
        #: (:func:`~repro.codegen.runtime.run_labels`)
        self.runs = runs
        self.plan = plan
        self.scan_str = scan_str
        self.scan_bytes = scan_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<CompiledSchema {self.fingerprint[:12]} "
                f"{len(self.runs)} run label(s)>")


def compile_schema(plan, fingerprint: str, obs=None) -> CompiledSchema:
    """``plan``'s scanners, built in-process; every schema compiles."""
    obs = obs or NULL_OBS
    if not obs.enabled:
        return _compile(plan, fingerprint)
    with obs.span("codegen.compile", fingerprint=fingerprint[:12]):
        compiled = _compile(plan, fingerprint)
    obs.counter("codegen_compilations",
                help="codegen scanner builds").add(1)
    return compiled


def _compile(plan, fingerprint: str) -> CompiledSchema:
    runs = run_labels(plan)
    scan_str, scan_bytes = scanners(plan, runs)
    return CompiledSchema(fingerprint, runs, plan, scan_str, scan_bytes)


class CodegenValidator:
    """Validate documents through one compiled schema, one pass each.

    ``schema`` is a :class:`~repro.server.registry.SchemaHandle`, a
    ``DTDC``, or a prebound :class:`CompiledSchema`; a handle (and so a
    ``DTDC``) builds its scanners once, on first use.
    """

    def __init__(self, schema, obs=None):
        self.obs = obs or NULL_OBS
        if isinstance(schema, CompiledSchema):
            self.compiled = schema
        else:
            from repro.server.registry import as_handle

            self.compiled = as_handle(schema).codegen
        #: the :class:`RunState` of the most recent document, kept until
        #: the next one: its finished evaluators are what a shard node
        #: exports as the document's ``L_id`` merge aggregates
        self.last_run: "RunState | None" = None

    def validate(self, source):
        """Validate a path (:class:`os.PathLike`) or a string that is
        either XML text (starts with ``<``) or a filesystem path."""
        if isinstance(source, os.PathLike):
            return self.validate_path(os.fspath(source))
        if source.lstrip().startswith("<"):
            return self.validate_text(source)
        return self.validate_path(source)

    def _finish_span(self, span, rs, report):
        span.set(elements=rs.next_vid, skipped=rs.n_skipped,
                 violations=len(report))

    def validate_text(self, text: str):
        obs = self.obs
        rs = self.last_run = RunState(self.compiled.plan, obs)
        if not obs.enabled:
            return self.compiled.scan_str(text, rs)
        with obs.span("codegen.validate", chars=len(text)) as span:
            report = self.compiled.scan_str(text, rs)
            self._finish_span(span, rs, report)
        return report

    def validate_bytes(self, data):
        """Validate raw document bytes (any other buffer is copied to
        ``bytes`` once); pure-ASCII input never decodes."""
        if type(data) is not bytes:
            data = bytes(data)
        if not _is_ascii(data):
            return self.validate_text(decode_document(data))
        obs = self.obs
        rs = self.last_run = RunState(self.compiled.plan, obs)
        if not obs.enabled:
            return self.compiled.scan_bytes(data, rs)
        with obs.span("codegen.validate", chars=len(data)) as span:
            report = self.compiled.scan_bytes(data, rs)
            self._finish_span(span, rs, report)
        return report

    def validate_path(self, path: str):
        """Validate a file via ``mmap`` — the zero-copy path: the kernel
        pages the document in, the scanner skips Σ-irrelevant runs
        without decoding, and only start-tag attribute spans and
        captured text become strings."""
        with open(path, "rb") as fh:
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                # empty files and exotic filesystems cannot be mapped
                return self.validate_bytes(fh.read())
            with mm:
                if not _is_ascii(mm):
                    return self.validate_text(decode_document(mm[:]))
                obs = self.obs
                rs = self.last_run = RunState(self.compiled.plan, obs)
                if not obs.enabled:
                    return self.compiled.scan_bytes(mm, rs)
                with obs.span("codegen.validate", chars=len(mm)) as span:
                    report = self.compiled.scan_bytes(mm, rs)
                    self._finish_span(span, rs, report)
                return report
