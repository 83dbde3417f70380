"""Execute generated validators: compile, cache, and run documents.

:func:`compile_schema` is the one producer of
:class:`CompiledSchema` objects: source from the on-disk cache (or
freshly generated and stored), ``exec``'d once per fingerprint per
process, then bound to the live plan.  :class:`CodegenValidator` is the
document-facing wrapper with the same ``validate``/``validate_text``/
``validate_path`` surface as
:class:`~repro.stream.validator.StreamValidator`, plus the zero-copy
``validate_bytes``/``mmap`` file path: pure-ASCII input (checked with
``bytes.isascii()`` over slices of at most :data:`_ASCII_SLICE` bytes)
is validated directly over the byte buffer without decoding; anything
else falls back to a full UTF-8 decode so reports — including error
messages and line numbers — stay byte-identical to the streaming
interpreter.
"""

from __future__ import annotations

import mmap
import os
import threading

from repro.codegen import cache as _disk
from repro.codegen.generate import CompileError, generate_source
from repro.codegen.runtime import RunState
from repro.obs import NULL_OBS

__all__ = ["CodegenValidator", "CompiledSchema", "compile_schema",
           "load_compiled"]

#: the pre-scan copies an ``mmap`` out in slices of this many bytes; any
#: byte outside ASCII forces the decoded-str scanner (regex \w and
#: str.strip() Unicode semantics, and UnicodeDecodeError parity)
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


#: fingerprint -> exec'd module namespace (one exec per process)
_MODULES: dict[str, dict] = {}
_MODULES_LOCK = threading.Lock()


class CompiledSchema:
    """One schema's generated validator, bound to its live plan."""

    __slots__ = ("fingerprint", "source", "plan", "scan_str", "scan_bytes")

    def __init__(self, fingerprint: str, source: str, plan,
                 scan_str, scan_bytes):
        self.fingerprint = fingerprint
        #: the generated module text (what the on-disk cache stores)
        self.source = source
        self.plan = plan
        self.scan_str = scan_str
        self.scan_bytes = scan_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<CompiledSchema {self.fingerprint[:12]} "
                f"{len(self.source)} chars>")


def _namespace(fingerprint: str, source: str) -> dict:
    ns = _MODULES.get(fingerprint)
    if ns is None:
        code = compile(source, f"<repro-codegen {fingerprint[:12]}>",
                       "exec")
        ns = {}
        exec(code, ns)
        with _MODULES_LOCK:
            _MODULES.setdefault(fingerprint, ns)
            ns = _MODULES[fingerprint]
    return ns


def compile_schema(plan, fingerprint: str, obs=None) -> CompiledSchema:
    """Source for ``fingerprint`` (disk cache or fresh), exec'd and
    bound to ``plan``.

    Raises :class:`CompileError` when the schema is outside the codegen
    subset (non-ASCII names, content-model DFA blowup) — callers fall
    back to the streaming interpreter.
    """
    obs = obs or NULL_OBS
    if not obs.enabled:
        return _compile(plan, fingerprint, obs)
    with obs.span("codegen.compile", fingerprint=fingerprint[:12]):
        return _compile(plan, fingerprint, obs)


def _compile(plan, fingerprint: str, obs) -> CompiledSchema:
    source = _disk.load_source(fingerprint)
    origin = "disk-cache"
    if source is None:
        source = generate_source(plan, fingerprint)
        _disk.store_source(fingerprint, source)
        origin = "generated"
    compiled = load_compiled(fingerprint, source, plan)
    if obs.enabled:
        obs.counter("codegen_compilations", {"origin": origin},
                    help="codegen engine compilations, by source origin "
                    "(generated vs the on-disk source cache)").add(1)
    return compiled


def load_compiled(fingerprint: str, source: str, plan) -> CompiledSchema:
    """Bind already-obtained source to a plan (corpus workers receive
    the text via ``initargs`` and skip cache and generator entirely)."""
    ns = _namespace(fingerprint, source)
    scan_str, scan_bytes = ns["bind"](plan)
    return CompiledSchema(fingerprint, source, plan, scan_str, scan_bytes)


class CodegenValidator:
    """Validate documents through one compiled schema, one pass each.

    ``schema`` is a :class:`~repro.server.registry.SchemaHandle`, a
    ``DTDC``, or a prebound :class:`CompiledSchema`.  Construction
    triggers (cached) compilation and raises :class:`CompileError` for
    schemas outside the codegen subset.
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
            return self.validate_text(data.decode("utf-8"))
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
                    return self.validate_text(mm[:].decode("utf-8"))
                obs = self.obs
                rs = self.last_run = RunState(self.compiled.plan, obs)
                if not obs.enabled:
                    return self.compiled.scan_bytes(mm, rs)
                with obs.span("codegen.validate", chars=len(mm)) as span:
                    report = self.compiled.scan_bytes(mm, rs)
                    self._finish_span(span, rs, report)
                return report
