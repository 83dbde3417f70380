"""The schema registry: every expensive schema artifact, compiled once.

A ``DTD^C`` is cheap to *hold* but expensive to *prepare*: parsing the
schema text, fingerprinting it for the content-addressed
:class:`~repro.corpus.ResultCache`, and compiling the per-label
:class:`~repro.codegen.StreamPlan` each cost real work that every
validation entry point used to re-pay independently.  The
:class:`SchemaRegistry` makes the compiled triple ``(DTDC, StreamPlan,
fingerprint)`` a first-class, named, versioned object — the
:class:`SchemaHandle` — and becomes the pivot of the public API::

    from repro import SchemaRegistry

    registry = SchemaRegistry()
    handle = registry.load("book", "schemas/book.dtdc", root="book")
    validator = handle.validator()          # a repro.Validator
    report = validator.check("doc.xml", engine="auto")

    registry.reload("book", new_text)       # hot swap: version bumps,
    registry.get("book").version            # in-flight holders of the
                                            # old handle are untouched

Hot-swap semantics: a handle, once obtained, never changes — ``reload``
builds the *new* handle completely (parse, check) before atomically
replacing the name binding, so requests that resolved the old handle
finish on the old plan while new admissions see the new version.  This
is what gives ``repro-xic serve`` zero-downtime schema reloads.

The uniform ``schema: str | DTDC | SchemaHandle`` contract used across
the package is implemented by :meth:`SchemaRegistry.resolve` (strings
name registered schemas) and :func:`as_handle` (registry-free: wraps a
bare ``DTDC`` in a process-wide memoized anonymous handle, so even
legacy ``Validator(dtd)`` call sites compile each schema once per
process).
"""

from __future__ import annotations

import os
import threading
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.dtd.dtdc import DTDC
from repro.errors import ReproError
from repro.obs import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.plan import StreamPlan
    from repro.validator import Validator

__all__ = ["SchemaHandle", "SchemaNotFound", "SchemaRegistry", "as_handle"]

#: What schema-accepting APIs take: a registered name, a parsed schema,
#: or a compiled handle.
SchemaLike = Union[str, DTDC, "SchemaHandle"]

#: What :meth:`SchemaRegistry.load` accepts as the schema itself: a
#: parsed ``DTDC``, DTD^C text (recognized by a leading ``<``), or a
#: filesystem path to read the text from.
SchemaSource = Union[str, os.PathLike, DTDC]


class SchemaNotFound(ReproError):
    """No schema is registered under the requested name."""


class SchemaHandle:
    """One compiled schema: ``(DTDC, StreamPlan, fingerprint)`` + identity.

    Handles are immutable from the caller's point of view — the lazy
    ``fingerprint``/``plan`` properties compute once and cache (under a
    lock, so concurrent first touches compile once).  ``version`` counts
    reloads of the *name* in the owning registry; the handle itself is
    never mutated by a reload, only superseded (``active`` flips False).
    """

    __slots__ = ("name", "version", "dtd", "source_text", "active",
                 "_fingerprint", "_plan", "_codegen", "_obs", "_lock",
                 "__weakref__")

    def __init__(self, dtd: DTDC, name: str = "<anonymous>",
                 version: int = 1, source_text: Optional[str] = None,
                 obs=None):
        if not isinstance(dtd, DTDC):
            raise TypeError(f"SchemaHandle needs a DTDC, got {type(dtd)!r}")
        self.name = name
        self.version = version
        self.dtd = dtd
        #: the DTD^C text this handle was parsed from (None when built
        #: from an in-memory ``DTDC``); ``reload(name)`` without a new
        #: source re-parses this text
        self.source_text = source_text
        #: False once a registry replaced or unloaded this handle;
        #: purely informational — the compiled artifacts stay valid
        self.active = True
        self._fingerprint: Optional[str] = None
        self._plan = None
        #: the lazily-built codegen scanners (a CompiledSchema)
        self._codegen = None
        self._obs = obs or NULL_OBS
        self._lock = threading.Lock()

    @property
    def fingerprint(self) -> str:
        """SHA-256 over ``S`` and Σ — the cache-key half of the triple;
        computed once per handle."""
        if self._fingerprint is None:
            from repro.corpus.cache import schema_fingerprint

            with self._lock:
                if self._fingerprint is None:
                    self._fingerprint = schema_fingerprint(self.dtd)
        return self._fingerprint

    @property
    def plan(self) -> "StreamPlan":
        """The compiled :class:`~repro.codegen.StreamPlan`; compiled once
        per handle (the ``registry_schema_compilations`` counter is the
        regression tripwire for accidental recompiles)."""
        if self._plan is None:
            from repro.codegen.plan import compile_plan

            with self._lock:
                if self._plan is None:
                    plan = compile_plan(self.dtd)
                    if self._obs:
                        self._obs.counter(
                            "registry_schema_compilations",
                            help="StreamPlan compilations performed by "
                            "schema handles (one per schema per process "
                            "when everything routes through the registry)",
                        ).add(1)
                    self._plan = plan
        return self._plan

    @property
    def codegen(self):
        """The codegen scanners (:class:`~repro.codegen.CompiledSchema`)
        — built once per handle from :attr:`plan`, shared by every
        ``engine="codegen"`` call site."""
        if self._codegen is None:
            from repro.codegen import compile_schema

            # resolve plan/fingerprint before taking the lock: both
            # properties lock on first touch themselves
            plan = self.plan
            fingerprint = self.fingerprint
            with self._lock:
                if self._codegen is None:
                    self._codegen = compile_schema(
                        plan, fingerprint, obs=self._obs)
        return self._codegen

    def validator(self, obs=None) -> "Validator":
        """A :class:`repro.Validator` bound to this handle (sharing its
        compiled plan and fingerprint)."""
        from repro.validator import Validator

        return Validator(self, obs=obs)

    def to_dict(self) -> dict:
        """JSON-safe identity — what ``repro-xic serve`` reports."""
        return {"name": self.name, "version": self.version,
                "fingerprint": self.fingerprint,
                "root": self.dtd.structure.root,
                "constraints": len(self.dtd.constraints),
                "engines": self.engines(),
                "active": self.active}

    def engines(self) -> "list[str]":
        """Engine names this handle can serve: every registered one."""
        from repro import engines as _engines

        return _engines.names()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<SchemaHandle {self.name!r} v{self.version} "
                f"root={self.dtd.structure.root!r} "
                f"|Sigma|={len(self.dtd.constraints)}"
                f"{'' if self.active else ' retired'}>")


#: Process-wide memo for :func:`as_handle`: one anonymous handle per
#: ``DTDC`` object, so every facade constructed over the same schema
#: shares one compiled plan.  Weak keys: dropping the schema drops the
#: handle.
_ADHOC: "weakref.WeakKeyDictionary[DTDC, SchemaHandle]" = \
    weakref.WeakKeyDictionary()
_ADHOC_LOCK = threading.Lock()


def as_handle(schema: "DTDC | SchemaHandle", obs=None) -> SchemaHandle:
    """The uniform-contract adapter for registry-free call sites.

    A :class:`SchemaHandle` passes through; a :class:`DTDC` is wrapped
    in a memoized anonymous handle (one per schema object per process).
    Strings are *not* accepted here — a name only means something to a
    :class:`SchemaRegistry`, so use :meth:`SchemaRegistry.resolve`.
    """
    if isinstance(schema, SchemaHandle):
        return schema
    if not isinstance(schema, DTDC):
        raise TypeError(
            f"expected a DTDC or SchemaHandle, got {type(schema)!r} "
            "(string names resolve through a SchemaRegistry)")
    with _ADHOC_LOCK:
        handle = _ADHOC.get(schema)
        if handle is None:
            handle = SchemaHandle(schema, obs=obs)
            _ADHOC[schema] = handle
    return handle


class SchemaRegistry:
    """Named, versioned, hot-swappable compiled schemas.

    All mutating operations are atomic under one lock; readers
    (``get``/``resolve``) take the lock only for the dict lookup, and
    the handle they receive is immutable, so a concurrent ``reload``
    can never change what an in-flight request validates against.
    """

    def __init__(self, obs=None):
        self.obs = obs or NULL_OBS
        self._handles: dict[str, SchemaHandle] = {}
        self._lock = threading.Lock()

    # -- loading -----------------------------------------------------

    def _build(self, name: str, source: SchemaSource,
               root: Optional[str], version: int) -> SchemaHandle:
        """Parse and wrap ``source`` — fully, before any binding swaps."""
        if isinstance(source, DTDC):
            dtd, text = source, None
        else:
            if isinstance(source, os.PathLike):
                text = Path(source).read_text()
            elif isinstance(source, str):
                # the engines' convention: text is recognized by a
                # leading '<' (DTD^C text always starts with a decl),
                # anything else is a path
                text = source if source.lstrip().startswith("<") \
                    else Path(source).read_text()
            else:
                raise TypeError(
                    f"schema source for {name!r} has unsupported type "
                    f"{type(source)!r} (expected DTDC, text, or path)")
            from repro.xmlio.dtdparse import parse_dtdc

            dtd = parse_dtdc(text, root=root)
        if self.obs:
            self.obs.counter(
                "registry_schemas_loaded",
                help="schema load/reload operations on the registry",
            ).add(1)
        return SchemaHandle(dtd, name=name, version=version,
                            source_text=text, obs=self.obs)

    def load(self, name: str, source: SchemaSource,
             root: Optional[str] = None,
             replace: bool = False) -> SchemaHandle:
        """Compile ``source`` and bind it to ``name``.

        Loading an already-bound name is an error unless
        ``replace=True`` (which behaves like :meth:`reload`).
        """
        with self._lock:
            old = self._handles.get(name)
            if old is not None and not replace:
                raise ReproError(
                    f"schema {name!r} is already loaded (v{old.version}); "
                    "use reload() to hot-swap it")
            handle = self._build(name, source, root,
                                 old.version + 1 if old else 1)
            self._handles[name] = handle
            if old is not None:
                old.active = False
            self._gauge()
        self.obs.event(
            "schema-reload" if old is not None else "schema-load",
            f"{name} v{handle.version}", name=name,
            version=handle.version, fingerprint=handle.fingerprint)
        return handle

    def reload(self, name: str, source: Optional[SchemaSource] = None,
               root: Optional[str] = None) -> SchemaHandle:
        """Hot-swap ``name``: build the new handle completely, then
        atomically replace the binding.  ``source=None`` re-parses the
        text the current version was loaded from.

        Holders of the old handle are untouched — their plan, schema,
        and fingerprint all stay valid; only *new* ``get``/``resolve``
        calls see the bumped version.
        """
        with self._lock:
            old = self._handles.get(name)
            if old is None:
                raise SchemaNotFound(
                    f"cannot reload {name!r}: no such schema is loaded")
            if source is None:
                if old.source_text is None:
                    raise ReproError(
                        f"cannot reload {name!r} without a source: it was "
                        "loaded from an in-memory DTDC")
                source = old.source_text
            handle = self._build(name, source, root, old.version + 1)
            self._handles[name] = handle
            old.active = False
            self._gauge()
        self.obs.event("schema-reload", f"{name} v{handle.version}",
                       name=name, version=handle.version,
                       fingerprint=handle.fingerprint)
        return handle

    def put(self, name: str, source: SchemaSource,
            root: Optional[str] = None) -> SchemaHandle:
        """Upsert: :meth:`load` if ``name`` is free, else :meth:`reload`
        (the ``PUT /v1/schemas/<name>`` semantics of the server)."""
        return self.load(name, source, root=root, replace=True)

    def unload(self, name: str) -> SchemaHandle:
        """Remove ``name``; returns the (now retired) handle."""
        with self._lock:
            handle = self._handles.pop(name, None)
            if handle is None:
                raise SchemaNotFound(
                    f"cannot unload {name!r}: no such schema is loaded")
            handle.active = False
            self._gauge()
        self.obs.event("schema-unload", f"{name} v{handle.version}",
                       name=name, version=handle.version)
        return handle

    def _gauge(self) -> None:
        if self.obs:
            self.obs.gauge("registry_schemas",
                           help="schemas currently loaded"
                           ).set(len(self._handles))

    # -- lookup ------------------------------------------------------

    def get(self, name: str) -> SchemaHandle:
        """The current handle for ``name``; :class:`SchemaNotFound` if
        absent (never None — admission errors must be loud)."""
        with self._lock:
            handle = self._handles.get(name)
            known = ", ".join(sorted(self._handles)) or "none"
        if handle is None:
            raise SchemaNotFound(
                f"no schema named {name!r} is loaded (loaded: {known})")
        return handle

    def resolve(self, schema: SchemaLike) -> SchemaHandle:
        """The uniform ``schema: str | DTDC | SchemaHandle`` contract:
        names look up this registry, everything else goes through
        :func:`as_handle`."""
        if isinstance(schema, str):
            return self.get(schema)
        return as_handle(schema, obs=self.obs)

    def names(self) -> "list[str]":
        with self._lock:
            return sorted(self._handles)

    def handles(self) -> "list[SchemaHandle]":
        """Current handles, sorted by name."""
        with self._lock:
            return [self._handles[n] for n in sorted(self._handles)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._handles

    def __len__(self) -> int:
        return len(self._handles)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SchemaRegistry {self.names()}>"
