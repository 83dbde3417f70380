"""The unified validation facade.

Historically the package grew three differently-shaped entry points:
``validate(doc, dtd)`` (argument order document-first),
``check(tree, constraints, structure=None)`` (constraint-set-first
concerns), and ``analyze(dtd, config)`` (schema-only).  The
:class:`Validator` facade normalizes them around the one object they all
share — the ``DTD^C`` — so a schema is configured once and every
question about it reads the same way::

    from repro import Validator, book_dtdc, book_document

    validator = Validator(book_dtdc())
    validator.validate(doc)          # Definition 2.4: structure + G |= Sigma
    validator.check(doc)             # G |= Sigma only
    validator.check(doc, sigma)      # ... against an explicit Sigma
    validator.analyze()              # static schema analysis (lint)
    validator.session(doc)           # incremental revalidation session
    validator.check("doc.xml", engine="auto")  # single pass, O(depth)
    validator.check_corpus(docs, jobs=8, cache="~/.cache/repro")
                                     # parallel corpus validation

Since the :class:`~repro.server.registry.SchemaRegistry` became the
public-API pivot, the facade follows the uniform
``schema: DTDC | SchemaHandle`` contract: it wraps a bare ``DTDC`` in a
process-wide memoized handle (so the compiled
:class:`~repro.codegen.StreamPlan` and schema fingerprint are built once
per schema per process, shared with corpus and server call sites), or
binds directly to a registry entry::

    registry = repro.SchemaRegistry()
    registry.load("book", "book.dtdc", root="book")
    validator = repro.Validator.from_registry(registry, "book")
    validator.check("doc.xml", engine="auto")  # follows hot reloads

A registry-bound validator re-resolves its handle per call, so a
``registry.reload`` is picked up by the *next* operation while any
operation already running finishes on the handle it resolved at entry.

The module-level functions it wraps (``repro.dtd.validate``,
``repro.constraints.check``) remain the engines underneath; new code
should prefer the facade.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Optional

from repro.constraints.base import Constraint
from repro.constraints.checker import check as _check
from repro.constraints.violations import ViolationReport
from repro.datamodel.tree import DataTree
from repro.dtd.dtdc import DTDC
from repro.dtd.validate import (
    ValidationReport, validate as _validate, validate_strict as _strict,
)
from repro.incremental.session import DocumentSession
from repro.server.registry import SchemaHandle, SchemaRegistry, as_handle

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport, LintConfig
    from repro.corpus import CorpusReport


class Validator:
    """All validation services of one ``DTD^C``, behind one object.

    ``schema`` is a :class:`DTDC` or a
    :class:`~repro.server.registry.SchemaHandle`; construction is cheap
    and per-call costs match the underlying functions (each documented
    on its method).  Use :meth:`from_registry` for a validator that
    names a registry entry and follows hot reloads.
    """

    def __init__(self, schema: "DTDC | SchemaHandle", obs=None):
        try:
            self._handle = as_handle(schema)
        except TypeError:
            raise TypeError(
                f"Validator needs a DTDC or SchemaHandle, got "
                f"{type(schema)!r}") from None
        #: optional :class:`repro.obs.Observability` handle threaded
        #: into every method; None/falsy means the no-op path
        self.obs = obs
        self._registry: Optional[SchemaRegistry] = None
        self._schema_name: Optional[str] = None

    @classmethod
    def from_registry(cls, registry: SchemaRegistry, name: str,
                      obs=None) -> "Validator":
        """A validator bound to ``registry``'s entry for ``name``.

        The handle is re-resolved on every operation, so hot reloads
        take effect between calls with zero downtime: a running call
        keeps the handle it resolved at entry.
        """
        validator = cls(registry.get(name), obs=obs)
        validator._registry = registry
        validator._schema_name = name
        return validator

    # -- the uniform schema accessors ------------------------------------------

    @property
    def registry(self) -> Optional[SchemaRegistry]:
        """The owning registry (None for a standalone validator)."""
        return self._registry

    @property
    def schema_name(self) -> Optional[str]:
        """The registry name this validator follows, if any."""
        return self._schema_name

    @property
    def handle(self) -> SchemaHandle:
        """The current compiled-schema handle (re-resolved through the
        registry when bound to one)."""
        if self._registry is not None:
            return self._registry.get(self._schema_name)
        return self._handle

    @property
    def dtd(self) -> DTDC:
        """The current schema (follows registry reloads)."""
        return self.handle.dtd

    # -- Definition 2.4 --------------------------------------------------------

    def validate(self, doc: DataTree) -> ValidationReport:
        """Full validity of ``doc``: structure plus ``G ⊨ Σ``.

        Equivalent to ``repro.dtd.validate(doc, self.dtd)``.
        """
        return _validate(doc, self.dtd, obs=self.obs)

    def validate_strict(self, doc: DataTree) -> None:
        """Like :meth:`validate` but raises
        :class:`~repro.errors.ValidationError` on any violation."""
        _strict(doc, self.dtd, obs=self.obs)

    def check(self, doc, sigma: Iterable[Constraint] | None = None, *,
              engine: "str | None" = None):
        """Constraint checking (legacy form) or full engine-selected
        validation.

        With ``engine=None`` (the historical signature) this is
        ``G ⊨ Σ`` only — no structural pass: ``doc`` is a parsed
        :class:`DataTree`, ``sigma`` defaults to the schema's own
        constraint set, and the result is a :class:`ViolationReport`
        (equivalent to
        ``repro.constraints.check(doc, sigma, self.dtd.structure)``).

        With ``engine=`` set, ``doc`` is a filesystem path or XML text
        (text is recognized by a leading ``<``; ``engine="batch"`` also
        accepts a :class:`DataTree`) and the full Definition 2.4
        validity is computed by the named backend — ``"batch"``,
        ``"codegen"``, ``"auto"`` (codegen), or any engine registered
        through :func:`repro.engines.register` — returning a
        :class:`ValidationReport` that is byte-identical (``to_json()``)
        across the built-in engines.
        """
        if engine is None:
            dtd = self.dtd
            constraints = dtd.constraints if sigma is None else tuple(sigma)
            return _check(doc, constraints, dtd.structure, obs=self.obs)
        if sigma is not None:
            raise TypeError(
                "check(engine=...) validates against the schema's own "
                "Sigma; an explicit sigma only applies to the legacy "
                "constraint-only form (engine=None)")
        from repro import engines

        return engines.create(engine, self.handle,
                              obs=self.obs).validate(doc)

    # -- corpus ----------------------------------------------------------------

    def check_corpus(self, docs, jobs: int = 1, cache=None, *,
                     engine: "str | None" = None,
                     shards: "int | None" = None) -> "CorpusReport":
        """Validate many documents against this schema, optionally in
        parallel and against a persistent result cache.

        ``docs`` is any iterable of filesystem paths, ``DataTree``
        objects, or explicit ``(doc_id, xml_text)`` pairs.  ``jobs``
        sets the worker process count (``1`` stays in-process with
        bit-identical verdicts, ``0`` means one per CPU); ``cache`` is
        a :class:`~repro.corpus.ResultCache`, a directory path for a
        persistent store, or ``None``.  ``engine`` selects the
        per-document backend (``"batch"``, ``"codegen"`` or ``"auto"``,
        the last running as codegen; default batch); verdicts are
        byte-identical across engines.  Returns a
        :class:`~repro.corpus.CorpusReport` with per-document verdicts
        in input order.

        ``shards=N`` routes the run through the sharded coordinator
        (:class:`~repro.shard.ShardedCorpusValidator`, in-process
        nodes) instead of worker processes: same verdicts, plus the
        corpus-level ``L_id`` findings on the returned
        :class:`~repro.shard.ShardReport`.
        """
        if shards is not None:
            from repro.shard import ShardedCorpusValidator

            with ShardedCorpusValidator(
                    self.handle, shards=shards, cache=cache,
                    obs=self.obs, engine=engine) as validator:
                return validator.validate(docs)
        from repro.corpus import CorpusValidator

        return CorpusValidator(self.handle, jobs=jobs, cache=cache,
                               obs=self.obs,
                               engine=engine).validate(docs)

    # -- static analysis -------------------------------------------------------

    def analyze(self, config: "LintConfig | None" = None) -> "AnalysisReport":
        """Static analysis (lint) of the schema itself — no document.

        Equivalent to the legacy ``repro.analyze(self.dtd, config)``.
        """
        from repro.analysis import analyze as _analyze

        return _analyze(self.dtd, config, obs=self.obs)

    # -- incremental -----------------------------------------------------------

    def session(self, doc: DataTree,
                sigma: Iterable[Constraint] | None = None) -> DocumentSession:
        """Open an incremental :class:`~repro.incremental.DocumentSession`
        maintaining Σ (default: the schema's own) over ``doc``.

        Construction costs one full pass; every later
        ``session.revalidate()`` costs O(|Δ|).
        """
        dtd = self.dtd
        constraints = dtd.constraints if sigma is None else tuple(sigma)
        return DocumentSession(doc, constraints, dtd.structure,
                               obs=self.obs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        name = f" schema={self._schema_name!r}" if self._schema_name \
            else ""
        return (f"<Validator root={self.dtd.structure.root!r} "
                f"|Sigma|={len(self.dtd.constraints)}{name}>")
