"""The validation-engine registry: one seam for every backend.

Every full-validity path through the package — ``Validator.check``, the
CLI's ``--engine``, the server's ``engine`` request field, corpus
workers — selects its backend by name through this module instead of
ad-hoc boolean flags:

``batch``
    Materialize a :class:`~repro.datamodel.tree.DataTree` and run the
    Definition 2.4 reference validator.  The only engine that accepts
    an already-parsed tree.
``codegen``
    The single-pass engine (see :mod:`repro.codegen`): scanners
    specialised to the schema, O(depth + Σ-relevant state) memory, any
    schema.
``auto``
    Runs, and reports itself, as ``codegen``.

:func:`resolve` is the one place these names resolve: the corpus
validator and the server ask it which engine a request runs as.

Third-party backends plug in without touching the CLI or server::

    import repro.engines

    class MyEngine:
        name = "disjunctive"
        def __init__(self, handle, obs=None):
            self.handle = handle
        def validate(self, source):   # path or XML text
            ...
            return report             # a ValidationReport

    repro.engines.register("disjunctive", MyEngine)

A factory is any ``factory(handle, obs=None)`` callable returning an
object with ``validate(source) -> ValidationReport``; once registered,
``Validator.check(doc, engine="disjunctive")``,
``repro-xic validate --engine disjunctive`` and the server's
``{"engine": "disjunctive"}`` all reach it.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import ReproError

__all__ = ["create", "names", "register", "resolve", "unregister"]

_FACTORIES: dict[str, Callable] = {}
_BUILTIN = frozenset(("auto", "batch", "codegen"))
#: built-in names that run as another engine
_ALIASES = {"auto": "codegen"}
_LOCK = threading.Lock()


class _BatchEngine:
    """Parse (when needed) then run the Definition 2.4 validator."""

    name = "batch"

    def __init__(self, handle, obs=None):
        self.handle = handle
        self.obs = obs

    def validate(self, source):
        import os

        from repro.datamodel.tree import DataTree
        from repro.dtd.validate import validate
        from repro.xmlio.parser import parse_document

        dtd = self.handle.dtd
        if isinstance(source, DataTree):
            return validate(source, dtd, obs=self.obs)
        if isinstance(source, os.PathLike):
            text = _read_text(os.fspath(source))
        elif source.lstrip().startswith("<"):
            text = source
        else:
            text = _read_text(source)
        tree = parse_document(text, dtd.structure, obs=self.obs)
        return validate(tree, dtd, obs=self.obs)


def _read_text(path: str) -> str:
    from repro.xmlio import decode_document

    with open(path, "rb") as fh:
        return decode_document(fh.read())


def _reject_tree(source, engine: str):
    from repro.datamodel.tree import DataTree

    if isinstance(source, DataTree):
        raise TypeError(
            f"the {engine!r} engine validates a path or XML text, not a "
            "parsed DataTree (use engine='batch', or validator.validate)")


class _CodegenEngine:
    """The single-pass engine (see :mod:`repro.codegen`)."""

    name = "codegen"

    def __init__(self, handle, obs=None):
        from repro.codegen import CodegenValidator

        self.handle = handle
        self._validator = CodegenValidator(handle, obs=obs)

    def validate(self, source):
        _reject_tree(source, "codegen")
        return self._validator.validate(source)


_FACTORIES["batch"] = _BatchEngine
_FACTORIES["codegen"] = _FACTORIES["auto"] = _CodegenEngine


def resolve(name: str) -> str:
    """The engine ``name`` runs as: ``auto`` runs as ``codegen``;
    every other name as itself."""
    return _ALIASES.get(name, name)


def names() -> list[str]:
    """Registered engine names, sorted (always includes the built-ins
    ``auto``, ``batch``, ``codegen``)."""
    with _LOCK:
        return sorted(_FACTORIES)


def register(name: str, factory: Callable, *, replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    ``factory(handle, obs=None)`` must return an object exposing
    ``validate(source) -> ValidationReport``.  Built-in names cannot be
    replaced; re-registering another name requires ``replace=True``.
    """
    if not name or not name.replace("-", "_").isidentifier():
        raise ReproError(
            f"invalid engine name {name!r} (identifier-style names only)")
    with _LOCK:
        if name in _BUILTIN:
            raise ReproError(f"cannot replace built-in engine {name!r}")
        if name in _FACTORIES and not replace:
            raise ReproError(
                f"engine {name!r} is already registered "
                "(pass replace=True to swap it)")
        _FACTORIES[name] = factory


def unregister(name: str) -> None:
    """Remove a third-party engine; built-ins cannot be removed."""
    with _LOCK:
        if name in _BUILTIN:
            raise ReproError(f"cannot unregister built-in engine {name!r}")
        if _FACTORIES.pop(name, None) is None:
            raise ReproError(f"no engine named {name!r} is registered")


def create(name: str, schema, obs=None):
    """An engine instance for ``schema`` (a ``DTDC`` or
    :class:`~repro.server.registry.SchemaHandle`)."""
    from repro.server.registry import as_handle

    with _LOCK:
        factory = _FACTORIES.get(name)
    if factory is None:
        known = ", ".join(names())
        raise ReproError(f"unknown engine {name!r} (known: {known})")
    return factory(as_handle(schema), obs=obs)
