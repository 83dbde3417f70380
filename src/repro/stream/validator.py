"""The streamed vertex model of the single-pass engine.

:class:`StreamVertex` and :class:`StreamIndex` are what the single-pass
engine (:mod:`repro.codegen`) retains of a Σ-relevant element after its
close tag, and the Σ-relevant shard of an attribute index it builds as
closed vertices are fed to the constraint evaluators — no
:class:`~repro.datamodel.tree.DataTree` and no
:class:`~repro.datamodel.indexes.AttributeIndex`.  Why the reports stay
byte-identical to the batch validator's is argued on
:class:`~repro.codegen.runtime.RunState`, which owns the feed.
"""

from __future__ import annotations

_EMPTY: frozenset[str] = frozenset()


class _TextChild:
    """Stand-in for a text-carrying child vertex: just its ``text``."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class StreamVertex:
    """The retained residue of a Σ-relevant element after its close tag.

    Quacks like :class:`~repro.datamodel.tree.Vertex` for exactly the
    surface the constraint evaluators touch: ``vid``, ``label``,
    ``attr_or_empty``, ``children_labeled`` (sub-element fields only),
    and ``int(v)`` for violation reporting.
    """

    __slots__ = ("vid", "label", "_attributes", "_elem_children")

    def __init__(self, vid: int, label: str,
                 attributes: dict[str, frozenset[str]]):
        self.vid = vid
        self.label = label
        self._attributes = attributes
        self._elem_children: dict[str, list[_TextChild]] | None = None

    def attr_or_empty(self, name: str) -> frozenset[str]:
        return self._attributes.get(name, _EMPTY)

    def children_labeled(self, label: str) -> list[_TextChild]:
        if self._elem_children is None:
            return []
        return self._elem_children.get(label, [])

    def _add_elem_child(self, label: str, text: str) -> None:
        if self._elem_children is None:
            self._elem_children = {}
        self._elem_children.setdefault(label, []).append(_TextChild(text))

    def __int__(self) -> int:
        return self.vid

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<StreamVertex {self.vid} {self.label!r}>"


class StreamIndex:
    """The Σ-relevant shard of an :class:`AttributeIndex`, built as the
    stream flushes closed vertices in pre-order.

    Supports exactly the evaluator-facing surface: ``extension`` (in vid
    = document order, like the tree-wide index), ``id_owners`` /
    ``id_owner_list`` (insertion in pre-order, ditto), and
    ``index_vertex`` returning the declared-ID values gained.
    """

    __slots__ = ("id_attributes", "_ext", "_id_owners")

    def __init__(self, id_map: dict[str, str]):
        self.id_attributes = id_map
        self._ext: dict[str, dict[int, StreamVertex]] = {}
        self._id_owners: dict[str, dict[int, StreamVertex]] = {}

    def index_vertex(self, v: StreamVertex) -> frozenset[str]:
        """Index ``v``; returns its declared-ID values (the vertex's own
        frozenset, never a copy)."""
        self._ext.setdefault(v.label, {})[v.vid] = v
        id_attr = self.id_attributes.get(v.label)
        if id_attr is None:
            return _EMPTY
        values = v.attr_or_empty(id_attr)
        for value in values:
            self._id_owners.setdefault(value, {})[v.vid] = v
        return values

    def extension(self, label: str) -> list[StreamVertex]:
        return list(self._ext.get(label, {}).values())

    @property
    def id_owners(self) -> dict[str, dict[int, StreamVertex]]:
        return self._id_owners

    def id_owner_list(self, value: str) -> list[StreamVertex]:
        return list(self._id_owners.get(value, {}).values())
