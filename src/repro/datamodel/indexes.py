"""Hash indexes over a data tree, used by the linear-time constraint checker.

The naive reading of a constraint like ``tau.l -> tau`` ("no two
``tau``-elements share an ``l`` value") is quadratic in ``|ext(tau)|``.
The checker in :mod:`repro.constraints.checker` instead builds an
:class:`AttributeIndex` once — a single pass over the tree — and then
answers every per-constraint question with hash lookups, which is how the
paper's "linear time" validation costs are realized in practice (exp E13
benchmarks the difference).

The index is *maintainable*: :meth:`AttributeIndex.index_vertex`,
:meth:`AttributeIndex.unindex_vertex` and
:meth:`AttributeIndex.refresh_vertex` apply single-vertex deltas in time
proportional to that vertex's attribute payload, which is what the
incremental revalidation engine (:mod:`repro.incremental`) builds on.
A snapshot of each vertex's attribute map as last indexed makes removal
and refresh independent of the tree's current mutation state.

The index records the tree's ``attribute_epoch`` at build time;
:meth:`AttributeIndex.is_stale` reports whether attribute mutations have
happened since that were not folded back in through the delta API.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.datamodel.tree import DataTree, Vertex


class AttributeIndex:
    """Per-(label, attribute) value indexes over one data tree.

    The structures, built in one pass and maintainable per vertex:

    - ``extension(label)``              — the vertices with that label;
    - ``value_set(label, attr)``        — the set ``ext(label).attr``
      (union of all value sets);
    - ``vertices_with_value(l, a, s)``  — the vertices whose ``a``
      contains ``s``;
    - ``id_owners[value]``              — for the document-wide ID
      semantics of ``L_id``: every vertex (any label) whose *declared ID
      attribute* contains the value.  Which attribute counts as the ID
      attribute of each label is supplied by ``id_attributes``.

    Internally every vertex family is a ``vid -> Vertex`` dict so that a
    single vertex can be added or removed in O(1) per indexed value;
    insertion order is document order for a freshly built index.
    """

    def __init__(self, tree: DataTree,
                 id_attributes: dict[str, str] | None = None,
                 obs=None):
        self.tree = tree
        self.epoch = tree.attribute_epoch
        self.id_attributes = dict(id_attributes or {})
        #: label -> vid -> vertex
        self._ext: dict[str, dict[int, Vertex]] = {}
        #: (label, attr) -> value -> vid -> vertex
        self._owners: dict[tuple[str, str], dict[str, dict[int, Vertex]]] = {}
        #: id value -> vid -> vertex (all labels, declared ID attrs only)
        self._id_owners: dict[str, dict[int, Vertex]] = {}
        #: vid -> attribute map as last indexed (removal/refresh baseline)
        self._snapshot: dict[int, dict[str, frozenset[str]]] = {}
        if obs:
            with obs.span("index.build") as span:
                n = 0
                for v in tree.root.subtree():
                    self.index_vertex(v)
                    n += 1
                span.set(vertices=n)
                obs.counter(
                    "index_vertices_indexed",
                    help="vertices folded into the attribute index",
                ).add(n)
        else:
            for v in tree.root.subtree():
                self.index_vertex(v)

    # -- maintenance -----------------------------------------------------------

    def index_vertex(self, v: Vertex) -> set[str]:
        """Add one vertex (not its subtree); returns the ID values gained."""
        self._ext.setdefault(v.label, {})[v.vid] = v
        snap = dict(v.attributes)
        self._snapshot[v.vid] = snap
        for attr_name, values in snap.items():
            owner_map = self._owners.setdefault((v.label, attr_name), {})
            for value in values:
                owner_map.setdefault(value, {})[v.vid] = v
        return self._sync_id(v, frozenset(), self._id_values(v, snap))

    def unindex_vertex(self, v: Vertex) -> set[str]:
        """Remove one vertex (not its subtree); returns the ID values lost.

        Uses the attribute snapshot taken when the vertex was (last)
        indexed, so the vertex may already have been mutated or detached.
        """
        snap = self._snapshot.pop(v.vid, {})
        ext = self._ext.get(v.label)
        if ext is not None:
            ext.pop(v.vid, None)
            if not ext:
                del self._ext[v.label]
        for attr_name, values in snap.items():
            self._discard_owned(v, attr_name, values)
        return self._sync_id(v, self._id_values(v, snap), frozenset())

    def refresh_vertex(self, v: Vertex) -> set[str]:
        """Re-read one indexed vertex's attributes; returns the ID values
        whose ownership changed (gained or lost)."""
        old = self._snapshot.get(v.vid)
        if old is None:  # not indexed yet: treat as an addition
            return self.index_vertex(v)
        new = dict(v.attributes)
        self._snapshot[v.vid] = new
        for attr_name, old_values in old.items():
            new_values = new.get(attr_name, frozenset())
            gone = old_values - new_values
            if gone:
                self._discard_owned(v, attr_name, gone)
        for attr_name, new_values in new.items():
            old_values = old.get(attr_name, frozenset())
            fresh = new_values - old_values
            if fresh:
                owner_map = self._owners.setdefault((v.label, attr_name), {})
                for value in fresh:
                    owner_map.setdefault(value, {})[v.vid] = v
        return self._sync_id(v, self._id_values(v, old),
                             self._id_values(v, new))

    def sync_epoch(self) -> None:
        """Declare the index caught up with the tree's attribute epoch."""
        self.epoch = self.tree.attribute_epoch

    def _discard_owned(self, v: Vertex, attr_name: str,
                       values: frozenset[str]) -> None:
        owner_map = self._owners.get((v.label, attr_name))
        if owner_map is None:
            return
        for value in values:
            owners = owner_map.get(value)
            if owners is None:
                continue
            owners.pop(v.vid, None)
            if not owners:
                del owner_map[value]
        if not owner_map:
            del self._owners[(v.label, attr_name)]

    def _id_values(self, v: Vertex,
                   attrs: dict[str, frozenset[str]]) -> frozenset[str]:
        id_attr = self.id_attributes.get(v.label)
        if id_attr is None:
            return frozenset()
        return attrs.get(id_attr, frozenset())

    def _sync_id(self, v: Vertex, old: frozenset[str],
                 new: frozenset[str]) -> set[str]:
        changed = set(old ^ new)
        for value in old - new:
            owners = self._id_owners.get(value)
            if owners is not None:
                owners.pop(v.vid, None)
                if not owners:
                    del self._id_owners[value]
        for value in new - old:
            self._id_owners.setdefault(value, {})[v.vid] = v
        return changed

    # -- staleness -------------------------------------------------------------

    def is_stale(self) -> bool:
        """Whether the tree's attributes changed after the index last
        synchronized (at build time or via :meth:`sync_epoch`)."""
        return self.tree.attribute_epoch != self.epoch

    # -- queries ----------------------------------------------------------------

    @property
    def id_owners(self) -> dict[str, dict[int, Vertex]]:
        """ID value -> (vid -> vertex) over all declared ID attributes."""
        return self._id_owners

    def id_owner_list(self, value: str) -> list[Vertex]:
        """The vertices whose declared ID attribute contains ``value``."""
        return list(self._id_owners.get(value, {}).values())

    def extension(self, label: str) -> list[Vertex]:
        """``ext(label)``, in document order for a freshly built index."""
        return list(self._ext.get(label, {}).values())

    def value_set(self, label: str, attr: str) -> set[str]:
        """``ext(label).attr``: all values of ``attr`` over ``ext(label)``."""
        return set(self._owners.get((label, attr), {}))

    def vertices_with_value(self, label: str, attr: str,
                            value: str) -> list[Vertex]:
        """Vertices in ``ext(label)`` whose ``attr`` set contains ``value``."""
        return list(self._owners.get((label, attr), {})
                    .get(value, {}).values())

    def duplicate_groups(self, label: str,
                         attrs: Sequence[str]) -> list[list[Vertex]]:
        """Groups of >=2 vertices of ``label`` agreeing on all of ``attrs``.

        Vertices on which some attribute of ``attrs`` is undefined or not
        single-valued are skipped (they cannot witness a key violation in
        a structurally valid document; the structural validator flags them
        separately).
        """
        groups: dict[tuple[str, ...], list[Vertex]] = {}
        for v in self.extension(label):
            row: list[str] = []
            ok = True
            for attr in attrs:
                values = v.attr_or_empty(attr)
                if len(values) != 1:
                    ok = False
                    break
                row.append(next(iter(values)))
            if ok:
                groups.setdefault(tuple(row), []).append(v)
        return [grp for grp in groups.values() if len(grp) > 1]

    def id_clashes(self) -> list[tuple[str, list[Vertex]]]:
        """ID values owned by more than one vertex (document-wide)."""
        return [(value, list(owners.values()))
                for value, owners in self._id_owners.items()
                if len(owners) > 1]
