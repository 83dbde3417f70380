"""Per-constraint evaluators: one object per constraint in Σ, shared by
the batch checker and the incremental revalidation engine.

Each evaluator owns *residual state* in the style of counting-based
incremental view maintenance (Gupta–Mumick): key evaluators keep
key-value multiplicity counts, foreign-key evaluators keep reference
counts of target values/rows, inverse evaluators keep the set of
violated pairings.  Two entry points drive them:

- :meth:`ConstraintEvaluator.full` — (re)build the state from an
  :class:`~repro.datamodel.indexes.AttributeIndex` in one pass over the
  relevant extensions; this is what :func:`repro.constraints.checker.check`
  does for the batch path.
- :meth:`ConstraintEvaluator.apply_delta` — fold a :class:`Delta` (added
  / removed / attribute-touched vertices) into the state in time
  proportional to the delta and its incident references, never the
  document.  This is what
  :class:`repro.incremental.DocumentSession.revalidate` builds on.

:meth:`ConstraintEvaluator.emit` reports the *current* violations; after
any sequence of deltas the emitted set equals what a from-scratch
:func:`~repro.constraints.checker.check` would produce (the property
tests replay random edit scripts to assert exactly this).
"""

from __future__ import annotations

from collections.abc import Callable, Set as AbstractSet
from dataclasses import dataclass, field as dataclass_field

from repro.constraints.base import Constraint, Field
from repro.constraints.lang_l import ForeignKey, Key
from repro.constraints.lang_lid import (
    IDConstraint, IDForeignKey, IDInverse, IDSetValuedForeignKey,
)
from repro.constraints.lang_lu import (
    Inverse, SetValuedForeignKey, UnaryForeignKey, UnaryKey,
)
from repro.constraints.violations import ViolationReport
from repro.datamodel.indexes import AttributeIndex
from repro.datamodel.tree import Vertex
from repro.errors import ConstraintError
from repro.obs.metrics import NULL_INSTRUMENT


@dataclass
class Delta:
    """One batch of document changes, as seen by the evaluators.

    ``added``/``removed`` list whole vertices entering/leaving the
    attached tree; ``touched`` lists vertices that stayed but whose
    attributes or child text (the value source of §3.4 sub-element
    fields) changed; ``id_values`` collects every declared-ID value
    gained or lost anywhere in the batch, for the document-wide clash
    bookkeeping of ``L_id``.
    """

    added: list[Vertex] = dataclass_field(default_factory=list)
    removed: list[Vertex] = dataclass_field(default_factory=list)
    touched: list[Vertex] = dataclass_field(default_factory=list)
    id_values: set[str] = dataclass_field(default_factory=set)


class FieldIndex:
    """``value -> owners`` for one (label, field), with per-vertex cache.

    Unlike the tree-wide :class:`AttributeIndex` this also covers
    §3.4 *sub-element* fields, whose values live in child text rather
    than attributes.  The per-vertex cache makes removal independent of
    the vertex's current (possibly already mutated) state.
    """

    __slots__ = ("label", "field", "cached", "owners")

    def __init__(self, label: str, field: Field):
        self.label = label
        self.field = field
        self.cached: dict[int, frozenset[str]] = {}
        self.owners: dict[str, dict[int, Vertex]] = {}

    def add(self, v: Vertex) -> tuple[frozenset[str], set[str]]:
        """Index ``v``; returns (its values, the values newly owned)."""
        values = self.field.values_on(v)
        self.cached[v.vid] = values
        appeared: set[str] = set()
        for value in values:
            if value not in self.owners:
                appeared.add(value)
            self.owners.setdefault(value, {})[v.vid] = v
        return values, appeared

    def remove(self, v: Vertex) -> tuple[frozenset[str], set[str]]:
        """Unindex ``v``; returns (its cached values, the values orphaned)."""
        values = self.cached.pop(v.vid, frozenset())
        disappeared: set[str] = set()
        for value in values:
            owners = self.owners.get(value)
            if owners is None:
                continue
            owners.pop(v.vid, None)
            if not owners:
                del self.owners[value]
                disappeared.add(value)
        return values, disappeared

    def refresh(self, v: Vertex) -> tuple[frozenset[str], frozenset[str],
                                          set[str], set[str]]:
        """Re-read ``v``; returns (old, new, appeared, disappeared)."""
        old = self.cached.get(v.vid, frozenset())
        new = self.field.values_on(v)
        if new == old:
            return old, new, set(), set()
        self.cached[v.vid] = new
        appeared: set[str] = set()
        disappeared: set[str] = set()
        for value in old - new:
            owners = self.owners.get(value)
            if owners is not None:
                owners.pop(v.vid, None)
                if not owners:
                    del self.owners[value]
                    disappeared.add(value)
        for value in new - old:
            if value not in self.owners:
                appeared.add(value)
            self.owners.setdefault(value, {})[v.vid] = v
        return old, new, appeared, disappeared

    def values_of(self, vid: int) -> frozenset[str]:
        return self.cached.get(vid, frozenset())

    def count(self, value: str) -> int:
        return len(self.owners.get(value, {}))

    def owners_of(self, value: str) -> list[Vertex]:
        return list(self.owners.get(value, {}).values())

    def clear(self) -> None:
        self.cached.clear()
        self.owners.clear()


class ConstraintEvaluator:
    """Base class: state shared by the batch and incremental paths."""

    #: Shard locality (*Distributed XML Design*): ``"local"`` when the
    #: constraint is fully decided inside one document — every ``L`` /
    #: ``L_u`` constraint quantifies over one document's extensions —
    #: and ``"merge"`` when corpus-wide semantics need a coordinator
    #: fold over per-document aggregates (the ``L_id`` classes: ID
    #: uniqueness and IDREF reference resolution span documents).
    locality: str = "local"

    def __init__(self, constraint: Constraint, index: AttributeIndex,
                 id_map: dict[str, str]):
        self.constraint = constraint
        self.index = index
        self.id_map = id_map
        #: the element labels whose vertices can affect this constraint
        self.labels: frozenset[str] = frozenset()
        # Observability is off by default; attach_obs() swaps the null
        # instruments for live per-constraint counters.  Hot paths gate
        # on the plain bool so the disabled path costs one branch.
        self._count = False
        self.c_visited = NULL_INSTRUMENT
        self.c_hits = NULL_INSTRUMENT
        self.c_misses = NULL_INSTRUMENT
        self.c_violations = NULL_INSTRUMENT

    def attach_obs(self, obs) -> None:
        """Bind per-constraint counters (label: ``constraint``).

        Counter semantics, kept exact so tests can assert ground truth:

        - ``evaluator_vertices_visited`` — vertices folded into the
          residual state: every extension member during :meth:`full`,
          every label-relevant vertex of each :class:`Delta`.
        - ``evaluator_index_hits`` / ``_misses`` — lookups of a source
          value/row against the maintained target-side (or key-group /
          ``id_owners``) index: hit when the value was already present.
        - ``evaluator_violations`` — violations emitted, cumulative
          across :meth:`emit` calls.
        """
        if not obs:
            return
        labels = {"constraint": str(self.constraint)}
        self._count = True
        self.c_visited = obs.counter(
            "evaluator_vertices_visited", labels,
            help="vertices folded into per-constraint residual state")
        self.c_hits = obs.counter(
            "evaluator_index_hits", labels,
            help="source-value lookups that found the value indexed")
        self.c_misses = obs.counter(
            "evaluator_index_misses", labels,
            help="source-value lookups that found nothing")
        self.c_violations = obs.counter(
            "evaluator_violations", labels,
            help="violations emitted, cumulative across emits")

    # -- delta protocol -------------------------------------------------------

    def full(self) -> None:
        """(Re)build the residual state from the index, one ext pass."""
        raise NotImplementedError

    def add(self, v: Vertex) -> None:
        """A vertex entered the attached tree."""

    def remove(self, v: Vertex) -> None:
        """A vertex left the attached tree."""

    def refresh(self, v: Vertex) -> None:
        """An attached vertex's attributes or child text changed."""

    def id_values_changed(self, values: AbstractSet[str]) -> None:
        """Declared-ID values changed ownership somewhere in the tree."""

    def apply_delta(self, delta: Delta) -> None:
        """Fold one batch of changes into the residual state."""
        n = 0
        for v in delta.removed:
            if v.label in self.labels:
                self.remove(v)
                n += 1
        for v in delta.added:
            if v.label in self.labels:
                self.add(v)
                n += 1
        for v in delta.touched:
            if v.label in self.labels:
                self.refresh(v)
                n += 1
        if delta.id_values:
            self.id_values_changed(delta.id_values)
        if self._count and n:
            self.c_visited.add(n)

    def emit(self, report: ViolationReport) -> None:
        """Append the current violations to ``report``."""
        before = len(report)
        self._emit(report)
        if self._count:
            self.c_violations.add(len(report) - before)

    def _emit(self, report: ViolationReport) -> None:
        raise NotImplementedError

    def corpus_aggregate(self) -> "dict | None":
        """The JSON-safe partial aggregate a shard node exports for the
        coordinator's merge fold, or None for shard-local constraints.

        Only meaningful after :meth:`full`; merge-class evaluators
        override this.  The aggregate must be a deterministic function
        of the document (sorted values, document-order vertices) so the
        coordinator fold is identical across shard counts.
        """
        return None


def _row_reader(fields: tuple[Field, ...]
                ) -> Callable[[Vertex], tuple[str, ...] | None]:
    """``v -> row``: the value row of ``v`` along ``fields``; None unless
    every field holds a single value.  Built once per evaluator: an
    attribute field is one ``attr_or_empty`` call per vertex, a
    sub-element field one :meth:`Field.values_on` call."""
    sites = tuple((f.name, f.values_on if f.is_element else None)
                  for f in fields)

    def row_of(v: Vertex) -> tuple[str, ...] | None:
        row: tuple[str, ...] = ()
        for name, sub in sites:
            values = v.attr_or_empty(name) if sub is None else sub(v)
            if len(values) != 1:
                return None
            row += tuple(values)
        return row

    return row_of


class KeyEvaluator(ConstraintEvaluator):
    """``tau[X] -> tau`` via key-value multiplicity counts.

    ``groups`` maps each complete value row to its owners; ``dups``
    tracks (in first-violated order) the rows owned more than once.
    """

    def __init__(self, constraint, index, id_map,
                 fields: tuple[Field, ...]):
        super().__init__(constraint, index, id_map)
        self.element: str = constraint.element
        self.fields = fields
        self._row_of = _row_reader(fields)
        self.labels = frozenset((self.element,))
        self.rows: dict[int, tuple[str, ...] | None] = {}
        self.groups: dict[tuple[str, ...], dict[int, Vertex]] = {}
        self.dups: dict[tuple[str, ...], None] = {}

    def full(self) -> None:
        self.rows.clear()
        self.groups.clear()
        self.dups.clear()
        ext = self.index.extension(self.element)
        for v in ext:
            self.add(v)
        if self._count:
            self.c_visited.add(len(ext))

    def add(self, v: Vertex) -> None:
        row = self._row_of(v)
        self.rows[v.vid] = row
        if row is None:
            return
        if self._count:
            (self.c_hits if row in self.groups else self.c_misses).inc()
        group = self.groups.setdefault(row, {})
        group[v.vid] = v
        if len(group) == 2:
            self.dups[row] = None

    def remove(self, v: Vertex) -> None:
        row = self.rows.pop(v.vid, None)
        if row is None:
            return
        group = self.groups.get(row)
        if group is None:
            return
        group.pop(v.vid, None)
        if len(group) < 2:
            self.dups.pop(row, None)
        if not group:
            del self.groups[row]

    def refresh(self, v: Vertex) -> None:
        if v.vid not in self.rows:
            self.add(v)
            return
        if self._row_of(v) == self.rows[v.vid]:
            return
        self.remove(v)
        self.add(v)

    def _emit(self, report: ViolationReport) -> None:
        for row in self.dups:
            group = self.groups[row]
            report.add(
                "key",
                f"{len(group)} {self.element!r} elements share key value "
                f"{row!r}", str(self.constraint), tuple(group.values()))


class ForeignKeyEvaluator(ConstraintEvaluator):
    """``tau[X] ⊆ tau'[Y]`` via reference counts of target key rows."""

    def __init__(self, constraint: ForeignKey, index, id_map):
        super().__init__(constraint, index, id_map)
        self.element = constraint.element
        self.fields = constraint.fields
        self.target = constraint.target
        self.target_fields = constraint.target_fields
        self._src_row = _row_reader(self.fields)
        self._target_row = _row_reader(self.target_fields)
        self.labels = frozenset((self.element, self.target))
        self.src_rows: dict[int, tuple[str, ...] | None] = {}
        self.src_by_row: dict[tuple[str, ...], dict[int, Vertex]] = {}
        self.incomplete: dict[int, Vertex] = {}
        self.dangling: dict[int, Vertex] = {}
        self.target_rows: dict[int, tuple[str, ...] | None] = {}
        self.target_count: dict[tuple[str, ...], int] = {}

    def full(self) -> None:
        for store in (self.src_rows, self.src_by_row, self.incomplete,
                      self.dangling, self.target_rows, self.target_count):
            store.clear()
        targets = self.index.extension(self.target)
        for v in targets:
            self._add_target(v)
        sources = self.index.extension(self.element)
        for v in sources:
            self._add_source(v)
        if self._count:
            self.c_visited.add(len(targets) + len(sources))

    def add(self, v: Vertex) -> None:
        if v.label == self.target:
            self._add_target(v)
        if v.label == self.element:
            self._add_source(v)

    def remove(self, v: Vertex) -> None:
        if v.label == self.element:
            self._remove_source(v)
        if v.label == self.target:
            self._remove_target(v)

    def refresh(self, v: Vertex) -> None:
        if v.label == self.target:
            if v.vid not in self.target_rows:
                self._add_target(v)
            elif self._target_row(v) != self.target_rows[v.vid]:
                self._remove_target(v)
                self._add_target(v)
        if v.label == self.element:
            if v.vid not in self.src_rows:
                self._add_source(v)
            elif self._src_row(v) != self.src_rows[v.vid]:
                self._remove_source(v)
                self._add_source(v)

    def _add_target(self, v: Vertex) -> None:
        row = self._target_row(v)
        self.target_rows[v.vid] = row
        if row is None:
            return
        n = self.target_count.get(row, 0)
        self.target_count[row] = n + 1
        if n == 0:  # the row just became available: resolve its references
            for vid in self.src_by_row.get(row, {}):
                self.dangling.pop(vid, None)

    def _remove_target(self, v: Vertex) -> None:
        row = self.target_rows.pop(v.vid, None)
        if row is None:
            return
        n = self.target_count[row] - 1
        if n:
            self.target_count[row] = n
        else:
            del self.target_count[row]
            for vid, sv in self.src_by_row.get(row, {}).items():
                self.dangling[vid] = sv

    def _add_source(self, v: Vertex) -> None:
        row = self._src_row(v)
        self.src_rows[v.vid] = row
        if row is None:
            self.incomplete[v.vid] = v
            return
        self.src_by_row.setdefault(row, {})[v.vid] = v
        resolved = bool(self.target_count.get(row))
        if self._count:
            (self.c_hits if resolved else self.c_misses).inc()
        if not resolved:
            self.dangling[v.vid] = v

    def _remove_source(self, v: Vertex) -> None:
        if v.vid not in self.src_rows:
            return
        row = self.src_rows.pop(v.vid)
        if row is None:
            self.incomplete.pop(v.vid, None)
            return
        by_row = self.src_by_row.get(row)
        if by_row is not None:
            by_row.pop(v.vid, None)
            if not by_row:
                del self.src_by_row[row]
        self.dangling.pop(v.vid, None)

    def _emit(self, report: ViolationReport) -> None:
        for vid, v in self.dangling.items():
            report.add(
                "foreign-key",
                f"{self.element!r} element has {self.src_rows[vid]!r} with "
                f"no matching {self.target!r} key",
                str(self.constraint), (v,))
        for v in self.incomplete.values():
            report.add(
                "foreign-key",
                f"{self.element!r} element lacks single values for "
                "the foreign-key fields", str(self.constraint), (v,))


class ValueForeignKeyEvaluator(ConstraintEvaluator):
    """Unary / set-valued / ID foreign keys via target value counts.

    ``missing`` counts, per source vertex, how many of its values have no
    owner on the target side; transitions of a target value between zero
    and positive ownership adjust exactly the sources indexed under that
    value in ``src_by_value``.
    """

    def __init__(self, constraint, index, id_map, *, set_valued: bool,
                 target_field: Field, id_style: bool):
        super().__init__(constraint, index, id_map)
        self.element = constraint.element
        self.field: Field = constraint.field
        self.target = constraint.target
        self.set_valued = set_valued
        self.id_style = id_style
        # L_id reference constraints resolve against corpus-wide IDs
        self.locality = "merge" if id_style else "local"
        self.code = "set-foreign-key" if set_valued else "foreign-key"
        self.labels = frozenset((self.element, self.target))
        self.targets = FieldIndex(self.target, target_field)
        self.src_values: dict[int, frozenset[str]] = {}
        self.src_by_value: dict[str, dict[int, Vertex]] = {}
        self.not_single: set[int] = set()
        self.missing: dict[int, int] = {}
        self.violating: dict[int, Vertex] = {}

    def full(self) -> None:
        self.targets.clear()
        for store in (self.src_values, self.src_by_value, self.missing,
                      self.violating):
            store.clear()
        self.not_single.clear()
        targets = self.index.extension(self.target)
        for v in targets:
            self.targets.add(v)
        sources = self.index.extension(self.element)
        for v in sources:
            self._add_source(v)
        if self._count:
            self.c_visited.add(len(targets) + len(sources))

    def add(self, v: Vertex) -> None:
        if v.label == self.target:
            _values, appeared = self.targets.add(v)
            if appeared:
                self._cover(appeared)
        if v.label == self.element:
            self._add_source(v)

    def remove(self, v: Vertex) -> None:
        if v.label == self.element:
            self._remove_source(v)
        if v.label == self.target:
            _values, disappeared = self.targets.remove(v)
            self._uncover(disappeared)

    def refresh(self, v: Vertex) -> None:
        if v.label == self.target:
            _old, _new, appeared, disappeared = self.targets.refresh(v)
            self._cover(appeared)
            self._uncover(disappeared)
        if v.label == self.element:
            if v.vid not in self.src_values:
                self._add_source(v)
            elif self.field.values_on(v) != self.src_values[v.vid]:
                self._remove_source(v)
                self._add_source(v)

    def _cover(self, appeared: set[str]) -> None:
        for value in appeared:
            for vid in self.src_by_value.get(value, {}):
                self.missing[vid] -= 1
                if not self.missing[vid] and vid not in self.not_single:
                    self.violating.pop(vid, None)

    def _uncover(self, disappeared: set[str]) -> None:
        for value in disappeared:
            for vid, sv in self.src_by_value.get(value, {}).items():
                self.missing[vid] += 1
                self.violating.setdefault(vid, sv)

    def _add_source(self, v: Vertex) -> None:
        values = self.field.values_on(v)
        self.src_values[v.vid] = values
        miss = 0
        for value in values:
            self.src_by_value.setdefault(value, {})[v.vid] = v
            if not self.targets.count(value):
                miss += 1
        if self._count and values:
            self.c_misses.add(miss)
            self.c_hits.add(len(values) - miss)
        self.missing[v.vid] = miss
        bad = miss > 0
        if not self.set_valued and len(values) != 1:
            self.not_single.add(v.vid)
            bad = True
        if bad:
            self.violating[v.vid] = v

    def _remove_source(self, v: Vertex) -> None:
        values = self.src_values.pop(v.vid, None)
        if values is None:
            return
        for value in values:
            by_value = self.src_by_value.get(value)
            if by_value is not None:
                by_value.pop(v.vid, None)
                if not by_value:
                    del self.src_by_value[value]
        self.missing.pop(v.vid, None)
        self.not_single.discard(v.vid)
        self.violating.pop(v.vid, None)

    def _emit(self, report: ViolationReport) -> None:
        for vid, v in self.violating.items():
            if vid in self.not_single:
                report.add(
                    self.code,
                    f"{self.element!r} element lacks a single "
                    f"{self.field} value", str(self.constraint), (v,))
                continue
            missing = sorted(value for value in self.src_values[vid]
                             if not self.targets.count(value))
            if self.id_style:
                message = (f"value(s) {missing!r} are not IDs of "
                           f"{self.target!r} elements")
            else:
                message = (f"value(s) {missing!r} not among "
                           f"{self.target}.{self.targets.field} values")
            report.add(self.code, message, str(self.constraint), (v,))

    def corpus_aggregate(self) -> "dict | None":
        if not self.id_style:
            return None
        missing = sorted(value for value in self.src_by_value
                         if not self.targets.count(value))
        return {"kind": "ref",
                "missing": missing,
                "targets": sorted(self.targets.owners)}


class _InverseDirection:
    """One implication direction of an inverse constraint:

    ``∀x ∈ ext(a), y ∈ ext(b): x.key_a ∈ y.field_b → y.key_b ∈ x.field_a``

    ``pairs`` holds the violated (x, y) pairings; any change to x or y
    triggers recomputation of exactly the pairs incident to it, found
    through the two value->owners indexes.
    """

    __slots__ = ("a_label", "key_a", "field_a", "b_label", "key_b",
                 "field_b", "key_a_index", "field_b_index", "pairs",
                 "by_x", "by_y", "_count", "c_hits", "c_misses")

    def __init__(self, a_label: str, key_a: Field, field_a: Field,
                 b_label: str, key_b: Field, field_b: Field):
        self.a_label = a_label
        self.key_a = key_a
        self.field_a = field_a
        self.b_label = b_label
        self.key_b = key_b
        self.field_b = field_b
        self.key_a_index = FieldIndex(a_label, key_a)
        self.field_b_index = FieldIndex(b_label, field_b)
        self.pairs: dict[tuple[int, int], tuple[Vertex, Vertex, str]] = {}
        self.by_x: dict[int, set[int]] = {}
        self.by_y: dict[int, set[int]] = {}
        self._count = False
        self.c_hits = NULL_INSTRUMENT
        self.c_misses = NULL_INSTRUMENT

    def clear(self) -> None:
        self.key_a_index.clear()
        self.field_b_index.clear()
        self.pairs.clear()
        self.by_x.clear()
        self.by_y.clear()

    def index_vertex(self, v: Vertex) -> None:
        if v.label == self.a_label:
            self.key_a_index.add(v)
        if v.label == self.b_label:
            self.field_b_index.add(v)

    def unindex_vertex(self, v: Vertex) -> None:
        if v.label == self.a_label:
            self.key_a_index.remove(v)
            self.drop_x(v.vid)
        if v.label == self.b_label:
            self.field_b_index.remove(v)
            self.drop_y(v.vid)

    def refresh_vertex(self, v: Vertex) -> None:
        if v.label == self.a_label:
            self.key_a_index.refresh(v)
        if v.label == self.b_label:
            self.field_b_index.refresh(v)

    def drop_x(self, vid: int) -> None:
        for yvid in self.by_x.pop(vid, ()):
            self.pairs.pop((vid, yvid), None)
            peers = self.by_y.get(yvid)
            if peers is not None:
                peers.discard(vid)
                if not peers:
                    del self.by_y[yvid]

    def drop_y(self, vid: int) -> None:
        for xvid in self.by_y.pop(vid, ()):
            self.pairs.pop((xvid, vid), None)
            peers = self.by_x.get(xvid)
            if peers is not None:
                peers.discard(vid)
                if not peers:
                    del self.by_x[xvid]

    def recompute_x(self, x: Vertex) -> None:
        """Re-derive every pair whose key-owning side is ``x``."""
        self.drop_x(x.vid)
        key_value = self.key_a.single_on(x)
        if key_value is None:
            return
        for y in self.field_b_index.owners_of(key_value):
            self._judge(x, key_value, y)

    def recompute_y(self, y: Vertex) -> None:
        """Re-derive every pair whose mentioning side is ``y``."""
        self.drop_y(y.vid)
        for value in self.field_b_index.values_of(y.vid):
            for x in self.key_a_index.owners_of(value):
                if self.key_a.single_on(x) == value:
                    self._judge(x, value, y)

    def _judge(self, x: Vertex, key_value: str, y: Vertex) -> None:
        back = self.key_b.single_on(y)
        if back is not None and back in self.field_a.values_on(x):
            if self._count:
                self.c_hits.inc()
            return
        if self._count:
            self.c_misses.inc()
        self.pairs[(x.vid, y.vid)] = (x, y, key_value)
        self.by_x.setdefault(x.vid, set()).add(y.vid)
        self.by_y.setdefault(y.vid, set()).add(x.vid)


class InverseEvaluator(ConstraintEvaluator):
    """``L_u`` / ``L_id`` inverse constraints via violated-pair state."""

    def __init__(self, constraint, index, id_map, *,
                 element: str, key_field: Field, field: Field,
                 target: str, target_key_field: Field, target_field: Field,
                 word: str):
        super().__init__(constraint, index, id_map)
        self.word = word  # "key" for L_u inverses, "ID" for L_id ones
        # ID inverses pair elements through corpus-wide ID values
        self.locality = "merge" if word == "ID" else "local"
        self.labels = frozenset((element, target))
        self.directions = (
            _InverseDirection(element, key_field, field,
                              target, target_key_field, target_field),
            _InverseDirection(target, target_key_field, target_field,
                              element, key_field, field),
        )

    def attach_obs(self, obs) -> None:
        super().attach_obs(obs)
        for d in self.directions:
            d._count = self._count
            d.c_hits = self.c_hits
            d.c_misses = self.c_misses

    def full(self) -> None:
        for d in self.directions:
            d.clear()
        n = 0
        for label in sorted(self.labels):
            ext = self.index.extension(label)
            n += len(ext)
            for v in ext:
                for d in self.directions:
                    d.index_vertex(v)
        for d in self.directions:
            for x in self.index.extension(d.a_label):
                d.recompute_x(x)
        if self._count:
            self.c_visited.add(n)

    def add(self, v: Vertex) -> None:
        for d in self.directions:
            d.index_vertex(v)
        self._recompute(v)

    def remove(self, v: Vertex) -> None:
        for d in self.directions:
            d.unindex_vertex(v)

    def refresh(self, v: Vertex) -> None:
        for d in self.directions:
            d.refresh_vertex(v)
        self._recompute(v)

    def _recompute(self, v: Vertex) -> None:
        for d in self.directions:
            if v.label == d.a_label:
                d.recompute_x(v)
            if v.label == d.b_label:
                d.recompute_y(v)

    def _emit(self, report: ViolationReport) -> None:
        for d in self.directions:
            for x, y, key_value in d.pairs.values():
                report.add(
                    "inverse",
                    f"{d.b_label!r} element references {d.a_label!r} "
                    f"{self.word} {key_value!r} but is not referenced back",
                    str(self.constraint), (x, y))

    def corpus_aggregate(self) -> "dict | None":
        if self.word != "ID":
            return None
        d = self.directions[0]

        def side(label: str, key_field: Field, ref_field: Field) -> list:
            return [[key_field.single_on(v),
                     sorted(ref_field.values_on(v))]
                    for v in self.index.extension(label)]

        return {"kind": "inverse",
                "element": side(d.a_label, d.key_a, d.field_a),
                "target": side(d.b_label, d.key_b, d.field_b)}


class IDConstraintEvaluator(ConstraintEvaluator):
    """``tau.id ->id tau``: document-wide uniqueness of ID values.

    Clash status is re-derived per changed ID value from the tree-wide
    ``id_owners`` index, which the caller keeps current.
    """

    locality = "merge"  # ID uniqueness is corpus-wide, not per-document

    def __init__(self, constraint: IDConstraint, index, id_map,
                 id_attr: str):
        super().__init__(constraint, index, id_map)
        self.element = constraint.element
        self.id_attr = id_attr
        self.labels = frozenset((self.element,))
        self.members: dict[int, Vertex] = {}
        self.not_single: dict[int, Vertex] = {}
        self.id_of: dict[int, str] = {}
        self.clashing: dict[int, Vertex] = {}

    def full(self) -> None:
        for store in (self.members, self.not_single, self.id_of,
                      self.clashing):
            store.clear()
        ext = self.index.extension(self.element)
        for v in ext:
            self.add(v)
        if self._count:
            self.c_visited.add(len(ext))

    def add(self, v: Vertex) -> None:
        self.members[v.vid] = v
        values = v.attr_or_empty(self.id_attr)
        if len(values) != 1:
            self.not_single[v.vid] = v
            return
        (value,) = values
        self.id_of[v.vid] = value
        if self._count:
            # id_owners already contains v itself; a second owner means
            # the document-wide index knew this value before v claimed it
            owners = self.index.id_owners.get(value)
            (self.c_hits if owners and len(owners) > 1
             else self.c_misses).inc()
        self._recheck_value(value)

    def remove(self, v: Vertex) -> None:
        self.members.pop(v.vid, None)
        self.not_single.pop(v.vid, None)
        self.clashing.pop(v.vid, None)
        value = self.id_of.pop(v.vid, None)
        if value is not None:
            self._recheck_value(value)

    def refresh(self, v: Vertex) -> None:
        if v.vid not in self.members:
            self.add(v)
            return
        values = v.attr_or_empty(self.id_attr)
        if len(values) == 1 and self.id_of.get(v.vid) == next(iter(values)):
            return
        self.remove(v)
        self.add(v)

    def id_values_changed(self, values: AbstractSet[str]) -> None:
        for value in values:
            self._recheck_value(value)

    def _recheck_value(self, value: str) -> None:
        owners = self.index.id_owners.get(value, {})
        clash = len(owners) > 1
        for vid, owner in owners.items():
            if owner.label != self.element or vid not in self.id_of:
                continue
            if clash:
                self.clashing[vid] = owner
            else:
                self.clashing.pop(vid, None)

    def _emit(self, report: ViolationReport) -> None:
        for v in self.not_single.values():
            report.add("id",
                       f"{self.element!r} element lacks a single ID "
                       "value", str(self.constraint), (v,))
        for vid, v in self.clashing.items():
            value = self.id_of[vid]
            others = [o for o in self.index.id_owner_list(value)
                      if o is not v]
            report.add(
                "id-clash",
                f"ID value {value!r} is shared by multiple elements",
                str(self.constraint), (v, *others))

    def corpus_aggregate(self) -> "dict | None":
        owners_out = []
        for value in sorted(self.index.id_owners):
            owners = self.index.id_owners[value]
            n_element = sum(1 for vid, o in owners.items()
                            if o.label == self.element
                            and vid in self.id_of)
            owners_out.append([value, len(owners), n_element])
        return {"kind": "id", "owners": owners_out}


class StaticViolationEvaluator(ConstraintEvaluator):
    """A constraint that can never hold on this schema (e.g. an ``L_id``
    constraint over a type with no declared ID attribute)."""

    def __init__(self, constraint, index, id_map, code: str, message: str):
        super().__init__(constraint, index, id_map)
        self.code = code
        self.message = message

    def full(self) -> None:
        pass

    def _emit(self, report: ViolationReport) -> None:
        report.add(self.code, self.message, str(self.constraint))


def evaluator_for(constraint: Constraint, index: AttributeIndex,
                  id_map: dict[str, str], obs=None) -> ConstraintEvaluator:
    """The evaluator object implementing ``constraint`` over ``index``.

    With a truthy ``obs`` handle, the evaluator's per-constraint
    counters are live; by default they are shared no-ops.
    """
    ev = _make_evaluator(constraint, index, id_map)
    if obs:
        ev.attach_obs(obs)
    return ev


def _make_evaluator(constraint: Constraint, index: AttributeIndex,
                    id_map: dict[str, str]) -> ConstraintEvaluator:
    if isinstance(constraint, Key):
        return KeyEvaluator(constraint, index, id_map,
                            fields=constraint.fields)
    if isinstance(constraint, UnaryKey):
        return KeyEvaluator(constraint, index, id_map,
                            fields=(constraint.field,))
    if isinstance(constraint, ForeignKey):
        return ForeignKeyEvaluator(constraint, index, id_map)
    if isinstance(constraint, (UnaryForeignKey, SetValuedForeignKey)):
        return ValueForeignKeyEvaluator(
            constraint, index, id_map,
            set_valued=isinstance(constraint, SetValuedForeignKey),
            target_field=constraint.target_field, id_style=False)
    if isinstance(constraint, Inverse):
        return InverseEvaluator(
            constraint, index, id_map,
            element=constraint.element, key_field=constraint.key_field,
            field=constraint.field, target=constraint.target,
            target_key_field=constraint.target_key_field,
            target_field=constraint.target_field, word="key")
    if isinstance(constraint, IDConstraint):
        id_attr = id_map.get(constraint.element)
        if id_attr is None:
            return StaticViolationEvaluator(
                constraint, index, id_map, "id",
                f"element type {constraint.element!r} has no "
                "declared ID attribute")
        return IDConstraintEvaluator(constraint, index, id_map, id_attr)
    if isinstance(constraint, (IDForeignKey, IDSetValuedForeignKey)):
        set_valued = isinstance(constraint, IDSetValuedForeignKey)
        id_attr = id_map.get(constraint.target)
        if id_attr is None:
            return StaticViolationEvaluator(
                constraint, index, id_map,
                "set-foreign-key" if set_valued else "foreign-key",
                f"target type {constraint.target!r} has no "
                "declared ID attribute")
        return ValueForeignKeyEvaluator(
            constraint, index, id_map, set_valued=set_valued,
            target_field=Field(id_attr), id_style=True)
    if isinstance(constraint, IDInverse):
        id_a = id_map.get(constraint.element)
        id_b = id_map.get(constraint.target)
        if id_a is None or id_b is None:
            return StaticViolationEvaluator(
                constraint, index, id_map, "inverse",
                "both element types of an ID inverse need "
                "declared ID attributes")
        return InverseEvaluator(
            constraint, index, id_map,
            element=constraint.element, key_field=Field(id_a),
            field=constraint.field, target=constraint.target,
            target_key_field=Field(id_b),
            target_field=constraint.target_field, word="ID")
    raise ConstraintError(f"unknown constraint type {constraint!r}")
