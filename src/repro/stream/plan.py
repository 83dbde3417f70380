"""Compile ``DTD^C = (S, Σ)`` into a per-element-label dispatch plan.

Batch validation (Definition 2.4) walks a materialized tree three times:
once to build the :class:`~repro.datamodel.indexes.AttributeIndex`, once
for the structural checks, and once per constraint in Σ.  The
single-pass engine (:mod:`repro.codegen`) makes one pass over the
document instead, and this module prepares everything that pass needs
to dispatch in O(1) per element:

- per declared element type: the (lazily-determinized) content-model
  :class:`~repro.regexlang.automaton.Matcher`, the declared attribute
  set, and the set-valued attribute names — the structural half of
  Definition 2.4;
- per element label: the tuple of constraint indices whose evaluators
  want to see vertices of that label — the Σ half, expressed against
  the *existing* :class:`~repro.constraints.evaluators.ConstraintEvaluator`
  machinery so streamed closes run through exactly the same ``add()``
  path as an incremental insertion;
- the *relevant* label set (labels any evaluator or declared-ID
  bookkeeping cares about): only these vertices are retained past their
  close tag, which is what caps memory at O(depth + |Σ| residual state);
- which child labels act as §3.4 sub-element fields of which parents,
  so the validator knows whose text to capture, and which attributes Σ
  reads per label, so only those are materialized on retained vertices.

A plan is compiled once per schema and is picklable: the matcher table
is dropped on ``__getstate__`` and rebuilt lazily from the schema in the
receiving process (the corpus coordinator compiles once and ships the
plan to its pool workers via ``initargs``, and each worker builds its
scanners from it once).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.constraints.evaluators import (
    ForeignKeyEvaluator,
    IDConstraintEvaluator,
    InverseEvaluator,
    KeyEvaluator,
    StaticViolationEvaluator,
    ValueForeignKeyEvaluator,
    evaluator_for,
)
from repro.regexlang.automaton import Matcher, matcher_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.base import Constraint, Field
    from repro.dtd.schema import DTDC


class LabelPlan:
    """Everything the single pass needs to know about one element type."""

    __slots__ = ("label", "declared_attrs", "set_valued", "evaluators",
                 "elem_fields", "watched")

    def __init__(self, label: str, declared_attrs: frozenset[str],
                 set_valued: frozenset[str], evaluators: tuple[int, ...],
                 elem_fields: frozenset[str], watched: frozenset[str]):
        self.label = label
        #: declared attribute names, in the exact ``structure.attributes``
        #: order the batch validator iterates for missing-attribute checks
        self.declared_attrs = declared_attrs
        self.set_valued = set_valued
        #: indices into ``plan.constraints`` interested in this label
        self.evaluators = evaluators
        #: child labels whose text is a §3.4 sub-element field of this type
        self.elem_fields = elem_fields
        #: attribute names Σ can read on this type: attribute field sites
        #: plus the declared-ID attribute (``StreamIndex`` reads it)
        self.watched = watched


def _field_sites(ev) -> list[tuple[str, "Field"]]:
    """The (owner label, field) pairs an evaluator reads values through."""
    if isinstance(ev, KeyEvaluator):
        return [(ev.element, f) for f in ev.fields]
    if isinstance(ev, ForeignKeyEvaluator):
        return ([(ev.element, f) for f in ev.fields]
                + [(ev.target, f) for f in ev.target_fields])
    if isinstance(ev, ValueForeignKeyEvaluator):
        return [(ev.element, ev.field), (ev.target, ev.targets.field)]
    if isinstance(ev, InverseEvaluator):
        sites: list[tuple[str, "Field"]] = []
        for d in ev.directions:
            sites += [(d.a_label, d.key_a), (d.a_label, d.field_a),
                      (d.b_label, d.key_b), (d.b_label, d.field_b)]
        return sites
    return []  # IDConstraint reads attributes only; static never reads


class StreamPlan:
    """The compiled form of one ``DTD^C``, ready for single-pass folding."""

    def __init__(self, dtd: "DTDC"):
        self.dtd = dtd
        self.structure = dtd.structure
        self.constraints: tuple["Constraint", ...] = tuple(dtd.constraints)
        self.root: str = self.structure.root
        self.id_map: dict[str, str] = self.structure.id_attribute_map()

        # Probe evaluators once (they are cheap, stateless until fed) to
        # learn each constraint's label interests and field sites; the
        # validator builds fresh instances per document.
        probes = [evaluator_for(c, None, self.id_map)
                  for c in self.constraints]
        #: constraint indices whose evaluators must run a deferred
        #: end-of-document ``full()`` instead of per-close ``add()``
        #: (inverse pair ordering is not reproducible incrementally;
        #: static violations have no state at all)
        self.deferred: frozenset[int] = frozenset(
            i for i, ev in enumerate(probes)
            if isinstance(ev, (InverseEvaluator, StaticViolationEvaluator)))
        self.has_id_evaluators: bool = any(
            isinstance(ev, IDConstraintEvaluator) for ev in probes)

        #: labels whose vertices must survive their close tag: anything an
        #: evaluator dispatches on, plus every type with a declared ID
        #: attribute (document-wide clash bookkeeping of ``L_id``)
        self.relevant: frozenset[str] = frozenset(
            label for ev in probes for label in ev.labels) | frozenset(
            self.id_map)

        elem_fields: dict[str, set[str]] = {}
        watched: dict[str, set[str]] = {
            label: {attr} for label, attr in self.id_map.items()}
        for ev in probes:
            for owner, f in _field_sites(ev):
                sites = elem_fields if f.is_element else watched
                sites.setdefault(owner, set()).add(f.name)

        self.labels: dict[str, LabelPlan] = {}
        for label in self.structure.element_types:
            interested = tuple(i for i, ev in enumerate(probes)
                               if label in ev.labels and i not in
                               self.deferred)
            declared = self.structure.attributes(label)
            self.labels[label] = LabelPlan(
                label, declared,
                frozenset(a for a in declared
                          if self.structure.is_set_valued(label, a)),
                interested, frozenset(elem_fields.get(label, ())),
                frozenset(watched.get(label, ())))

        #: child labels captured as text anywhere (union of elem_fields)
        self.text_fields: frozenset[str] = frozenset(
            name for names in elem_fields.values() for name in names)

        self._matchers: dict[str, Matcher] | None = None

    # -- content-model automata (lazy; rebuilt after unpickling) ---------

    @property
    def matchers(self) -> dict[str, Matcher]:
        if self._matchers is None:
            self._matchers = {
                label: matcher_for(self.structure.content(label))
                for label in self.structure.element_types}
        return self._matchers

    # -- pickling --------------------------------------------------------

    def __getstate__(self):
        # Matchers hold lazily-built DFA tables keyed into a per-process
        # module cache; ship the schema and rebuild on first use instead.
        state = self.__dict__.copy()
        state["_matchers"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def compile_plan(dtd: "DTDC") -> StreamPlan:
    """Compile ``dtd`` into a :class:`StreamPlan` (once per schema)."""
    return StreamPlan(dtd)
