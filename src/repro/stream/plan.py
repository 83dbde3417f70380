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
- which Σ positions a *constraint kernel* checks (:class:`KernelSpec`,
  decided once per schema from Σ alone): every ``Key``, ``UnaryKey``,
  ``ForeignKey``, ``UnaryForeignKey`` and ``SetValuedForeignKey``
  whose fields are all attributes.  These document-local ``L``/``L_u``
  constraints compare attribute values only, so the scanner feeds
  their kernels from a start tag's attribute map
  (:attr:`StreamPlan.feeds`) and never retains the element;
- per element label: the tuple of the remaining constraint indices
  whose evaluators want to see vertices of that label — the Σ half
  that stays on the *existing*
  :class:`~repro.constraints.evaluators.ConstraintEvaluator` machinery
  (§3.4 sub-element fields, inverses, the ``L_id`` merge class and
  static violations), fed through the same ``add()`` path as an
  incremental insertion;
- the *relevant* label set (labels any of those evaluators or the
  declared-ID bookkeeping cares about): only these vertices are
  retained past their close tag, which is what caps memory at
  O(depth + |Σ| residual state);
- which child labels act as §3.4 sub-element fields of which parents,
  so the validator knows whose text to capture, and which attributes
  the evaluators read per label, so only those are materialized on
  retained vertices.

A plan is compiled once per schema and is picklable (kernel specs are
plain data); the matcher table is dropped on ``__getstate__`` and
rebuilt lazily from the schema in the receiving process (the corpus
coordinator compiles once and ships the plan to its pool workers via
``initargs``, and each worker builds its scanners from it once).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.constraints.evaluators import (
    ForeignKeyEvaluator,
    InverseEvaluator,
    KeyEvaluator,
    StaticViolationEvaluator,
    ValueForeignKeyEvaluator,
    evaluator_for,
)
from repro.constraints.lang_l import ForeignKey, Key
from repro.constraints.lang_lu import (
    SetValuedForeignKey, UnaryForeignKey, UnaryKey,
)
from repro.regexlang.automaton import Matcher, matcher_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.base import Constraint, Field
    from repro.dtd.schema import DTDC
    from repro.dtd.structure import DTDStructure


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
        #: indices into ``plan.constraints`` whose evaluators (not
        #: kernels) are interested in this label
        self.evaluators = evaluators
        #: child labels whose text is a §3.4 sub-element field of this type
        self.elem_fields = elem_fields
        #: attribute names the evaluators can read on this type: their
        #: attribute field sites plus the declared-ID attribute
        #: (``StreamIndex`` reads it); kernels read the attribute map
        self.watched = watched


class KernelSpec:
    """One constraint kernel, as plain data (it pickles with the plan).

    ``kind`` names the evaluator whose report the kernel reproduces:
    ``"key"`` (``Key``/``UnaryKey``, :class:`KeyEvaluator`), ``"rows"``
    (``ForeignKey``, :class:`ForeignKeyEvaluator`) or ``"values"``
    (``UnaryForeignKey``/``SetValuedForeignKey``,
    :class:`ValueForeignKeyEvaluator`).  ``fields`` and
    ``target_fields`` are ``(attribute, set-valued)`` pairs in Σ's
    field order, the flag saying whether the attribute is declared
    set-valued on its owner (``element`` or ``target``), so its value
    splits on whitespace as the batch parser splits it; a key has no
    target.  ``set_valued`` marks a set-valued foreign key (``⊆_S``).
    """

    __slots__ = ("position", "kind", "element", "fields", "target",
                 "target_fields", "set_valued")

    def __init__(self, position: int, kind: str, element: str,
                 fields: tuple[tuple[str, bool], ...], target: str,
                 target_fields: tuple[tuple[str, bool], ...],
                 set_valued: bool):
        self.position = position
        self.kind = kind
        self.element = element
        self.fields = fields
        self.target = target
        self.target_fields = target_fields
        self.set_valued = set_valued


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


def _kernel_spec(position: int, c: "Constraint",
                 structure: "DTDStructure") -> "KernelSpec | None":
    """The kernel checking ``c``, or None when ``c`` stays on its
    evaluator: a class other than the five kernel classes, or a §3.4
    sub-element field."""
    if isinstance(c, Key):
        kind, fields, target, target_fields = "key", c.fields, "", ()
    elif isinstance(c, UnaryKey):
        kind, fields, target, target_fields = "key", (c.field,), "", ()
    elif isinstance(c, ForeignKey):
        kind, fields = "rows", c.fields
        target, target_fields = c.target, c.target_fields
    elif isinstance(c, (UnaryForeignKey, SetValuedForeignKey)):
        kind, fields = "values", (c.field,)
        target, target_fields = c.target, (c.target_field,)
    else:
        return None
    if any(f.is_element for f in fields + target_fields):
        return None

    def sites(owner, fs):
        # set-valued exactly where the batch parser splits the value
        return tuple(
            (f.name, structure.has_element(owner)
             and structure.has_attribute(owner, f.name)
             and structure.is_set_valued(owner, f.name)) for f in fs)

    return KernelSpec(position, kind, c.element, sites(c.element, fields),
                      target, sites(target, target_fields),
                      isinstance(c, SetValuedForeignKey))


class StreamPlan:
    """The compiled form of one ``DTD^C``, ready for single-pass folding."""

    def __init__(self, dtd: "DTDC"):
        self.dtd = dtd
        self.structure = dtd.structure
        self.constraints: tuple["Constraint", ...] = tuple(dtd.constraints)
        self.root: str = self.structure.root
        self.id_map: dict[str, str] = self.structure.id_attribute_map()
        #: ``str(constraint)`` per Σ position: the report's constraint
        #: column and the ``codegen.emit`` span attribute
        self.names: tuple[str, ...] = tuple(map(str, self.constraints))

        #: per Σ position, the kernel checking it, or None for a
        #: constraint that stays on its evaluator
        self.kernels: tuple["KernelSpec | None", ...] = tuple(
            _kernel_spec(i, c, self.structure)
            for i, c in enumerate(self.constraints))
        #: label -> ((Σ position, "source" | "target"), ...): the kernel
        #: feeds a start tag of that label runs, in Σ order (a key's
        #: feed is its "source"; a self-referencing foreign key has both)
        feeds: dict[str, list[tuple[int, str]]] = {}
        for spec in self.kernels:
            if spec is None:
                continue
            if spec.target:
                feeds.setdefault(spec.target, []).append(
                    (spec.position, "target"))
            feeds.setdefault(spec.element, []).append(
                (spec.position, "source"))
        self.feeds: dict[str, tuple[tuple[int, str], ...]] = {
            label: tuple(sites) for label, sites in feeds.items()}

        # Probe the evaluator-path constraints once (evaluators are
        # cheap, stateless until fed) to learn their label interests and
        # field sites; the validator builds fresh instances per document.
        probes = {i: evaluator_for(c, None, self.id_map)
                  for i, c in enumerate(self.constraints)
                  if self.kernels[i] is None}
        #: constraint indices whose evaluators must run a deferred
        #: end-of-document ``full()`` instead of per-close ``add()``
        #: (inverse pair ordering is not reproducible incrementally;
        #: static violations have no state at all)
        self.deferred: frozenset[int] = frozenset(
            i for i, ev in probes.items()
            if isinstance(ev, (InverseEvaluator, StaticViolationEvaluator)))

        #: labels whose vertices must survive their close tag: anything an
        #: evaluator dispatches on, plus every type with a declared ID
        #: attribute (document-wide clash bookkeeping of ``L_id``); a
        #: label only kernels read is not retained
        self.relevant: frozenset[str] = frozenset(
            label for ev in probes.values() for label in ev.labels
        ) | frozenset(self.id_map)

        elem_fields: dict[str, set[str]] = {}
        watched: dict[str, set[str]] = {
            label: {attr} for label, attr in self.id_map.items()}
        for ev in probes.values():
            for owner, f in _field_sites(ev):
                sites = elem_fields if f.is_element else watched
                sites.setdefault(owner, set()).add(f.name)

        self.labels: dict[str, LabelPlan] = {}
        for label in self.structure.element_types:
            interested = tuple(i for i, ev in probes.items()
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
