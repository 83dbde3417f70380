"""Compile ``DTD^C = (S, Σ)`` into the single-pass engine's plan.

Batch validation (Definition 2.4) walks a materialized tree three times:
once to build the :class:`~repro.datamodel.indexes.AttributeIndex`, once
for the structural checks, and once per constraint in Σ.  The
single-pass engine (:mod:`repro.codegen`) makes one pass over the
document instead, and this module prepares everything that pass needs
to handle each element in O(1):

- per declared element type: the (lazily-determinized) content-model
  :class:`~repro.regexlang.automaton.Matcher`, the declared attribute
  set and declaration order, and the set-valued attribute names — the
  structural half of Definition 2.4;
- which Σ positions a *constraint kernel* checks (:class:`KernelSpec`,
  decided once per schema from Σ alone): every ``Key``, ``UnaryKey``,
  ``ForeignKey``, ``UnaryForeignKey`` and ``SetValuedForeignKey``
  whose fields are all attributes, every ``IDConstraint`` over a type
  with a declared ID attribute, and every ``IDForeignKey`` and
  ``IDSetValuedForeignKey`` with an attribute field into such a type.
  These constraints compare attribute values only, so the scanner
  feeds their kernels from a start tag's attribute map
  (:attr:`StreamPlan.feeds`, and the document's ID owner table at
  every ID-bearing label, :attr:`StreamPlan.id_owners`) and never
  retains the element;
- the *relevant* label set: the labels the remaining constraints'
  evaluators read — the Σ half that stays on the *existing*
  :class:`~repro.constraints.evaluators.ConstraintEvaluator` machinery
  (§3.4 sub-element fields, inverses and static violations).  Only
  these elements are retained, each with its whole attribute map, and
  each such constraint is checked by one batch ``full()`` pass over
  them when the document ends;
- which child labels act as §3.4 sub-element fields of which parents
  (:attr:`StreamPlan.elem_fields`, keyed by every label Σ names such
  a field on, declared or not), so the scanner knows whose text to
  capture;
- the *run labels* (:attr:`StreamPlan.runs`): the leaves whose runs the
  scanner consumes with bounded regex matches, decided once from
  ``(S, Σ)`` — a kernel-fed leaf maps to its declared attributes, whose
  values in a run feed each kernel as columns, and a leaf nothing reads
  maps to ``()``.

A plan is compiled once per schema and is picklable (kernel specs are
plain data); the matcher table is dropped on ``__getstate__`` and
rebuilt lazily from the schema in the receiving process (the corpus
coordinator compiles once and ships the plan to its pool workers via
``initargs``, and each worker builds its scanners from it once).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.constraints.base import Field
from repro.constraints.evaluators import (
    ForeignKeyEvaluator,
    InverseEvaluator,
    KeyEvaluator,
    ValueForeignKeyEvaluator,
    evaluator_for,
)
from repro.constraints.lang_l import ForeignKey, Key
from repro.constraints.lang_lid import (
    IDConstraint, IDForeignKey, IDSetValuedForeignKey,
)
from repro.constraints.lang_lu import (
    SetValuedForeignKey, UnaryForeignKey, UnaryKey,
)
from repro.regexlang.automaton import Matcher, matcher_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.base import Constraint
    from repro.dtd.schema import DTDC
    from repro.dtd.structure import DTDStructure


class LabelPlan:
    """Everything the single pass needs to know about one element type."""

    __slots__ = ("label", "declared_attrs", "attr_order", "set_valued")

    def __init__(self, label: str, declared_attrs: frozenset[str],
                 attr_order: tuple[str, ...], set_valued: frozenset[str]):
        self.label = label
        #: declared attribute names, in the exact ``structure.attributes``
        #: order the batch validator iterates for missing-attribute checks
        self.declared_attrs = declared_attrs
        #: the same names in declaration order: the order a column run's
        #: pattern admits them in
        self.attr_order = attr_order
        self.set_valued = set_valued


class KernelSpec:
    """One constraint kernel, as plain data (it pickles with the plan).

    ``kind`` names the evaluator whose report the kernel reproduces:
    ``"key"`` (``Key``/``UnaryKey``, :class:`KeyEvaluator`), ``"rows"``
    (``ForeignKey``, :class:`ForeignKeyEvaluator`), ``"values"``
    (``UnaryForeignKey``/``SetValuedForeignKey``,
    :class:`ValueForeignKeyEvaluator`), ``"id"`` (``IDConstraint``,
    :class:`~repro.constraints.evaluators.IDConstraintEvaluator`) or
    ``"refs"`` (``IDForeignKey``/``IDSetValuedForeignKey``, an ID-style
    :class:`ValueForeignKeyEvaluator`).  ``fields`` and
    ``target_fields`` are ``(attribute, set-valued)`` pairs in Σ's
    field order, the flag saying whether the attribute is declared
    set-valued on its owner (``element`` or ``target``), so its value
    splits on whitespace as the batch parser splits it; an ID
    reference's target field is the target's ID attribute, and an
    ``"id"`` kernel's one field is ``element``'s.  Keys and ``"id"``
    kernels have no target.  ``set_valued`` marks a set-valued foreign
    key (``⊆_S``).
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


def _field_sites(ev) -> list[tuple[str, Field]]:
    """The (owner label, field) pairs an evaluator reads values through."""
    if isinstance(ev, KeyEvaluator):
        return [(ev.element, f) for f in ev.fields]
    if isinstance(ev, ForeignKeyEvaluator):
        return ([(ev.element, f) for f in ev.fields]
                + [(ev.target, f) for f in ev.target_fields])
    if isinstance(ev, ValueForeignKeyEvaluator):
        return [(ev.element, ev.field), (ev.target, ev.targets.field)]
    if isinstance(ev, InverseEvaluator):
        sites: list[tuple[str, Field]] = []
        for d in ev.directions:
            sites += [(d.a_label, d.key_a), (d.a_label, d.field_a),
                      (d.b_label, d.key_b), (d.b_label, d.field_b)]
        return sites
    return []  # static violations never read


def _kernel_spec(position: int, c: "Constraint", structure: "DTDStructure",
                 id_map: dict[str, str]) -> "KernelSpec | None":
    """The kernel checking ``c``, or None when ``c`` stays on its
    evaluator: an inverse, a §3.4 sub-element field, or an ``L_id``
    constraint over a type with no declared ID attribute (statically
    violated)."""
    if isinstance(c, IDConstraint):
        id_attr = id_map.get(c.element)
        if id_attr is None:
            return None
        kind, fields, target, target_fields = "id", (Field(id_attr),), "", ()
    elif isinstance(c, (IDForeignKey, IDSetValuedForeignKey)):
        id_attr = id_map.get(c.target)
        if id_attr is None:
            return None
        kind, fields = "refs", (c.field,)
        target, target_fields = c.target, (Field(id_attr),)
    elif isinstance(c, Key):
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

    return KernelSpec(
        position, kind, c.element, sites(c.element, fields), target,
        sites(target, target_fields),
        isinstance(c, (SetValuedForeignKey, IDSetValuedForeignKey)))


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
            _kernel_spec(i, c, self.structure, self.id_map)
            for i, c in enumerate(self.constraints))
        #: label -> its declared ID attribute, for the labels whose start
        #: tags feed the document's ID owner table: every ID-bearing
        #: label when an ``"id"`` kernel reads the table, none otherwise
        self.id_owners: dict[str, str] = (
            dict(self.id_map) if any(
                spec is not None and spec.kind == "id"
                for spec in self.kernels) else {})
        #: label -> ((Σ position, "source" | "target"), ...): the kernel
        #: feeds a start tag of that label runs, in Σ order (a key's
        #: feed is its "source"; a self-referencing foreign key has both;
        #: an ``"id"`` kernel has none, it reads the owner table)
        feeds: dict[str, list[tuple[int, str]]] = {}
        for spec in self.kernels:
            if spec is None or spec.kind == "id":
                continue
            if spec.target:
                feeds.setdefault(spec.target, []).append(
                    (spec.position, "target"))
            feeds.setdefault(spec.element, []).append(
                (spec.position, "source"))
        self.feeds: dict[str, tuple[tuple[int, str], ...]] = {
            label: tuple(sites) for label, sites in feeds.items()}

        # Probe the evaluator-path constraints once (evaluators are
        # cheap, stateless until fed) to learn the labels and §3.4
        # fields they read; the run state builds fresh instances per
        # document.
        probes = [evaluator_for(c, None, self.id_map)
                  for c, spec in zip(self.constraints, self.kernels)
                  if spec is None]

        #: labels whose elements are retained for the evaluators: every
        #: label one reads; a label only kernels (or the ID owner table)
        #: read is not retained
        self.relevant: frozenset[str] = frozenset(
            label for ev in probes for label in ev.labels)

        elem_fields: dict[str, set[str]] = {}
        for ev in probes:
            for owner, f in _field_sites(ev):
                if f.is_element:
                    elem_fields.setdefault(owner, set()).add(f.name)
        #: label -> the child labels whose text is a §3.4 sub-element
        #: field of it, for every label Σ names such a field on
        #: (declared or not)
        self.elem_fields: dict[str, frozenset[str]] = {
            owner: frozenset(names) for owner, names in elem_fields.items()}
        #: child labels captured as text anywhere (union of elem_fields)
        self.text_fields: frozenset[str] = frozenset().union(
            *self.elem_fields.values())

        self.labels: dict[str, LabelPlan] = {}
        for label in self.structure.element_types:
            declared = self.structure.attributes(label)
            self.labels[label] = LabelPlan(
                label, declared, self.structure.attribute_order(label),
                frozenset(a for a in declared
                          if self.structure.is_set_valued(label, a)))

        self._matchers: dict[str, Matcher] | None = None

        #: label -> (the attributes its run elements carry, in
        #: declaration order; whether one text chunk is legal in it), for
        #: every label whose runs the scanner consumes with one regex
        #: match per run (:meth:`_runs`)
        self.runs: dict[str, tuple[tuple[str, ...], bool]] = self._runs()

    def _runs(self) -> dict[str, tuple[tuple[str, ...], bool]]:
        """The leaf labels whose runs the scanner may consume with one
        regex match per run, each mapped to the attributes a run element
        carries and whether one text chunk is legal in it.

        Such a label is admitted as a child by some content model,
        retained by no evaluator and captured as text by no parent, and
        its own content model accepts the empty word.  Either a kernel
        or the ID owner table reads it, and every attribute they read
        on it is declared on it and single-valued: it maps to its
        declared attributes, and a run element (``<L a1="…" a2="…"/>``,
        exactly those attributes) carries a complete single-valued row
        for every kernel, which takes the run's values as columns.  Or
        nothing reads it and it declares no attributes: it maps to
        ``()``, and a run element (``<L/>``, ``<L></L>`` and, when text
        is legal, ``<L>text</L>``) contributes nothing to the report
        beyond a vid and one parent-DFA step.  Either way an element the
        run pattern takes has no structural violation of its own.
        """
        reads: dict[str, set[str]] = {
            label: {attr} for label, attr in self.id_owners.items()}
        for spec in self.kernels:
            if spec is None:
                continue
            reads.setdefault(spec.element, set()).update(
                name for name, _split in spec.fields)
            if spec.target:
                reads.setdefault(spec.target, set()).update(
                    name for name, _split in spec.target_fields)
        s = self.structure
        admitted = frozenset().union(*(
            s.subelements(label) for label in s.element_types))
        runs = {}
        for label, lp in self.labels.items():
            m = self.matchers[label]
            if (label not in admitted or label in self.relevant
                    or label in self.text_fields
                    or not m.is_accepting_state(0)):
                continue
            names = reads.get(label)
            if names is None:
                if lp.declared_attrs:
                    continue
            elif any(name not in lp.declared_attrs or name in lp.set_valued
                     for name in names):
                continue
            after_text = m.step(0, "S")
            runs[label] = (lp.attr_order, after_text is not None
                           and m.is_accepting_state(after_text))
        return runs

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
