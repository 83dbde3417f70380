"""Constraint kernels: attribute-only keys and foreign keys, checked
from start-tag attribute maps.

Checking an ``L``/``L_u`` key or foreign key (Fan & Siméon §2) only
compares attribute values: no two ``tau`` vertices may share an
``X``-row, and every source row must occur among the target rows.  The
plan (:class:`~repro.stream.plan.KernelSpec`) gives each such
constraint whose fields are all attributes a *kernel* here; the
scanner calls its feeds at each start tag of a label it reads, with
the vid and the tag's unescaped attribute map, so the element is never
retained — no :class:`~repro.stream.validator.StreamVertex`, no value
frozensets, no index entry.

- a **key kernel** probes a dict of first owners with each complete
  row; a second owner opens the row's duplicate group;
- a **foreign-key kernel** appends each target's row (``L``) or value
  (``L_u``) and each source's row or value, and resolves the sources
  by one set difference when the report is assembled.

Each kernel reproduces its evaluator's report exactly — codes,
messages, vertex lists and order:

- values are the batch parser's: an attribute declared set-valued on
  its owner splits on whitespace into a set, any other is one value,
  and a missing attribute is the empty set;
- a key or ``L`` foreign-key row is complete only when every field
  holds exactly one value (:func:`~repro.constraints.evaluators._row_reader`);
  the target values of an ``L_u`` foreign key are every value of the
  target attribute (:class:`~repro.constraints.evaluators.FieldIndex`);
- start tags arrive in vid order, so duplicate groups form in order
  of their second occurrence with document-ordered vids, and sources
  resolve in document order — dangling rows before incomplete ones
  for ``L``, sorted missing values for ``L_u`` — with no sort.

Kernels share the evaluators' emit and counter protocol
(:class:`~repro.constraints.evaluators.ConstraintEvaluator`): they sit
at their Σ positions in the run state's ``evaluators`` list, emit
between the evaluator-path constraints, return None from
``corpus_aggregate`` (they are shard-local), and read their counters
off their state once the document is done
(:meth:`~repro.constraints.evaluators.ConstraintEvaluator.settled_counts`),
so feeding counts nothing.
"""

from __future__ import annotations

from operator import itemgetter

from repro.constraints.evaluators import ConstraintEvaluator

__all__ = ["kernel_for"]


def _row_getter(fields):
    """``amap -> row`` along ``fields`` (``(attribute, set-valued)``
    pairs): the value of a one-field row, a tuple of values otherwise.
    Raises KeyError unless every field holds exactly one value."""
    if not any(split for _name, split in fields):
        # a present single-valued attribute holds exactly one value
        return itemgetter(*(name for name, _split in fields))

    def row_of(amap):
        row = []
        for name, split in fields:
            value = amap[name]
            if split:
                values = set(value.split())
                if len(values) != 1:
                    raise KeyError(name)
                (value,) = values
            row.append(value)
        return row[0] if len(row) == 1 else tuple(row)

    return row_of


class _Kernel(ConstraintEvaluator):
    """A constraint checked from attribute maps.  ``feeds`` maps a role
    (``"source"``, and ``"target"`` for a foreign key) to the function
    the scanner calls with ``(vid, amap)`` at each start tag of the
    label in that role; a kernel is never fed through ``add()`` and
    never deferred, so never ``full()``-ed."""

    def __init__(self, constraint, spec, name: str):
        super().__init__(constraint, None, {})
        #: ``str(constraint)``, computed once per plan
        self.name = name
        self.element = spec.element
        self.target = spec.target
        self.unary = len(spec.fields) == 1
        self.feeds: dict = {}


class _KeyKernel(_Kernel):
    """``tau[X] -> tau`` (``Key``/``UnaryKey``): ``first`` maps each
    complete row to its first owner; ``dups`` maps a row owned twice or
    more to its owners, in order of the row's second occurrence."""

    def __init__(self, constraint, spec, name):
        super().__init__(constraint, spec, name)
        first = self.first = {}
        dups = self.dups = {}
        incomplete = self.incomplete = []
        row_of = _row_getter(spec.fields)
        claim = first.setdefault

        def source(vid, amap):
            try:
                row = row_of(amap)
            except KeyError:
                incomplete.append(vid)
                return
            owner = claim(row, vid)
            if owner != vid:
                group = dups.get(row)
                if group is None:
                    dups[row] = [owner, vid]
                else:
                    group.append(vid)

        self.feeds["source"] = source

    def settled_counts(self):
        misses = len(self.first)
        hits = sum(len(group) - 1 for group in self.dups.values())
        return misses + hits + len(self.incomplete), hits, misses

    def _emit(self, report):
        element, name, unary = self.element, self.name, self.unary
        for row, vids in self.dups.items():
            report.add(
                "key",
                f"{len(vids)} {element!r} elements share key value "
                f"{(row,) if unary else row!r}", name, vids)


class _RowForeignKeyKernel(_Kernel):
    """``tau[X] ⊆ tau'[Y]`` (``ForeignKey``): target rows and
    ``(vid, row)`` sources in document order, None for an incomplete
    row; resolved once, against the set of complete target rows."""

    def __init__(self, constraint, spec, name):
        super().__init__(constraint, spec, name)
        targets = self.targets = []
        sources = self.sources = []
        target_row = _row_getter(spec.target_fields)
        source_row = _row_getter(spec.fields)
        self._dangling = None

        def target(vid, amap):
            try:
                targets.append(target_row(amap))
            except KeyError:
                targets.append(None)

        def source(vid, amap):
            try:
                sources.append((vid, source_row(amap)))
            except KeyError:
                sources.append((vid, None))

        self.feeds["target"] = target
        self.feeds["source"] = source

    def _resolve(self):
        """The dangling ``(vid, row)`` sources, in document order."""
        if self._dangling is None:
            rows = set(self.targets)
            self._dangling = [(vid, row) for vid, row in self.sources
                              if row is not None and row not in rows]
        return self._dangling

    def settled_counts(self):
        misses = len(self._resolve())
        complete = sum(1 for _vid, row in self.sources if row is not None)
        return (len(self.targets) + len(self.sources),
                complete - misses, misses)

    def _emit(self, report):
        element, name, unary = self.element, self.name, self.unary
        tail = f" with no matching {self.target!r} key"
        for vid, row in self._resolve():
            report.add("foreign-key",
                       f"{element!r} element has "
                       f"{(row,) if unary else row!r}{tail}",
                       name, (vid,))
        for vid, row in self.sources:
            if row is None:
                report.add(
                    "foreign-key",
                    f"{element!r} element lacks single values for "
                    "the foreign-key fields", name, (vid,))


class _ValueForeignKeyKernel(_Kernel):
    """``tau.l ⊆ tau'.l'`` and ``tau.l ⊆_S tau'.l'``: raw target values
    and ``(vid, raw)`` sources in document order, None for a missing
    attribute; resolved once, against the set of every target value."""

    def __init__(self, constraint, spec, name):
        super().__init__(constraint, spec, name)
        ((field, self.split),) = spec.fields
        ((target_field, self.target_split),) = spec.target_fields
        self.field = field
        self.target_field = target_field
        self.set_valued = spec.set_valued
        self.code = "set-foreign-key" if spec.set_valued else "foreign-key"
        targets = self.targets = []
        sources = self.sources = []
        self._have = None
        self._violating = None

        def target(vid, amap):
            targets.append(amap.get(target_field))

        def source(vid, amap):
            sources.append((vid, amap.get(field)))

        self.feeds["target"] = target
        self.feeds["source"] = source

    def _values(self, raw):
        """A source's value set, as the batch parser builds it."""
        if raw is None:
            return ()
        return set(raw.split()) if self.split else (raw,)

    def _resolve(self):
        """The violating ``(vid, missing)`` sources in document order,
        ``missing`` None for a source lacking its single value."""
        if self._violating is not None:
            return self._violating
        if self.target_split:
            have = set()
            for raw in self.targets:
                if raw is not None:
                    have.update(raw.split())
        else:
            have = set(self.targets)
            have.discard(None)
        self._have = have
        single = not self.set_valued
        violating = []
        if not self.split:
            # one value or none: a present value in ``have`` is fine
            for vid, raw in self.sources:
                if raw in have:
                    continue
                if raw is not None:
                    violating.append((vid, [raw]))
                elif single:
                    violating.append((vid, None))
        else:
            for vid, raw in self.sources:
                values = self._values(raw)
                if single and len(values) != 1:
                    violating.append((vid, None))
                    continue
                missing = sorted(v for v in values if v not in have)
                if missing:
                    violating.append((vid, missing))
        self._violating = violating
        return violating

    def settled_counts(self):
        self._resolve()
        have = self._have
        hits = misses = 0
        for _vid, raw in self.sources:
            for value in self._values(raw):
                if value in have:
                    hits += 1
                else:
                    misses += 1
        return len(self.targets) + len(self.sources), hits, misses

    def _emit(self, report):
        element, name, code = self.element, self.name, self.code
        lacks = f"{element!r} element lacks a single {self.field} value"
        among = f" not among {self.target}.{self.target_field} values"
        for vid, missing in self._resolve():
            if missing is None:
                report.add(code, lacks, name, (vid,))
            else:
                report.add(code, f"value(s) {missing!r}{among}", name,
                           (vid,))


_KERNELS = {"key": _KeyKernel, "rows": _RowForeignKeyKernel,
            "values": _ValueForeignKeyKernel}


def kernel_for(spec, constraint, name: str) -> ConstraintEvaluator:
    """A fresh kernel for one document, checking ``constraint`` (at
    Σ position ``spec.position``, reported as ``name``)."""
    return _KERNELS[spec.kind](constraint, spec, name)
