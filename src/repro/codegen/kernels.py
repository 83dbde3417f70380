"""Constraint kernels: attribute-only keys, foreign keys and ``L_id``
constraints, checked from start-tag attribute maps.

Checking an ``L``/``L_u`` key or foreign key (Fan & Siméon §2) only
compares attribute values: no two ``tau`` vertices may share an
``X``-row, and every source row must occur among the target rows.  So
does checking the ``L_id`` constraints ``tau.id ->id tau`` (an ID value
has one owner among all ID-bearing elements) and ``tau.l ⊆ tau'.id`` /
``⊆_S`` (an IDREF value is the ID of some ``tau'`` element).  The plan
(:class:`~repro.codegen.plan.KernelSpec`) gives each such constraint
whose fields are all attributes a *kernel* here; the scanner calls its
feeds at each start tag of a label it reads, with the vid and the tag's
unescaped attribute map, so the element is never retained — no
:class:`~repro.codegen.runtime.StreamVertex`, no value frozensets, no
index entry.  A run of a label the plan maps to its attributes
(:attr:`~repro.codegen.plan.StreamPlan.runs`) arrives instead as one
call of the kernel's *column feed* for that role, with the run's first
vid, its length and ``{attribute: values}``: every row of such a run is
complete and single-valued.

- a **key kernel** probes a dict of first owners with each complete
  row; a second owner opens the row's duplicate group.  A column whose
  rows are distinct and owned by no earlier element merges into the
  dict in one step; any other is probed row by row, in vid order;
- a **foreign-key kernel** appends each target's row (``L``) or value
  (``L_u``, and the ID of an ``L_id`` reference's target) and each
  source's row or value, and resolves the sources by one set
  difference when the report is assembled;
- an **ID kernel** reads the document's :class:`IDOwners` table, which
  every ID-bearing start tag (or column run, merged as a key kernel
  merges it) updates once, however many ``IDConstraint`` kernels Σ
  holds: its owners are every element whose label declares an ID
  attribute, not only ``tau``'s.

Each kernel reproduces its evaluator's report exactly — codes,
messages, vertex lists and order:

- values are the batch parser's: an attribute declared set-valued on
  its owner splits on whitespace into a set, any other is one value,
  and a missing attribute is the empty set (an ID attribute is never
  set-valued: Definition 2.2, enforced when it is declared);
- a key or ``L`` foreign-key row is complete only when every field
  holds exactly one value (:func:`~repro.constraints.evaluators._row_reader`);
  the target values of an ``L_u`` foreign key are every value of the
  target attribute (:class:`~repro.constraints.evaluators.FieldIndex`);
- start tags arrive in vid order, so duplicate groups form in order
  of their second occurrence with document-ordered vids, sources
  resolve in document order — dangling rows before incomplete ones
  for ``L``, sorted missing values for ``L_u`` and ``L_id`` — and ID
  clashes come out in vid order of the clashing ``tau`` member, each
  with its other owners in vid order, with no sort.

Kernels share the evaluators' emit and counter protocol
(:class:`~repro.constraints.evaluators.ConstraintEvaluator`): they sit
at their Σ positions in the run state's ``evaluators`` list, emit
between the evaluator-path constraints, and read their counters off
their state once the document is done (:meth:`_Kernel.settled_counts`),
so feeding counts nothing.  They share the evaluators' shard locality
too: the ``L``/``L_u`` kernels are ``"local"`` and return None from
``corpus_aggregate``; the ``L_id`` kernels are ``"merge"`` and return
exactly the aggregate their evaluator returns, which a shard node
exports for the coordinator's fold
(:mod:`repro.shard.aggregates`).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from repro.constraints.evaluators import ConstraintEvaluator

__all__ = ["IDOwners", "kernel_for"]


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


def _column_rows(fields):
    """``columns -> rows`` along single-valued ``fields``: a one-field
    row is the value itself, a longer one a tuple of values (the rows
    :func:`_row_getter` builds from the same elements' maps)."""
    if len(fields) == 1:
        return itemgetter(fields[0][0])
    getter = itemgetter(*(name for name, _split in fields))
    return lambda columns: list(zip(*getter(columns)))


def _claimer(first: dict, groups: dict):
    """``(claim, claim_column)`` over ``first`` (each value's first
    owner) and ``groups`` (each value owned twice or more, to all its
    owners in vid order): ``claim(value, vid)`` records one owner,
    ``claim_column(values, vids)`` a run of them."""
    setdefault = first.setdefault

    def claim(value, vid):
        owner = setdefault(value, vid)
        if owner != vid:
            group = groups.get(value)
            if group is None:
                groups[value] = [owner, vid]
            else:
                group.append(vid)

    def claim_column(values, vids):
        column = dict(zip(values, vids))
        if len(column) == len(vids) and first.keys().isdisjoint(column):
            first.update(column)
            return
        for value, vid in zip(values, vids):
            claim(value, vid)

    return claim, claim_column


class _Kernel(ConstraintEvaluator):
    """A constraint checked from attribute maps.  ``feeds`` maps a role
    (``"source"``, and ``"target"`` for a foreign key) to the function
    the scanner calls with ``(vid, amap)`` at each start tag of the
    label in that role, and ``columns`` to the one it calls with
    ``(first vid, count, {attribute: values})`` at each column run of
    it; a kernel is never fed through ``add()`` and never
    ``full()``-ed."""

    def __init__(self, constraint, spec, name: str):
        super().__init__(constraint, None, {})
        #: ``str(constraint)``, computed once per plan
        self.name = name
        self.element = spec.element
        self.target = spec.target
        self.unary = len(spec.fields) == 1
        self.feeds: dict = {}
        self.columns: dict = {}

    def settled_counts(self) -> tuple[int, int, int]:
        """``(visited, hits, misses)`` as the evaluator's one ``full()``
        pass over the document would count them, read off the state.

        The feeds run in document order, where a source can precede its
        target and an ID owner its namesake, so counting while fed would
        not give ``full()``'s numbers.
        """
        raise NotImplementedError


class _KeyKernel(_Kernel):
    """``tau[X] -> tau`` (``Key``/``UnaryKey``): ``first`` maps each
    complete row to its first owner; ``dups`` maps a row owned twice or
    more to its owners, in order of the row's second occurrence."""

    def __init__(self, constraint, spec, name):
        super().__init__(constraint, spec, name)
        self.first = {}
        self.dups = {}
        incomplete = self.incomplete = []
        row_of = _row_getter(spec.fields)
        rows_of = _column_rows(spec.fields)
        claim, claim_column = _claimer(self.first, self.dups)

        def source(vid, amap):
            try:
                row = row_of(amap)
            except KeyError:
                incomplete.append(vid)
                return
            claim(row, vid)

        def source_column(vid, count, columns):
            claim_column(rows_of(columns), range(vid, vid + count))

        self.feeds["source"] = source
        self.columns["source"] = source_column

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
        target_rows = _column_rows(spec.target_fields)
        source_rows = _column_rows(spec.fields)
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

        def target_column(vid, count, columns):
            targets.extend(target_rows(columns))

        def source_column(vid, count, columns):
            sources.extend(zip(range(vid, vid + count),
                               source_rows(columns)))

        self.feeds["target"] = target
        self.feeds["source"] = source
        self.columns["target"] = target_column
        self.columns["source"] = source_column

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
        #: what the message says of a source's missing values
        self.tail = f" not among {self.target}.{target_field} values"
        targets = self.targets = []
        sources = self.sources = []
        self._have = None
        self._violating = None

        def target(vid, amap):
            targets.append(amap.get(target_field))

        def source(vid, amap):
            sources.append((vid, amap.get(field)))

        def target_column(vid, count, columns):
            targets.extend(columns[target_field])

        def source_column(vid, count, columns):
            sources.extend(zip(range(vid, vid + count), columns[field]))

        self.feeds["target"] = target
        self.feeds["source"] = source
        self.columns["target"] = target_column
        self.columns["source"] = source_column

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
        tail = self.tail
        for vid, missing in self._resolve():
            if missing is None:
                report.add(code, lacks, name, (vid,))
            else:
                report.add(code, f"value(s) {missing!r}{tail}", name,
                           (vid,))


class _IDRefKernel(_ValueForeignKeyKernel):
    """``tau.l ⊆ tau'.id`` and ``tau.l ⊆_S tau'.id``: a value foreign
    key into the IDs of ``tau'`` elements (the target field is
    ``tau'``'s ID attribute), whose references span documents in a
    sharded run."""

    locality = "merge"

    def __init__(self, constraint, spec, name):
        super().__init__(constraint, spec, name)
        self.tail = f" are not IDs of {self.target!r} elements"

    def corpus_aggregate(self):
        """The evaluator's ``"ref"`` aggregate: every referenced value
        no ``tau'`` element of the document holds, and those IDs."""
        self._resolve()
        have = self._have
        missing = set()
        for _vid, raw in self.sources:
            missing.update(self._values(raw))
        return {"kind": "ref", "missing": sorted(missing - have),
                "targets": sorted(have)}


class IDOwners:
    """The document's ID owners (``AttributeIndex.id_owners``), built
    from start tags: every element whose label declares an ID attribute
    owns that attribute's value.

    ``first`` maps each value to its first owner's vid, ``shared`` each
    value owned twice or more to all its owners in vid order, and
    ``members`` each ID-bearing label to its ``(vid, value)`` elements
    in vid order, ``value`` None where the attribute is missing.
    ``feeds`` maps each ID-bearing label to the function its start tags
    call with ``(vid, amap)``, and ``columns`` to the one its column
    runs call with ``(first vid, count, {attribute: values})``."""

    __slots__ = ("first", "shared", "members", "feeds", "columns")

    def __init__(self, id_attributes: dict[str, str]):
        self.first: dict[str, int] = {}
        self.shared: dict[str, list[int]] = {}
        self.members: dict[str, list] = {}
        self.feeds: dict = {}
        self.columns: dict = {}
        claim, claim_column = _claimer(self.first, self.shared)
        for label, attr in id_attributes.items():
            self.feeds[label], self.columns[label] = self._feed(
                self.members.setdefault(label, []), attr, claim,
                claim_column)

    @staticmethod
    def _feed(members: list, attr: str, claim, claim_column):
        record = members.append

        def owner(vid, amap):
            value = amap.get(attr)
            record((vid, value))
            if value is not None:
                claim(value, vid)

        def owner_column(vid, count, columns):
            values = columns[attr]
            vids = range(vid, vid + count)
            members.extend(zip(vids, values))
            claim_column(values, vids)

        return owner, owner_column


class _IDKernel(_Kernel):
    """``tau.id ->id tau``: each ``tau`` member needs one ID value, and
    that value one owner among all ID-bearing elements.  Read off the
    document's :class:`IDOwners` table; the kernel has no feed of its
    own."""

    locality = "merge"

    def __init__(self, constraint, spec, name, owners: IDOwners):
        super().__init__(constraint, spec, name)
        self.owners = owners

    def settled_counts(self):
        shared = self.owners.shared
        members = self.owners.members[self.element]
        single = [value for _vid, value in members if value is not None]
        hits = sum(1 for value in single if value in shared)
        return len(members), hits, len(single) - hits

    def _emit(self, report):
        element, name = self.element, self.name
        members = self.owners.members[element]
        for vid, value in members:
            if value is None:
                report.add("id", f"{element!r} element lacks a single ID "
                           "value", name, (vid,))
        shared = self.owners.shared
        for vid, value in members:
            group = shared.get(value)
            if group is not None:
                report.add(
                    "id-clash",
                    f"ID value {value!r} is shared by multiple elements",
                    name, (vid, *[o for o in group if o != vid]))

    def corpus_aggregate(self):
        """The evaluator's ``"id"`` aggregate: per ID value, sorted, its
        owners and how many of them are ``tau`` members."""
        shared = self.owners.shared
        mine = Counter(value for _vid, value
                       in self.owners.members[self.element])
        return {"kind": "id",
                "owners": [[value,
                            len(shared[value]) if value in shared else 1,
                            mine[value]]
                           for value in sorted(self.owners.first)]}


_KERNELS = {"key": _KeyKernel, "rows": _RowForeignKeyKernel,
            "values": _ValueForeignKeyKernel, "refs": _IDRefKernel}


def kernel_for(spec, constraint, name: str,
               owners: "IDOwners | None") -> ConstraintEvaluator:
    """A fresh kernel for one document, checking ``constraint`` (at
    Σ position ``spec.position``, reported as ``name``); an ``"id"``
    kernel reads the document's ``owners`` table."""
    if spec.kind == "id":
        return _IDKernel(constraint, spec, name, owners)
    return _KERNELS[spec.kind](constraint, spec, name)
