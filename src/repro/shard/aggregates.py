"""Per-document partial aggregates and the coordinator's merge fold.

A shard node exports, for every merge-class (``L_id``) constraint, a
small JSON-safe aggregate of one document — ID-value occurrence counts,
locally-dangling IDREF candidate sets, inverse pairing rows — produced
by the same object that decided the constraint for the document's
verdict: its evaluator's
:meth:`~repro.constraints.evaluators.ConstraintEvaluator.corpus_aggregate`
hook, or on the single-pass engine its constraint kernel's
(:mod:`repro.codegen.kernels`: ID constraints and ID references), which
returns exactly what the evaluator would — so the exported view and
the per-document semantics can never drift apart.
:func:`aggregates_of` is that view over any finished set of evaluators
and kernels; a node takes it from the run that produced the document's
verdict, so every document is validated once.
:func:`extract_aggregates` builds the same view from a parsed tree:
the batch engine's export, and the reference the tests compare the
single-pass engine's exports against.

The coordinator folds the per-document aggregates, in corpus order,
into *corpus-level* findings: cross-document ID clashes, references
dangling corpus-wide, inverse pairs violated across documents.  The
fold is a pure function of ``(Σ, per-document aggregates in corpus
order)`` — it never sees the shard layout — so its output is identical
for every shard count and node assignment by construction.  Per-
document verdicts are untouched: they keep exact ``CorpusValidator``
semantics (byte-identical ``verdicts_json``), and the corpus findings
ride alongside them on the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constraints.evaluators import evaluator_for
from repro.constraints.lang_lid import IDSetValuedForeignKey
from repro.datamodel.indexes import AttributeIndex
from repro.datamodel.tree import DataTree
from repro.dtd.dtdc import DTDC
from repro.shard.locality import Locality, classify_constraint, \
    classify_sigma

__all__ = ["CorpusViolation", "aggregates_of", "extract_aggregates",
           "fold_aggregates"]


@dataclass
class CorpusViolation:
    """One corpus-level finding from the merge fold.

    Distinct from a per-document
    :class:`~repro.constraints.violations.Violation`: it names the
    documents involved instead of vertices, and only exists for
    merge-class constraints whose corpus semantics span documents.
    """

    code: str
    message: str
    constraint: str
    documents: "list[str]"

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message,
                "constraint": self.constraint,
                "documents": list(self.documents)}

    def __str__(self) -> str:
        return f"[{self.code}] {self.message} " \
               f"({', '.join(self.documents)})"


def aggregates_of(evaluators, positions) -> "dict[str, dict]":
    """The ``{position: aggregate}`` view of one document's finished
    evaluators, keyed by Σ position (as str).

    ``evaluators`` is indexable by Σ position (a codegen run state's
    list of kernels and evaluators, or a position-keyed dict) and must
    be finished — built by ``full()``, fed every vertex through
    ``add()``, or (kernels) fed every start tag of a finished scan —
    and ``positions`` are the merge-class positions
    (:func:`classify_sigma`).  Constraints whose
    evaluator exports nothing (e.g. an ``L_id`` constraint over a type
    with no declared ID attribute — statically violated per document)
    are simply absent.
    """
    out: dict[str, dict] = {}
    for i in positions:
        aggregate = evaluators[i].corpus_aggregate()
        if aggregate is not None:
            out[str(i)] = aggregate
    return out


def extract_aggregates(dtd: DTDC, tree: DataTree) -> "dict[str, dict]":
    """One parsed document's merge aggregates, keyed by Σ position.

    Builds the document's :class:`AttributeIndex` once and a ``full()``
    pass of each merge-class evaluator over it, then takes the
    :func:`aggregates_of` view.
    """
    positions = classify_sigma(dtd)[Locality.MERGE]
    if not positions:
        return {}
    id_map = dtd.structure.id_attribute_map()
    index = AttributeIndex(tree, id_attributes=id_map)
    evaluators = {}
    for i in positions:
        evaluators[i] = evaluator_for(dtd.constraints[i], index, id_map)
        evaluators[i].full()
    return aggregates_of(evaluators, positions)


def fold_aggregates(
    dtd: DTDC,
    doc_aggregates: "list[tuple[str, dict[str, dict]]]",
) -> "tuple[list[CorpusViolation], dict[str, int]]":
    """Fold per-document aggregates (corpus order) into corpus findings.

    Returns ``(violations, stats)`` where ``stats`` counts references
    that dangle in their own document but resolve against an ID held by
    *another* document (``refs_resolved_cross_document``) — the merge
    phase's positive signal, surfaced as a ``shard_*`` metric.
    """
    violations: list[CorpusViolation] = []
    resolved = 0
    for i, constraint in enumerate(dtd.constraints):
        if classify_constraint(constraint) is not Locality.MERGE:
            continue
        key = str(i)
        entries = [(pos, doc_id, aggs[key])
                   for pos, (doc_id, aggs) in enumerate(doc_aggregates)
                   if key in aggs]
        if not entries:
            continue
        kind = entries[0][2]["kind"]
        if kind == "id":
            _fold_id(constraint, entries, violations)
        elif kind == "ref":
            resolved += _fold_ref(constraint, entries, violations)
        elif kind == "inverse":
            _fold_inverse(constraint, entries, violations)
    return violations, {"refs_resolved_cross_document": resolved}


def _fold_id(constraint, entries, violations) -> None:
    """Cross-document ID clashes: a value owned in two or more
    documents, at least one owner carrying the constraint's element
    type.  Clashes confined to one document are that document's own
    verdict (already emitted there) and are *not* repeated here."""
    per_value: dict[str, list] = {}
    for _pos, doc_id, agg in entries:
        for value, n_owners, n_element in agg["owners"]:
            per_value.setdefault(value, []).append(
                (doc_id, n_owners, n_element))
    for value in sorted(per_value):
        rows = per_value[value]
        if len(rows) < 2:
            continue
        if not any(n_element for _doc, _n, n_element in rows):
            continue
        total = sum(n for _doc, n, _ne in rows)
        violations.append(CorpusViolation(
            "id-clash",
            f"ID value {value!r} is shared by {total} elements across "
            f"{len(rows)} documents",
            str(constraint), [doc for doc, _n, _ne in rows]))


def _fold_ref(constraint, entries, violations) -> int:
    """Corpus-dangling IDREFs: values missing locally everywhere they
    are referenced *and* owned by no document's target-typed IDs.
    Locally-missing values that another document's IDs cover count as
    resolved-cross-document instead."""
    code = "set-foreign-key" \
        if isinstance(constraint, IDSetValuedForeignKey) else "foreign-key"
    corpus_targets: set[str] = set()
    for _pos, _doc, agg in entries:
        corpus_targets.update(agg["targets"])
    dangling: dict[str, list[str]] = {}
    resolved = 0
    for _pos, doc_id, agg in entries:
        for value in agg["missing"]:
            if value in corpus_targets:
                resolved += 1
            else:
                dangling.setdefault(value, []).append(doc_id)
    for value in sorted(dangling):
        violations.append(CorpusViolation(
            code,
            f"value {value!r} is not an ID of {constraint.target!r} "
            "elements in any document",
            str(constraint), dangling[value]))
    return resolved


def _fold_inverse(constraint, entries, violations) -> None:
    """Inverse pairs violated *across* documents: an element in one
    document references an ID held by another document, which does not
    reference back.  Same-document pairs are per-document verdicts."""
    element_rows = [(pos, doc_id, key, refs)
                    for pos, doc_id, agg in entries
                    for key, refs in agg["element"]]
    target_rows = [(pos, doc_id, key, refs)
                   for pos, doc_id, agg in entries
                   for key, refs in agg["target"]]
    # direction 0: target-typed elements reference element-typed IDs
    _fold_direction(constraint, element_rows, target_rows,
                    constraint.element, constraint.target, violations)
    # direction 1: element-typed elements reference target-typed IDs
    _fold_direction(constraint, target_rows, element_rows,
                    constraint.target, constraint.element, violations)


def _fold_direction(constraint, key_rows, ref_rows, a_label, b_label,
                    violations) -> None:
    by_key: dict[str, list] = {}
    for x_index, row in enumerate(key_rows):
        key: Optional[str] = row[2]
        if key is not None:
            by_key.setdefault(key, []).append((x_index, *row))
    seen: "set[tuple[int, int]]" = set()
    for y_index, (y_pos, y_doc, y_key, y_refs) in enumerate(ref_rows):
        for value in y_refs:
            for x_index, x_pos, x_doc, _x_key, x_refs \
                    in by_key.get(value, ()):
                if x_pos == y_pos:
                    continue  # same document: a local pairing
                if y_key is not None and y_key in x_refs:
                    continue  # referenced back: satisfied
                if (x_index, y_index) in seen:
                    continue
                seen.add((x_index, y_index))
                violations.append(CorpusViolation(
                    "inverse",
                    f"{b_label!r} element references {a_label!r} ID "
                    f"{value!r} in another document but is not "
                    "referenced back",
                    str(constraint), [x_doc, y_doc]))
