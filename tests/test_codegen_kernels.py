"""Constraint kernels against batch: the attribute-only keys, foreign
keys and ``L_id`` constraints codegen checks from start-tag attribute
maps.

Every ``Key``, ``UnaryKey``, ``ForeignKey``, ``UnaryForeignKey`` and
``SetValuedForeignKey`` whose fields are all attributes, every
``IDConstraint`` over a type with a declared ID attribute, and every
``IDForeignKey`` and ``IDSetValuedForeignKey`` with an attribute field
into such a type is checked by a kernel (:mod:`repro.codegen.kernels`);
the rest of Σ stays on the evaluators.  The oracle here draws Σ from
the eight kernel classes — including what ``random_check_sigma`` never
generates: keys over set-valued attributes, foreign keys into
set-valued targets, multi-field keys with repeated rows,
self-referencing foreign keys, constraints over an undeclared label,
ID values clashing across two ID-bearing labels and interleaved in
document order, and IDREFS sources — and mixes in evaluator-path
constraints (§3.4 sub-element keys, over a declared and an undeclared
label, a §3.4 ID reference, an inverse, an ID inverse, ``L_id``
constraints over a type with no ID attribute) at interleaved Σ
positions.  Documents put sources before and after their
targets, and carry missing, undeclared, empty, entity-escaped
(``&amp;``, ``&#x41;``), space-padded, repeated-token and non-ASCII
values.  Codegen's report over text, bytes and a mapped file must
equal batch's byte for byte, its Σ half must equal a
:class:`~repro.incremental.DocumentSession`'s, with observability on
its per-constraint counters must equal batch's, and the merge
aggregates its run exports must equal those
:func:`~repro.shard.aggregates.extract_aggregates` builds from the
parsed document.

Runs of a column label (a kernel-fed leaf whose read attributes are all
declared and single-valued) reach the kernels as columns, one regex
match per :data:`~repro.codegen.runtime.RUN_MAX` elements; a second
oracle draws runs of such labels across the match boundaries and
mutates single tags so that the pattern rejects them (another order,
single quotes, entities, a missing or extra attribute, ``></e>``, text
or a comment in the run) or keeps them (a line break inside the tag),
and plants duplicate keys, ID clashes and dangling references at a
run's first, :data:`RUN_MAX`-th and last position.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.codegen import CodegenValidator
from repro.codegen.runtime import RUN_MAX, RunState
from repro.constraints.base import Field
from repro.constraints.lang_l import ForeignKey, Key
from repro.constraints.lang_lid import (
    IDConstraint, IDForeignKey, IDInverse, IDSetValuedForeignKey,
)
from repro.constraints.lang_lu import (
    Inverse, SetValuedForeignKey, UnaryForeignKey, UnaryKey,
)
from repro.dtd.dtdc import DTDC
from repro.dtd.structure import DTDStructure
from repro.dtd.validate import validate
from repro.incremental.session import DocumentSession
from repro.obs import Observability
from repro.server.registry import as_handle
from repro.shard.aggregates import aggregates_of, extract_aggregates
from repro.shard.locality import Locality, classify_sigma
from repro.workloads.generators import library_schema, registry_schema
from repro.xmlio.dtdparse import serialize_dtdc
from repro.xmlio.parser import parse_document


def _structure() -> DTDStructure:
    """``a`` and ``b`` in any order; ``s`` and ``rs`` are set-valued,
    ``a.oid`` and ``b.oid`` IDs, ``b.ref`` an IDREF and ``b.refs`` an
    IDREFS; ``a`` may carry a ``t`` child (a §3.4 field)."""
    s = DTDStructure("db")
    s.define_element("db", "(a | b | n)*")
    s.define_element("a", "(t)?")
    s.define_element("b", "EMPTY")
    s.define_element("t", "(#PCDATA)")
    s.define_element("n", "(#PCDATA)?")
    for name in ("k", "m", "r"):
        s.define_attribute("a", name)
        s.define_attribute("b", name)
    s.define_attribute("a", "s", set_valued=True)
    s.define_attribute("b", "s", set_valued=True)
    s.define_attribute("b", "rs", set_valued=True)
    s.define_attribute("a", "oid", kind="ID")
    s.define_attribute("b", "oid", kind="ID")
    s.define_attribute("b", "ref", kind="IDREF")
    s.define_attribute("b", "refs", set_valued=True, kind="IDREF")
    return s


STRUCTURE = _structure()
F = Field

#: kernel-class constraints over attributes only
KERNEL_POOL = [
    UnaryKey("a", F("k")),
    UnaryKey("b", F("s")),                              # set-valued key
    UnaryKey("u", F("k")),                              # undeclared label
    Key("a", (F("k"), F("m"))),                         # repeated rows
    Key("b", (F("s"), F("k"))),                         # set-valued field
    ForeignKey("b", (F("r"), F("m")), "a", (F("k"), F("m"))),
    ForeignKey("a", (F("r"),), "a", (F("k"),)),         # self-referencing
    ForeignKey("b", (F("r"),), "b", (F("s"),)),         # set-valued target
    UnaryForeignKey("b", F("r"), "a", F("k")),
    UnaryForeignKey("a", F("r"), "a", F("k")),          # self-referencing
    UnaryForeignKey("b", F("r"), "a", F("s")),          # set-valued target
    UnaryForeignKey("b", F("rs"), "a", F("k")),         # set-valued source
    UnaryForeignKey("u", F("r"), "a", F("k")),          # undeclared source
    SetValuedForeignKey("b", F("rs"), "a", F("k")),
    SetValuedForeignKey("b", F("rs"), "b", F("s")),     # self, set target
    SetValuedForeignKey("a", F("r"), "b", F("k")),      # one-value source
    IDConstraint("a"),                                  # owners: a and b
    IDConstraint("b"),
    IDForeignKey("b", F("ref"), "a"),
    IDForeignKey("a", F("r"), "b"),
    IDForeignKey("b", F("refs"), "a"),                  # set-valued source
    IDForeignKey("u", F("ref"), "a"),                   # undeclared source
    IDSetValuedForeignKey("b", F("refs"), "a"),
    IDSetValuedForeignKey("b", F("refs"), "b"),         # self-referencing
    IDSetValuedForeignKey("a", F("r"), "b"),            # one-value source
]

#: constraints that stay on the evaluators
EVALUATOR_POOL = [
    UnaryKey("a", F("t", is_element=True)),             # §3.4 field
    UnaryKey("u", F("t", is_element=True)),             # undeclared owner
    Inverse("a", F("k"), F("s"), "b", F("k"), F("s")),
    IDInverse("a", F("s"), "b", F("refs")),
    IDForeignKey("a", F("t", is_element=True), "b"),    # §3.4 field
    IDConstraint("n"),                                  # no ID attribute
    IDSetValuedForeignKey("b", F("refs"), "n"),         # ditto
]

VALUES = ["x", "y", "", " x ", "x x", "x y", "&amp;", "&#x41;", "A",
          "é", "ü x", "x&amp;y", "B", "A B"]
ATTRIBUTES = ["k", "m", "r", "s", "rs", "oid", "ref", "refs", "zz"]
#: a small ID alphabet ("&#x41;" is "A"), so that ID values clash
#: within and across ``a`` and ``b`` and the clashes interleave
OIDS = ["A", "B", "C", "&#x41;", "é"]


def _with_oid(pair):
    attributes, oid = pair
    return attributes if oid is None else {**attributes, "oid": oid}


attribute_maps = st.tuples(
    st.dictionaries(st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES),
                    max_size=5),
    st.none() | st.sampled_from(OIDS)).map(_with_oid)
elements = st.tuples(st.sampled_from(["a", "a", "b", "b", "n", "u"]),
                     attribute_maps,
                     st.none() | st.sampled_from(["x", "y", "é"]))
sigmas = st.tuples(
    st.lists(st.sampled_from(KERNEL_POOL), min_size=1, max_size=6,
             unique=True),
    st.lists(st.sampled_from(EVALUATOR_POOL), max_size=4, unique=True),
    st.randoms(use_true_random=False))


def _text(items) -> str:
    parts = ["<db>"]
    for label, attributes, child in items:
        attrs = "".join(f' {name}="{value}"'
                        for name, value in attributes.items())
        if label in ("a", "u") and child is not None:
            parts.append(f"<{label}{attrs}><t>{child}</t></{label}>")
        else:
            parts.append(f"<{label}{attrs}/>")
    parts.append("</db>")
    return "\n".join(parts)


def _path_json(cg, text: str) -> str:
    fd, path = tempfile.mkstemp(suffix=".xml")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        return cg.validate_path(path).to_json()
    finally:
        os.unlink(path)


COUNTERS = ("evaluator_vertices_visited", "evaluator_index_hits",
            "evaluator_index_misses", "evaluator_violations")


class TestKernelOracle:
    @given(sigmas, st.lists(elements, max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_batch_and_session(self, sigma, items):
        kernels, evaluators, rnd = sigma
        constraints = kernels + evaluators
        rnd.shuffle(constraints)
        dtd = DTDC(STRUCTURE, constraints, check=False)
        text = _text(items)
        cg = CodegenValidator(as_handle(dtd))
        plan = cg.compiled.plan
        assert [spec is not None for spec in plan.kernels] \
            == [c in KERNEL_POOL for c in constraints]

        tree = parse_document(text, STRUCTURE)
        batch_obs = Observability()
        batch = validate(tree, dtd, obs=batch_obs).to_json()
        assert cg.validate_text(text).to_json() == batch
        assert cg.validate_bytes(text.encode("utf-8")).to_json() == batch
        assert _path_json(cg, text) == batch

        session = DocumentSession(tree, constraints, STRUCTURE)
        sigma_half = [d for d in (v.to_dict()
                                  for v in session.validate().violations)
                      if d["constraint"]]
        assert [v.to_dict() for v in cg.validate_text(text).constraint] \
            == sigma_half

        cg_obs = Observability()
        counted = CodegenValidator(cg.compiled, obs=cg_obs)
        counted.validate_text(text)
        for name in COUNTERS:
            assert cg_obs.metrics.values(name) \
                == batch_obs.metrics.values(name), name

        merge = classify_sigma(dtd)[Locality.MERGE]
        assert aggregates_of(counted.last_run.evaluators, merge) \
            == extract_aggregates(dtd, tree)

    def test_kernel_positions_interleave_with_evaluators(self):
        """Kernels emit at their Σ positions, between evaluator-path
        constraints, and read the values the batch parser builds."""
        constraints = [UnaryForeignKey("b", F("r"), "a", F("s")),
                       UnaryKey("a", F("t", is_element=True)),
                       UnaryKey("b", F("s")),
                       IDConstraint("a"),
                       Key("a", (F("k"), F("m")))]
        dtd = DTDC(STRUCTURE, constraints, check=False)
        text = _text([
            ("b", {"r": "&#x41;", "s": " x "}, None),
            ("a", {"k": "x", "m": "y", "s": "A B", "oid": "o"}, "t"),
            ("b", {"r": "B", "s": "x x"}, None),
            ("a", {"k": "x", "m": "y", "oid": "o"}, "t"),
            ("b", {"r": "C", "s": "x y"}, None),
            ("a", {"k": "x", "m": "y"}, None)])
        report = CodegenValidator(as_handle(dtd)).validate_text(text)
        batch = validate(parse_document(text, STRUCTURE), dtd)
        assert report.to_json() == batch.to_json()
        # vids: b 1, a 2 (t 3), b 4, a 5 (t 6), b 7, a 8; "&#x41;" is
        # "A", " x " and "x x" are {"x"}, "x y" is no single value
        assert [(v.code, v.constraint, v.vertices, v.message)
                for v in report.constraint] == [
            ("foreign-key", "b.r sub a.s", (7,),
             "value(s) ['C'] not among a.s values"),
            ("key", "a.<t> -> a", (2, 5),
             "2 'a' elements share key value ('t',)"),
            ("key", "b.s -> b", (1, 4),
             "2 'b' elements share key value ('x',)"),
            ("id", "a.id ->id a", (8,),
             "'a' element lacks a single ID value"),
            ("id-clash", "a.id ->id a", (2, 5),
             "ID value 'o' is shared by multiple elements"),
            ("id-clash", "a.id ->id a", (5, 2),
             "ID value 'o' is shared by multiple elements"),
            ("key", "a[k, m] -> a", (2, 5, 8),
             "3 'a' elements share key value ('x', 'y')"),
        ]


class TestUndeclaredOwner:
    """A §3.4 sub-element key over an element type the schema does not
    declare is checked like one over a declared type: the owner is
    retained and its field's text captured."""

    def test_text_bytes_and_path_match_batch(self):
        dtd = DTDC(STRUCTURE, [UnaryKey("u", F("t", is_element=True))],
                   check=False)
        text = "<db><u><t>x</t></u><u><t>x</t></u></db>"
        batch = validate(parse_document(text, STRUCTURE), dtd)
        assert [(v.vertices, v.message) for v in batch.constraint] == [
            ((1, 3), "2 'u' elements share key value ('x',)")]
        cg = CodegenValidator(as_handle(dtd))
        assert cg.validate_text(text).to_json() == batch.to_json()
        assert cg.validate_bytes(text.encode()).to_json() == batch.to_json()
        assert _path_json(cg, text) == batch.to_json()


#: two ID values whose clashes interleave: A's owners are vids 1 and 4,
#: B's 2 and 3
CLASH_TEXT = ('<registry><person pid="A"/><person pid="B"/>'
              '<person pid="B"/><person pid="A"/></registry>')
#: batch's order: each clashing member in vid order, with its other
#: owners in vid order
CLASH_VERTICES = [(1, 4), (2, 3), (3, 2), (4, 1)]


class TestIDClashOrder:
    """Interleaved ID clashes come out in batch's order on every input
    form and every front end, not in order of each value's second owner
    (``(2, 3) (3, 2) (1, 4) (4, 1)``)."""

    def test_text_bytes_and_path_match_batch(self):
        dtd = registry_schema()
        tree = parse_document(CLASH_TEXT, dtd.structure)
        batch = validate(tree, dtd)
        assert [v.vertices for v in batch.constraint] == CLASH_VERTICES
        session = DocumentSession(tree, dtd.constraints, dtd.structure)
        assert [v.vertices for v in session.validate().violations] \
            == CLASH_VERTICES
        cg = CodegenValidator(as_handle(dtd))
        assert cg.validate_text(CLASH_TEXT).to_json() == batch.to_json()
        assert cg.validate_bytes(CLASH_TEXT.encode()).to_json() \
            == batch.to_json()
        assert _path_json(cg, CLASH_TEXT) == batch.to_json()

    @staticmethod
    def _files(tmp_path):
        doc = tmp_path / "d.xml"
        doc.write_text(CLASH_TEXT)
        schema = tmp_path / "registry.dtdc"
        schema.write_text(serialize_dtdc(registry_schema()))
        return str(doc), str(schema)

    def test_cli_validate_auto_matches_batch(self, tmp_path, capsys):
        doc, schema = self._files(tmp_path)
        out = {}
        for engine in ("batch", "auto"):
            code = main(["--root", "registry", "validate", doc, schema,
                         "--format", "json", "--engine", engine])
            out[engine] = (code, capsys.readouterr().out)
        assert out["auto"] == out["batch"]
        assert [tuple(v["vertices"]) for v
                in json.loads(out["auto"][1])["violations"]] \
            == CLASH_VERTICES

    def test_check_corpus_auto_matches_batch(self, tmp_path, capsys):
        doc, schema = self._files(tmp_path)
        verdicts = {}
        for engine in ("batch", "auto"):
            assert main(["--root", "registry", "check-corpus", schema, doc,
                         "--format", "json", "--engine", engine]) == 1
            verdicts[engine] = json.loads(
                capsys.readouterr().out)["verdicts"]
        assert verdicts["auto"] == verdicts["batch"]


# -- column runs ----------------------------------------------------------


def _column_structure(three: bool) -> DTDStructure:
    """``e`` and ``r`` leaves in any order, between Σ-irrelevant ``x``
    items: ``e`` declares ``k`` and the ID ``oid`` (and, with
    ``three``, ``m`` first, out of sorted order), ``r`` the IDREF
    ``to``."""
    s = DTDStructure("db")
    s.define_element("db", "(e | r | x)*")
    s.define_element("e", "EMPTY")
    s.define_element("r", "EMPTY")
    s.define_element("x", "(#PCDATA)?")
    if three:
        s.define_attribute("e", "m")
    s.define_attribute("e", "k")
    s.define_attribute("e", "oid", kind="ID")
    s.define_attribute("r", "to", kind="IDREF")
    return s


COLUMN_STRUCTURES = {False: _column_structure(False),
                     True: _column_structure(True)}

#: kernel-class constraints over ``e`` and ``r``; those naming ``m``
#: are drawn only under the three-attribute ``e``
COLUMN_POOL = [
    UnaryKey("e", F("k")),
    UnaryKey("e", F("oid")),
    UnaryKey("r", F("to")),
    Key("e", (F("k"), F("oid"))),
    UnaryForeignKey("r", F("to"), "e", F("k")),
    UnaryForeignKey("e", F("k"), "e", F("oid")),        # self-referencing
    ForeignKey("r", (F("to"),), "e", (F("oid"),)),
    SetValuedForeignKey("r", F("to"), "e", F("k")),
    IDConstraint("e"),
    IDForeignKey("r", F("to"), "e"),
    IDSetValuedForeignKey("r", F("to"), "e"),
]
COLUMN_POOL_M = [
    Key("e", (F("m"), F("k"))),
    ForeignKey("e", (F("m"),), "e", (F("k"),)),
]

#: run lengths on both sides of every match boundary
RUN_LENGTHS = [1, 2, RUN_MAX - 1, RUN_MAX, RUN_MAX + 1, 2 * RUN_MAX + 3]

#: single-tag edits: the pattern rejects all but ``newline``; ``dup``
#: plants a duplicate key and ID (``e``) or a dangling reference (``r``)
MUTATIONS = ["order", "single", "amp", "charref", "missing", "extra",
             "open", "newline", "comment", "text", "dup"]


def _column_text(three, runs, mutations) -> str:
    """A ``db`` document of ``runs`` (``(label, length)``), each element
    written as the run pattern takes it, then edited at ``(run, where,
    mutation)``: ``where`` 0 is the run's first element, 1 its
    :data:`RUN_MAX`-th (when it has one), 2 its last."""
    elements = []  # [label, [[name, value, quote]], closing, before]
    starts = []
    for label, length in runs:
        starts.append(len(elements))
        for _ in range(length):
            n = len(elements)
            if label == "e":
                attrs = [["k", f"k{n}", '"'], ["oid", f"o{n}", '"']]
                if three:
                    attrs.insert(0, ["m", f"m{n % 3}", '"'])
            elif label == "r":
                attrs = [["to", f"o{(n * 7) % max(1, n)}", '"']]
            else:
                attrs = []
            elements.append([label, attrs, "/>", ""])
    for run, where, mutation in mutations:
        run %= len(runs)
        length = runs[run][1]
        offset = min((0, RUN_MAX, length - 1)[where], length - 1)
        element = elements[starts[run] + offset]
        label, attrs = element[0], element[1]
        if (label == "x" or not attrs) and mutation not in (
                "comment", "text", "open"):
            continue
        if mutation == "order":
            attrs.reverse()
        elif mutation == "single":
            attrs[0][2] = "'"
        elif mutation == "amp":
            attrs[-1][1] += "&amp;"
        elif mutation == "charref":
            attrs[0][1] = "&#x41;"
        elif mutation == "missing":
            attrs.pop()
        elif mutation == "extra" and attrs[-1][0] != "zz":
            attrs.append(["zz", "1", '"'])
        elif mutation == "open":
            element[2] = f"></{label}>"
        elif mutation == "newline":
            attrs[0][0] = "\n" + attrs[0][0].lstrip()
        elif mutation == "comment":
            element[3] = "<!-- c -->"
        elif mutation == "text":
            element[3] = "t"
        elif mutation == "dup" and label == "e":
            # the first e's key and ID
            for attr in attrs:
                attr[1] = "m0" if attr[0] == "m" else f"{attr[0][0]}0"
        elif mutation == "dup":
            attrs[0][1] = "ghost"
    parts = ["<db>"]
    for label, attrs, closing, before in elements:
        parts.append(before)
        if label == "x":
            parts.append("<x>p</x>")
        else:
            tag = "".join(f" {name}={quote}{value}{quote}"
                          for name, value, quote in attrs)
            parts.append(f"<{label}{tag}{closing}")
        parts.append("\n")
    parts.append("</db>")
    return "".join(parts)


column_sigmas = st.tuples(
    st.booleans(),
    st.lists(st.sampled_from(COLUMN_POOL + COLUMN_POOL_M), min_size=1,
             max_size=5, unique=True))
column_runs = st.lists(
    st.tuples(st.sampled_from(["e", "e", "r", "x"]),
              st.sampled_from(RUN_LENGTHS)), min_size=1, max_size=4)
column_mutations = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2),
              st.sampled_from(MUTATIONS)), max_size=3)


class TestColumnRuns:
    """Column runs against batch: reports over text, bytes and a mapped
    file, the per-constraint counters and the exported merge
    aggregates."""

    @given(column_sigmas, column_runs, column_mutations)
    @settings(max_examples=100, deadline=None)
    def test_column_runs_match_batch(self, sigma, runs, mutations):
        three, constraints = sigma
        if not three:
            constraints = [c for c in constraints
                           if c not in COLUMN_POOL_M] or [COLUMN_POOL[0]]
        structure = COLUMN_STRUCTURES[three]
        dtd = DTDC(structure, constraints, check=False)
        text = _column_text(three, runs, mutations)
        cg = CodegenValidator(as_handle(dtd))
        assert {label for label, (names, _text_ok)
                in cg.compiled.plan.runs.items() if names} <= {"e", "r"}
        assert all(spec is not None for spec in cg.compiled.plan.kernels)

        tree = parse_document(text, structure)
        batch_obs = Observability()
        batch = validate(tree, dtd, obs=batch_obs).to_json()
        assert cg.validate_text(text).to_json() == batch
        assert cg.validate_bytes(text.encode("utf-8")).to_json() == batch
        assert _path_json(cg, text) == batch

        cg_obs = Observability()
        counted = CodegenValidator(cg.compiled, obs=cg_obs)
        counted.validate_text(text)
        for name in COUNTERS:
            assert cg_obs.metrics.values(name) \
                == batch_obs.metrics.values(name), name
        merge = classify_sigma(dtd)[Locality.MERGE]
        assert aggregates_of(counted.last_run.evaluators, merge) \
            == extract_aggregates(dtd, tree)

    def test_column_labels(self):
        """``e`` and ``r`` runs carry their declared attributes as
        columns, an ``x`` (Σ-irrelevant) run carries none and may hold
        text, and the root takes no run."""
        dtd = DTDC(COLUMN_STRUCTURES[True],
                   [Key("e", (F("m"), F("k"))), IDForeignKey(
                       "r", F("to"), "e")], check=False)
        compiled = CodegenValidator(as_handle(dtd)).compiled
        assert compiled.plan.runs == {"e": (("m", "k", "oid"), False),
                                      "r": (("to",), False),
                                      "x": ((), True)}
        assert compiled.runs is compiled.plan.runs

    def test_parent_content_model_counts_run_children(self):
        """A column run steps its parent's content model once per
        element: with ``n`` refs before the entries, ``(entry*, ref*)``
        is stuck after ``n`` children, as batch reports it."""
        dtd = library_schema()
        cg = CodegenValidator(as_handle(dtd))
        for n in RUN_LENGTHS:
            text = ("<library>" + '<ref to="i0"/>\n' * n
                    + '<entry isbn="i0" shelf="s"/>' * 2 + "</library>")
            batch = validate(parse_document(text, dtd.structure),
                             dtd).to_json()
            assert f"stuck after {n} child(ren)" in batch
            assert cg.validate_text(text).to_json() == batch
            assert cg.validate_bytes(text.encode()).to_json() == batch
            assert cg.last_run.n_column == n + 2

    @staticmethod
    def _library_text(n_entries: int, n_refs: int, swap: int = -1) -> str:
        entries = [f'<entry isbn="i{i}" shelf="s{i % 7}"/>'
                   if i != swap else f'<entry shelf="s{i % 7}" isbn="i{i}"/>'
                   for i in range(n_entries)]
        refs = [f'<ref to="i{(i * 13) % n_entries}"/>'
                for i in range(n_refs)]
        return "<library>\n" + "\n".join(entries + refs) + "\n</library>"

    def test_column_counter_counts_the_fast_path(self):
        """600 entries take three matches (256 + 256 + 88) and the refs
        one more; with one entry's attributes swapped, that entry takes
        the per-tag path, and the report does not change."""
        dtd = library_schema()
        compiled = CodegenValidator(as_handle(dtd)).compiled
        text = self._library_text(600, 40)
        matches = []

        def recorded(label, feed):
            def column(vid, count, columns):
                matches.append((label, count))
                feed(vid, count, columns)
            return column

        rs = RunState(compiled.plan)
        rs.columns = {label: (recorded(label, first), *rest)
                      for label, (first, *rest) in rs.columns.items()}
        compiled.scan_str(text, rs)
        assert matches == [("entry", 256), ("entry", 256), ("entry", 88),
                           ("ref", 40)]

        reports = {}
        for swap in (-1, 300):
            obs = Observability()
            text = self._library_text(600, 40, swap)
            report = CodegenValidator(compiled, obs=obs).validate_text(text)
            reports[swap] = report.to_json()
            assert reports[swap] == validate(
                parse_document(text, dtd.structure), dtd).to_json()
            assert obs.metrics.values("codegen_column_elements") \
                == {(): 640 - (swap >= 0)}
            assert obs.metrics.values("codegen_skipped_elements") \
                == {(): 0}
        assert reports[-1] == reports[300]
