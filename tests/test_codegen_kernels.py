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
constraints (a §3.4 sub-element key and ID reference, an inverse, an
ID inverse, ``L_id`` constraints over a type with no ID attribute) at
interleaved Σ positions.  Documents put sources before and after their
targets, and carry missing, undeclared, empty, entity-escaped
(``&amp;``, ``&#x41;``), space-padded, repeated-token and non-ASCII
values.  Codegen's report over text, bytes and a mapped file must
equal batch's byte for byte, its Σ half must equal a
:class:`~repro.incremental.DocumentSession`'s, with observability on
its per-constraint counters must equal batch's, and the merge
aggregates its run exports must equal those
:func:`~repro.shard.aggregates.extract_aggregates` builds from the
parsed document.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.codegen import CodegenValidator
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
from repro.workloads.generators import registry_schema
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
        if label == "a" and child is not None:
            parts.append(f"<a{attrs}><t>{child}</t></a>")
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
