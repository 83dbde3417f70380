"""Constraint kernels against batch: the attribute-only keys and foreign
keys codegen checks from start-tag attribute maps.

Every ``Key``, ``UnaryKey``, ``ForeignKey``, ``UnaryForeignKey`` and
``SetValuedForeignKey`` whose fields are all attributes is checked by a
kernel (:mod:`repro.codegen.kernels`); the rest of Σ stays on the
evaluators.  The oracle here draws Σ from the five kernel classes —
including what ``random_check_sigma`` never generates: keys over
set-valued attributes, foreign keys into set-valued targets,
multi-field keys with repeated rows, self-referencing foreign keys and
constraints over an undeclared label — and mixes in evaluator-path
constraints (a §3.4 sub-element key, an inverse, an ``ID``/``IDREF``
pair) at interleaved Σ positions.  Documents put sources before and
after their targets, and carry missing, undeclared, empty,
entity-escaped (``&amp;``, ``&#x41;``), space-padded, repeated-token and
non-ASCII values.  Codegen's report over text, bytes and a mapped file
must equal batch's byte for byte, its Σ half must equal a
:class:`~repro.incremental.DocumentSession`'s, and with observability
on its per-constraint counters must equal batch's.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import CodegenValidator
from repro.constraints.base import Field
from repro.constraints.lang_l import ForeignKey, Key
from repro.constraints.lang_lid import IDConstraint, IDForeignKey
from repro.constraints.lang_lu import (
    Inverse, SetValuedForeignKey, UnaryForeignKey, UnaryKey,
)
from repro.dtd.dtdc import DTDC
from repro.dtd.structure import DTDStructure
from repro.dtd.validate import validate
from repro.incremental.session import DocumentSession
from repro.obs import Observability
from repro.server.registry import as_handle
from repro.xmlio.parser import parse_document


def _structure() -> DTDStructure:
    """``a`` and ``b`` in any order; ``s`` and ``rs`` are set-valued,
    ``a.oid`` an ID and ``b.ref`` an IDREF; ``a`` may carry a ``t``
    child (a §3.4 field)."""
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
    s.define_attribute("b", "ref", kind="IDREF")
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
]

#: constraints that stay on the evaluators
EVALUATOR_POOL = [
    UnaryKey("a", F("t", is_element=True)),             # §3.4 field
    Inverse("a", F("k"), F("s"), "b", F("k"), F("s")),
    IDConstraint("a"),
    IDForeignKey("b", F("ref"), "a"),
]

VALUES = ["x", "y", "", " x ", "x x", "x y", "&amp;", "&#x41;", "A",
          "é", "ü x", "x&amp;y"]
ATTRIBUTES = ["k", "m", "r", "s", "rs", "oid", "ref", "zz"]

attribute_maps = st.dictionaries(st.sampled_from(ATTRIBUTES),
                                 st.sampled_from(VALUES), max_size=5)
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
    @settings(max_examples=150, deadline=None)
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
        CodegenValidator(cg.compiled, obs=cg_obs).validate_text(text)
        for name in COUNTERS:
            assert cg_obs.metrics.values(name) \
                == batch_obs.metrics.values(name), name

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
