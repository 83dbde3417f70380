"""Tests for :mod:`repro.codegen.plan` — the compiled per-label plan —
and the single-pass validation the codegen engine runs over it.

The load-bearing promise is *byte identity*: for every document, the
single pass (``CodegenValidator(...).validate_text(text).to_json()``)
equals the batch ``validate(parse_document(text, S), dtd).to_json()`` —
same violations, same messages, same order.  The randomized side of
that promise lives in ``test_stream_equivalence.py``; this file pins
the deliberate cases and the plumbing (plan compilation, pickling, the
facade, interning).
"""

import pickle

import pytest

from repro import Validator
from repro.codegen import (
    CodegenValidator, StreamPlan, compile_plan, compile_schema,
)
from repro.constraints.lang_lid import IDConstraint
from repro.dtd.validate import validate
from repro.errors import XMLSyntaxError
from repro.server.registry import as_handle
from repro.xmlio import serialize
from repro.xmlio.dtdparse import parse_dtdc
from repro.xmlio.parser import parse_document

LIB_SCHEMA = """
<!ELEMENT library (entry*, ref*)>
<!ELEMENT entry (#PCDATA)?>
<!ELEMENT ref EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED shelf CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
%% constraints
entry.isbn -> entry
ref.to sub entry.isbn
"""


@pytest.fixture(scope="module")
def lib():
    return parse_dtdc(LIB_SCHEMA)


def _single_pass(plan) -> CodegenValidator:
    return CodegenValidator(
        compile_schema(plan, as_handle(plan.dtd).fingerprint))


def _both(dtd, text):
    """(batch_json, single_pass_json) for one document/schema pair."""
    batch = validate(parse_document(text, dtd.structure), dtd)
    stream = _single_pass(compile_plan(dtd)).validate_text(text)
    return batch.to_json(), stream.to_json()


# -- the plan ---------------------------------------------------------------


class TestStreamPlan:
    def test_compile_once_per_schema(self, lib):
        plan = compile_plan(lib)
        assert isinstance(plan, StreamPlan)
        assert plan.root == "library"
        assert set(plan.labels) == {"library", "entry", "ref"}
        # both constraints read attributes only: each is a kernel, fed
        # at start tags; entry feeds the key and the inclusion's
        # targets, ref its sources
        key, inclusion = plan.kernels
        assert (key.position, key.kind, key.element, key.fields) \
            == (0, "key", "entry", (("isbn", False),))
        assert (inclusion.position, inclusion.kind, inclusion.element,
                inclusion.fields, inclusion.target,
                inclusion.target_fields) \
            == (1, "values", "ref", (("to", False),), "entry",
                (("isbn", False),))
        assert plan.feeds == {"entry": ((0, "source"), (1, "target")),
                              "ref": ((1, "source"),)}
        assert plan.relevant == frozenset() and plan.elem_fields == {}

    def test_relevant_labels(self, lib):
        # labels only kernels read are not retained
        assert compile_plan(lib).relevant == frozenset()
        # a §3.4 sub-element key stays on its evaluator: its label is
        # retained, and its field's text captured
        with_note = parse_dtdc(LIB_SCHEMA.replace(
            "<!ELEMENT entry (#PCDATA)?>",
            "<!ELEMENT entry (note)>\n<!ELEMENT note (#PCDATA)>")
            + "entry.<note> -> entry\n")
        plan = compile_plan(with_note)
        assert [spec is None for spec in plan.kernels] == [False, False, True]
        assert plan.relevant == {"entry"}
        assert plan.elem_fields == {"entry": {"note"}}
        assert plan.text_fields == {"note"}

    def test_lid_kernels(self):
        """An ``IDConstraint`` over a type with an ID attribute is an
        ``"id"`` kernel, fed by no site of its own: every ID-bearing
        label feeds the owner table.  An ID reference is a ``"refs"``
        kernel whose target field is the target's ID attribute.  An
        ``L_id`` constraint over a type with no ID attribute stays on
        its (static) evaluator.  Nothing is retained, and the plan
        pickles."""
        from repro.workloads.generators import registry_schema

        dtd = registry_schema()
        dtd = type(dtd)(dtd.structure, list(dtd.constraints) + [
            IDConstraint("registry")], check=False)
        plan = compile_plan(dtd)
        ids, refs, static = plan.kernels
        assert (ids.kind, ids.element, ids.fields, ids.target) \
            == ("id", "person", (("pid", False),), "")
        assert (refs.kind, refs.element, refs.fields, refs.target,
                refs.target_fields, refs.set_valued) \
            == ("refs", "mention", (("who", False),), "person",
                (("pid", False),), False)
        assert static is None
        assert plan.id_owners == {"person": "pid"}
        assert plan.feeds == {"person": ((1, "target"),),
                              "mention": ((1, "source"),)}
        assert plan.relevant == frozenset() and plan.elem_fields == {}
        clone = pickle.loads(pickle.dumps(plan))
        text = ('<registry><person pid="a"/><person pid="a"/>'
                '<mention who="b"/></registry>')
        assert _single_pass(clone).validate_text(text).to_json() \
            == _both(dtd, text)[0]

    def test_plan_survives_pickling(self, lib):
        plan = compile_plan(lib)
        _ = plan.matchers  # force the lazy table, then drop it in transit
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._matchers is None
        assert clone.runs == plan.runs == {
            "entry": (("isbn", "shelf"), True), "ref": (("to",), False)}
        text = ('<library><entry isbn="1" shelf="a">x</entry>'
                '<ref to="1"/></library>')
        assert _single_pass(clone).validate_text(text).to_json() \
            == _single_pass(plan).validate_text(text).to_json()


# -- byte identity on deliberate cases --------------------------------------


class TestByteIdentity:
    def test_book_fixture(self, book):
        dtd, doc = book
        b, s = _both(dtd, serialize(doc))
        assert b == s

    def test_valid_library(self, lib):
        b, s = _both(lib, '<library><entry isbn="1" shelf="a">x</entry>'
                          '<ref to="1"/></library>')
        assert b == s

    @pytest.mark.parametrize("text", [
        # wrong root + undeclared elements carrying children/attributes
        '<shelf><widget size="3"><gear/></widget></shelf>',
        # content model stuck mid-word
        '<library><ref to="1"/><entry isbn="1" shelf="a"/></library>',
        # duplicate keys and dangling references
        '<library><entry isbn="1" shelf="a"/>'
        '<entry isbn="1" shelf="b"/><ref to="9"/></library>',
        # empty root: content model still consulted
        '<library/>',
        # missing, undeclared and single-vs-multi-valued attributes
        '<library><entry isbn="1 2" shelf="a" color="red"/></library>',
        # text where the model allows none
        '<library><entry isbn="1" shelf="a"/>oops</library>',
    ])
    def test_invalid_documents(self, lib, text):
        b, s = _both(lib, text)
        assert b == s


class TestWellformedness:
    """Malformed input raises the same ``XMLSyntaxError`` (message and
    all) the tree parser raises."""

    @pytest.mark.parametrize("text", [
        "<a></b>",
        "</a>",
        "<a/><b/>",
        "<a>",
        "",
        "just text",
        "<a></a>trailing",
    ])
    def test_same_error_as_parser(self, lib, text):
        with pytest.raises(XMLSyntaxError) as batch_err:
            parse_document(text, lib.structure)
        with pytest.raises(XMLSyntaxError) as stream_err:
            _single_pass(compile_plan(lib)).validate_text(text)
        assert str(stream_err.value) == str(batch_err.value)


# -- the facade -------------------------------------------------------------


class TestCheckStream:
    """The single-pass facade call, ``check(source, engine="codegen")``
    (``check_stream`` until 2.0)."""

    def test_text_input(self, lib):
        report = Validator(lib).check(
            '<library><entry isbn="1" shelf="a"/></library>',
            engine="codegen")
        assert report.ok

    def test_path_input(self, lib, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text('<library><entry isbn="1" shelf="a"/>'
                        '<ref to="9"/></library>')
        report = Validator(lib).check(path, engine="codegen")
        assert not report.ok
        assert report.violations[0].code == "foreign-key"

    def test_matches_validate(self, book):
        dtd, doc = book
        text = serialize(doc)
        v = Validator(dtd)
        assert v.check(text, engine="codegen").to_json() == v.validate(
            parse_document(text, dtd.structure)).to_json()


# -- label interning --------------------------------------------------------


class TestInterning:
    def test_tokenizer_interns_names(self):
        from repro.xmlio.tokenizer import Tokenizer

        tokens = list(Tokenizer(
            '<a><b x="1"/><b x="2"/></a>').tokens())
        starts = [t for t in tokens if t.kind == "empty"]
        assert starts[0].value is starts[1].value
        assert starts[0].attributes[0][0] is starts[1].attributes[0][0]

    def test_tree_interns_labels(self):
        from repro.datamodel.tree import DataTree

        t = DataTree("a")
        v1 = t.create_under(t.root, "b")
        v2 = t.create_under(t.root, "b")
        assert v1.label is v2.label


# -- observability ----------------------------------------------------------


class TestStreamObservability:
    def test_no_obs_still_validates(self, lib):
        report = _single_pass(compile_plan(lib)).validate_text(
            "<library/>")
        assert report.ok  # (entry*, ref*) accepts the empty word
