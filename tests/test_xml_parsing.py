"""Unit tests for the from-scratch XML tokenizer/parser/serializer."""

import pytest

from repro.datamodel import DataTree
from repro.errors import XMLSyntaxError
from repro.xmlio import parse_document, serialize
from repro.xmlio.escape import escape_attribute, escape_text, unescape
from repro.xmlio.tokenizer import Tokenizer


class TestEscape:
    def test_unescape_predefined(self):
        assert unescape("&amp;&lt;&gt;&quot;&apos;") == "&<>\"'"

    def test_unescape_numeric(self):
        assert unescape("&#65;&#x41;&#x61;") == "AAa"

    def test_unknown_entity(self):
        with pytest.raises(XMLSyntaxError):
            unescape("&nbsp;")

    def test_bare_ampersand(self):
        with pytest.raises(XMLSyntaxError):
            unescape("fish & chips")

    def test_escape_roundtrip(self):
        nasty = "a<b&c>\"d'"
        assert unescape(escape_text(nasty)) == nasty
        assert unescape(escape_attribute(nasty)) == nasty


class TestTokenizer:
    def _kinds(self, text):
        return [t.kind for t in Tokenizer(text).tokens()]

    def test_basic(self):
        kinds = self._kinds("<a x='1'>text<b/></a>")
        assert kinds == ["start", "text", "empty", "end"]

    def test_attributes_both_quotes(self):
        toks = list(Tokenizer('<a x="1" y=\'2\'/>').tokens())
        assert toks[0].attributes == (("x", "1"), ("y", "2"))

    def test_comment_and_pi_and_doctype(self):
        text = '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a EMPTY>]>' \
               "<!-- c --><a/>"
        kinds = self._kinds(text)
        assert kinds == ["pi", "doctype", "comment", "empty"]

    def test_cdata(self):
        toks = list(Tokenizer("<a><![CDATA[<raw>&stuff]]></a>").tokens())
        assert toks[1].kind == "text"
        assert toks[1].value == "<raw>&stuff"

    def test_line_numbers(self):
        toks = list(Tokenizer("<a>\n<b/>\n</a>").tokens())
        by_kind = {t.kind: t.line for t in toks}
        assert by_kind["empty"] == 2
        assert by_kind["end"] == 3

    def test_unterminated_comment(self):
        with pytest.raises(XMLSyntaxError):
            list(Tokenizer("<!-- oops").tokens())

    def test_malformed_tag(self):
        with pytest.raises(XMLSyntaxError):
            list(Tokenizer("<a x=1>").tokens())


class TestParser:
    def test_basic_document(self):
        tree = parse_document("<r><a>hi</a><b x='1'/></r>")
        assert tree.root.label == "r"
        assert tree.root.first_child_labeled("a").text == "hi"
        assert tree.root.first_child_labeled("b").single("x") == "1"

    def test_whitespace_dropped_by_default(self):
        tree = parse_document("<r>\n  <a/>\n</r>")
        assert tree.root.children == tree.root.child_vertices

    def test_whitespace_kept_on_request(self):
        tree = parse_document("<r>\n  <a/>\n</r>", keep_whitespace=True)
        assert any(isinstance(c, str) for c in tree.root.children)

    def test_entities_resolved(self):
        tree = parse_document("<r a='x&amp;y'>1 &lt; 2</r>")
        assert tree.root.single("a") == "x&y"
        assert tree.root.text == "1 < 2"

    def test_mismatched_tags(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a><b></a></b>")

    def test_unclosed(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a><b>")

    def test_second_root(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a/><b/>")

    def test_text_outside_root(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a/>junk")

    def test_empty_input(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("   ")

    def test_set_valued_split_with_structure(self, book_schema):
        tree = parse_document('<book><ref to="a b c"/></book>',
                              book_schema.structure)
        ref = tree.root.first_child_labeled("ref")
        assert ref.attr("to") == frozenset({"a", "b", "c"})

    def test_single_valued_not_split(self, book_schema):
        tree = parse_document('<book><entry isbn="a b"/></book>',
                              book_schema.structure)
        assert tree.root.first_child_labeled("entry").attr("isbn") == \
            frozenset({"a b"})


class TestDeepDocuments:
    """Parsing is linear in depth: a parsed vertex is fresh, so it is
    attached without ``Vertex.append``'s cycle check, a walk up the
    ancestors that costs O(depth) per vertex."""

    def test_parser_attaches_without_the_ancestor_walk(self, monkeypatch):
        from repro.datamodel.tree import Vertex

        append = Vertex.append

        def text_only(self, child):
            assert isinstance(child, str), \
                "the parser attached a vertex through append()"
            return append(self, child)

        monkeypatch.setattr(Vertex, "append", text_only)
        tree = parse_document("<a><b><c>x</c></b><b/>y</a>")
        assert [v.label for v in tree.vertices()] == ["a", "b", "c", "b"]
        tree.check_invariants()

    def test_depth_100000_validates_on_batch_and_codegen(self):
        import time

        from repro.codegen import CodegenValidator
        from repro.dtd.validate import validate
        from repro.server.registry import as_handle
        from repro.xmlio.dtdparse import parse_dtdc

        dtd = parse_dtdc("<!ELEMENT d (d)?>\n"
                         "<!ATTLIST d k CDATA #REQUIRED>\n"
                         "%% constraints\nd.k -> d\n")
        depth = 100_000
        text = "".join(f'<d k="{i % (depth - 1)}">' for i in range(depth)) \
            + "</d>" * depth
        t0 = time.perf_counter()
        batch = validate(parse_document(text, dtd.structure), dtd)
        codegen = CodegenValidator(as_handle(dtd)).validate_text(text)
        elapsed = time.perf_counter() - t0
        assert [(v.code, v.vertices) for v in batch.violations] \
            == [("key", (0, depth - 1))]
        assert codegen.to_json() == batch.to_json()
        # about 4.5 s on a 2-vCPU host
        assert elapsed < 60, f"depth {depth} took {elapsed:.1f} s"


class TestSerializer:
    def test_roundtrip_structure(self, book):
        dtd, doc = book
        text = serialize(doc)
        reparsed = parse_document(text, dtd.structure)
        assert reparsed.root.label == doc.root.label
        assert reparsed.size() == doc.size()
        assert [v.label for v in reparsed.root.subtree()] == \
            [v.label for v in doc.root.subtree()]

    def test_roundtrip_attributes(self, book):
        dtd, doc = book
        reparsed = parse_document(serialize(doc), dtd.structure)
        assert reparsed.ext_values("section", "sid") == \
            doc.ext_values("section", "sid")
        assert reparsed.ext_values("ref", "to") == \
            doc.ext_values("ref", "to")

    def test_text_content_exact(self):
        tree = DataTree("r")
        tree.root.append("a < b & c")
        assert parse_document(serialize(tree)).root.text == "a < b & c"

    def test_empty_element_form(self):
        tree = DataTree("r")
        tree.create_under(tree.root, "x")
        assert "<x/>" in serialize(tree)

    def test_xml_declaration(self):
        tree = DataTree("r")
        assert serialize(tree, xml_declaration=True).startswith("<?xml")

    def test_set_valued_attribute_joined(self):
        tree = DataTree("r")
        tree.root.set_attribute("to", ["b", "a"])
        assert 'to="a b"' in serialize(tree)


class TestInternalDtd:
    DOC = """<!DOCTYPE db [
    <!ELEMENT db (person*)>
    <!ELEMENT person EMPTY>
    <!ATTLIST person
        oid   ID     #REQUIRED
        knows IDREFS #IMPLIED>
    <!-- constraints:
    person.oid ->id person
    person.knows subS person.id
    -->
    ]>
    <db>
      <person oid="p1" knows="p2 p3"/>
      <person oid="p2" knows="p1"/>
      <person oid="p3" knows=""/>
    </db>
    """

    def test_parses_schema_and_document(self):
        from repro.xmlio.parser import parse_document_with_dtd
        dtd, tree = parse_document_with_dtd(self.DOC)
        assert dtd.structure.root == "db"
        assert len(dtd.constraints) == 2
        p1 = tree.ext("person")[0]
        assert p1.attr("knows") == frozenset({"p2", "p3"})

    def test_document_validates(self):
        from repro.dtd import validate
        from repro.xmlio.parser import parse_document_with_dtd
        dtd, tree = parse_document_with_dtd(self.DOC)
        assert validate(tree, dtd).ok

    def test_violations_detected(self):
        from repro.dtd import validate
        from repro.xmlio.parser import parse_document_with_dtd
        dtd, tree = parse_document_with_dtd(
            self.DOC.replace('knows="p1"', 'knows="ghost"'))
        report = validate(tree, dtd)
        assert any(v.code == "set-foreign-key" for v in report)

    def test_missing_subset_raises(self):
        import pytest as _pytest
        from repro.errors import XMLSyntaxError as _XS
        from repro.xmlio.parser import parse_document_with_dtd
        with _pytest.raises(_XS):
            parse_document_with_dtd("<a/>")
        with _pytest.raises(_XS):
            parse_document_with_dtd('<!DOCTYPE a SYSTEM "x.dtd"><a/>')
