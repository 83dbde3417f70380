"""Serializer <-> parser round-trips on the awkward cases.

The corpus cache keys on serialized text (what is hashed is exactly
what is validated), so ``serialize`` must be deterministic and
``parse_document(serialize(tree))`` must reproduce the tree — including
attribute values that need escaping and mixed element/text content.
"""

import pytest

from repro.datamodel import DataTree, TreeBuilder
from repro.dtd.structure import DTDStructure
from repro.errors import XMLSyntaxError
from repro.xmlio import parse_document, serialize
from repro.xmlio.escape import escape_attribute, unescape


def roundtrip(tree: DataTree, structure=None) -> DataTree:
    return parse_document(serialize(tree), structure)


def assert_same_shape(a: DataTree, b: DataTree) -> None:
    def shape(vertex):
        return (vertex.label,
                {name: sorted(vertex.attr(name))
                 for name in vertex.attributes},
                [child if isinstance(child, str) else shape(child)
                 for child in vertex.children])
    assert shape(a.root) == shape(b.root)


class TestAttributeEscaping:
    @pytest.mark.parametrize("value", [
        'say "hello"',
        "a & b",
        "less < more > less",
        'all of them: <&"> at once',
        "&amp; literal-looking",      # pre-escaped text must survive
        "trailing backslash \\",
        "  padded  ",
    ])
    def test_attribute_value_roundtrip(self, value):
        tree = DataTree("e")
        tree.root.set_attribute("a", value)
        back = roundtrip(tree)
        assert back.root.attr("a") == {value}

    def test_escape_attribute_covers_quotes(self):
        assert escape_attribute('<&">') == "&lt;&amp;&quot;&gt;"

    def test_attributes_serialized_sorted(self):
        tree = DataTree("e")
        tree.root.set_attribute("zeta", "1")
        tree.root.set_attribute("alpha", "2")
        text = serialize(tree)
        assert text.index("alpha") < text.index("zeta")
        # determinism: same tree, same bytes
        assert text == serialize(roundtrip(tree))

    def test_set_valued_attribute_roundtrip(self):
        s = DTDStructure("e")
        s.define_element("e", "EMPTY")
        s.define_attribute("e", "refs", set_valued=True)
        s.check()
        tree = DataTree("e")
        tree.root.set_attribute("refs", {"id-9", "id-1", "id-5"})
        back = roundtrip(tree, s)
        assert back.root.attr("refs") == {"id-1", "id-5", "id-9"}
        # serialized token order is sorted, hence deterministic
        assert 'refs="id-1 id-5 id-9"' in serialize(tree)


class TestTextEscaping:
    @pytest.mark.parametrize("text", [
        "plain",
        "a < b and b > a",
        "ampersand & co",
        "tags like </e> must not close anything",
        "numeric é中� survive",
    ])
    def test_text_content_roundtrip(self, text):
        b = TreeBuilder("e")
        b.text(text)
        back = roundtrip(b.tree)
        assert back.root.children == (text,)

    def test_numeric_entities_parse(self):
        tree = parse_document("<e>&#233; &#x4e2d;</e>")
        assert tree.root.children == ("é 中",)

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<e>&nosuch;</e>")

    def test_bare_ampersand_raises(self):
        with pytest.raises(XMLSyntaxError):
            unescape("a & b")


class TestMixedContent:
    def build_mixed(self) -> DataTree:
        b = TreeBuilder("section")
        b.text("Intro with <angle> & ampersand, then ")
        b.leaf("em", "emphasis")
        b.text(" and a tail.")
        return b.tree

    def test_mixed_content_roundtrip(self):
        tree = self.build_mixed()
        back = roundtrip(tree)
        assert_same_shape(tree, back)

    def test_mixed_content_stable_under_reserialization(self):
        tree = self.build_mixed()
        once = serialize(tree)
        assert once == serialize(parse_document(once))

    def test_mixed_content_emitted_inline(self):
        """Text-bearing elements use the inline form — pretty-printing
        them would inject whitespace into character data."""
        text = serialize(self.build_mixed())
        assert "\n" not in text.strip()

    def test_nested_mixed_content(self):
        b = TreeBuilder("doc")
        with b.element("p"):
            b.text("outer ")
            with b.element("b"):
                b.text("bold & <bracketed>")
            b.text(" tail")
        back = roundtrip(b.tree)
        assert_same_shape(b.tree, back)

    def test_element_only_content_pretty_printed(self):
        b = TreeBuilder("doc")
        with b.element("a"):
            b.leaf("leaf", "text")
        text = serialize(b.tree)
        assert "\n  <a>" in text
        assert_same_shape(b.tree, roundtrip(b.tree))

    def test_indent_none_matches_pretty_semantics(self):
        tree = self.build_mixed()
        compact = serialize(tree, indent=None)
        assert_same_shape(parse_document(compact),
                          parse_document(serialize(tree)))


class TestCorpusKeyStability:
    def test_serialize_is_a_stable_cache_key(self):
        """Two structurally equal trees built in different attribute
        orders must hash identically (the corpus cache depends on it)."""
        from repro.corpus import result_key

        a = DataTree("e")
        a.root.set_attribute("x", "1")
        a.root.set_attribute("y", 'needs "escaping" & <more>')
        b = DataTree("e")
        b.root.set_attribute("y", 'needs "escaping" & <more>')
        b.root.set_attribute("x", "1")
        assert result_key(serialize(a), "fp") \
            == result_key(serialize(b), "fp")


class TestDeepTrees:
    """``serialize`` is iterative: a tree's depth is bounded by memory,
    not by the interpreter's recursion limit (depth 1000 raised
    ``RecursionError`` when it recursed)."""

    DEPTH = 5000

    def _chain(self) -> DataTree:
        tree = DataTree("n")
        vertex = tree.root
        vertex.set_attribute("id", "n0")
        for i in range(1, self.DEPTH):
            vertex = tree.create_under(vertex, "n")
            vertex.set_attribute("id", f"n{i}")
        vertex.append("a<b")
        return tree

    def test_serialize(self):
        text = serialize(self._chain(), indent=None)
        assert text == ("".join(f'<n id="n{i}">' for i in range(self.DEPTH))
                        + "a&lt;b" + "</n>" * self.DEPTH + "\n")

    def test_corpus_tree_input(self):
        from repro import Validator
        from repro.corpus import CorpusValidator
        from repro.xmlio import parse_dtdc

        dtd = parse_dtdc("<!ELEMENT n (#PCDATA | n)*>\n"
                         "<!ATTLIST n id CDATA #REQUIRED>\n"
                         "%% constraints\nn.id -> n\n", root="n")
        tree = self._chain()
        report = CorpusValidator(dtd).validate([tree])
        (verdict,) = report.verdicts
        assert verdict.error is None and verdict.ok
        assert verdict.ok == Validator(dtd).check(tree).ok
