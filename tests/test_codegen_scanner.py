"""The codegen scanner against the batch engine, on awkward input.

Properties of the one-regex-per-tag scanner in
:mod:`repro.codegen.runtime` and of the tables it runs over:

- **ASCII control whitespace.**  ``\\x0b``, ``\\x0c`` and
  ``\\x1c``–``\\x1f`` are whitespace to the tokenizer (``str`` regex
  ``\\s`` and ``str.strip()``), so they must be whitespace to the bytes
  scanner as well, in every position: between attributes, between
  siblings, after the root and inside an end tag.
- **Mutated documents.**  Five views of one document — codegen over
  text, bytes and an mmapped path, and the batch engine over the text
  and over the file — yield the same report JSON or the same exception
  type and message, over generator documents (and documents of
  schemas with non-ASCII names or an exponential content model)
  mutated with markup, quoting, entity, whitespace,
  duplicate-attribute, stray-character and truncation edits; text
  after a Σ-irrelevant run reports its errors at the line the
  tokenizer does.
- **Batched constraint feed.**  Closed Σ-relevant vertices reach the
  evaluators in batches; documents longer than one batch, and
  Σ-relevant elements nested in Σ-relevant ones (sub-element fields),
  match batch, and with observability on the per-constraint evaluator
  counters match batch's and the per-label dispatch counters count the
  document's Σ-relevant elements.
- **Bounded runs.**  A Σ-irrelevant run longer than one run match is
  consumed in several, with the parent content model stepped across
  them.
"""

import os
import re
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import engines
from repro.codegen import CodegenValidator
from repro.codegen.runtime import FLUSH_BATCH, RUN_MAX
from repro.constraints.base import Field
from repro.constraints.lang_l import Key
from repro.constraints.lang_lu import UnaryForeignKey, UnaryKey
from repro.dtd.dtdc import DTDC
from repro.dtd.structure import DTDStructure
from repro.dtd.validate import validate
from repro.obs import Observability
from repro.server.registry import as_handle
from repro.workloads.generators import (
    library_schema, random_check_sigma, random_document, random_structure,
)
from repro.xmlio import serialize
from repro.xmlio.parser import parse_document


def _outcome(fn):
    """A view's result: the report JSON, or the exception it raised."""
    try:
        return ("report", fn().to_json())
    except Exception as exc:  # noqa: BLE001 - parity check
        return ("error", type(exc).__name__, str(exc))


def _views(dtd, cg, text: str) -> dict:
    """The five views of ``text``: codegen text/bytes/path, batch over
    the text and batch over the file."""
    data = text.encode("utf-8")
    fd, path = tempfile.mkstemp(suffix=".xml")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        return {
            "codegen-text": _outcome(lambda: cg.validate_text(text)),
            "codegen-bytes": _outcome(lambda: cg.validate_bytes(data)),
            "codegen-path": _outcome(lambda: cg.validate_path(path)),
            "batch": _outcome(
                lambda: validate(parse_document(text, dtd.structure), dtd)),
            "batch-path": _outcome(
                lambda: engines.create("batch", dtd).validate(path)),
        }
    finally:
        os.unlink(path)


def _assert_agree(views: dict) -> None:
    reference = views["batch"]
    diverging = {name: got for name, got in views.items()
                 if got != reference}
    assert not diverging, (reference, diverging)


# -- ASCII control whitespace -------------------------------------------


CONTROL_WS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")

#: one library document per position, ``{ws}`` marking the spot
POSITIONS = {
    "between-attributes":
        "<library><entry{ws}isbn='a' shelf='s'/></library>",
    "between-siblings":
        "<library><entry isbn='a' shelf='s'/>{ws}"
        "<entry isbn='b' shelf='s'/></library>",
    "after-root":
        "<library><entry isbn='a' shelf='s'/></library>{ws}",
    "in-end-tag":
        "<library><entry isbn='a' shelf='s'></entry{ws}></library>",
}


class TestControlWhitespace:
    def test_bytes_whitespace_is_the_str_whitespace_on_ascii(self):
        from repro.codegen.runtime import _WS_BYTES

        assert set(_WS_BYTES) == {c for c in range(128) if chr(c).isspace()}

    @pytest.mark.parametrize("ws", CONTROL_WS)
    @pytest.mark.parametrize("position", sorted(POSITIONS))
    def test_every_view_accepts_it_as_whitespace(self, position, ws):
        dtd = library_schema()
        cg = CodegenValidator(as_handle(dtd))
        views = _views(dtd, cg, POSITIONS[position].format(ws=ws))
        _assert_agree(views)
        assert views["batch"][0] == "report"
        assert '"ok": true' in views["batch"][1]

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    def test_auto_engine_on_a_path(self, position, tmp_path):
        """The reported symptom: ``Validator.check(path, engine="auto")``
        took the bytes scanner and disagreed with the other engines."""
        from repro import Validator

        v = Validator(library_schema())
        path = tmp_path / "doc.xml"
        text = POSITIONS[position].format(ws="\x1c")
        path.write_bytes(text.encode("ascii"))
        assert v.check(str(path), engine="auto").to_json() \
            == v.check(text, engine="batch").to_json()


FEED_SCHEMA = """
<!ELEMENT feed (item*, entry*, ref*)>
<!ELEMENT item (#PCDATA)?>
<!ELEMENT entry EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST entry sku CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
%% constraints
entry.sku -> entry
ref.to sub entry.sku
"""


class TestIrrelevantRuns:
    """Runs of Σ-irrelevant ``item`` leaves are counted where they lie
    (an mmap has no ``count``, so the path view counts a copy)."""

    @pytest.mark.parametrize("text", [
        "<feed>" + "<item>p</item><item/>\n<item></item>" * 40
        + "<entry sku='a'/><ref to='a'/></feed>",
        # items after an entry: the parent DFA dies inside the run
        "<feed><item>p</item><entry sku='a'/>"
        + "<item>q</item>\n<item/>" * 30 + "<ref to='b'/></feed>",
    ])
    def test_every_view_counts_the_run(self, text):
        from repro.xmlio.dtdparse import parse_dtdc

        dtd = parse_dtdc(FEED_SCHEMA)
        _assert_agree(_views(dtd, CodegenValidator(as_handle(dtd)), text))


class TestErrorLines:
    def test_text_after_an_irrelevant_run_keeps_its_start_line(self):
        """A Σ-irrelevant run (``title`` here) ends at its last element:
        a bad ``&`` in the whitespace-led text after it is reported at
        the line where that text starts, as the tokenizer does."""
        from repro.workloads.book import book_dtdc

        dtd = book_dtdc()
        text = ('<book>\n  <entry isbn="1">\n    <title>Data</title>\n'
                '  &  <publisher>M</publisher>\n  </entry>\n'
                '  <ref to="1"/>\n</book>\n')
        views = _views(dtd, CodegenValidator(as_handle(dtd)), text)
        _assert_agree(views)
        assert views["batch"] == (
            "error", "XMLSyntaxError",
            "bare '&' in character data (use &amp;) at line 3")


    @pytest.mark.parametrize("tag", [
        "<entry isbn='a' shelf='s' isbn='b'/>",
        # rejected by the one-regex match: the replay finds it
        "<entry isbn='a' isbn='b' junk/>",
        # the first error in document order wins
        "<entry isbn='&bogus;' isbn='b' shelf='s'/>",
        "<entry isbn='a' isbn='&bogus;' shelf='s'/>",
    ])
    def test_duplicate_attribute_is_a_located_error(self, tag):
        dtd = library_schema()
        views = _views(dtd, CodegenValidator(as_handle(dtd)),
                       f"<library>\n{tag}\n</library>")
        _assert_agree(views)
        assert views["batch"][0] == "error"
        assert views["batch"][2].endswith("at line 2")


    @pytest.mark.parametrize("text, ok", [
        ("\ufeff<library><entry isbn='a' shelf='s'/></library>", True),
        ("\ufeff\n<library/>\n", True),
        # only a leading mark is skipped
        ("<library/>\ufeff", False),
        ("\ufeff\ufeff<library/>", False),
    ])
    def test_leading_byte_order_mark_is_skipped(self, text, ok):
        dtd = library_schema()
        views = _views(dtd, CodegenValidator(as_handle(dtd)), text)
        _assert_agree(views)
        assert (views["batch"][0] == "report") is ok


# -- hypothesis equivalence over mutated documents -------------------------


WHITESPACE = (" ", "\t", "\n", "\r", *CONTROL_WS, "\x85", "\xa0", "\u3000")
_NAME = r"[A-Za-z_:][\w:.\-]*"


def _gaps(text: str) -> list[int]:
    """Positions right after a ``>``: between siblings, or after the
    root."""
    return [m.end() for m in re.finditer(">", text)]


def _markup(text, rnd):
    gaps = _gaps(text)
    if not gaps:
        return text
    at = rnd.choice(gaps)
    piece = rnd.choice(("<!-- note -->", "<!---->", "<?pi data?>",
                        "<![CDATA[ ]]>", "<![CDATA[x&y<z]]>"))
    return text[:at] + piece + text[at:]


def _quotes(text, rnd):
    spots = list(re.finditer(rf'(\s)({_NAME})="([^"]*)"', text))
    if not spots:
        return text
    m = rnd.choice(spots)
    eq = rnd.choice(("=", " = ", "\t=\n"))
    quote = rnd.choice(("'", '"'))
    return (text[:m.start()] + m.group(1) + m.group(2) + eq
            + quote + m.group(3) + quote + text[m.end():])


def _empty_form(text, rnd):
    spots = [("open", m) for m in re.finditer(rf"<({_NAME})([^<>]*?)/>",
                                              text)]
    spots += [("close", m) for m in re.finditer(
        rf"<({_NAME})([^<>/]*)></\1>", text)]
    if not spots:
        return text
    kind, m = rnd.choice(spots)
    name, attrs = m.group(1), m.group(2)
    swapped = (f"<{name}{attrs}></{name}>" if kind == "open"
               else f"<{name}{attrs}/>")
    return text[:m.start()] + swapped + text[m.end():]


def _entity(text, rnd):
    spots = [m.end() for m in re.finditer('="', text)] + _gaps(text)
    if not spots:
        return text
    at = rnd.choice(spots)
    ref = rnd.choice(("&amp;", "&lt;", "&#65;", "&#x42;", "&quot;",
                      "&#32;", "&bogus;", "&#;"))
    return text[:at] + ref + text[at:]


def _whitespace(text, rnd):
    ws = rnd.choice(WHITESPACE)
    where = rnd.choice(("between", "separator", "end-tag", "edges"))
    if where == "separator":
        spots = [m.start() for m in re.finditer(rf" {_NAME}=", text)]
        if spots:
            at = rnd.choice(spots)
            return text[:at] + ws + text[at + 1:]
    elif where == "end-tag":
        spots = [m.end() for m in re.finditer(rf"</{_NAME}", text)]
        if spots:
            at = rnd.choice(spots)
            return text[:at] + ws + text[at:]
    elif where == "edges":
        return ws + text if rnd.random() < 0.5 else text + ws
    gaps = _gaps(text)
    if not gaps:
        return text
    at = rnd.choice(gaps)
    return text[:at] + ws + text[at:]


def _duplicate_attribute(text, rnd):
    spots = list(re.finditer(rf'\s{_NAME}="[^"]*"', text))
    if not spots:
        return text
    m = rnd.choice(spots)
    return text[:m.end()] + m.group(0) + text[m.end():]


def _stray(text, rnd):
    at = rnd.randrange(len(text) + 1)
    return text[:at] + rnd.choice("<>&") + text[at:]


def _truncate(text, rnd):
    return text[:rnd.randrange(len(text) + 1)]


MUTATIONS = {
    "markup": _markup, "quotes": _quotes, "empty-form": _empty_form,
    "entity": _entity, "whitespace": _whitespace,
    "duplicate-attribute": _duplicate_attribute, "stray": _stray,
    "truncate": _truncate,
}


def _non_ascii_dtdc() -> DTDC:
    """Non-ASCII element and attribute names (each starting with an
    ASCII letter, as the tokenizer's names do), keyed and referenced."""
    s = DTDStructure("bücherei")
    s.define_element("bücherei", "(buch*, ausleihe*)")
    s.define_element("buch", "(titel, (#PCDATA)?)")
    s.define_element("titel", "(#PCDATA)")
    s.define_element("ausleihe", "EMPTY")
    s.define_attribute("buch", "nümmer")
    s.define_attribute("ausleihe", "für")
    s.check()
    return DTDC(s, [
        UnaryKey("buch", Field("nümmer")),
        UnaryForeignKey("ausleihe", Field("für"), "buch", Field("nümmer")),
    ])


def _blowup_dtdc() -> DTDC:
    """``(a|b)*, a`` followed by 13 × ``(a|b)``: 2^14 DFA states."""
    s = DTDStructure("r")
    s.define_element("r", "((a|b)*, a" + ", (a|b)" * 13 + ")")
    s.define_element("a", "(#PCDATA)?")
    s.define_element("b", "EMPTY")
    s.define_attribute("b", "k")
    s.check()
    return DTDC(s, [UnaryKey("b", Field("k"))])


FORMERLY_EXCLUDED = {
    "non-ascii": (_non_ascii_dtdc, [
        '<bücherei><buch nümmer="1"><titel>Faust</titel></buch>'
        '<buch nümmer="2"><titel>Woyzeck</titel>x</buch>'
        '<ausleihe für="2"/></bücherei>',
        '<bücherei>\n <buch nümmer="1"><titel>a</titel></buch>\n'
        ' <buch nümmer="1"><titel>b</titel></buch>\n'
        ' <ausleihe für="9"/>\n</bücherei>\n',
        # ASCII documents of the same schema take the bytes scanner
        '<bucherei><buch nummer="1"><titel>t</titel></buch></bucherei>',
    ]),
    "blowup": (_blowup_dtdc, [
        "<r>" + '<b k="1"/><a>x</a>' * 40 + "<a/>"
        + "".join(f'<b k="{i}"/>' for i in range(2, 15)) + "</r>",
        "<r>" + "<a/>" * 30 + '<b k="1"/>' * 14 + "</r>",
    ]),
}


def _instance(seed: int):
    from repro.errors import ConstraintError

    structure = random_structure(seed, n_types=5)
    sigma = random_check_sigma(structure, seed, n_constraints=6)
    try:
        dtd = DTDC(structure, sigma)
    except ConstraintError:
        return None
    return dtd, serialize(random_document(structure, seed + 1,
                                          size_budget=60))


class TestMutatedDocumentEquivalence:
    @given(st.integers(0, 2**31 - 1),
           st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1,
                    max_size=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_five_views_agree(self, seed, mutations, rnd):
        instance = _instance(seed)
        assume(instance is not None)
        dtd, text = instance
        cg = CodegenValidator(as_handle(dtd))
        for name in mutations:
            text = MUTATIONS[name](text, rnd)
        _assert_agree(_views(dtd, cg, text))

    @given(st.sampled_from(sorted(FORMERLY_EXCLUDED)),
           st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1,
                    max_size=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_formerly_excluded_schemas(self, case, mutations, rnd):
        """Schemas the engine once refused to compile — non-ASCII names,
        an exponential content model — over mutated documents."""
        make, texts = FORMERLY_EXCLUDED[case]
        dtd = make()
        cg = CodegenValidator(as_handle(dtd))
        text = rnd.choice(texts)
        for name in mutations:
            text = MUTATIONS[name](text, rnd)
        _assert_agree(_views(dtd, cg, text))


# -- batched constraint feed ----------------------------------------------


def _library_text(n_entries: int, n_refs: int) -> str:
    """More Σ-relevant siblings than one flush batch, with one duplicate
    isbn and one dangling ref."""
    parts = ["<library>"]
    parts += [f'\n  <entry isbn="i{i % (n_entries - 1)}" shelf="s{i % 3}"/>'
              for i in range(n_entries)]
    parts += [f'\n  <ref to="i{(i * 7) % (n_entries + 2)}"/>'
              for i in range(n_refs)]
    parts.append("\n</library>\n")
    return "".join(parts)


def _nested_dtdc() -> DTDC:
    """Σ-relevant ``shelf`` elements holding Σ-relevant ``book``
    elements, keyed through sub-element fields (§3.4)."""
    s = DTDStructure("lib")
    s.define_element("lib", "(shelf*, loan*)")
    s.define_element("shelf", "(name, book*)")
    s.define_element("book", "(title, (#PCDATA)?)")
    s.define_element("name", "(#PCDATA)")
    s.define_element("title", "(#PCDATA)")
    s.define_element("loan", "EMPTY")
    s.define_attribute("shelf", "sid")
    s.define_attribute("book", "isbn")
    s.define_attribute("loan", "book")
    s.check()
    return DTDC(s, [
        UnaryKey("shelf", Field("name", is_element=True)),
        Key("book", (Field("isbn"), Field("title", is_element=True))),
        UnaryKey("book", Field("isbn")),
        UnaryForeignKey("loan", Field("book"), "book", Field("isbn")),
    ])


def _nested_text(n_shelves: int, per_shelf: int) -> str:
    parts = ["<lib>"]
    for s in range(n_shelves):
        parts.append(f'<shelf sid="s{s}"><name>shelf {s % (n_shelves - 1)}'
                     "</name>")
        for b in range(per_shelf):
            k = s * per_shelf + b
            parts.append(f'<book isbn="b{k % 97}"><title>t{k % 5}</title>'
                         f"{'note' if k % 3 else ''}</book>")
        parts.append("</shelf>")
    parts += [f'<loan book="b{k}"/>' for k in range(0, 120, 3)]
    parts.append("</lib>")
    return "".join(parts)


BATCH_CASES = {
    "siblings": (library_schema, _library_text(2 * FLUSH_BATCH + 7,
                                               FLUSH_BATCH + 3)),
    "nested": (_nested_dtdc, _nested_text(6, FLUSH_BATCH // 2 + 5)),
}


class TestFlushBatches:
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_reports_match_batch(self, case):
        make, text = BATCH_CASES[case]
        dtd = make()
        cg = CodegenValidator(as_handle(dtd))
        views = _views(dtd, cg, text)
        _assert_agree(views)
        assert '"ok": false' in views["batch"][1]

    def test_one_flush_per_batch(self, monkeypatch):
        """A document of ``k`` Σ-relevant siblings, none nested, is fed
        in ``ceil(k / FLUSH_BATCH)`` flushes, the last one before
        ``finish``."""
        from repro.codegen.runtime import RunState

        calls = []
        flush = RunState.flush_region

        def counted(self):
            calls.append(len(self.region))
            flush(self)

        monkeypatch.setattr(RunState, "flush_region", counted)
        dtd = library_schema()
        n = 2 * FLUSH_BATCH + 7 + FLUSH_BATCH + 3
        CodegenValidator(as_handle(dtd)).validate_text(
            _library_text(2 * FLUSH_BATCH + 7, FLUSH_BATCH + 3))
        assert calls == [FLUSH_BATCH] * (n // FLUSH_BATCH) \
            + [n % FLUSH_BATCH]

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_obs_counters_match_batch(self, case):
        make, text = BATCH_CASES[case]
        dtd = make()
        handle = as_handle(dtd)
        cg_obs, batch_obs = Observability(), Observability()
        cg = CodegenValidator(handle, obs=cg_obs).validate_text(text)
        tree = parse_document(text, dtd.structure)
        batch = validate(tree, dtd, obs=batch_obs)
        assert cg.to_json() == batch.to_json()
        for name in ("evaluator_index_hits", "evaluator_index_misses",
                     "evaluator_violations"):
            got = cg_obs.metrics.values(name)
            assert got and got == batch_obs.metrics.values(name), name
        dispatched = cg_obs.metrics.values("codegen_dispatch_vertices")
        assert dispatched == {
            (("label", label),): sum(
                1 for v in tree.vertices() if v.label == label)
            for label in handle.plan.relevant}


# -- bounded runs ------------------------------------------------------------


class TestBoundedRuns:
    """A run of Σ-irrelevant leaves longer than :data:`RUN_MAX` takes
    several run matches; the parent's content model is stepped across
    all of them, dying (or not) where batch says."""

    @pytest.mark.parametrize("n", [RUN_MAX - 1, RUN_MAX, RUN_MAX + 1,
                                   3 * RUN_MAX + 17])
    def test_long_runs_match_batch(self, n):
        from repro.xmlio.dtdparse import parse_dtdc

        dtd = parse_dtdc(FEED_SCHEMA)
        cg = CodegenValidator(as_handle(dtd))
        items = "".join("<item>p</item>\n" if i % 3 else "<item/>"
                        for i in range(n))
        for text in (
                f"<feed>{items}<entry sku='a'/><ref to='a'/></feed>",
                # the parent dies inside the run, after an entry
                f"<feed><entry sku='a'/>{items}<ref to='b'/></feed>"):
            views = _views(dtd, cg, text)
            _assert_agree(views)
            assert views["batch"][0] == "report"

    def test_skip_counter_counts_every_element(self):
        from repro.xmlio.dtdparse import parse_dtdc

        cg = CodegenValidator(as_handle(parse_dtdc(FEED_SCHEMA)))
        n = 2 * RUN_MAX + 5
        cg.validate_bytes(("<feed>" + "<item>x</item>" * n
                           + "</feed>").encode())
        assert cg.last_run.n_skipped == n
        assert cg.last_run.next_vid == n + 1
