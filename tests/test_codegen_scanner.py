"""The codegen scanner against the other engines, on awkward input.

Properties of the one-regex-per-tag scanner in
:mod:`repro.codegen.runtime` and of the tables it runs over:

- **ASCII control whitespace.**  ``\\x0b``, ``\\x0c`` and
  ``\\x1c``–``\\x1f`` are whitespace to the tokenizer (``str`` regex
  ``\\s`` and ``str.strip()``), so they must be whitespace to the bytes
  scanner as well, in every position: between attributes, between
  siblings, after the root and inside an end tag.
- **Mutated documents.**  Five views of one document — codegen over
  text, bytes and an mmapped path, the stream engine and the batch
  engine — yield the same report JSON or the same exception type and
  message, over generator documents mutated with markup, quoting,
  entity, whitespace, duplicate-attribute, stray-character and
  truncation edits; text after a Σ-irrelevant run reports its errors
  at the line the tokenizer does.
- **Batched constraint feed.**  Closed Σ-relevant vertices reach the
  evaluators in batches; documents longer than one batch, and
  Σ-relevant elements nested in Σ-relevant ones (sub-element fields),
  match batch, and with observability on the per-constraint evaluator
  counters and per-label dispatch counters match the stream engine's.
- **Generated tables.**  A generated module is literal tables plus one
  import, and a cache entry stamped by the previous generator version
  is a miss.
"""

import os
import re
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen import (
    GENERATOR_VERSION, CodegenValidator, CompileError, cache_path,
    compile_schema, generate_source, load_source,
)
from repro.codegen.runtime import FLUSH_BATCH
from repro.constraints.base import Field
from repro.constraints.lang_l import Key
from repro.constraints.lang_lu import UnaryForeignKey, UnaryKey
from repro.dtd.dtdc import DTDC
from repro.dtd.structure import DTDStructure
from repro.dtd.validate import validate
from repro.obs import Observability
from repro.server.registry import as_handle
from repro.stream import StreamValidator
from repro.workloads.generators import (
    library_schema, random_check_sigma, random_document, random_structure,
)
from repro.xmlio import serialize
from repro.xmlio.parser import parse_document


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cg"))
    yield


def _outcome(fn):
    """A view's result: the report JSON, or the exception it raised."""
    try:
        return ("report", fn().to_json())
    except Exception as exc:  # noqa: BLE001 - parity check
        return ("error", type(exc).__name__, str(exc))


def _views(dtd, cg, text: str) -> dict:
    """The five views of ``text``: codegen text/bytes/path, stream,
    batch."""
    data = text.encode("utf-8")
    fd, path = tempfile.mkstemp(suffix=".xml")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        return {
            "codegen-text": _outcome(lambda: cg.validate_text(text)),
            "codegen-bytes": _outcome(lambda: cg.validate_bytes(data)),
            "codegen-path": _outcome(lambda: cg.validate_path(path)),
            "stream": _outcome(
                lambda: StreamValidator(cg.compiled.plan).validate_text(text)),
            "batch": _outcome(
                lambda: validate(parse_document(text, dtd.structure), dtd)),
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
        try:
            cg = CodegenValidator(as_handle(dtd))
        except CompileError:
            assume(False)
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
    def test_obs_counters_match_stream(self, case):
        make, text = BATCH_CASES[case]
        dtd = make()
        handle = as_handle(dtd)
        cg_obs, sv_obs = Observability(), Observability()
        cg = CodegenValidator(handle, obs=cg_obs).validate_text(text)
        sv = StreamValidator(handle.plan, obs=sv_obs).validate_text(text)
        assert cg.to_json() == sv.to_json()
        for name in ("evaluator_index_hits", "evaluator_index_misses",
                     "evaluator_violations"):
            got = cg_obs.metrics.values(name)
            assert got and got == sv_obs.metrics.values(name), name
        dispatched = cg_obs.metrics.values("codegen_dispatch_vertices")
        assert dispatched \
            == sv_obs.metrics.values("stream_dispatch_vertices")


# -- generated source and its cache ----------------------------------------


class TestGeneratedTables:
    def test_source_is_tables_plus_an_import(self):
        handle = as_handle(library_schema())
        source = generate_source(handle.plan, handle.fingerprint)
        assert "from repro.codegen.runtime import scanners" in source
        assert "def scan(" not in source
        assert f"GENERATOR_VERSION = {GENERATOR_VERSION}" in source

    def test_previous_version_entry_is_a_miss(self):
        """A well-formed, hash-valid entry stamped by the previous
        generator is never served: the cache regenerates the source."""
        import hashlib

        handle = as_handle(library_schema())
        path = cache_path(handle.fingerprint)
        stale = "raise AssertionError('previous-version source exec-d')\n"
        digest = hashlib.sha256(stale.encode("utf-8")).hexdigest()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = f"# repro-codegen v{GENERATOR_VERSION - 1} sha256={digest}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + stale)
        # the previous generator's own file name is never read either
        old_path = path.replace(f".g{GENERATOR_VERSION}.py",
                                f".g{GENERATOR_VERSION - 1}.py")
        with open(old_path, "w", encoding="utf-8") as fh:
            fh.write(header + stale)
        assert load_source(handle.fingerprint) is None
        compiled = compile_schema(handle.plan, handle.fingerprint)
        assert compiled.source == generate_source(handle.plan,
                                                  handle.fingerprint)
        assert load_source(handle.fingerprint) == compiled.source
