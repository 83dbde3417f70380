"""The codegen engine: every schema compiles, in-process, and reports
byte-identically to the batch validator.

The scanners are built from the schema's plan in the validating
process — once per schema handle and once per corpus worker — with
content-model rows filled on first use from the plan's lazy matchers.
So no schema is outside the engine: non-ASCII names and content models
whose DFA is exponential validate like any other.
"""

import pytest

from repro import engines
from repro.codegen import CodegenValidator, compile_plan, compile_schema
from repro.dtd.dtdc import DTDC
from repro.dtd.structure import DTDStructure
from repro.dtd.validate import validate
from repro.obs import Observability
from repro.server.registry import as_handle
from repro.workloads.book import book_document, book_dtdc
from repro.xmlio.parser import parse_document
from repro.xmlio.serializer import serialize


def _handle():
    return as_handle(book_dtdc())


def _batch(dtd, text: str):
    return validate(parse_document(text, dtd.structure), dtd)


def _outcome(fn):
    try:
        return fn().to_json(), None
    except Exception as exc:  # noqa: BLE001 - parity check
        return None, (type(exc), str(exc))


class TestEquivalence:
    CASES = [
        serialize(book_document()),
        "<book/>",
        "<book><entry isbn='1'><title>t</title>"
        "<publisher>p</publisher></entry><ref to='1'/></book>",
        # duplicate key + dangling foreign key
        "<book><entry isbn='x'><title>t</title>"
        "<publisher>p</publisher></entry>"
        "<section sid='s1'><title>a</title></section>"
        "<section sid='s1'><title>b</title></section>"
        "<ref to='nope'/></book>",
        "not even xml",
        "<book><unclosed></book>",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_text_reports_byte_identical_to_stream(self, text):
        """Codegen, reached directly and through the ``auto`` engine
        name, and the batch reference give the same report or the same
        error.  (The name predates 2.0, which removed ``stream``, an
        alias of codegen.)"""
        handle = _handle()
        expected = _outcome(lambda: _batch(handle.dtd, text))
        cg = CodegenValidator(handle)
        assert _outcome(lambda: cg.validate_text(text)) == expected
        if text.startswith("<"):  # engines take anything else as a path
            auto = engines.create("auto", handle)
            assert _outcome(lambda: auto.validate(text)) == expected

    def test_mmap_path_matches_text(self, tmp_path):
        handle = _handle()
        cg = CodegenValidator(handle)
        text = serialize(book_document())
        path = tmp_path / "doc.xml"
        path.write_text(text)
        assert cg.validate_path(str(path)).to_json() \
            == _batch(handle.dtd, text).to_json()

    def test_empty_file(self, tmp_path):
        handle = _handle()
        cg = CodegenValidator(handle)
        path = tmp_path / "empty.xml"
        path.write_text("")
        assert _outcome(lambda: cg.validate_path(str(path))) \
            == _outcome(lambda: _batch(handle.dtd, ""))

    def test_non_ascii_bytes_fall_back_to_decoded_scan(self):
        handle = _handle()
        cg = CodegenValidator(handle)
        text = ("<book><entry isbn='é'><title>café</title>"
                "<publisher>p</publisher></entry><ref to='é'/>"
                "</book>")
        data = text.encode("utf-8")
        assert cg.validate_bytes(data).to_json() \
            == _batch(handle.dtd, text).to_json()

    def test_compile_schema_binds_a_shipped_plan(self):
        """The corpus-worker path: a plan (as a worker receives it) is
        all the scanners need; no handle, no registry."""
        handle = _handle()
        plan = compile_plan(handle.dtd)
        compiled = compile_schema(plan, handle.fingerprint)
        assert compiled.plan is plan
        text = serialize(book_document())
        assert CodegenValidator(compiled).validate(text).to_json() \
            == _batch(handle.dtd, text).to_json()


def _non_ascii_dtdc() -> DTDC:
    s = DTDStructure("café")
    s.define_element("café", "(tasse*)")
    s.define_element("tasse", "(#PCDATA)?")
    s.define_attribute("tasse", "größe")
    s.check()
    return DTDC(s, ())


def _blowup_dtdc() -> DTDC:
    """``(a|b)*, a`` then 13 × ``(a|b)``: the DFA remembers the last 14
    children, so it has 2^14 states; documents reach only a few."""
    s = DTDStructure("r")
    s.define_element("r", "((a|b)*, a" + ", (a|b)" * 13 + ")")
    s.define_element("a", "EMPTY")
    s.define_element("b", "EMPTY")
    s.check()
    return DTDC(s, ())


class TestCompileSubset:
    def test_non_ascii_schema_compiles(self):
        dtd = _non_ascii_dtdc()
        handle = as_handle(dtd)
        for text in ("<café><tasse größe='1'>x</tasse></café>",
                     "<café><tasse/></café>",   # missing größe
                     "<café/>", "<cafe/>"):
            expected = _batch(dtd, text).to_json()
            assert engines.create("codegen", handle).validate(
                text).to_json() == expected
            # ASCII bytes take the bytes scanner, whose tables leave
            # the non-ASCII names out
            data = text.encode("utf-8")
            assert CodegenValidator(handle).validate_bytes(
                data).to_json() == expected

    def test_exponential_content_model_fills_rows_lazily(self):
        from repro.regexlang.automaton import clear_matcher_cache

        clear_matcher_cache()  # a fresh matcher counts only our states
        dtd = _blowup_dtdc()
        handle = as_handle(dtd)
        cg = CodegenValidator(handle)
        matcher = handle.plan.matchers["r"]
        valid = "<r>" + "<b/><a/>" * 500 + "<a/>" + "<b/>" * 13 + "</r>"
        invalid = "<r>" + "<a/><b/>" * 500 + "<b/>" * 14 + "</r>"
        for text in (valid, invalid):
            expected = _batch(dtd, text).to_json()
            assert cg.validate_text(text).to_json() == expected
            assert cg.validate_bytes(text.encode()).to_json() == expected
        assert '"ok": true' in _batch(dtd, valid).to_json()
        assert '"ok": false' in _batch(dtd, invalid).to_json()
        assert len(matcher.rows) < 100  # of 2^14 states

    def test_auto_resolves_to_codegen(self):
        handle = as_handle(_non_ascii_dtdc())
        backend = engines.create("auto", handle)
        assert backend.name == "codegen"
        assert backend.validate("<café/>").ok

    def test_supported_schema_reports_codegen(self):
        handle = _handle()
        assert handle.engines() == ["auto", "batch", "codegen"]
        assert as_handle(_blowup_dtdc()).engines() == handle.engines()


class TestCompilations:
    def test_one_build_per_handle(self):
        obs = Observability()
        from repro.server.registry import SchemaHandle

        handle = SchemaHandle(book_dtdc(), obs=obs)
        assert handle.codegen is handle.codegen
        (metric,) = [m for m in obs.metrics.to_dicts()
                     if m["name"] == "codegen_compilations"]
        assert metric["value"] == 1
        assert metric["labels"] == {}


class TestConcurrentScanning:
    def test_threads_grow_one_shared_matcher_consistently(self):
        """The scanners step the process-wide matchers directly, and a
        row fills on first use: threads validating at once against a
        fresh exponential content model discover its states without
        losing or duplicating one."""
        import random
        import sys
        import threading

        from repro.regexlang.automaton import clear_matcher_cache

        rnd = random.Random(5)
        docs = ["<r>" + "".join(rnd.choice(("<a/>", "<b/>"))
                                for _ in range(150)) + "</r>"
                for _ in range(12)]
        expected = [_batch(_blowup_dtdc(), d).to_json() for d in docs]
        clear_matcher_cache()  # the threads start from state 0 alone
        handle = as_handle(_blowup_dtdc())
        cg = CodegenValidator(handle)
        got: dict = {}

        def work(k):
            order = docs[k:] + docs[:k]
            got[k] = [cg.validate_bytes(d.encode()).to_json()
                      for d in order]

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(8):
            assert got[k] == expected[k:] + expected[:k]
        m = handle.plan.matchers["r"]
        assert len(m.rows) == len(m.accepting) == len(m._state_list) \
            == len(m._states)
        assert all(m._states[subset] == i
                   for i, subset in enumerate(m._state_list))
