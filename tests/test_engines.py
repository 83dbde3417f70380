"""The unified ``engine=`` API and the engine registry.

One seam, many call sites: ``Validator.check(doc, engine=...)``, the
CLI's ``--engine``, the server's ``engine`` field, and corpus workers
all resolve backends through :mod:`repro.engines`.  These tests pin the
registry contract (registration, built-in protection, unknown-name
errors), the facade redesign (legacy ``check`` untouched), and report
byte-identity across every built-in engine.
"""

import pytest

from repro import Validator, engines
from repro.errors import ReproError
from repro.server.registry import as_handle
from repro.workloads.book import book_document, book_dtdc
from repro.xmlio.serializer import serialize


TEXT = serialize(book_document())


class TestRegistry:
    def test_builtins_always_listed(self):
        for name in ("auto", "batch", "codegen"):
            assert name in engines.names()

    def test_create_unknown_engine(self):
        with pytest.raises(ReproError, match="unknown engine 'psychic'"):
            engines.create("psychic", book_dtdc())

    def test_register_and_create_third_party(self):
        calls = []

        class Recorder:
            def __init__(self, handle, obs=None):
                self.handle = handle

            def validate(self, source):
                calls.append(source)
                return engines.create("batch", self.handle).validate(source)

        engines.register("recorder", Recorder)
        try:
            report = Validator(book_dtdc()).check(TEXT, engine="recorder")
            assert report.ok
            assert calls == [TEXT]
        finally:
            engines.unregister("recorder")
        assert "recorder" not in engines.names()

    def test_duplicate_registration_needs_replace(self):
        engines.register("dup", lambda handle, obs=None: None)
        try:
            with pytest.raises(ReproError, match="already registered"):
                engines.register("dup", lambda handle, obs=None: None)
            engines.register("dup", lambda handle, obs=None: None,
                             replace=True)
        finally:
            engines.unregister("dup")

    def test_builtins_are_protected(self):
        with pytest.raises(ReproError, match="built-in"):
            engines.register("codegen", lambda handle, obs=None: None)
        with pytest.raises(ReproError, match="built-in"):
            engines.unregister("batch")

    def test_auto_resolves_to_codegen(self):
        assert engines.resolve("auto") == "codegen"
        for name in ("batch", "codegen", "psychic"):
            assert engines.resolve(name) == name
        assert engines.create("auto", book_dtdc()).name == "codegen"

    def test_invalid_name_rejected(self):
        with pytest.raises(ReproError, match="invalid engine name"):
            engines.register("no spaces", lambda handle, obs=None: None)


class TestValidatorFacade:
    def test_reports_byte_identical_across_engines(self):
        v = Validator(book_dtdc())
        reports = {name: v.check(TEXT, engine=name).to_json()
                   for name in ("batch", "codegen", "auto")}
        assert len(set(reports.values())) == 1

    def test_legacy_check_signature_unchanged(self):
        v = Validator(book_dtdc())
        doc = book_document()
        report = v.check(doc)
        assert report.ok
        # an explicit sigma still works positionally
        assert v.check(doc, v.dtd.constraints).ok

    def test_sigma_with_engine_is_a_type_error(self):
        v = Validator(book_dtdc())
        with pytest.raises(TypeError, match="sigma"):
            v.check(TEXT, v.dtd.constraints, engine="codegen")

    def test_tree_rejected_by_single_pass_engines(self):
        v = Validator(book_dtdc())
        for name in ("auto", "codegen"):
            with pytest.raises(TypeError, match="engine='batch'"):
                v.check(book_document(), engine=name)

    def test_batch_engine_accepts_tree(self):
        v = Validator(book_dtdc())
        assert v.check(book_document(), engine="batch").ok

    def test_path_input(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(TEXT)
        v = Validator(book_dtdc())
        reports = {name: v.check(path, engine=name).to_json()
                   for name in ("batch", "codegen", "auto")}
        assert len(set(reports.values())) == 1

    def test_check_corpus_engine_equivalence(self):
        v = Validator(book_dtdc())
        docs = [("a", TEXT), ("b", "<book/>")]
        verdicts = {}
        for name in ("batch", "codegen", "auto"):
            verdicts[name] = v.check_corpus(
                docs, engine=name).verdicts_json()
        assert len(set(verdicts.values())) == 1

    def test_corpus_reports_the_resolved_engine(self):
        from repro.corpus import CorpusValidator

        for name in ("auto", "codegen"):
            assert CorpusValidator(book_dtdc(), engine=name).engine \
                == "codegen"


class TestSchemaHandleSurface:
    def test_handle_codegen_is_memoized(self):
        handle = as_handle(book_dtdc())
        assert handle.codegen is handle.codegen

    def test_to_dict_lists_engines(self):
        from repro.server.registry import SchemaRegistry
        from repro.workloads.book import (
            BOOK_CONSTRAINTS_TEXT, BOOK_DTD_TEXT,
        )

        registry = SchemaRegistry()
        registry.load(
            "book",
            BOOK_DTD_TEXT + "\n%% constraints\n" + BOOK_CONSTRAINTS_TEXT,
            root="book")
        payload = registry.get("book").to_dict()
        assert payload["engines"] == ["auto", "batch", "codegen"]
