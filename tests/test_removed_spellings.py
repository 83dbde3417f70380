"""The spellings removed in repro 2.0 fail like any unknown one.

Each removed alias or option had a surviving spelling with the same
behaviour (see the "Removed in 2.0" rows of README.md's migration
tables).  After the cut there is no shim, warning or fallback left: a
removed CLI flag is an argparse usage error (exit 2), the ``stream``
engine name is an unknown engine (CLI exit 2, HTTP 400), and a removed
Python name or keyword is an ``ImportError`` / ``TypeError``.  One test
per surface.
"""

import pytest

import repro
from repro import CorpusValidator, ShardedCorpusValidator, Validator
from repro.cli.main import main
from repro.errors import ReproError
from repro.server import ValidationServer
from repro.server.registry import SchemaRegistry
from repro.workloads.book import (
    BOOK_CONSTRAINTS_TEXT, BOOK_DTD_TEXT, book_document, book_dtdc,
)
from repro.xmlio import serialize

SCHEMA_TEXT = BOOK_DTD_TEXT + "\n%% constraints\n" + BOOK_CONSTRAINTS_TEXT
DOC = serialize(book_document())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("removed")
    schema = base / "book.dtdc"
    schema.write_text(SCHEMA_TEXT)
    doc = base / "book.xml"
    doc.write_text(DOC)
    return str(schema), str(doc)


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["validate", "DOC", "SCHEMA", "--stream"],
        ["check-corpus", "SCHEMA", "DOC", "--stream"],
        ["check-corpus", "SCHEMA", "DOC", "--chunk-size", "4"],
        ["check-corpus", "SCHEMA", "DOC", "--shards", "1",
         "--nodes", "local"],
        ["serve", "--mode", "batch"],
        ["bench-incremental", "--json"],
    ], ids=["validate--stream", "check-corpus--stream",
            "check-corpus--chunk-size", "check-corpus--nodes",
            "serve--mode", "bench-incremental--json"])
    def test_removed_flag_is_a_usage_error(self, files, argv, capsys):
        schema, doc = files
        argv = ["--root", "book"] + [
            {"SCHEMA": schema, "DOC": doc}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "check-corpus",
                                         "serve"])
    def test_stream_engine_is_unknown(self, files, command, capsys):
        schema, doc = files
        argv = {"validate": ["validate", doc, schema],
                "check-corpus": ["check-corpus", schema, doc],
                "serve": ["serve", "--stdio"]}[command]
        assert main(["--root", "book"] + argv
                    + ["--engine", "stream"]) == 2
        assert "unknown engine 'stream'" in capsys.readouterr().err


class TestPython:
    def test_stream_engine_is_unknown(self):
        with pytest.raises(ReproError, match="unknown engine 'stream'"):
            Validator(book_dtdc()).check(DOC, engine="stream")
        assert "stream" not in repro.engines.names()
        assert repro.engines.resolve("stream") == "stream"

    @pytest.mark.parametrize("name", ["validate", "check",
                                      "check_constraint"])
    def test_top_level_shims_are_gone(self, name):
        with pytest.raises(ImportError):
            exec(f"from repro import {name}", {})
        assert name not in repro.__all__

    def test_stream_validator_is_gone(self):
        import repro.stream

        assert "StreamValidator" not in repro.stream.__all__
        with pytest.raises(ImportError):
            from repro.stream import StreamValidator  # noqa: F401

    def test_removed_facade_spellings(self):
        validator = Validator(book_dtdc())
        assert not hasattr(validator, "check_stream")
        assert not hasattr(validator, "_stream_plan")
        for kwargs in ({"stream": True}, {"chunk_size": 4}):
            with pytest.raises(TypeError):
                validator.check_corpus([("d", DOC)], **kwargs)
        with pytest.raises(TypeError):  # chunk_size's old position
            validator.check_corpus([("d", DOC)], 1, None, 4)

    @pytest.mark.parametrize("kwargs", [{"stream": True},
                                        {"chunk_size": 4}])
    def test_corpus_validator_keywords(self, kwargs):
        with pytest.raises(TypeError):
            CorpusValidator(book_dtdc(), **kwargs)
        with pytest.raises(TypeError):  # chunk_size's old position
            CorpusValidator(book_dtdc(), 1, None, 4)
        assert not hasattr(CorpusValidator(book_dtdc()), "stream")

    def test_sharded_schema_name_keyword(self):
        with pytest.raises(TypeError):
            ShardedCorpusValidator(book_dtdc(), schema_name="book")
        with ShardedCorpusValidator(book_dtdc()) as validator:
            assert validator.schema_name \
                == f"shard:{validator.fingerprint[:12]}"

    def test_version(self):
        assert repro.__version__ == "2.0.0"


class TestServer:
    def _server(self):
        registry = SchemaRegistry()
        registry.load("book", SCHEMA_TEXT, root="book")
        return ValidationServer(registry)

    def test_stream_engine_query_is_a_bad_request(self, http_post):
        response = http_post(self._server(),
                             "/v1/validate/book?engine=stream",
                             DOC.encode("utf-8"))
        assert response.status == 400
        assert b"unknown engine 'stream'" in response.body

    def test_mode_is_an_unknown_field(self, http_post):
        """``mode`` (the engine's spelling until 2.0) is ignored like
        any field the protocol does not define: the default engine
        runs, whatever it names."""
        server = self._server()
        for req in ({"op": "validate", "schema": "book", "document": DOC,
                     "mode": "stream"},
                    {"op": "check-corpus", "schema": "book",
                     "documents": [DOC], "mode": "stream"}):
            payload, status = server.handle_request(req)
            assert status == 200 and payload["engine"] == "codegen", req
        response = http_post(server, "/v1/validate/book?mode=batch",
                             DOC.encode("utf-8"))
        assert response.status == 200
        assert b'"engine": "codegen"' in response.body
