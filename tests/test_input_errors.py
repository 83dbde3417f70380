"""Malformed documents fail as one located error on every path.

Four kinds of input used to crash a path or pass where stdlib expat
rejects them:

- a numeric character reference outside XML 1.0's ``Char`` production
  (``&#x110000;`` and a 20-digit decimal raised ``ValueError`` /
  ``OverflowError``; ``&#0;`` and ``&#xD800;`` validated clean);
- bytes that are not UTF-8 (a ``UnicodeDecodeError`` traceback), and
  a ``str`` document holding a lone surrogate, which has no UTF-8
  bytes (a ``UnicodeEncodeError`` traceback that killed ``serve
  --stdio`` and lost every verdict of a corpus or sharded run);
- a raw ``<`` inside an attribute value;
- ``--`` inside a comment, or a comment ending in ``-``.

Each is now an :class:`~repro.errors.XMLSyntaxError` with a line: CLI
exit 2 with the same message on every engine (and the same error from
``Validator.check`` on a ``str`` document), HTTP 422
``invalid-document``, and in corpus and sharded runs an error verdict
for that document while every other verdict stands.
"""

import asyncio
import io
import json
import xml.parsers.expat

import pytest

from repro import (
    CorpusValidator, ResultCache, ShardedCorpusValidator, Validator,
)
from repro.cli.main import main
from repro.codegen import CodegenValidator
from repro.errors import XMLSyntaxError
from repro.server import ValidationServer
from repro.server.registry import SchemaRegistry
from repro.shard import LocalNode, SubprocessNode
from repro.workloads.book import (
    BOOK_CONSTRAINTS_TEXT, BOOK_DTD_TEXT, book_document, book_dtdc,
)
from repro.xmlio import encode_document, parse_dtdc, serialize

SCHEMA_TEXT = BOOK_DTD_TEXT + "\n%% constraints\n" + BOOK_CONSTRAINTS_TEXT
GOOD = serialize(book_document())
ENGINES = ("batch", "codegen", "auto")


def _spliced(old: str, new: str) -> "tuple[bytes, int]":
    """The book document with its first ``old`` replaced by ``new``
    (bytes, so a non-UTF-8 byte can go in), and that line's number."""
    at = GOOD.index(old)
    data = (GOOD[:at].encode("utf-8")
            + new.encode("utf-8", "surrogateescape")
            + GOOD[at + len(old):].encode("utf-8"))
    return data, GOOD.count("\n", 0, at) + 1


#: name -> (document bytes, the error message without its location)
BAD = {}
for _name, _old, _new, _message in [
    ("charref-beyond-unicode", "Serge", "&#x110000;",
     "character reference &#x110000; is not an XML character"),
    ("charref-20-digits", "Peter", "&#99999999999999999999;",
     "character reference &#999999999999999...; is not an XML "
     "character"),
    ("charref-nul", "Dan", "&#0;",
     "character reference &#0; is not an XML character"),
    ("charref-surrogate", 'sid="intro"', 'sid="&#xD800;"',
     "character reference &#xD800; is not an XML character"),
    ("not-utf-8", "Suciu", "Suc\udcffiu",
     "byte 0xff is not valid UTF-8"),
    ("lt-in-attribute", 'to="1-55860-622-X"', 'to="1<2"',
     "malformed start tag <ref"),
    ("double-dash-comment", "<author>Dan", "<!-- a -- b --><author>Dan",
     "'--' inside a comment"),
    ("comment-ends-in-dash", "<author>Dan", "<!-- a ---><author>Dan",
     "'--' inside a comment"),
]:
    _data, _line = _spliced(_old, _new)
    BAD[_name] = (_data, f"{_message} at line {_line}")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The schema, two good documents and every bad one on disk."""
    base = tmp_path_factory.mktemp("input_errors")
    schema = base / "book.dtdc"
    schema.write_text(SCHEMA_TEXT)
    paths = {}
    for name, data in [("good-1", GOOD.encode()), ("good-2",
                       GOOD.replace("Dan", "Daniel").encode())] \
            + [(name, data) for name, (data, _m) in BAD.items()]:
        path = base / f"{name}.xml"
        path.write_bytes(data)
        paths[name] = str(path)
    return str(schema), paths


# -- what is well-formed: expat decides ----------------------------------------

ORACLE_SCHEMA = parse_dtdc("<!ELEMENT n (#PCDATA)>\n"
                           "<!ATTLIST n k CDATA #IMPLIED>\n", root="n")


@pytest.mark.parametrize("text", [
    '<n k="a<b"/>', "<n k='a<b'/>", '<n k="a>b"/>', '<n k="a&lt;b"/>',
    "<n><!-- a -- b --></n>", "<n><!-- a ---></n>", "<n><!-- a - b --></n>",
    "<n><!----></n>", "<n>&#0;</n>", "<n>&#xD800;</n>", "<n>&#xFFFE;</n>",
    "<n>&#x110000;</n>", "<n>&#99999999999999999999;</n>",
    "<n k='&#1;'/>", "<n>&#9;&#10;&#13;&#65;&#xE000;&#x10FFFF;</n>",
    "<n>&#00000065;</n>",
])
def test_engines_accept_exactly_what_expat_accepts(text):
    parser = xml.parsers.expat.ParserCreate()
    try:
        parser.Parse(text, True)
        want = True
    except xml.parsers.expat.ExpatError:
        want = False
    validator = Validator(ORACLE_SCHEMA)
    codegen = CodegenValidator(ORACLE_SCHEMA)
    outcomes = {}
    for name, run in [
            ("batch", lambda: validator.check(text, engine="batch")),
            ("codegen", lambda: codegen.validate_text(text)),
            ("codegen-bytes", lambda: codegen.validate_bytes(
                text.encode("utf-8")))]:
        try:
            run()
            outcomes[name] = True
        except XMLSyntaxError as exc:
            outcomes[name] = str(exc)
    seen = set(outcomes.values())
    if want:
        assert seen == {True}, outcomes
    else:  # one located error, the same on every engine
        assert len(seen) == 1 and True not in seen, outcomes


# -- one document ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BAD))
def test_cli_validate_exits_2_with_one_message(files, name, capsys):
    schema, paths = files
    errors = set()
    for engine in ENGINES:
        assert main(["--root", "book", "validate", paths[name], schema,
                     "--engine", engine]) == 2, engine
        errors.add(capsys.readouterr().err.strip())
    assert errors == {f"error: {BAD[name][1]}"}


@pytest.mark.parametrize("name", sorted(BAD))
def test_facade_raises_the_located_error(files, name):
    _schema, paths = files
    validator = Validator(book_dtdc())
    for engine in ("batch", "codegen"):
        with pytest.raises(XMLSyntaxError) as exc:
            validator.check(paths[name], engine=engine)
        assert str(exc.value) == BAD[name][1], engine


@pytest.mark.parametrize("name", sorted(BAD))
def test_server_answers_422(files, name, http_post):
    _schema, paths = files
    registry = SchemaRegistry()
    registry.load("book", SCHEMA_TEXT, root="book")
    server = ValidationServer(registry)
    data, message = BAD[name]
    for engine in ("batch", "codegen"):
        response = http_post(server, f"/v1/validate/book?engine={engine}",
                             data)
        payload = json.loads(response.body)
        assert (response.status, payload["code"]) \
            == (422, "invalid-document"), (engine, payload)
        assert payload["error"] == message
        payload, status = server.handle_request(
            {"op": "validate", "schema": "book", "engine": engine,
             "document_path": paths[name]})
        assert (status, payload["error"]) == (422, message)


# -- corpora --------------------------------------------------------------------


def _corpus(paths):
    return [paths["good-1"]] + [paths[n] for n in sorted(BAD)] \
        + [paths["good-2"]]


def _check_verdicts(report, paths):
    by_doc = {v.doc_id: v for v in report.verdicts}
    for name in sorted(BAD):
        assert by_doc[paths[name]].error == BAD[name][1], name
    for name in ("good-1", "good-2"):
        verdict = by_doc[paths[name]]
        assert verdict.error is None and verdict.ok, name


def test_corpus_runs_keep_every_other_verdict(files):
    _schema, paths = files
    docs = _corpus(paths)
    serial = CorpusValidator(book_dtdc()).validate(docs)
    _check_verdicts(serial, paths)
    for validator in (
            CorpusValidator(book_dtdc(), engine="codegen"),
            CorpusValidator(book_dtdc(), engine="auto", jobs=2),
            CorpusValidator(book_dtdc(), engine="codegen",
                            cache=ResultCache()),
            CorpusValidator(book_dtdc(), cache=ResultCache())):
        report = validator.validate(docs)
        assert report.verdicts_json() == serial.verdicts_json(), \
            validator


def test_sharded_run_over_subprocess_nodes(files):
    _schema, paths = files
    docs = _corpus(paths)
    serial = CorpusValidator(book_dtdc()).validate(docs)
    with ShardedCorpusValidator(book_dtdc(), shards=2,
                                node_factory=SubprocessNode) as validator:
        report = validator.validate(docs)
    _check_verdicts(report, paths)
    assert report.verdicts_json() == serial.verdicts_json()


@pytest.mark.parametrize("engine", ["batch", "auto"])
def test_cli_check_corpus_reports_every_verdict(files, engine, capsys):
    schema, paths = files
    assert main(["--root", "book", "check-corpus", schema,
                 *_corpus(paths), "--engine", engine,
                 "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    by_doc = {v["doc"]: v for v in report["verdicts"]}
    assert len(by_doc) == len(BAD) + 2
    for name in sorted(BAD):
        assert by_doc[paths[name]]["error"] == BAD[name][1], name
    assert by_doc[paths["good-1"]]["ok"] and by_doc[paths["good-2"]]["ok"]


# -- a lone surrogate in a str document ---------------------------------------

#: a JSON string may escape a lone surrogate; Python text can hold one
SURROGATE_TEXT = GOOD.replace("Suciu", "Suc\ud800iu")
SURROGATE_ERROR = ("character U+D800 is not an XML character at line "
                   f"{GOOD.count(chr(10), 0, GOOD.index('Suciu')) + 1}")


def test_encode_document_locates_the_surrogate():
    assert encode_document(GOOD) == GOOD.encode("utf-8")
    with pytest.raises(XMLSyntaxError) as exc:
        encode_document(SURROGATE_TEXT)
    assert str(exc.value) == SURROGATE_ERROR


@pytest.mark.parametrize("engine", ENGINES)
def test_validator_check_locates_the_surrogate(engine):
    """The in-process API rejects the text the CLI, ``serve`` and the
    corpus runs reject, with the same message."""
    with pytest.raises(XMLSyntaxError) as exc:
        Validator(book_dtdc()).check(SURROGATE_TEXT, engine=engine)
    assert str(exc.value) == SURROGATE_ERROR


def test_serve_stdio_answers_422_and_keeps_serving(monkeypatch, capsys):
    registry = SchemaRegistry()
    registry.load("book", SCHEMA_TEXT, root="book")
    lines = "".join(json.dumps(req) + "\n" for req in [
        {"op": "validate", "schema": "book", "document": SURROGATE_TEXT,
         "id": 1},
        {"op": "ping", "id": 2}])
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    asyncio.run(ValidationServer(registry).serve_stdio())
    out = [json.loads(line)
           for line in capsys.readouterr().out.splitlines()]
    assert [r["id"] for r in out] == [1, 2]
    assert (out[0]["code"], out[0]["error"]) \
        == ("invalid-document", SURROGATE_ERROR)
    assert out[1]["ok"]
    _payload, status = ValidationServer(registry).handle_request(
        {"op": "validate", "schema": "book", "document": SURROGATE_TEXT})
    assert status == 422


def _check_surrogate_verdicts(report):
    bad, good = report.verdicts
    assert (bad.doc_id, bad.error, bad.key) == ("bad", SURROGATE_ERROR, "")
    assert good.doc_id == "good" and good.error is None and good.ok


def test_corpus_runs_give_the_surrogate_text_an_error_verdict():
    docs = [("bad", SURROGATE_TEXT), ("good", GOOD)]
    serial = CorpusValidator(book_dtdc()).validate(docs)
    _check_surrogate_verdicts(serial)
    for validator in (
            CorpusValidator(book_dtdc(), engine="codegen"),
            CorpusValidator(book_dtdc(), engine="codegen",
                            cache=ResultCache())):
        assert validator.validate(docs).verdicts_json() \
            == serial.verdicts_json()


def test_sharded_run_gives_the_surrogate_text_an_error_verdict():
    docs = [("bad", SURROGATE_TEXT), ("good", GOOD)]
    serial = CorpusValidator(book_dtdc()).validate(docs)
    with ShardedCorpusValidator(book_dtdc(), shards=2,
                                node_factory=LocalNode) as validator:
        report = validator.validate(docs)
    _check_surrogate_verdicts(report)
    assert report.verdicts_json() == serial.verdicts_json()


def test_stream_chunk_text_branch_gives_an_error_verdict():
    from repro.corpus.cache import schema_fingerprint
    from repro.corpus.worker import init_worker, stream_chunk
    from repro.server.registry import as_handle

    dtd = book_dtdc()
    init_worker(dtd, False, as_handle(dtd).plan, schema_fingerprint(dtd))
    bad, good = stream_chunk([("bad", "text", SURROGATE_TEXT),
                              ("good", "text", GOOD)])["verdicts"]
    assert (bad["error"], bad["report"]) == (SURROGATE_ERROR, None)
    assert good["error"] is None and good["report"]["ok"]
