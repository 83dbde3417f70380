"""The validation service: registry semantics and both transports.

Three layers, matching the design:

1. :class:`~repro.server.registry.SchemaRegistry` /
   :class:`~repro.server.registry.SchemaHandle` unit semantics —
   load/reload/unload/resolve, versioning, hot-swap immutability, and
   the compile-once guarantee (the ``registry_schema_compilations``
   counter is the regression tripwire);
2. the :class:`~repro.server.daemon.ValidationServer` dispatcher —
   request admission, cache hits, error mapping, and the deterministic
   hot-reload proof via the ``admission_hook`` seam;
3. the wire transports, end to end in-process — concurrent HTTP
   keep-alive clients, JSONL over a TCP stream pair, JSONL over stdio —
   all returning reports byte-identical to the ``Validator`` facade.
"""

import asyncio
import io
import json

import pytest

from repro import (
    Observability, SchemaRegistry, ValidationServer, Validator,
)
from repro.errors import ReproError
from repro.obs import NULL_TRACER
from repro.server import SchemaHandle, SchemaNotFound, as_handle
from repro.workloads import book_document
from repro.workloads.book import BOOK_CONSTRAINTS_TEXT, BOOK_DTD_TEXT
from repro.xmlio import parse_dtdc, serialize

SCHEMA_TEXT = BOOK_DTD_TEXT + "\n%% constraints\n" + BOOK_CONSTRAINTS_TEXT

LIB_V1 = """
<!ELEMENT library (entry*, ref*)>
<!ELEMENT entry (#PCDATA)?>
<!ELEMENT ref EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED shelf CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
%% constraints
entry.isbn -> entry
"""

#: Same structure, one more constraint — a hot reload that flips the
#: verdict of DOC_DANGLING from valid (v1) to invalid (v2).
LIB_V2 = LIB_V1 + "ref.to sub entry.isbn\n"

DOC_DANGLING = ('<library><entry isbn="1" shelf="a">x</entry>'
                '<ref to="zzz"/></library>')


def run(coro):
    return asyncio.run(coro)


def make_obs():
    return Observability(tracer=NULL_TRACER)


def make_server(cache=None):
    obs = make_obs()
    registry = SchemaRegistry(obs=obs)
    registry.load("book", SCHEMA_TEXT, root="book")
    return ValidationServer(registry, cache=cache, obs=obs)


@pytest.fixture(scope="module")
def doc_text():
    return serialize(book_document())


@pytest.fixture(scope="module")
def facade_report(doc_text):
    """What the CLI would emit: the ``Validator`` facade's report."""
    dtd = parse_dtdc(SCHEMA_TEXT, root="book")
    return Validator(dtd).check(doc_text, engine="codegen").to_dict()


# ----------------------------------------------------------------------
# 1. registry semantics
# ----------------------------------------------------------------------

class TestSchemaRegistry:
    def test_load_get_roundtrip(self):
        registry = SchemaRegistry()
        handle = registry.load("book", SCHEMA_TEXT, root="book")
        assert registry.get("book") is handle
        assert handle.name == "book"
        assert handle.version == 1
        assert handle.active
        assert "book" in registry
        assert registry.names() == ["book"]
        assert len(registry) == 1

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "book.dtdc"
        path.write_text(SCHEMA_TEXT)
        registry = SchemaRegistry()
        handle = registry.load("book", str(path), root="book")
        assert handle.source_text == SCHEMA_TEXT
        assert handle.dtd.structure.root == "book"

    def test_duplicate_load_is_an_error(self):
        registry = SchemaRegistry()
        registry.load("book", SCHEMA_TEXT, root="book")
        with pytest.raises(ReproError, match="already loaded"):
            registry.load("book", SCHEMA_TEXT, root="book")

    def test_put_upserts(self):
        registry = SchemaRegistry()
        first = registry.put("book", SCHEMA_TEXT, root="book")
        second = registry.put("book", SCHEMA_TEXT, root="book")
        assert (first.version, second.version) == (1, 2)
        assert not first.active
        assert second.active
        assert registry.get("book") is second

    def test_reload_reparses_stored_source(self):
        registry = SchemaRegistry()
        old = registry.load("lib", LIB_V1)
        new = registry.reload("lib")
        assert new.version == 2
        assert new is not old
        assert new.source_text == old.source_text
        # the old handle is superseded but never mutated
        assert not old.active
        assert old.dtd is not new.dtd

    def test_reload_unknown_raises(self):
        with pytest.raises(SchemaNotFound):
            SchemaRegistry().reload("ghost")

    def test_reload_of_in_memory_dtdc_needs_source(self):
        registry = SchemaRegistry()
        registry.load("lib", parse_dtdc(LIB_V1))
        with pytest.raises(ReproError, match="without a source"):
            registry.reload("lib")

    def test_get_unknown_names_the_loaded_ones(self):
        registry = SchemaRegistry()
        registry.load("book", SCHEMA_TEXT, root="book")
        with pytest.raises(SchemaNotFound, match="loaded: book"):
            registry.get("ghost")

    def test_unload(self):
        registry = SchemaRegistry()
        handle = registry.load("book", SCHEMA_TEXT, root="book")
        assert registry.unload("book") is handle
        assert not handle.active
        assert "book" not in registry
        with pytest.raises(SchemaNotFound):
            registry.unload("book")

    def test_resolve_uniform_contract(self):
        registry = SchemaRegistry()
        handle = registry.load("book", SCHEMA_TEXT, root="book")
        assert registry.resolve("book") is handle
        assert registry.resolve(handle) is handle
        dtd = parse_dtdc(LIB_V1)
        adhoc = registry.resolve(dtd)
        assert isinstance(adhoc, SchemaHandle)
        assert registry.resolve(dtd) is adhoc  # memoized

    def test_as_handle_memoizes_and_rejects_strings(self):
        dtd = parse_dtdc(LIB_V1)
        assert as_handle(dtd) is as_handle(dtd)
        with pytest.raises(TypeError, match="SchemaRegistry"):
            as_handle("book")


class TestCompileOnce:
    def test_one_compilation_across_call_sites(self, doc_text):
        """The satellite regression: single-pass + corpus + repeat calls
        on one registry entry compile the plan exactly once."""
        obs = make_obs()
        registry = SchemaRegistry(obs=obs)
        registry.load("book", SCHEMA_TEXT, root="book")
        validator = Validator.from_registry(registry, "book")
        validator.check(doc_text, engine="codegen")
        validator.check(doc_text, engine="codegen")
        validator.check_corpus([("d0", doc_text)], engine="codegen")
        compilations = obs.counter("registry_schema_compilations")
        assert compilations.value == 1

    def test_validator_from_registry_follows_reload(self, doc_text):
        registry = SchemaRegistry()
        registry.load("lib", LIB_V1)
        validator = Validator.from_registry(registry, "lib")
        assert validator.schema_name == "lib"
        assert validator.registry is registry
        assert validator.check(DOC_DANGLING, engine="codegen").ok
        registry.reload("lib", LIB_V2)
        assert validator.handle.version == 2
        assert not validator.check(DOC_DANGLING, engine="codegen").ok


# ----------------------------------------------------------------------
# 2. the dispatcher
# ----------------------------------------------------------------------

class TestDispatcher:
    def test_ping_and_schemas(self):
        server = make_server()
        payload, status = server.handle_request({"op": "ping", "id": 7})
        assert status == 200
        assert payload["ok"] and payload["id"] == 7
        assert payload["schemas"] == ["book"]
        payload, _ = server.handle_request({"op": "schemas"})
        assert payload["schemas"][0]["name"] == "book"
        assert payload["schemas"][0]["version"] == 1

    def test_validate_matches_facade(self, doc_text, facade_report):
        server = make_server()
        for engine in ("codegen", "batch"):
            payload, status = server.handle_request(
                {"op": "validate", "schema": "book",
                 "document": doc_text, "engine": engine})
            assert status == 200
            assert payload["valid"] and not payload["cached"]
            assert json.dumps(payload["report"], sort_keys=True) \
                == json.dumps(facade_report, sort_keys=True)

    def test_validate_document_path(self, tmp_path, doc_text,
                                    facade_report):
        doc = tmp_path / "book.xml"
        doc.write_text(doc_text)
        server = make_server()
        payload, _ = server.handle_request(
            {"op": "validate", "schema": "book",
             "document_path": str(doc)})
        assert payload["report"] == facade_report

    def test_cache_hit_is_byte_identical(self, tmp_path, doc_text):
        server = make_server(cache=str(tmp_path))
        cold, _ = server.handle_request(
            {"op": "validate", "schema": "book", "document": doc_text})
        warm, _ = server.handle_request(
            {"op": "validate", "schema": "book", "document": doc_text})
        assert not cold["cached"] and warm["cached"]
        assert warm["key"] == cold["key"]
        assert warm["report"] == cold["report"]
        hits = server.obs.counter("serve_cache_hits")
        assert hits.value == 1

    def test_hot_reload_in_flight_finishes_on_old_schema(self):
        """The zero-downtime proof, made deterministic: the admission
        hook fires after the request pinned its handle, reloads the
        schema under it, and the request must still complete on v1."""
        server = make_server()
        server.registry.load("lib", LIB_V1)
        v1_fingerprint = server.registry.get("lib").fingerprint

        def hook(op, handle):
            if handle.name == "lib" and handle.version == 1:
                server.registry.reload("lib", LIB_V2)

        server.admission_hook = hook
        in_flight, status = server.handle_request(
            {"op": "validate", "schema": "lib",
             "document": DOC_DANGLING})
        assert status == 200
        # admitted on v1, completed on v1 — despite the mid-request swap
        assert in_flight["schema"]["version"] == 1
        assert in_flight["schema"]["fingerprint"] == v1_fingerprint
        assert in_flight["valid"]
        # the next admission sees v2, where the dangling ref is invalid
        after, _ = server.handle_request(
            {"op": "validate", "schema": "lib",
             "document": DOC_DANGLING})
        assert after["schema"]["version"] == 2
        assert after["schema"]["fingerprint"] != v1_fingerprint
        assert not after["valid"]

    def test_registry_ops_over_the_wire_shape(self):
        server = make_server()
        payload, status = server.handle_request(
            {"op": "load", "name": "lib", "schema": LIB_V1})
        assert (status, payload["schema"]["version"]) == (201, 1)
        payload, status = server.handle_request(
            {"op": "reload", "name": "lib", "schema": LIB_V2})
        assert (status, payload["schema"]["version"]) == (200, 2)
        payload, status = server.handle_request(
            {"op": "unload", "name": "lib"})
        assert status == 200 and not payload["schema"]["active"]

    def test_error_mapping(self, doc_text):
        server = make_server()
        cases = [
            ({"op": "validate", "schema": "ghost",
              "document": doc_text}, 404, "not-found"),
            ({"op": "validate", "schema": "book",
              "document": "<book><unclosed>"}, 422, "invalid-document"),
            ({"op": "validate", "schema": "book"}, 400, "bad-request"),
            ({"op": "validate", "schema": "book", "document": doc_text,
              "engine": "psychic"}, 400, "bad-request"),
            ({"op": "validate", "schema": "book",
              "document_path": "/no/such/doc.xml"}, 400, "bad-request"),
            ({"op": "no-such-op"}, 400, "bad-request"),
        ]
        for req, want_status, want_code in cases:
            payload, status = server.handle_request(req)
            assert (status, payload["code"]) == (want_status, want_code), req
            assert not payload["ok"]

    def test_lint_and_synth_ops(self):
        server = make_server()
        payload, status = server.handle_request(
            {"op": "lint", "schema": "book"})
        assert status == 200 and "report" in payload
        payload, status = server.handle_request(
            {"op": "synth", "schema": "book"})
        assert status == 200 and payload["witness"] is not None

    def test_metrics_op(self, doc_text):
        server = make_server()
        server.handle_request({"op": "validate", "schema": "book",
                               "document": doc_text})
        payload, _ = server.handle_request({"op": "metrics"})
        assert "serve_requests_total" in payload["metrics"]
        payload, _ = server.handle_request({"op": "metrics",
                                            "format": "json"})
        assert isinstance(payload["metrics"], dict)


class TestEngineSelection:
    def test_every_engine_reports_byte_identical(self, doc_text,
                                                 facade_report):
        server = make_server()
        want = json.dumps(facade_report, sort_keys=True)
        for engine, resolved in (("batch", "batch"),
                                 ("codegen", "codegen"),
                                 ("auto", "codegen")):
            payload, status = server.handle_request(
                {"op": "validate", "schema": "book",
                 "document": doc_text, "engine": engine})
            assert status == 200
            assert payload["engine"] == resolved
            assert json.dumps(payload["report"], sort_keys=True) == want

    def test_unknown_engine_is_bad_request(self, doc_text):
        server = make_server()
        payload, status = server.handle_request(
            {"op": "validate", "schema": "book", "document": doc_text,
             "engine": "psychic"})
        assert (status, payload["code"]) == (400, "bad-request")
        assert "unknown engine 'psychic'" in payload["error"]

    def test_cached_response_has_no_engine(self, tmp_path, doc_text):
        server = make_server(cache=str(tmp_path))
        cold, _ = server.handle_request(
            {"op": "validate", "schema": "book", "document": doc_text,
             "engine": "codegen"})
        warm, _ = server.handle_request(
            {"op": "validate", "schema": "book", "document": doc_text,
             "engine": "codegen"})
        assert cold["engine"] == "codegen"
        assert warm["cached"] and warm["engine"] is None
        assert warm["report"] == cold["report"]

    def test_per_engine_latency_metric(self, doc_text):
        server = make_server()
        for engine in ("batch", "codegen"):
            server.handle_request(
                {"op": "validate", "schema": "book",
                 "document": doc_text, "engine": engine})
        engines_seen = {
            inst.label_dict().get("engine")
            for inst in server.obs.metrics.collect()
            if inst.name == "serve_engine_seconds"}
        assert engines_seen == {"batch", "codegen"}

    def test_schemas_listing_carries_engines(self):
        server = make_server()
        payload, _ = server.handle_request({"op": "schemas"})
        assert payload["schemas"][0]["engines"] \
            == ["auto", "batch", "codegen"]

    def test_check_corpus_engine_field(self, doc_text):
        server = make_server()
        for engine, resolved in (("codegen", "codegen"),
                                 ("auto", "codegen"),
                                 ("batch", "batch")):
            payload, status = server.handle_request(
                {"op": "check-corpus", "schema": "book",
                 "documents": [doc_text], "engine": engine})
            assert status == 200
            assert payload["engine"] == resolved, engine
            assert payload["valid"]

    def test_default_mode_validated_against_registry(self):
        with pytest.raises(ValueError, match="unknown default_mode"):
            ValidationServer(SchemaRegistry(), default_mode="psychic")
        server = ValidationServer(SchemaRegistry(),
                                  default_mode="codegen")
        assert server.default_mode == "codegen"


# ----------------------------------------------------------------------
# 3. transports, end to end
# ----------------------------------------------------------------------

class _HttpClient:
    """A minimal keep-alive HTTP/1.1 client over asyncio streams."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, address):
        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, method, path, body=b"", close=False,
                      headers=None):
        head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {len(body)}\r\n")
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if close:
            head += "Connection: close\r\n"
        self.writer.write(head.encode("ascii") + b"\r\n" + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        data = await self.reader.readexactly(
            int(headers.get("content-length", "0")))
        return status, headers, data

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


class TestHttpTransport:
    def test_validate_roundtrip_and_keepalive(self, doc_text,
                                              facade_report):
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                client = await _HttpClient.open(server.http_address)
                # two requests on one connection: keep-alive works
                for _ in range(2):
                    status, _headers, data = await client.request(
                        "POST", "/v1/validate/book",
                        doc_text.encode("utf-8"))
                    assert status == 200
                    payload = json.loads(data)
                    assert payload["valid"]
                    assert json.dumps(payload["report"], sort_keys=True)\
                        == json.dumps(facade_report, sort_keys=True)
                await client.close()
            finally:
                await server.close()

        run(scenario())

    def test_concurrent_clients_identical_reports(self, doc_text):
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                engines = ("batch", "codegen", "auto")

                async def one(i):
                    client = await _HttpClient.open(server.http_address)
                    status, _h, data = await client.request(
                        "POST", "/v1/validate/book?engine="
                        + engines[i % len(engines)],
                        doc_text.encode("utf-8"))
                    await client.close()
                    return status, json.loads(data)["report"]

                results = await asyncio.gather(*(one(i)
                                                 for i in range(8)))
                assert all(status == 200 for status, _ in results)
                blobs = {json.dumps(report, sort_keys=True)
                         for _, report in results}
                assert len(blobs) == 1  # batch == stream == every client
            finally:
                await server.close()

        run(scenario())

    def test_registry_routes_and_hot_reload(self):
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                client = await _HttpClient.open(server.http_address)
                status, _h, data = await client.request(
                    "PUT", "/v1/schemas/lib",
                    LIB_V1.encode("utf-8"))
                assert status == 201
                status, _h, data = await client.request(
                    "POST", "/v1/validate/lib",
                    DOC_DANGLING.encode("utf-8"))
                assert json.loads(data)["valid"]
                status, _h, data = await client.request(
                    "PUT", "/v1/schemas/lib", LIB_V2.encode("utf-8"))
                assert status == 200  # reload, not create
                assert json.loads(data)["schema"]["version"] == 2
                status, _h, data = await client.request(
                    "POST", "/v1/validate/lib",
                    DOC_DANGLING.encode("utf-8"))
                assert not json.loads(data)["valid"]
                status, _h, data = await client.request(
                    "DELETE", "/v1/schemas/lib")
                assert status == 200
                status, _h, data = await client.request(
                    "POST", "/v1/validate/lib",
                    DOC_DANGLING.encode("utf-8"))
                assert status == 404
                await client.close()
            finally:
                await server.close()

        run(scenario())

    def test_healthz_metrics_and_errors(self, doc_text):
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                client = await _HttpClient.open(server.http_address)
                status, _h, data = await client.request("GET", "/healthz")
                assert status == 200 and json.loads(data)["ok"]
                # a validate first, so the scrape has request series
                await client.request("POST", "/v1/validate/book",
                                     doc_text.encode("utf-8"))
                status, headers, data = await client.request(
                    "GET", "/metrics")
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                text = data.decode("utf-8")
                assert "serve_requests_total" in text
                assert "registry_schemas" in text
                # error statuses
                status, _h, data = await client.request(
                    "POST", "/v1/validate/ghost", b"<book/>")
                assert status == 404
                status, _h, data = await client.request(
                    "POST", "/v1/validate/book", b"<book><broken>")
                assert status == 422
                status, _h, data = await client.request(
                    "GET", "/no/such/route")
                assert status == 404
                status, _h, data = await client.request(
                    "POST", "/v1/schemas/book")
                assert status == 405
                status, _h, data = await client.request(
                    "PUT", "/v1/schemas/bad", b"\xff\xfe")
                assert status == 400
                await client.close()
            finally:
                await server.close()

        run(scenario())

    def test_shutdown_route(self):
        async def scenario():
            server = make_server()
            await server.start_http()
            client = await _HttpClient.open(server.http_address)
            status, _h, data = await client.request(
                "POST", "/v1/shutdown")
            assert status == 200 and json.loads(data)["shutting_down"]
            status, _h, _d = await client.request("GET", "/v1/shutdown")
            assert status == 405
            await client.close()
            await asyncio.wait_for(server.wait_shutdown(), timeout=5)
            await server.close()

        run(scenario())


class TestJsonlTransport:
    def test_jsonl_over_tcp_matches_http(self, doc_text, facade_report):
        async def scenario():
            server = make_server()
            jsonl = await asyncio.start_server(
                server.serve_jsonl, "127.0.0.1", 0)
            host, port = jsonl.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)

                async def ask(req):
                    writer.write(json.dumps(req).encode("utf-8") + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                pong = await ask({"op": "ping", "id": "a"})
                assert pong["ok"] and pong["id"] == "a"
                verdict = await ask({"op": "validate", "schema": "book",
                                     "document": doc_text})
                assert verdict["valid"]
                assert json.dumps(verdict["report"], sort_keys=True) \
                    == json.dumps(facade_report, sort_keys=True)
                bad = await ask({"op": "validate"})
                assert not bad["ok"] and bad["code"] == "bad-request"
                garbage = await ask({"not": "a request"})
                assert not garbage["ok"]
                writer.close()
                await writer.wait_closed()
            finally:
                jsonl.close()
                await jsonl.wait_closed()

        run(scenario())

    def test_concurrent_jsonl_and_http(self, doc_text):
        """Both transports serve the same dispatcher concurrently."""
        async def scenario():
            server = make_server()
            await server.start_http()
            jsonl = await asyncio.start_server(
                server.serve_jsonl, "127.0.0.1", 0)
            host, port = jsonl.sockets[0].getsockname()[:2]
            try:
                async def via_http():
                    client = await _HttpClient.open(server.http_address)
                    _s, _h, data = await client.request(
                        "POST", "/v1/validate/book",
                        doc_text.encode("utf-8"))
                    await client.close()
                    return json.loads(data)["report"]

                async def via_jsonl():
                    reader, writer = await asyncio.open_connection(
                        host, port)
                    writer.write(json.dumps(
                        {"op": "validate", "schema": "book",
                         "document": doc_text}).encode() + b"\n")
                    await writer.drain()
                    payload = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return payload["report"]

                reports = await asyncio.gather(
                    via_http(), via_jsonl(), via_http(), via_jsonl())
                blobs = {json.dumps(r, sort_keys=True) for r in reports}
                assert len(blobs) == 1
            finally:
                jsonl.close()
                await jsonl.wait_closed()
                await server.close()

        run(scenario())

    def test_shutdown_op_ends_the_loop(self):
        async def scenario():
            server = make_server()
            jsonl = await asyncio.start_server(
                server.serve_jsonl, "127.0.0.1", 0)
            host, port = jsonl.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"op": "shutdown"}\n')
                await writer.drain()
                payload = json.loads(await reader.readline())
                assert payload["shutting_down"]
                await asyncio.wait_for(server.wait_shutdown(), timeout=5)
                writer.close()
                await writer.wait_closed()
            finally:
                jsonl.close()
                await jsonl.wait_closed()

        run(scenario())


class TestRequestTelemetry:
    """The tentpole end to end: trace admission, the per-request span
    tree, the bounded trace store, ``/v1/stats``, and the slow log."""

    def test_trace_query_returns_inline_trace(self, doc_text):
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                client = await _HttpClient.open(server.http_address)
                status, _h, data = await client.request(
                    "POST", "/v1/validate/book?trace=1",
                    doc_text.encode("utf-8"))
                assert status == 200
                payload = json.loads(data)
                assert payload["valid"]
                trace_id = payload["trace_id"]
                assert len(trace_id) == 32
                events = payload["trace"]["traceEvents"]
                names = [e["name"] for e in events if e["ph"] == "X"]
                assert names[0] == "serve.validate"
                assert all(e["args"]["trace_id"] == trace_id
                           for e in events if e["ph"] == "X")
                # ... and the same trace is fetchable by id
                status, _h, data = await client.request(
                    "GET", f"/v1/traces/{trace_id}")
                assert status == 200
                stored = json.loads(data)
                assert stored["trace"] == payload["trace"]
                await client.close()
            finally:
                await server.close()

        run(scenario())

    def test_traceparent_header_is_adopted(self, doc_text):
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                client = await _HttpClient.open(server.http_address)
                parent = ("00-" + "ab" * 16 + "-" + "cd" * 8 + "-01")
                status, _h, data = await client.request(
                    "POST", "/v1/validate/book",
                    doc_text.encode("utf-8"),
                    headers={"traceparent": parent})
                assert status == 200
                payload = json.loads(data)
                # a sampled traceparent traces without ?trace=1 ...
                assert payload["trace_id"] == "ab" * 16
                # ... and an unsampled one does not
                status, _h, data = await client.request(
                    "POST", "/v1/validate/book",
                    doc_text.encode("utf-8"),
                    headers={"traceparent":
                             "00-" + "ef" * 16 + "-" + "12" * 8 + "-00"})
                assert "trace_id" not in json.loads(data)
                await client.close()
            finally:
                await server.close()

        run(scenario())

    def test_unsampled_requests_have_no_trace(self, doc_text):
        payload, status = make_server().handle_request(
            {"op": "validate", "schema": "book", "document": doc_text})
        assert status == 200
        assert "trace_id" not in payload
        assert "trace" not in payload

    def test_concurrent_traced_requests_stay_disjoint(self, doc_text):
        """≥8 concurrent traced requests produce 8 distinct, complete,
        single-root span trees — no cross-request leakage."""
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                async def one(i):
                    client = await _HttpClient.open(server.http_address)
                    _s, _h, data = await client.request(
                        "POST", "/v1/validate/book?trace=1&engine="
                        + ("codegen" if i % 2 else "batch"),
                        doc_text.encode("utf-8"))
                    await client.close()
                    return json.loads(data)

                payloads = await asyncio.gather(*(one(i)
                                                  for i in range(8)))
                ids = [p["trace_id"] for p in payloads]
                assert len(set(ids)) == 8
                for p in payloads:
                    slices = [e for e in p["trace"]["traceEvents"]
                              if e["ph"] == "X"]
                    assert {e["args"]["trace_id"] for e in slices} \
                        == {p["trace_id"]}
                    roots = [e for e in slices
                             if e["name"].startswith("serve.")]
                    assert len(roots) == 1
                assert len(server.traces) == 8
            finally:
                await server.close()

        run(scenario())

    def test_sample_rate_one_traces_everything(self, doc_text):
        obs = make_obs()
        registry = SchemaRegistry(obs=obs)
        registry.load("book", SCHEMA_TEXT, root="book")
        server = ValidationServer(registry, obs=obs, sample=1.0)
        payload, _ = server.handle_request(
            {"op": "validate", "schema": "book", "document": doc_text})
        assert "trace_id" in payload
        assert "trace" not in payload  # inline only with trace=1
        assert server.traces.get(payload["trace_id"]) is not None

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            ValidationServer(SchemaRegistry(), sample=1.5)

    def test_stats_endpoint_shape(self, doc_text):
        async def scenario():
            server = make_server()
            server.slow_ms = 0.0  # everything is "slow"
            await server.start_http()
            try:
                client = await _HttpClient.open(server.http_address)
                await client.request("POST", "/v1/validate/book?trace=1",
                                     doc_text.encode("utf-8"))
                await client.request("POST", "/v1/validate/book",
                                     b"not xml <")
                status, _h, data = await client.request(
                    "GET", "/v1/stats")
                assert status == 200
                stats = json.loads(data)
                assert stats["ok"]
                assert stats["requests"]["total"] == 2
                assert stats["requests"]["errors"] == 1
                assert stats["rps"] > 0
                lat = stats["latency"]
                assert lat["overall"]["count"] == 2
                assert lat["by_op"]["validate"]["count"] == 2
                assert lat["by_op"]["validate"]["p50_ms"] is not None
                assert stats["schemas"]["loaded"] == ["book"]
                assert stats["schemas"]["requests"] == {"book": 1}
                assert stats["traces"]["stored"] == 1
                slow = stats["slow"]["recent"]
                assert len(slow) == 2
                assert slow[0]["op"] == "validate"
                assert slow[0]["trace_id"] is not None  # traced req
                assert stats["events"]["emitted"] >= 2  # slow-request
                await client.close()
            finally:
                await server.close()

        run(scenario())

    def test_trace_fetch_unknown_id_is_404(self):
        async def scenario():
            server = make_server()
            await server.start_http()
            try:
                client = await _HttpClient.open(server.http_address)
                status, _h, data = await client.request(
                    "GET", "/v1/traces/" + "00" * 16)
                assert status == 404
                assert json.loads(data)["code"] == "not-found"
                await client.close()
            finally:
                await server.close()

        run(scenario())

    def test_check_corpus_jobs2_single_trace(self, doc_text):
        """The acceptance scenario: one traced request fanning out to
        two worker processes yields one Perfetto-loadable trace whose
        worker spans carry the request's trace_id."""
        from repro.obs import validate_trace_events

        server = make_server()
        payload, status = server.handle_request(
            {"op": "check-corpus", "schema": "book", "trace": True,
             "documents": [[f"d{i}", doc_text] for i in range(4)],
             "jobs": 2})
        assert status == 200
        assert payload["valid"] and payload["documents"] == 4
        trace = server.traces.get(payload["trace_id"])
        assert trace is not None
        assert validate_trace_events(trace) == []
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["args"]["trace_id"] for e in slices} \
            == {payload["trace_id"]}
        names = {e["name"] for e in slices}
        assert {"serve.check-corpus", "corpus.validate",
                "corpus.chunk"} <= names

    def test_events_correlate_even_unsampled(self):
        """Admission rejects emit events carrying the request's
        trace_id even when the request is not sampled."""
        server = make_server()
        payload, status = server.handle_request(
            {"op": "validate", "schema": "nope", "document": "<x/>"})
        assert status == 404
        events = [e for e in server.events.tail()
                  if e["code"] == "admission-reject"]
        assert len(events) == 1
        assert events[0]["trace_id"] is not None

    def test_schema_lifecycle_events(self):
        server = make_server()
        server.handle_request({"op": "reload", "name": "book",
                               "schema": SCHEMA_TEXT, "root": "book"})
        server.handle_request({"op": "unload", "name": "book"})
        codes = [e["code"] for e in server.events.tail()]
        assert "schema-reload" in codes
        assert "schema-unload" in codes

    def test_cache_hit_event(self, tmp_path, doc_text):
        server = make_server(cache=str(tmp_path))
        req = {"op": "validate", "schema": "book", "document": doc_text}
        server.handle_request(dict(req))
        payload, _ = server.handle_request(dict(req))
        assert payload["cached"]
        assert any(e["code"] == "cache-hit"
                   for e in server.events.tail())


class TestStdioTransport:
    def test_stdio_roundtrip(self, monkeypatch, capsys, doc_text):
        lines = "\n".join([
            json.dumps({"op": "ping", "id": 1}),
            json.dumps({"op": "validate", "schema": "book",
                        "document": doc_text, "id": 2}),
            "this is not json",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        server = make_server()
        run(server.serve_stdio())
        out = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
        assert [r.get("id") for r in out] == [1, 2, None]
        assert out[0]["ok"]
        assert out[1]["valid"]
        assert out[2]["code"] == "bad-request"
