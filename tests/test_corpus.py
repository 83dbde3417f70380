"""Tests for :mod:`repro.corpus` — parallel corpus validation and the
content-addressed result cache."""

import json
import multiprocessing
import os
import time
import zlib

import pytest

from repro import Validator
from repro.corpus import (
    CorpusValidator, DocumentVerdict, ResultCache, result_key,
    result_key_bytes, schema_fingerprint,
)
from repro.dtd.validate import ValidationReport
from repro.errors import ReproError
from repro.obs import Observability
from repro.workloads import book_document, book_dtdc, random_corpus
from repro.xmlio import serialize


@pytest.fixture
def library():
    """A 12-document corpus, 1/4 invalid, as (dtd, trees)."""
    return random_corpus(n_docs=12, invalid_fraction=0.25, seed=7)


# -- the cache -------------------------------------------------------------


class TestResultCache:
    def test_fingerprint_distinguishes_schemas(self, library):
        dtd, _docs = library
        assert schema_fingerprint(dtd) != schema_fingerprint(book_dtdc())
        assert schema_fingerprint(dtd) == schema_fingerprint(dtd)

    def test_key_depends_on_text_and_schema(self, library):
        dtd, _docs = library
        fp = schema_fingerprint(dtd)
        assert result_key("<a/>", fp) == result_key("<a/>", fp)
        assert result_key("<a/>", fp) != result_key("<b/>", fp)
        assert result_key("<a/>", fp) \
            != result_key("<a/>", schema_fingerprint(book_dtdc()))

    def test_put_get_round_trip(self):
        cache = ResultCache()
        report = ValidationReport()
        cache.put("k1", report)
        got = cache.get("k1")
        assert got is not None and got.ok
        assert got is not report  # a fresh object per get

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.put(key, ValidationReport())
        assert cache.get("a") is None  # evicted, capacity 2
        assert cache.get("b") is not None
        assert cache.get("c") is not None

    def test_disk_store_survives_new_instance(self, tmp_path):
        ResultCache(directory=tmp_path).put("deadbeef", ValidationReport())
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("deadbeef") is not None
        assert fresh.stats()["disk_hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("deadbeef", ValidationReport())
        log = tmp_path / "results.log"
        log.write_bytes(log.read_bytes().replace(
            b'{"ok":true,"violations":[]}', b"{not json"))
        assert ResultCache(directory=tmp_path).get("deadbeef") is None

    def test_raw_byte_key_matches_text_key(self, library):
        """Path inputs are keyed on raw bytes; for a plain LF file that
        is the same key the text spelling gets, so the cache is shared
        between path and (doc_id, text) inputs."""
        dtd, _docs = library
        fp = schema_fingerprint(dtd)
        assert result_key_bytes(b"<a/>\n", fp) == result_key("<a/>\n", fp)

    def test_raw_byte_key_is_stable_and_newline_sensitive(self, library):
        dtd, _docs = library
        fp = schema_fingerprint(dtd)
        assert result_key_bytes(b"<a/>\r\n", fp) \
            == result_key_bytes(b"<a/>\r\n", fp)
        # CRLF and LF are distinct byte streams, so distinct keys: the
        # key must never pass through text-mode newline translation.
        assert result_key_bytes(b"<a/>\r\n", fp) \
            != result_key_bytes(b"<a/>\n", fp)

    def test_path_inputs_keyed_on_disk_bytes(self, library, tmp_path):
        """The coordinator hashes exactly the bytes on disk — a CRLF
        and an LF spelling of one document get different keys but (as
        the parser normalizes nothing here) compatible verdicts."""
        dtd, docs = library
        text = serialize(docs[0])
        lf = tmp_path / "lf.xml"
        lf.write_bytes(text.encode("utf-8"))
        report = CorpusValidator(dtd).validate([str(lf)])
        fp = schema_fingerprint(dtd)
        assert report.verdicts[0].key \
            == result_key_bytes(lf.read_bytes(), fp)
        # and the in-memory tree spelling of the same document agrees
        tree_report = CorpusValidator(dtd).validate([docs[0]])
        assert tree_report.verdicts[0].key == report.verdicts[0].key

    def test_empty_cache_is_still_consulted(self, library):
        """Regression: ResultCache defines __len__, so an *empty* cache
        is falsy — corpus code must test ``is not None``, not truth."""
        dtd, docs = library
        cache = ResultCache()
        CorpusValidator(dtd, cache=cache).validate(docs)
        assert cache.stats()["misses"] == len(docs)


# -- the disk log: faults and concurrent processes --------------------------


def _log_key(worker: int, i: int) -> str:
    return result_key(f"<doc w='{worker}' i='{i}'/>", "log-test")


def _log_report(worker: int, i: int) -> ValidationReport:
    """Every third report carries a violation naming its document: a
    wrong report returned for one of those keys cannot pass for the
    right one."""
    report = ValidationReport()
    if i % 3 == 0:
        report.add("foreign-key", f"document {worker}/{i}: dangling ref",
                   "ref.to sub entry.isbn", (i, worker))
    return report


def _put_many(directory, worker, n, ready=None):
    """Spawn target: put ``n`` keys, after every process is ready."""
    if ready is not None:
        ready.wait(60)
    cache = ResultCache(capacity=1, directory=directory)
    for i in range(n):
        cache.put(_log_key(worker, i), _log_report(worker, i))


def _prune_until(directory, started, stop, budget):
    """Spawn target: prune the log to ``budget`` until told to stop."""
    cache = ResultCache(directory=directory)
    started.set()
    while not stop.is_set():
        cache.prune(max_bytes=budget)


class TestResultLog:
    """A fault in the log is a miss for the affected key only, and
    processes sharing one directory never see a wrong report."""

    N = 6

    def _fill(self, directory):
        cache = ResultCache(directory=directory)
        for i in range(self.N):
            cache.put(_log_key(0, i), _log_report(0, i))
        return directory / "results.log"

    def _hits(self, directory):
        """Which of the N keys a fresh cache answers; every answer must
        be the right report."""
        cache = ResultCache(directory=directory)
        hits = []
        for i in range(self.N):
            got = cache.get(_log_key(0, i))
            if got is not None:
                assert got.to_dict() == _log_report(0, i).to_dict()
                hits.append(i)
        return hits

    def test_truncated_mid_record(self, tmp_path):
        log = self._fill(tmp_path)
        data = log.read_bytes()
        log.write_bytes(data[:len(data) - 20])  # inside the last record
        assert self._hits(tmp_path) == [0, 1, 2, 3, 4]

    def test_flipped_payload_byte(self, tmp_path):
        log = self._fill(tmp_path)
        data = bytearray(log.read_bytes())
        third = data.index(_log_key(0, 2).encode())
        at = data.index(b"violations", third)
        data[at] ^= 0x01
        log.write_bytes(bytes(data))
        assert self._hits(tmp_path) == [0, 1, 3, 4, 5]

    def test_good_record_after_a_torn_one(self, tmp_path):
        log = self._fill(tmp_path)
        data = log.read_bytes()
        log.write_bytes(data[:len(data) - 20])
        extra = ResultCache(directory=tmp_path)
        extra.put(_log_key(1, 0), _log_report(1, 0))
        assert self._hits(tmp_path) == [0, 1, 2, 3, 4]
        got = ResultCache(directory=tmp_path).get(_log_key(1, 0))
        assert got.to_dict() == _log_report(1, 0).to_dict()

    def test_key_differs_at_the_indexed_offset(self, tmp_path):
        """The log rewritten in place (same inode, same size) puts
        another key's valid record where the index points: a miss."""
        log = self._fill(tmp_path)
        reader = ResultCache(directory=tmp_path)
        assert reader.get(_log_key(0, 0)) is not None  # builds the index
        other = tmp_path / "other"
        ResultCache(directory=other).put(_log_key(9, 1), _log_report(9, 1))
        record = (other / "results.log").read_bytes()
        data = log.read_bytes()
        at = data.index(b"\nP " + _log_key(0, 1).encode())
        with open(log, "r+b") as fh:  # keys 0/1 and 9/1 differ, sizes agree
            fh.seek(at)
            fh.write(record)
        assert log.stat().st_size == len(data)
        assert reader.get(_log_key(0, 1)) is None
        assert reader.get(_log_key(0, 2)) is not None

    def test_rebuild_failures_are_misses(self, tmp_path):
        """Records whose CRC holds but whose JSON is not a report."""
        cache = ResultCache(directory=tmp_path)
        with open(tmp_path / "results.log", "ab") as fh:
            for i, body in enumerate([b'{"violations":[{}]}', b"[]",
                                      b'{"violations":7}', b"nul"]):
                key = _log_key(0, i).encode()
                crc = b"%08x" % zlib.crc32(body, zlib.crc32(key))
                fh.write(b"\nP %s %s %s\n" % (key, crc, body))
        assert [cache.get(_log_key(0, i)) for i in range(4)] == [None] * 4

    def test_prune_races_appends(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        started, stop = ctx.Event(), ctx.Event()
        pruner = ctx.Process(target=_prune_until,
                             args=(str(tmp_path), started, stop, 20_000))
        writer = ctx.Process(target=_put_many,
                             args=(str(tmp_path), 0, 2000, started))
        pruner.start()
        writer.start()
        try:
            reader = ResultCache(capacity=1, directory=tmp_path)
            deadline = time.monotonic() + 60
            while writer.is_alive() and time.monotonic() < deadline:
                for i in range(0, 2000, 97):
                    got = reader.get(_log_key(0, i))
                    assert got is None \
                        or got.to_dict() == _log_report(0, i).to_dict()
            writer.join(60)
        finally:
            stop.set()
            pruner.join(60)
        assert not writer.is_alive() and not pruner.is_alive()
        assert writer.exitcode == 0 and pruner.exitcode == 0
        fresh = ResultCache(directory=tmp_path)
        hits = 0
        for i in range(2000):
            got = fresh.get(_log_key(0, i))
            if got is not None:
                assert got.to_dict() == _log_report(0, i).to_dict()
                hits += 1
        assert hits > 0

    def test_concurrent_writers(self, tmp_path):
        """More writer processes than cores, all appending at once."""
        ctx = multiprocessing.get_context("spawn")
        ready = ctx.Barrier(4, timeout=60)
        writers = [ctx.Process(target=_put_many,
                               args=(str(tmp_path), w, 200, ready))
                   for w in range(4)]
        for p in writers:
            p.start()
        for p in writers:
            p.join(120)
        assert not any(p.is_alive() for p in writers)
        assert [p.exitcode for p in writers] == [0] * 4
        fresh = ResultCache(directory=tmp_path)
        for w in range(4):
            for i in range(200):
                got = fresh.get(_log_key(w, i))
                assert got is not None, (w, i)
                assert got.to_dict() == _log_report(w, i).to_dict()


# -- the validator ---------------------------------------------------------


class TestCorpusValidator:
    def test_verdicts_in_input_order(self, library):
        dtd, docs = library
        report = CorpusValidator(dtd).validate(docs)
        assert [v.doc_id for v in report] \
            == [f"doc[{i}]" for i in range(len(docs))]

    def test_counts(self, library):
        dtd, docs = library
        report = CorpusValidator(dtd).validate(docs)
        assert len(report) == 12
        assert report.n_invalid == 3
        assert report.n_valid == 9
        assert report.n_errors == 0
        assert not report.ok
        assert report.violation_total >= 3
        assert sum(report.violations_by_code().values()) \
            == report.violation_total

    def test_jobs_equivalence(self, library):
        dtd, docs = library
        texts = [(f"d{i}", serialize(doc)) for i, doc in enumerate(docs)]
        serial = CorpusValidator(dtd, jobs=1).validate(texts)
        pooled = CorpusValidator(dtd, jobs=3).validate(texts)
        assert serial.verdicts_json() == pooled.verdicts_json()

    def test_accepts_paths(self, library, tmp_path):
        dtd, docs = library
        paths = []
        for i, doc in enumerate(docs[:4]):
            path = tmp_path / f"doc{i}.xml"
            path.write_text(serialize(doc))
            paths.append(str(path))
        report = CorpusValidator(dtd).validate(paths)
        assert [v.doc_id for v in report] == paths

    def test_unreadable_document_is_an_error_verdict(self, library):
        dtd, _docs = library
        report = CorpusValidator(dtd).validate([("bad", "<not xml")])
        assert report.n_errors == 1
        assert not report.ok
        assert report.verdicts[0].error

    def test_unsupported_type_raises(self, library):
        dtd, _docs = library
        with pytest.raises(TypeError):
            CorpusValidator(dtd).validate([42])

    def test_bad_args_raise(self, library):
        dtd, _docs = library
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            CorpusValidator(dtd, jobs=-1)
        with pytest.raises(ReproError, match="unknown engine 'psychic'"):
            CorpusValidator(dtd, engine="psychic")
        with pytest.raises(TypeError):
            CorpusValidator("not a dtd")

    def test_jobs_zero_means_auto(self, library):
        dtd, _docs = library
        validator = CorpusValidator(dtd, jobs=0)
        assert validator.jobs == (os.cpu_count() or 1)

    def test_empty_corpus(self, library):
        dtd, _docs = library
        report = CorpusValidator(dtd).validate([])
        assert report.ok and len(report) == 0

    def test_chunk_size_heuristic(self, library):
        dtd, _docs = library
        v = CorpusValidator(dtd, jobs=4)
        assert v._chunk_size(200) == 13  # ceil(200 / 16)
        assert v._chunk_size(10000) == 32  # capped
        assert v._chunk_size(1) == 1


class TestCorpusCaching:
    def test_warm_run_hits_for_every_doc(self, library):
        dtd, docs = library
        cache = ResultCache()
        cold = CorpusValidator(dtd, cache=cache).validate(docs)
        warm = CorpusValidator(dtd, cache=cache).validate(docs)
        assert cold.n_cached == 0
        assert warm.n_cached == len(docs)
        assert warm.verdicts_json() == cold.verdicts_json()

    def test_verdict_json_omits_provenance(self, library):
        """The byte-comparable verdict form must not leak where a
        result came from (cache vs fresh)."""
        verdict = DocumentVerdict("d", "k", True, cached=True)
        assert "cached" not in verdict.to_dict()
        assert verdict.to_dict(provenance=True)["cached"] is True

    def test_directory_cache_accepted_as_path(self, library, tmp_path):
        dtd, docs = library
        CorpusValidator(dtd, cache=str(tmp_path)).validate(docs)
        warm = CorpusValidator(dtd, cache=str(tmp_path)).validate(docs)
        assert warm.n_cached == len(docs)

    def test_schema_change_invalidates(self, library, tmp_path):
        _dtd, _docs = library
        doc = book_document()
        dtd = book_dtdc()
        CorpusValidator(dtd, cache=str(tmp_path)).validate([doc])
        other = random_corpus(n_docs=0)[0]
        report = CorpusValidator(other, cache=str(tmp_path)) \
            .validate([("d", serialize(doc))])
        assert report.n_cached == 0


class TestStreamingCorpus:
    """The single-pass engine (``engine="codegen"``; ``stream=True``
    until 2.0) must be observationally identical to batch — same
    verdicts, same keys, one shared cache."""

    def test_stream_matches_batch_on_trees(self, library):
        dtd, docs = library
        batch = CorpusValidator(dtd).validate(docs)
        strm = CorpusValidator(dtd, engine="codegen").validate(docs)
        assert batch.verdicts_json() == strm.verdicts_json()

    def test_stream_matches_batch_on_paths_pooled(self, library, tmp_path):
        dtd, docs = library
        paths = []
        for i, doc in enumerate(docs):
            path = tmp_path / f"doc{i}.xml"
            path.write_text(serialize(doc))
            paths.append(str(path))
        batch = CorpusValidator(dtd, jobs=2).validate(paths)
        strm = CorpusValidator(dtd, jobs=2, engine="codegen") \
            .validate(paths)
        assert batch.verdicts_json() == strm.verdicts_json()

    def test_cache_is_shared_across_modes(self, library, tmp_path):
        """A batch-warmed cache answers a streaming run (and vice
        versa): the keys are raw-bytes content addresses either way."""
        dtd, docs = library
        doc_dir = tmp_path / "docs"
        doc_dir.mkdir()
        paths = []
        for i, doc in enumerate(docs[:5]):
            path = doc_dir / f"doc{i}.xml"
            path.write_text(serialize(doc))
            paths.append(str(path))
        cache = ResultCache()
        cold = CorpusValidator(dtd, cache=cache).validate(paths)
        warm = CorpusValidator(dtd, cache=cache, engine="codegen") \
            .validate(paths)
        assert warm.n_cached == len(paths)
        assert warm.verdicts_json() == cold.verdicts_json()

    def test_worker_computed_keys_match_coordinator(self, library,
                                                    tmp_path):
        """Without a cache the streaming coordinator never opens the
        files; the keys the workers hash during their own read must
        still equal the coordinator-side keys a cached run computes."""
        dtd, docs = library
        paths = []
        for i, doc in enumerate(docs[:5]):
            path = tmp_path / f"doc{i}.xml"
            path.write_text(serialize(doc))
            paths.append(str(path))
        no_cache = CorpusValidator(dtd, engine="codegen").validate(paths)
        cached = CorpusValidator(dtd, engine="codegen",
                                 cache=ResultCache()).validate(paths)
        assert [v.key for v in no_cache.verdicts] \
            == [v.key for v in cached.verdicts]

    def test_malformed_document_is_an_error_verdict(self, library):
        dtd, _docs = library
        report = CorpusValidator(dtd, engine="codegen") \
            .validate([("bad", "<not xml")])
        assert report.n_errors == 1 and report.verdicts[0].error

    def test_facade_passes_stream_through(self, library):
        dtd, docs = library
        batch = Validator(dtd).check_corpus(docs)
        strm = Validator(dtd).check_corpus(docs, engine="codegen")
        assert batch.verdicts_json() == strm.verdicts_json()

    def test_serial_run_builds_scanners_once(self, monkeypatch):
        """An in-process (``jobs=1``) run validates on its schema
        handle's scanners instead of building a second copy from the
        plan."""
        from repro.codegen import engine as engine_mod
        from repro.workloads import federated_corpus

        builds = []
        scanners = engine_mod.scanners

        def counted(*args):
            builds.append(args)
            return scanners(*args)

        monkeypatch.setattr(engine_mod, "scanners", counted)
        dtd, trees = federated_corpus(n_docs=4, seed=3)
        report = CorpusValidator(dtd, jobs=1, engine="codegen").validate(
            [(f"d{i}", serialize(t)) for i, t in enumerate(trees)])
        assert len(report) == 4
        assert len(builds) == 1


class TestCorpusObservability:
    def test_worker_metrics_merge(self, library):
        dtd, docs = library
        obs = Observability()
        report = CorpusValidator(dtd, jobs=2, obs=obs).validate(docs)
        merged = {(i["name"]): i for i in obs.metrics.to_dicts()}
        assert merged["xmlio_documents_parsed"]["value"] == len(docs)
        assert merged["corpus_documents_validated"]["value"] == len(docs)
        assert report.obs is obs

    def test_facade_threads_obs(self, library):
        dtd, docs = library
        obs = Observability()
        Validator(dtd, obs=obs).check_corpus(docs)
        names = {i["name"] for i in obs.metrics.to_dicts()}
        assert "corpus_documents_validated" in names


class TestCorpusReportSerialization:
    def test_to_json_deterministic_and_parseable(self, library):
        dtd, docs = library
        report = CorpusValidator(dtd).validate(docs)
        payload = json.loads(report.to_json())
        assert payload["documents"] == len(docs)
        assert payload["ok"] is False
        assert list(payload["violations_by_code"]) \
            == sorted(payload["violations_by_code"])

    def test_str_mentions_findings(self, library):
        dtd, docs = library
        text = str(CorpusValidator(dtd).validate(docs))
        assert "12 document(s)" in text
        assert "violations by code:" in text


class TestFacade:
    def test_check_corpus_on_validator(self, library):
        dtd, docs = library
        report = Validator(dtd).check_corpus(docs, jobs=2)
        assert len(report) == len(docs)
        assert report.jobs == 2


def test_fork_pool_used_on_posix():
    """The DTDC ships to workers via Pool initargs; this only needs
    pickling, which the smoke below proves on any start method."""
    import pickle

    dtd, _docs = random_corpus(n_docs=0)
    assert pickle.loads(pickle.dumps(dtd)).describe() == dtd.describe()
    assert os.name == "posix"
