"""Tests for :mod:`repro.shard` — sharded corpus validation, constraint
locality analysis, the merge fold, nodes, and watch mode."""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.codegen import CodegenValidator
from repro.constraints.base import Field
from repro.constraints.evaluators import evaluator_for
from repro.constraints.lang_l import ForeignKey, Key
from repro.constraints.lang_lid import (
    IDConstraint, IDForeignKey, IDInverse, IDSetValuedForeignKey,
)
from repro.constraints.lang_lu import (
    Inverse, SetValuedForeignKey, UnaryForeignKey, UnaryKey,
)
from repro.corpus import CorpusValidator, ResultCache
from repro.corpus.validator import resolve_jobs
from repro.datamodel.indexes import AttributeIndex
from repro.dtd.validate import ValidationReport
from repro.errors import ConstraintError, ParseError, ReproError
from repro.obs import Observability
from repro.server import ValidationServer
from repro.server.registry import as_handle
from repro.shard import (
    Locality, LocalNode, ShardedCorpusValidator, SubprocessNode,
    WatchSession, classify_constraint, classify_sigma, extract_aggregates,
    fold_aggregates, shard_of,
)
from repro.workloads import (
    federated_corpus, random_corpus, registry_schema,
)
from repro.xmlio import parse_document, serialize
from repro.xmlio import parser as parser_mod


@pytest.fixture
def library():
    """A 10-document library corpus (all-local Σ), 30% invalid."""
    return random_corpus(n_docs=10, invalid_fraction=0.3, seed=7)


@pytest.fixture
def federation():
    """An 8-document registry corpus (all-merge Σ) exercising all three
    cross-document phenomena."""
    return federated_corpus(n_docs=8, cross_dup_fraction=0.4,
                            cross_ref_fraction=0.3,
                            dangling_fraction=0.25, seed=5)


def _pairs(trees, prefix="d"):
    return [(f"{prefix}{i}", serialize(t)) for i, t in enumerate(trees)]


# -- locality classification ------------------------------------------------


class TestLocality:
    #: every constraint class with a concrete instance and its expected
    #: shard locality — L and L_u are document-scoped (local), L_id
    #: rides corpus-wide ID/IDREF semantics (merge)
    CASES = [
        (Key("entry", (Field("isbn"), Field("shelf"))), Locality.LOCAL),
        (UnaryKey("entry", Field("isbn")), Locality.LOCAL),
        (ForeignKey("ref", (Field("to"),), "entry", (Field("isbn"),)),
         Locality.LOCAL),
        (UnaryForeignKey("ref", Field("to"), "entry", Field("isbn")),
         Locality.LOCAL),
        (SetValuedForeignKey("ref", Field("to"), "entry", Field("isbn")),
         Locality.LOCAL),
        (Inverse("ref", Field("rid"), Field("to"),
                 "entry", Field("isbn"), Field("refs")),
         Locality.LOCAL),
        (IDConstraint("person"), Locality.MERGE),
        (IDForeignKey("mention", Field("who"), "person"), Locality.MERGE),
        (IDSetValuedForeignKey("mention", Field("who"), "person"),
         Locality.MERGE),
        (IDInverse("person", Field("knows"), "mention", Field("who")),
         Locality.MERGE),
    ]

    @pytest.mark.parametrize(
        "constraint,expected", CASES,
        ids=[type(c).__name__ for c, _e in CASES])
    def test_per_class(self, constraint, expected):
        assert classify_constraint(constraint) is expected

    def test_unknown_type_raises(self):
        with pytest.raises(ConstraintError):
            classify_constraint(object())

    def test_classify_sigma_positions(self, federation):
        dtd, _docs = federation
        split = classify_sigma(dtd)
        assert split[Locality.MERGE] == [0, 1]
        assert split[Locality.LOCAL] == []

    def test_library_sigma_is_all_local(self, library):
        dtd, _docs = library
        split = classify_sigma(dtd)
        assert split[Locality.LOCAL] == [0, 1, 2]
        assert split[Locality.MERGE] == []

    def test_static_and_runtime_views_agree(self, library, federation):
        """The schema-level classification and the evaluator-level
        ``locality`` attribute must agree constraint by constraint —
        the static view is what the coordinator plans with, the runtime
        view is what actually exports aggregates.  That holds for the
        batch evaluators and for a codegen run's kernels (both schemas'
        Σ are all kernels there), whose ``corpus_aggregate()`` is what
        a shard node exports."""
        for dtd, trees in (library, federation):
            id_map = dtd.structure.id_attribute_map()
            text = serialize(trees[0])
            tree = parse_document(text, dtd.structure)
            index = AttributeIndex(tree, id_attributes=id_map)
            batch = []
            for constraint in dtd.constraints:
                evaluator = evaluator_for(constraint, index, id_map)
                evaluator.full()
                batch.append(evaluator)
            cg = CodegenValidator(as_handle(dtd))
            assert all(cg.compiled.plan.kernels)
            cg.validate_text(text)
            for evaluators in (batch, cg.last_run.evaluators):
                for constraint, evaluator in zip(dtd.constraints,
                                                 evaluators):
                    assert evaluator.locality == \
                        str(classify_constraint(constraint)), constraint
                    aggregate = evaluator.corpus_aggregate()
                    if classify_constraint(constraint) is Locality.MERGE:
                        assert aggregate is not None, constraint
                    else:
                        assert aggregate is None, constraint


# -- shard assignment -------------------------------------------------------


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 3, 7):
            for payload in (b"", b"<a/>", b"<library/>" * 100):
                s = shard_of(payload, n)
                assert 0 <= s < n
                assert shard_of(payload, n) == s

    def test_content_addressed_not_position_addressed(self):
        """The same bytes land on the same shard regardless of where
        they sit in the corpus — the invariant permutation parity
        rests on."""
        docs = [f"<doc n='{i}'/>".encode() for i in range(50)]
        layout = {d: shard_of(d, 3) for d in docs}
        for d in reversed(docs):
            assert shard_of(d, 3) == layout[d]

    def test_spreads_across_shards(self):
        docs = [f"<doc n='{i}'/>".encode() for i in range(64)]
        assert len({shard_of(d, 4) for d in docs}) == 4


# -- jobs / shards resolution -----------------------------------------------


class TestWorkerCounts:
    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_names_the_flag(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            resolve_jobs(-2, flag="shards")

    def test_sharded_validator_auto(self, library):
        dtd, _trees = library
        assert ShardedCorpusValidator(dtd, shards=0).shards \
            == (os.cpu_count() or 1)
        with pytest.raises(ValueError, match="shards"):
            ShardedCorpusValidator(dtd, shards=-1)


# -- byte-identity with the serial validator --------------------------------


class TestParity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_local_schema_byte_identical(self, library, shards):
        dtd, trees = library
        docs = _pairs(trees)
        serial = CorpusValidator(dtd, jobs=1).validate(docs)
        with ShardedCorpusValidator(dtd, shards=shards) as sv:
            report = sv.validate(docs)
        assert report.verdicts_json() == serial.verdicts_json()
        assert report.corpus_violations == []
        assert report.corpus_ok == report.ok

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_lid_schema_byte_identical(self, federation, shards):
        dtd, trees = federation
        docs = _pairs(trees, "f")
        serial = CorpusValidator(dtd, jobs=1).validate(docs)
        with ShardedCorpusValidator(dtd, shards=shards) as sv:
            report = sv.validate(docs)
        assert report.verdicts_json() == serial.verdicts_json()

    def test_corpus_findings_stable_across_shard_counts(self, federation):
        dtd, trees = federation
        docs = _pairs(trees, "f")
        baseline = None
        for shards in (1, 2, 3):
            with ShardedCorpusValidator(dtd, shards=shards) as sv:
                report = sv.validate(docs)
            snapshot = ([v.to_dict() for v in report.corpus_violations],
                        report.merge_stats)
            if baseline is None:
                baseline = snapshot
            else:
                assert snapshot == baseline, shards

    def test_path_inputs_match_serial(self, library, tmp_path):
        dtd, trees = library
        paths = []
        for i, tree in enumerate(trees):
            p = tmp_path / f"doc{i}.xml"
            p.write_text(serialize(tree))
            paths.append(str(p))
        serial = CorpusValidator(dtd, jobs=1).validate(paths)
        with ShardedCorpusValidator(dtd, shards=3) as sv:
            report = sv.validate(paths)
        assert report.verdicts_json() == serial.verdicts_json()

    def test_empty_corpus(self, library):
        dtd, _trees = library
        with ShardedCorpusValidator(dtd, shards=2) as sv:
            report = sv.validate([])
        assert report.ok and report.corpus_ok and len(report) == 0
        # an empty run never even starts the node fleet
        assert sv._nodes is None


# -- the merge phase --------------------------------------------------------


class TestMergeFold:
    def test_cross_document_id_clash_only_at_merge(self):
        """The tentpole's defining case: two documents that are each
        perfectly valid alone share an ID value.  No per-document
        verdict can see it — only the coordinator's fold."""
        dtd, trees = federated_corpus(n_docs=4, cross_dup_fraction=1.0,
                                      seed=3)
        docs = _pairs(trees, "f")
        serial = CorpusValidator(dtd, jobs=1).validate(docs)
        assert serial.ok  # invisible to every per-document verdict
        with ShardedCorpusValidator(dtd, shards=3) as sv:
            report = sv.validate(docs)
        assert report.verdicts_json() == serial.verdicts_json()
        assert report.ok                  # per-document surface clean
        assert not report.corpus_ok      # ... but the corpus is not
        (clash,) = [v for v in report.corpus_violations
                    if v.code == "id-clash"]
        assert "p-0-0" in clash.message
        assert len(clash.documents) >= 2

    def test_single_document_clash_not_repeated(self):
        """A duplicate ID *within* one document is that document's own
        verdict; the fold must not report it a second time."""
        dtd = registry_schema()
        xml = ("<registry><person pid='p1'/><person pid='p1'/>"
               "</registry>")
        with ShardedCorpusValidator(dtd, shards=2) as sv:
            report = sv.validate([("solo", xml), ("other",
                                  "<registry><person pid='q'/>"
                                  "</registry>")])
        assert not report.ok  # the per-document verdict has it
        assert [v for v in report.corpus_violations
                if v.code == "id-clash"] == []

    def test_cross_document_ref_resolves(self):
        """A mention of another document's person is locally dangling
        (per-document violation, identical to serial) but resolved
        corpus-wide — counted, not re-reported."""
        dtd, trees = federated_corpus(n_docs=4, cross_ref_fraction=1.0,
                                      seed=1)
        docs = _pairs(trees, "f")
        with ShardedCorpusValidator(dtd, shards=2) as sv:
            report = sv.validate(docs)
        assert not report.ok  # locally dangling refs are real verdicts
        assert report.merge_stats["refs_resolved_cross_document"] == 4
        assert [v for v in report.corpus_violations
                if v.code == "foreign-key"] == []

    def test_ghost_ref_dangles_corpus_wide(self):
        dtd, trees = federated_corpus(n_docs=4, dangling_fraction=1.0,
                                      seed=2)
        docs = _pairs(trees, "f")
        with ShardedCorpusValidator(dtd, shards=2) as sv:
            report = sv.validate(docs)
        ghosts = [v for v in report.corpus_violations
                  if v.code == "foreign-key"]
        assert len(ghosts) == 4
        assert all("ghost-" in v.message for v in ghosts)

    def test_fold_is_pure_function_of_aggregates(self, federation):
        """The fold can be replayed from extracted aggregates alone —
        no validator, no shards — and gives the same answer."""
        dtd, trees = federation
        doc_aggs = []
        for i, tree in enumerate(trees):
            parsed = parse_document(serialize(tree), dtd.structure)
            doc_aggs.append((f"f{i}", extract_aggregates(dtd, parsed)))
        violations, stats = fold_aggregates(dtd, doc_aggs)
        with ShardedCorpusValidator(dtd, shards=3) as sv:
            report = sv.validate(_pairs(trees, "f"))
        assert [v.to_dict() for v in violations] \
            == [v.to_dict() for v in report.corpus_violations]
        assert stats == report.merge_stats

    def test_local_schema_exports_no_aggregates(self, library):
        dtd, trees = library
        parsed = parse_document(serialize(trees[0]), dtd.structure)
        assert extract_aggregates(dtd, parsed) == {}


# -- single-pass nodes ------------------------------------------------------


def _serial_fold(dtd, docs):
    """The corpus findings a serial pass would fold: aggregates
    extracted from each parsed document ({} for an unparseable one)."""
    doc_aggs = []
    for doc_id, text in docs:
        try:
            tree = parse_document(text, dtd.structure)
        except ParseError:
            doc_aggs.append((doc_id, {}))
            continue
        doc_aggs.append((doc_id, extract_aggregates(dtd, tree)))
    violations, stats = fold_aggregates(dtd, doc_aggs)
    return [v.to_dict() for v in violations], stats


def _forbid_parsing(monkeypatch):
    def parse_document_forbidden(*_args, **_kwargs):
        raise AssertionError("a shard node parsed a document a second "
                             "time")

    monkeypatch.setattr(parser_mod, "parse_document",
                        parse_document_forbidden)


class TestSinglePassNodes:
    """A node validates each document once: the merge aggregates come
    from the run behind the verdict, never from a second parse."""

    @pytest.mark.parametrize("engine", ["codegen"])
    def test_no_reparse(self, federation, monkeypatch, engine):
        dtd, trees = federation
        docs = _pairs(trees, "f") + [
            ("broken", "<registry><person pid='x'></registry>")]
        serial = CorpusValidator(dtd, jobs=1).validate(docs)
        expected = _serial_fold(dtd, docs)
        _forbid_parsing(monkeypatch)
        with ShardedCorpusValidator(dtd, shards=2, engine=engine) as sv:
            report = sv.validate(docs)
        assert report.verdicts_json() == serial.verdicts_json()
        assert ([v.to_dict() for v in report.corpus_violations],
                report.merge_stats) == expected
        assert report.corpus_violations  # the corpus has findings

    def test_node_cache_is_not_consulted(self, federation, monkeypatch):
        """A node whose server holds a warm result cache neither reads
        nor writes it on ``check-shard``, and still exports every
        document's aggregates: the coordinator's cache is the only one
        a sharded run consults."""
        from repro.corpus import result_key

        dtd, trees = federation
        docs = _pairs(trees, "f")
        handle = as_handle(dtd)
        node_cache = ResultCache()
        for _doc_id, text in docs:
            node_cache.put(result_key(text, handle.fingerprint),
                           CodegenValidator(handle).validate_text(text))
        warm = (node_cache.hits, node_cache.misses)

        def cached_node(name):
            node = LocalNode(name)
            node.server = ValidationServer(cache=node_cache)
            return node

        _forbid_parsing(monkeypatch)
        with ShardedCorpusValidator(dtd, shards=2,
                                    node_factory=cached_node) as sv:
            report = sv.validate(docs)
        assert (node_cache.hits, node_cache.misses) == warm
        assert ([v.to_dict() for v in report.corpus_violations],
                report.merge_stats) == _serial_fold(dtd, docs)

    def test_text_is_keyed_once(self, federation, monkeypatch):
        """The coordinator keys each text document it ships; the node
        does not hash it again."""
        import repro.corpus.cache as cache_mod
        import repro.corpus.validator as validator_mod
        import repro.corpus.worker as worker_mod

        keyed = []
        result_key = cache_mod.result_key

        def counted(*args):
            keyed.append(args)
            return result_key(*args)

        for module in (cache_mod, validator_mod, worker_mod):
            monkeypatch.setattr(module, "result_key", counted,
                                raising=False)
        dtd, trees = federation
        docs = _pairs(trees, "f")
        with ShardedCorpusValidator(dtd, shards=2,
                                    engine="codegen") as sv:
            report = sv.validate(docs)
        assert len(report.verdicts) == len(docs)
        assert len(keyed) == len(docs)

    def test_node_builds_its_scanners_once(self, federation, monkeypatch):
        """A node runs ``check-shard`` on its schema handle's scanners:
        two requests build them once."""
        from repro.codegen import engine as engine_mod
        from repro.corpus.cache import schema_fingerprint
        from repro.xmlio.dtdparse import serialize_dtdc

        dtd, trees = federation
        builds = []
        scanners = engine_mod.scanners

        def counted(*args):
            builds.append(args)
            return scanners(*args)

        monkeypatch.setattr(engine_mod, "scanners", counted)
        with LocalNode() as node:
            node.load_schema("reg", serialize_dtdc(dtd),
                             dtd.structure.root, schema_fingerprint(dtd))
            for batch in (trees[:3], trees[3:]):
                response = node.check_shard("reg", _pairs(batch),
                                            engine="codegen")
                assert len(response["aggregates"]) == len(batch)
        assert len(builds) == 1


class TestPoolWorkers:
    @pytest.mark.parametrize("engine", ["batch", "codegen"])
    def test_pool_runs_export_no_aggregates(self, monkeypatch, engine):
        """Nothing folds a pool run's aggregates, so its workers never
        compute them."""
        import repro.shard.aggregates as aggregates_mod

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a pool run computed merge aggregates")

        monkeypatch.setattr(aggregates_mod, "aggregates_of", forbidden)
        monkeypatch.setattr(aggregates_mod, "extract_aggregates",
                            forbidden)
        dtd, trees = federated_corpus(n_docs=3, seed=5)
        report = CorpusValidator(dtd, jobs=1, engine=engine).validate(
            _pairs(trees))
        assert len(report.verdicts) == 3


# -- nodes ------------------------------------------------------------------


class TestNodes:
    def test_local_node_round_trip(self, library):
        dtd, trees = library
        from repro.xmlio.dtdparse import serialize_dtdc
        from repro.corpus.cache import schema_fingerprint

        with LocalNode() as node:
            node.load_schema("lib", serialize_dtdc(dtd),
                             dtd.structure.root, schema_fingerprint(dtd))
            response = node.check_shard("lib", _pairs(trees[:3]))
        assert response["ok"] and response["documents"] == 3
        assert len(response["verdicts"]) == 3

    def test_fingerprint_mismatch_raises(self, library):
        dtd, _trees = library
        from repro.xmlio.dtdparse import serialize_dtdc

        with LocalNode() as node:
            with pytest.raises(ReproError, match="fingerprint"):
                node.load_schema("lib", serialize_dtdc(dtd),
                                 dtd.structure.root, "not-the-print")

    def test_bad_request_raises_repro_error(self, library):
        dtd, _trees = library
        with LocalNode() as node:
            with pytest.raises(ReproError, match="rejected"):
                node.check_shard("never-loaded", [("d", "<x/>")])

    def test_subprocess_node_parity(self, federation):
        """One real ``serve --stdio`` child per shard gives the same
        bytes as in-process nodes."""
        dtd, trees = federation
        docs = _pairs(trees, "f")
        serial = CorpusValidator(dtd, jobs=1).validate(docs)
        with ShardedCorpusValidator(
                dtd, shards=2, node_factory=SubprocessNode) as sv:
            report = sv.validate(docs)
        assert report.verdicts_json() == serial.verdicts_json()

    def test_subprocess_close_is_clean(self):
        node = SubprocessNode()
        node.close()
        assert node.proc.returncode is not None
        node.close()  # idempotent

    @pytest.mark.parametrize("end", ["clean", "killed", "dead"])
    def test_subprocess_close_closes_its_pipes(self, end):
        """``close`` closes both pipes after a clean exit, after a kill
        and when the node had already died: collecting the node warns
        of no unclosed file."""
        import gc
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            node = SubprocessNode()
            if end == "killed":
                wait = node.proc.wait
                waits = []

                def slow_wait(timeout=None):
                    waits.append(timeout)
                    if len(waits) == 1:  # the EOF wait times out
                        raise subprocess.TimeoutExpired("node", timeout)
                    return wait(timeout=timeout)

                node.proc.wait = slow_wait
            elif end == "dead":
                node.proc.kill()
                node.proc.wait()
            node.close()
            assert node.proc.stdout.closed and node.proc.stdin.closed
            del node
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


#: a node that loads the schema, then reads the next request and exits
#: with status 3 without answering it
_SILENT_NODE = """
import json, sys
sys.stdin.readline()
print(json.dumps({"ok": True, "schema": {"fingerprint": sys.argv[1]}}),
      flush=True)
sys.stdin.readline()
sys.exit(3)
"""


def _within(fn, timeout=60.0):
    """``fn()``'s exception (None if it returned), asserting that it
    finished within ``timeout`` seconds."""
    outcome = {}

    def target():
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - handed back
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{fn} hung"
    return outcome.get("error")


class TestDeadNode:
    """A node that dies mid-run is reported, never waited on forever:
    ``validate`` raises the ``ReproError`` that names the node, its
    exit status, the shard and the documents shipped there, and
    ``close()`` returns."""

    def _fail(self, validator, docs, status, detail):
        exc = _within(lambda: validator.validate(docs))
        assert _within(validator.close) is None
        assert isinstance(exc, ReproError), exc
        message = str(exc)
        ids = ", ".join(doc_id for doc_id, _text in docs)
        assert message.startswith(
            f"shard 0 failed on its {len(docs)} document(s) ({ids}): "
            f"shard node 'shard-0' "), message
        assert f"status {status}" in message and detail in message, message

    def _started(self, dtd, docs):
        validator = ShardedCorpusValidator(dtd, shards=1,
                                           node_factory=SubprocessNode)
        validator.validate(docs[:1])  # spawn the node, load the schema
        return validator

    def test_killed_before_the_request(self, library):
        dtd, trees = library
        docs = _pairs(trees)
        validator = self._started(dtd, docs)
        node = validator._nodes[0]
        node.proc.kill()
        node.proc.wait()
        self._fail(validator, docs, -signal.SIGKILL, "before the request")

    def test_exits_without_answering(self, library):
        dtd, trees = library
        docs = _pairs(trees)

        class SilentNode(SubprocessNode):
            def __init__(self, name):
                self.name = name
                self.proc = subprocess.Popen(
                    [sys.executable, "-c", _SILENT_NODE,
                     validator.fingerprint],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True)

        validator = ShardedCorpusValidator(dtd, shards=1,
                                           node_factory=SilentNode)
        self._fail(validator, docs, 3, "no response")

    def test_pipe_breaks_on_write(self, library, monkeypatch):
        """The node dies between the liveness check and the write (the
        check is stubbed to see it alive): the write's
        ``BrokenPipeError`` surfaces as the named error."""
        dtd, trees = library
        docs = _pairs(trees)
        validator = self._started(dtd, docs)
        node = validator._nodes[0]
        node.proc.kill()
        node.proc.wait()
        monkeypatch.setattr(node.proc, "poll", lambda: None)
        self._fail(validator, docs, -signal.SIGKILL, "BrokenPipeError")


# -- coordinator caching ----------------------------------------------------


class TestCoordinatorCache:
    def test_second_run_is_all_cache_hits(self, federation, tmp_path):
        dtd, trees = federation
        docs = _pairs(trees, "f")
        cache = ResultCache(directory=tmp_path / "cache")
        with ShardedCorpusValidator(dtd, shards=2, cache=cache) as sv:
            first = sv.validate(docs)
            second = sv.validate(docs)
        assert second.verdicts_json() == first.verdicts_json()
        assert second.n_cached == len(docs)
        # the corpus fold still ran, from the aggregate cache
        assert [v.to_dict() for v in second.corpus_violations] \
            == [v.to_dict() for v in first.corpus_violations]

    def test_verdict_provenance_never_changes_bytes(self, library):
        dtd, trees = library
        docs = _pairs(trees)
        cache = ResultCache()
        with ShardedCorpusValidator(dtd, shards=2, cache=cache) as sv:
            cold = sv.validate(docs)
            warm = sv.validate(docs)
        assert warm.verdicts_json() == cold.verdicts_json()
        assert json.loads(warm.verdicts_json()) \
            == json.loads(cold.verdicts_json())


# -- observability ----------------------------------------------------------


class TestShardObservability:
    def test_spans_and_metrics(self, federation):
        dtd, trees = federation
        obs = Observability()
        with ShardedCorpusValidator(dtd, shards=2, obs=obs) as sv:
            sv.validate(_pairs(trees, "f"))
        def walk(spans):
            for span in spans:
                yield span["name"]
                yield from walk(span["children"])

        names = set(walk(obs.tracer.to_dicts()))
        assert {"shard.run", "shard.partition", "shard.validate",
                "shard.merge"} <= names
        metrics = {m["name"] for m in obs.metrics.to_dicts()}
        assert "shard_docs_assigned" in metrics
        assert "shard_corpus_violations" in metrics

    def test_node_metrics_absorbed(self, library):
        """Per-request node metrics (documents validated on the node)
        fold into the coordinator's registry — the multi-node run has
        one merged metrics view."""
        dtd, trees = library
        obs = Observability()
        with ShardedCorpusValidator(dtd, shards=2, obs=obs) as sv:
            sv.validate(_pairs(trees))
        byname = {m["name"]: m for m in obs.metrics.to_dicts()}
        assert "corpus_documents_validated" in byname


# -- result cache disk budget ----------------------------------------------


class TestCachePrune:
    def _fill(self, directory, n=30):
        cache = ResultCache(directory=directory)
        for i in range(n):
            cache.put(f"{i:02d}" + "a" * 62, ValidationReport())
        return cache

    def test_max_bytes_bounds_the_store(self, tmp_path):
        cache = ResultCache(directory=tmp_path, max_bytes=2000)
        for i in range(50):
            cache.put(f"{i:02d}" + "b" * 62, ValidationReport())
        assert cache.disk_bytes() <= 2000
        assert cache.disk_evictions > 0

    def test_prune_evicts_least_recently_used(self, tmp_path):
        cache = self._fill(tmp_path, n=10)
        entry = cache.disk_bytes() // 10
        # recently-used entries survive; a disk hit re-stamps recency,
        # so key 00, put first, becomes the most recently used
        cache.clear()
        assert cache.get("00" + "a" * 62) is not None
        cache.clear()
        stats = cache.prune(max_bytes=entry * 9)
        assert stats["evicted"] == 1
        assert cache.get("01" + "a" * 62) is None
        assert cache.get("00" + "a" * 62) is not None
        assert cache.get("09" + "a" * 62) is not None

    def test_prune_zero_empties(self, tmp_path):
        cache = self._fill(tmp_path)
        stats = cache.prune(max_bytes=0)
        assert stats["kept"] == 0 and cache.disk_bytes() == 0

    def test_unbounded_without_max_bytes(self, tmp_path):
        cache = self._fill(tmp_path)
        assert cache.disk_bytes() > 0
        assert cache.max_bytes is None

    def test_bad_max_bytes_raises(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=0)

    def test_cli_prune(self, tmp_path, capsys):
        from repro.cli.main import main

        self._fill(tmp_path)
        assert main(["cache", "prune", str(tmp_path),
                     "--max-bytes", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept"] == 0 and payload["evicted"] == 30

    def test_cli_prune_missing_dir_exits_2(self, tmp_path):
        from repro.cli.main import main

        assert main(["cache", "prune",
                     str(tmp_path / "nope")]) == 2


# -- watch mode -------------------------------------------------------------


class TestWatch:
    def _corpus_dir(self, tmp_path, n_docs=6, **kw):
        dtd, trees = federated_corpus(n_docs=n_docs, seed=4, **kw)
        for i, tree in enumerate(trees):
            (tmp_path / f"doc{i:02d}.xml").write_text(serialize(tree))
        return dtd

    def test_touch_one_file_revalidates_exactly_one(self, tmp_path):
        """The E24 smoke in miniature: edit one file of a corpus and
        the wake-up revalidates exactly that file (asserted in the
        metrics, not just the delta)."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        dtd = self._corpus_dir(corpus)
        obs = Observability()
        with ShardedCorpusValidator(dtd, shards=2, obs=obs,
                                    cache=tmp_path / "cache") as sv:
            session = WatchSession(sv, [corpus])
            first = session.poll()
            assert len(first.changed) == 6
            target = corpus / "doc03.xml"
            target.write_text(target.read_text().replace(
                'pid="p-3-1"', 'pid="p-3-1-edited"'))
            delta = session.poll()
        assert delta.changed == [str(target)]
        assert len(delta.unchanged) == 5
        revalidated = [m for m in obs.metrics.to_dicts()
                       if m["name"] == "watch_files_revalidated"]
        total = sum(m["value"] for m in revalidated)
        assert total == 6 + 1  # cold pass + exactly one re-check

    def test_steady_state_poll_returns_none(self, tmp_path):
        dtd = self._corpus_dir(tmp_path)
        with ShardedCorpusValidator(dtd, shards=1,
                                    cache=ResultCache()) as sv:
            session = WatchSession(sv, [tmp_path])
            assert session.poll() is not None
            assert session.poll() is None

    def test_mtime_only_touch_does_not_revalidate(self, tmp_path):
        dtd = self._corpus_dir(tmp_path)
        with ShardedCorpusValidator(dtd, shards=1) as sv:
            session = WatchSession(sv, [tmp_path])
            session.poll()
            os.utime(tmp_path / "doc01.xml")  # stat moves, bytes don't
            assert session.poll() is None

    def test_edit_updates_cross_document_fold(self, tmp_path):
        """An edit introducing a cross-shard duplicate ID flips the
        corpus verdict on the next wake-up, while the edited document
        itself stays per-document valid."""
        dtd = self._corpus_dir(tmp_path)
        with ShardedCorpusValidator(dtd, shards=2,
                                    cache=ResultCache()) as sv:
            session = WatchSession(sv, [tmp_path])
            first = session.poll()
            assert first.report.corpus_ok
            target = tmp_path / "doc02.xml"
            target.write_text(
                '<registry><person pid="p-0-0"/>'
                '<person pid="p-2-x"/><mention who="p-2-x"/>'
                "</registry>")
            delta = session.poll()
        assert delta.changed == [str(target)]
        assert delta.report.ok  # the edited document is valid alone
        assert not delta.report.corpus_ok
        (clash,) = delta.report.corpus_violations
        assert clash.code == "id-clash" and "p-0-0" in clash.message

    def test_new_and_removed_files(self, tmp_path):
        dtd = self._corpus_dir(tmp_path, n_docs=3)
        with ShardedCorpusValidator(dtd, shards=1) as sv:
            session = WatchSession(sv, [tmp_path])
            session.poll()
            extra = tmp_path / "extra.xml"
            extra.write_text(
                "<registry><person pid='px'/></registry>")
            delta = session.poll()
            assert delta.changed == [str(extra)]
            extra.unlink()
            delta = session.poll()
            assert delta.removed == [str(extra)]
            assert delta.changed == []

    def test_aggregate_cache_keeps_only_the_folded_keys(self, tmp_path):
        """Editing one file of three, five times over, leaves the
        aggregates of the three current contents and no older one, and
        each wake-up still ships only the edited file."""
        dtd = self._corpus_dir(tmp_path, n_docs=3)
        target = tmp_path / "doc01.xml"
        with ShardedCorpusValidator(dtd, shards=2,
                                    cache=ResultCache()) as sv:
            session = WatchSession(sv, [tmp_path])
            session.poll()
            for n in range(1, 6):
                # a new size each time: the stat moves whatever the
                # filesystem's mtime granularity
                target.write_text(
                    f'<registry><person pid="{"e" * n}"/></registry>')
                delta = session.poll()
                assert delta.changed == [str(target)]
                assert sum(delta.report.shard_sizes.values()) == 1
            assert len(sv._agg_cache) == 3

    def test_run_max_cycles(self, tmp_path):
        dtd = self._corpus_dir(tmp_path, n_docs=2)
        seen = []
        with ShardedCorpusValidator(dtd, shards=1) as sv:
            session = WatchSession(sv, [tmp_path])
            last = session.run(interval=0.0, max_cycles=3,
                               on_delta=seen.append,
                               sleep=lambda _s: None)
        assert session.cycle == 3
        assert len(seen) == 1 and last is seen[0]


# -- schema round-trip guard ------------------------------------------------


class TestSchemaRoundTrip:
    def test_unsorted_composite_key_is_refused(self):
        """``Key.__str__`` prints fields sorted; a schema whose stored
        field order differs would make node-side violation messages
        drift from the serial baseline.  The coordinator refuses it
        up front instead of silently breaking parity."""
        from repro.dtd.dtdc import DTDC
        from repro.dtd.structure import DTDStructure

        s = DTDStructure("library")
        s.define_element("library", "(entry*)")
        s.define_element("entry", "EMPTY")
        s.define_attribute("entry", "isbn")
        s.define_attribute("entry", "aisle")
        s.check()
        dtd = DTDC(s, [Key("entry", (Field("isbn"), Field("aisle")))])
        validator = ShardedCorpusValidator(dtd, shards=2)
        with pytest.raises(ReproError, match="serialization"):
            validator.validate([("d0", "<library/>")])

    def test_sorted_composite_key_is_accepted(self):
        from repro.dtd.dtdc import DTDC
        from repro.dtd.structure import DTDStructure

        s = DTDStructure("library")
        s.define_element("library", "(entry*)")
        s.define_element("entry", "EMPTY")
        s.define_attribute("entry", "isbn")
        s.define_attribute("entry", "aisle")
        s.check()
        dtd = DTDC(s, [Key("entry", (Field("aisle"), Field("isbn")))])
        with ShardedCorpusValidator(dtd, shards=2) as sv:
            report = sv.validate([("d0", "<library/>")])
        assert report.ok
