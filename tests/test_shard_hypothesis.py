"""Property-based parity: sharded validation is indistinguishable from
serial validation, for every shard count and document ordering.

The contract under test is byte-identity: ``verdicts_json()`` of a
:class:`ShardedCorpusValidator` run must equal a serial
``CorpusValidator(jobs=1)`` run over the same input — across shard
counts {1, 2, 3, 7}, random document permutations, and random
invalid fractions — while the corpus-level ``L_id`` findings (which
serial runs cannot see at all) stay identical across shard layouts,
including the cross-shard duplicate-ID case that only the merge phase
can surface.

A second contract: the ``L_id`` merge aggregates a node exports — taken
from the run that produced each verdict, never from a second parse —
equal :func:`~repro.shard.aggregates.extract_aggregates` over the
parsed document, on every engine.

Nodes are in-process (:class:`LocalNode`) — hypothesis runs hundreds of
corpora, and the subprocess transport is covered by
``tests/test_shard.py`` and ``benchmarks/bench_shard.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusValidator
from repro.corpus.cache import schema_fingerprint
from repro.errors import ParseError
from repro.shard import LocalNode, ShardedCorpusValidator, \
    extract_aggregates
from repro.workloads import federated_corpus, random_corpus
from repro.xmlio import parse_document, serialize
from repro.xmlio.dtdparse import parse_dtdc, serialize_dtdc

SHARD_COUNTS = (1, 2, 3, 7)
ENGINES = ("batch", "codegen")

#: all four merge kinds: two ID constraints, a set-valued foreign key
#: into IDs, and an ID inverse
LID_SCHEMA = parse_dtdc("""
<!ELEMENT net (person*, mention*)>
<!ELEMENT person EMPTY>
<!ATTLIST person id ID #REQUIRED knows IDREFS #REQUIRED>
<!ELEMENT mention EMPTY>
<!ATTLIST mention id ID #REQUIRED who IDREFS #REQUIRED>
%% constraints
person.id ->id person
mention.id ->id mention
mention.who subS person.id
person.knows inv mention.who
""")

#: ID values shared by both element types (cross-type clashes), one
#: nobody owns, and a non-ASCII one (codegen's decoded-scanner path)
_VALUES = ("a", "b", "c", "ghost", "\u00fcber")
#: every drawn batch also carries these: non-ASCII, structurally
#: invalid (content model and a missing attribute), malformed
_FIXED = [
    ("non-ascii", '<net><person id="\u00fcber" knows="m\u00e9"/>'
                  '<mention id="m\u00e9" who="\u00fcber"/></net>'),
    ("invalid", '<net><mention id="m" who="p"/>'
                '<person id="p" knows="m"/><person knows="m"/></net>'),
    ("malformed", '<net><person id="p" knows=""></net>'),
]


def _element(label: str, own: str, refs, attr: str) -> str:
    return f'<{label} id="{own}" {attr}="{" ".join(sorted(refs))}"/>'


@st.composite
def lid_batches(draw):
    """(doc_id, xml) pairs over :data:`LID_SCHEMA` — ID clashes within
    and across element types, dangling and inverse-violating
    references — plus the :data:`_FIXED` documents."""
    values = st.sampled_from(_VALUES)
    refs = st.sets(values, max_size=3)
    docs = []
    for n in range(draw(st.integers(1, 4))):
        persons = draw(st.lists(st.tuples(values, refs), max_size=4))
        mentions = draw(st.lists(st.tuples(values, refs), max_size=4))
        body = "".join(_element("person", own, knows, "knows")
                       for own, knows in persons)
        body += "".join(_element("mention", own, who, "who")
                        for own, who in mentions)
        docs.append((f"drawn-{n}", f"<net>{body}</net>"))
    return docs + _FIXED


def _node_export(dtd, docs, engine: str) -> dict:
    """One ``check-shard`` round trip on an in-process node."""
    with LocalNode() as node:
        node.load_schema("s", serialize_dtdc(dtd), dtd.structure.root,
                         schema_fingerprint(dtd))
        return node.check_shard("s", docs, engine=engine)


def _assert_matches_oracle(dtd, docs) -> None:
    for engine in ENGINES:
        response = _node_export(dtd, docs, engine)
        exported = response["aggregates"]
        for (doc_id, text), verdict in zip(docs, response["verdicts"]):
            try:
                tree = parse_document(text, dtd.structure)
            except ParseError:
                assert verdict["error"] is not None, (engine, doc_id)
                assert doc_id not in exported, (engine, doc_id)
                continue
            assert exported[doc_id] == extract_aggregates(dtd, tree), \
                (engine, doc_id)

seeds = st.integers(0, 2**31 - 1)
fractions = st.sampled_from((0.0, 0.25, 0.5, 1.0))


def _docs(trees, order):
    return [(f"doc-{i}", serialize(trees[i])) for i in order]


@st.composite
def corpora(draw):
    """A random library corpus (all-local Σ) plus a permutation."""
    seed = draw(seeds)
    n_docs = draw(st.integers(2, 10))
    dtd, trees = random_corpus(n_docs=n_docs, doc_vertices=24,
                               invalid_fraction=draw(fractions),
                               seed=seed)
    order = draw(st.permutations(range(n_docs)))
    return dtd, _docs(trees, order)


@st.composite
def federations(draw):
    """A random registry corpus (all-merge Σ) plus a permutation —
    cross-document duplicates, cross-document references and ghost
    references drawn independently."""
    seed = draw(seeds)
    n_docs = draw(st.integers(2, 8))
    dtd, trees = federated_corpus(
        n_docs=n_docs, doc_vertices=16,
        cross_dup_fraction=draw(fractions),
        cross_ref_fraction=draw(fractions),
        dangling_fraction=draw(fractions), seed=seed)
    order = draw(st.permutations(range(n_docs)))
    return dtd, _docs(trees, order)


class TestShardedParity:
    @given(corpora())
    @settings(max_examples=25, deadline=None)
    def test_local_sigma_byte_identical(self, instance):
        dtd, docs = instance
        serial = CorpusValidator(dtd, jobs=1).validate(docs).verdicts_json()
        for shards in SHARD_COUNTS:
            with ShardedCorpusValidator(dtd, shards=shards) as sv:
                report = sv.validate(docs)
            assert report.verdicts_json() == serial, shards
            assert report.corpus_violations == [], shards

    @given(federations())
    @settings(max_examples=25, deadline=None)
    def test_lid_sigma_byte_identical_and_fold_stable(self, instance):
        dtd, docs = instance
        serial = CorpusValidator(dtd, jobs=1).validate(docs).verdicts_json()
        baseline = None
        for shards in SHARD_COUNTS:
            with ShardedCorpusValidator(dtd, shards=shards) as sv:
                report = sv.validate(docs)
            assert report.verdicts_json() == serial, shards
            snapshot = ([v.to_dict() for v in report.corpus_violations],
                        report.merge_stats)
            if baseline is None:
                baseline = snapshot
            else:
                # the fold is a pure function of (Σ, corpus order) —
                # the shard layout must be unobservable
                assert snapshot == baseline, shards

    @given(seeds, st.permutations(range(6)))
    @settings(max_examples=20, deadline=None)
    def test_cross_shard_duplicate_surfaces_only_at_merge(self, seed,
                                                          order):
        """Documents that are each valid alone but share an ID: every
        per-document verdict is clean (serial agrees), and the clash
        appears exactly once in the corpus findings — wherever the
        shard layout or document order puts the duplicates."""
        dtd, trees = federated_corpus(n_docs=6, doc_vertices=12,
                                      cross_dup_fraction=0.5, seed=seed)
        docs = _docs(trees, order)
        serial = CorpusValidator(dtd, jobs=1).validate(docs)
        assert serial.ok
        for shards in SHARD_COUNTS:
            with ShardedCorpusValidator(dtd, shards=shards) as sv:
                report = sv.validate(docs)
            assert report.verdicts_json() == serial.verdicts_json()
            assert report.ok and not report.corpus_ok, shards
            clashes = [v for v in report.corpus_violations
                       if v.code == "id-clash"]
            assert len(clashes) == 1, shards
            assert "p-0-0" in clashes[0].message


class TestNodeAggregatesOracle:
    """The exported aggregates equal ``extract_aggregates`` over the
    parsed document, for every engine a node can run."""

    @given(federations())
    @settings(max_examples=15, deadline=None)
    def test_federated_corpus(self, instance):
        dtd, docs = instance
        _assert_matches_oracle(dtd, docs)

    @given(lid_batches())
    @settings(max_examples=40, deadline=None)
    def test_all_four_merge_kinds(self, docs):
        _assert_matches_oracle(LID_SCHEMA, docs)

    def test_fixed_documents_take_every_path(self):
        """The fixed documents exercise what their names say: the
        invalid one yields violations, the malformed one an error
        verdict with no aggregates, the non-ASCII one exports."""
        response = _node_export(LID_SCHEMA, _FIXED, "codegen")
        verdicts = {v["doc"]: v for v in response["verdicts"]}
        assert verdicts["non-ascii"]["ok"]
        assert not verdicts["invalid"]["ok"]
        assert verdicts["invalid"]["error"] is None
        assert verdicts["malformed"]["error"] is not None
        assert set(response["aggregates"]) == {"non-ascii", "invalid"}
        assert set(response["aggregates"]["non-ascii"]) == \
            {"0", "1", "2", "3"}
