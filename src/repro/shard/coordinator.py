"""The sharded corpus coordinator.

:class:`ShardedCorpusValidator` partitions a corpus by content hash
across N validator nodes, each speaking the serve protocol
(:mod:`repro.shard.node`).  The run is a three-phase pipeline, each
under its own span:

``shard.partition``
    Normalize documents and resolve their result keys exactly like
    :class:`CorpusValidator` (the shared
    :func:`~repro.corpus.validator.normalize_docs` and
    :func:`~repro.corpus.validator.prepare_entries`; every path is read
    and decoded, because the wire carries text), answer what the
    coordinator's caches already know, and assign every still-pending
    document to ``shard_of(content) % shards`` — a pure function of
    content, so the layout is stable under document reordering.

``shard.validate``
    Ship each shard's batch to its node (``check-shard``).  A node runs
    the corpus worker's per-document loop (:mod:`repro.corpus.worker`),
    so per-document verdicts keep its exact semantics; it also exports
    per-document merge aggregates for every ``L_id`` constraint
    (:mod:`repro.shard.aggregates`), taken from the same run that
    produced each verdict, so a node validates every document once.

``shard.merge``
    Reassemble verdicts into corpus order and write them through the
    result cache with :class:`CorpusValidator`'s own
    :func:`~repro.corpus.validator.to_verdict`, absorb each node's
    metrics into the coordinator's :class:`~repro.obs.Observability`,
    and fold the aggregates (corpus order, never shard order) into
    corpus-level findings.  The coordinator's result cache is the only
    one a sharded run consults.

The parity contract: ``report.verdicts_json()`` is byte-identical to a
serial ``CorpusValidator(jobs=1)`` run over the same input, for every
shard count and node assignment.  Cross-document findings — which only
the merge phase can see — live on the separate
:attr:`ShardReport.corpus_violations` list, keeping the per-document
surface untouched.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Iterable, Optional

from repro.corpus.cache import ResultCache, schema_fingerprint
from repro.corpus.report import CorpusReport, DocumentVerdict
from repro.corpus.validator import CorpusDoc, normalize_docs, \
    prepare_entries, resolve_jobs, to_verdict
from repro.errors import ReproError
from repro.obs import NULL_OBS
from repro.server.registry import as_handle
from repro.shard.aggregates import CorpusViolation, fold_aggregates
from repro.shard.locality import Locality, classify_sigma
from repro.shard.node import LocalNode, ShardNode
from repro.xmlio.dtdparse import parse_dtdc, serialize_dtdc
from repro.xmlio import encode_document

__all__ = ["ShardReport", "ShardedCorpusValidator", "shard_of"]


def shard_of(data: bytes, shards: int) -> int:
    """The shard owning a document, from its content bytes alone.

    Content-hash assignment makes the partition a pure function of the
    document — independent of corpus order, arrival order, and the
    number of *other* documents — which is what lets the parity suite
    permute corpora freely.
    """
    return int.from_bytes(hashlib.sha256(data).digest()[:8],
                          "big") % shards


class ShardReport(CorpusReport):
    """A :class:`CorpusReport` plus the merge phase's corpus-level view.

    Everything per-document is inherited unchanged — in particular
    :meth:`verdicts_json`, the byte-identity surface.  The additions:

    - :attr:`corpus_violations` — cross-document findings from the
      ``L_id`` fold (empty when Σ has no merge-class constraints);
    - :attr:`merge_stats` — e.g. how many locally-dangling references
      another document's IDs resolved;
    - :attr:`shards` / :attr:`shard_sizes` — the layout the run used.
    """

    def __init__(self, verdicts, shards: int = 1,
                 corpus_violations: "list[CorpusViolation] | None" = None,
                 merge_stats: "dict | None" = None,
                 shard_sizes: "dict[int, int] | None" = None, **kw):
        super().__init__(verdicts, **kw)
        self.shards = shards
        self.corpus_violations: list[CorpusViolation] = \
            list(corpus_violations or [])
        self.merge_stats: dict = dict(merge_stats or {})
        #: pending documents shipped per shard index
        self.shard_sizes: dict[int, int] = dict(shard_sizes or {})

    @property
    def corpus_ok(self) -> bool:
        """Clean per-document *and* clean across documents."""
        return self.ok and not self.corpus_violations

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["shards"] = self.shards
        out["shard_sizes"] = {str(s): n
                              for s, n in sorted(self.shard_sizes.items())}
        out["corpus_ok"] = self.corpus_ok
        out["corpus_violations"] = [v.to_dict()
                                    for v in self.corpus_violations]
        out["merge"] = self.merge_stats
        return out

    def __str__(self) -> str:
        lines = [super().__str__(),
                 f"shards: {self.shards}"]
        if self.corpus_violations:
            lines.append(f"corpus-level findings: "
                         f"{len(self.corpus_violations)}")
            lines.extend(f"  - {v}" for v in self.corpus_violations)
        resolved = self.merge_stats.get("refs_resolved_cross_document")
        if resolved:
            lines.append(
                f"references resolved cross-document: {resolved}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<ShardReport docs={len(self.verdicts)} "
                f"shards={self.shards} "
                f"corpus_violations={len(self.corpus_violations)}>")


class ShardedCorpusValidator:
    """Validate a corpus across ``shards`` validator nodes.

    ``shards=0`` means auto (one node per CPU).  ``node_factory`` builds
    one :class:`~repro.shard.node.ShardNode` per shard from its name;
    the default is in-process :class:`LocalNode` — pass
    ``node_factory=SubprocessNode`` for real ``serve --stdio`` worker
    processes (what ``repro-xic check-corpus --shards`` does).

    Nodes are started lazily on the first :meth:`validate` call and
    reused across calls (watch mode polls through one warm fleet);
    :meth:`close` — or the context-manager exit — shuts them down.
    """

    def __init__(self, dtd: "DTDC | SchemaHandle", shards: int = 1,
                 cache: "ResultCache | str | None" = None,
                 obs=None, engine: Optional[str] = None,
                 node_factory: "Callable[[str], ShardNode] | None" = None):
        try:
            self.handle = as_handle(dtd)
        except TypeError:
            raise TypeError(
                f"ShardedCorpusValidator needs a DTDC or SchemaHandle, "
                f"got {type(dtd)!r}") from None
        self.shards = resolve_jobs(shards, flag="shards")
        self.dtd = self.handle.dtd
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(directory=cache)
        self.obs = obs or NULL_OBS
        #: per-document engine the nodes run ("auto" runs as codegen)
        self.engine = engine or "auto"
        self.node_factory = node_factory or LocalNode
        #: the name every node loads the schema under
        self.schema_name = f"shard:{self.handle.fingerprint[:12]}"
        self.fingerprint = self.handle.fingerprint
        self._merge_positions = classify_sigma(self.dtd)[Locality.MERGE]
        #: result_key -> this document's merge aggregates, for the keys
        #: the most recent run folded (watch mode revalidates one file;
        #: everyone else's aggregates come from here instead of a
        #: re-ship)
        self._agg_cache: dict[str, dict] = {}
        self._nodes: "list[ShardNode] | None" = None
        self._schema_text: Optional[str] = None

    # -- node fleet ---------------------------------------------------

    def _shippable_schema(self) -> str:
        """The ``DTD^C`` text shipped to every node, round-trip
        verified *before* first use.

        ``serialize_dtdc`` canonicalizes some spellings (e.g. composite
        key fields print sorted), so a schema whose constraint objects
        do not survive ``parse(serialize(..))`` unchanged could make
        nodes emit differently-worded violations than the coordinator's
        serial baseline.  Refusing up front turns a silent parity break
        into a clear error.
        """
        if self._schema_text is None:
            text = serialize_dtdc(self.dtd)
            echo = parse_dtdc(text, root=self.dtd.structure.root)
            if tuple(echo.constraints) != tuple(self.dtd.constraints):
                raise ReproError(
                    "schema does not survive serialization: Σ re-parses "
                    "to different constraint objects (e.g. a composite "
                    "key whose field order differs from its canonical "
                    "sorted spelling) — sharded validation cannot "
                    "guarantee verdict parity for this schema")
            if schema_fingerprint(echo) != self.fingerprint:
                raise ReproError(
                    "schema does not survive serialization: fingerprint "
                    "changed across the serialize/parse round-trip — "
                    "sharded validation would cache under a different "
                    "key than serial runs")
            self._schema_text = text
        return self._schema_text

    def _ensure_nodes(self) -> "list[ShardNode]":
        if self._nodes is None:
            text = self._shippable_schema()
            nodes: list[ShardNode] = []
            try:
                for s in range(self.shards):
                    node = self.node_factory(f"shard-{s}")
                    nodes.append(node)
                    node.load_schema(self.schema_name, text,
                                     self.dtd.structure.root,
                                     self.fingerprint)
            except BaseException:
                for node in nodes:
                    node.close()
                raise
            self._nodes = nodes
        return self._nodes

    def close(self) -> None:
        """Shut the node fleet down (idempotent)."""
        if self._nodes is not None:
            for node in self._nodes:
                node.close()
            self._nodes = None

    def __enter__(self) -> "ShardedCorpusValidator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the run ------------------------------------------------------

    def validate(self, docs: Iterable[CorpusDoc]) -> ShardReport:
        """Validate the corpus; verdicts come back in input order and
        are byte-identical (``verdicts_json``) to a serial
        ``CorpusValidator(jobs=1)`` run over the same input."""
        with self.obs.span("shard.run", shards=self.shards):
            return self._run(docs)

    def _run(self, docs: Iterable[CorpusDoc]) -> ShardReport:
        phases: dict[str, float] = {}
        t_start = time.perf_counter()
        obs = self.obs
        # -- partition ------------------------------------------------
        t0 = time.perf_counter()
        with obs.span("shard.partition"):
            entries = normalize_docs(docs)
            keys = prepare_entries(entries, self.fingerprint,
                                   decode=True, key_paths=True)
            need_aggs = bool(self._merge_positions)
            verdicts: list[Optional[DocumentVerdict]] = \
                [None] * len(entries)
            pending: list[int] = []
            for i, (doc_id, kind, value) in enumerate(entries):
                if kind == "error":
                    verdicts[i] = DocumentVerdict(doc_id, keys[i], False,
                                                  error=value)
                    continue
                cached = self.cache.get(keys[i]) \
                    if self.cache is not None else None
                if cached is not None and (
                        not need_aggs or keys[i] in self._agg_cache):
                    verdicts[i] = DocumentVerdict(
                        doc_id, keys[i], cached.ok,
                        list(cached.violations), cached=True)
                else:
                    pending.append(i)

            by_shard: dict[int, list[int]] = {}
            for i in pending:
                s = shard_of(encode_document(entries[i][2]), self.shards)
                by_shard.setdefault(s, []).append(i)
        phases["partition"] = time.perf_counter() - t0

        # -- validate (one batch per shard, on its node) --------------
        t0 = time.perf_counter()
        with obs.span("shard.validate", shards=len(by_shard)):
            # a fully cache-answered pass (watch mode's steady state)
            # never even wakes the node fleet
            nodes = self._ensure_nodes() if by_shard else []
            responses: dict[int, dict] = {}
            for s in sorted(by_shard):
                pairs = [(entries[i][0], entries[i][2])
                         for i in by_shard[s]]
                try:
                    responses[s] = nodes[s].check_shard(
                        self.schema_name, pairs, engine=self.engine)
                except ReproError as exc:
                    raise ReproError(
                        f"shard {s} failed on its {len(pairs)} "
                        f"document(s) ({', '.join(d for d, _ in pairs)})"
                        f": {exc}") from exc
        phases["validate"] = time.perf_counter() - t0

        # -- merge ----------------------------------------------------
        t0 = time.perf_counter()
        with obs.span("shard.merge"):
            for s in sorted(responses):
                response = responses[s]
                obs.absorb({"metrics": response.get("metrics", [])})
                node_aggs = response.get("aggregates", {})
                shard_verdicts = response["verdicts"]
                indices = by_shard[s]
                if len(shard_verdicts) != len(indices):
                    raise ReproError(
                        f"shard {s} returned {len(shard_verdicts)} "
                        f"verdicts for {len(indices)} documents")
                for i, vd in zip(indices, shard_verdicts):
                    verdicts[i] = to_verdict(keys[i], vd, self.cache)
                    if need_aggs:
                        # missing doc_id == parse error: no aggregates,
                        # cached as {} so the corpus is refold-able from
                        # cache alone
                        self._agg_cache[keys[i]] = \
                            node_aggs.get(entries[i][0], {})

            done = [v for v in verdicts if v is not None]
            corpus_violations: list[CorpusViolation] = []
            merge_stats: dict = {}
            if need_aggs:
                # keep only what this run folded: an edited document's
                # old content is not held on to (it costs one re-ship
                # should that content come back)
                self._agg_cache = {k: self._agg_cache[k] for k in keys
                                   if k in self._agg_cache}
                doc_aggs = [(entries[i][0],
                             self._agg_cache.get(keys[i], {}))
                            for i in range(len(entries))]
                corpus_violations, merge_stats = \
                    fold_aggregates(self.dtd, doc_aggs)
        phases["merge"] = time.perf_counter() - t0
        phases["total"] = time.perf_counter() - t_start

        if obs.metrics.enabled:
            for s in sorted(by_shard):
                obs.counter("shard_docs_assigned",
                            labels={"shard": str(s)},
                            help="pending documents shipped to each "
                            "shard node").add(len(by_shard[s]))
            obs.counter("shard_corpus_violations",
                        help="corpus-level findings from the merge fold"
                        ).add(len(corpus_violations))
            obs.counter("shard_refs_resolved_cross_document",
                        help="references dangling locally but resolved "
                        "by another document's IDs"
                        ).add(merge_stats.get(
                            "refs_resolved_cross_document", 0))
        return ShardReport(
            done, shards=self.shards,
            corpus_violations=corpus_violations,
            merge_stats=merge_stats,
            shard_sizes={s: len(ix) for s, ix in by_shard.items()},
            jobs=self.shards, phases=phases,
            cache_stats=self.cache.stats()
            if self.cache is not None else None,
            obs=obs or None)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<ShardedCorpusValidator "
                f"root={self.dtd.structure.root!r} "
                f"shards={self.shards} "
                f"nodes={self.node_factory.__name__}>")
