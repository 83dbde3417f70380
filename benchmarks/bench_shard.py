"""E24: sharded multi-node corpus validation and the incremental watch.

Paper artifact: Definition 2.4 decides validity one document at a time,
so per-document work distributes freely — but the ``L_id`` classes of
Section 4 quantify over *every* document in scope, so a shard cannot
answer them alone.  The experiment exercises both halves of that split:

- **byte-identity** — a :class:`~repro.shard.ShardedCorpusValidator`
  over real ``repro-xic serve --stdio`` subprocess nodes produces
  ``verdicts_json()`` byte-identical to a serial
  ``CorpusValidator(jobs=1)`` pass, while the cross-document ``L_id``
  findings fold at the coordinator;
- **merge aggregates over real pipes** — on a federated corpus
  (cross-document duplicates, cross-document references, ghost
  references) the node-exported aggregates fold to the same
  ``corpus_violations`` and ``merge_stats`` as ``fold_aggregates``
  over ``extract_aggregates`` of the parsed documents (asserted,
  including in ``--smoke``);
- **incremental watch** — after a cold full pass, editing one file of a
  50-document corpus revalidates exactly that one document (asserted on
  the ``watch_files_revalidated`` counter) and the wake-up completes
  >= 10x faster than the cold pass (asserted, including in ``--smoke``).

Run styles::

    python -m pytest benchmarks/bench_shard.py -q   # shape assertions
    python benchmarks/bench_shard.py --smoke        # CI one-shot
    python benchmarks/bench_shard.py                # timing report
"""

import os
import tempfile
import time

from repro.corpus import CorpusValidator, ResultCache
from repro.obs import Observability
from repro.shard import (
    LocalNode,
    ShardedCorpusValidator,
    SubprocessNode,
    WatchSession,
    extract_aggregates,
    fold_aggregates,
)
from repro.workloads.generators import federated_corpus, random_corpus
from repro.xmlio import parse_document, serialize

#: Watch-corpus size: big enough that one revalidation out of N is a
#: visibly sublinear wake-up, small enough for a CI smoke step.
WATCH_DOCS = 50


def _corpus_texts(n_docs: int, seed: int = 0):
    dtd, docs = random_corpus(n_docs=n_docs, invalid_fraction=0.2,
                              seed=seed)
    return dtd, [(f"doc-{i:04d}", serialize(doc))
                 for i, doc in enumerate(docs)]


def _corpus_files(directory, n_docs: int, seed: int = 0):
    """The watch corpus on disk: one ``doc-NNNN.xml`` per document."""
    dtd, texts = _corpus_texts(n_docs, seed=seed)
    for doc_id, text in texts:
        with open(os.path.join(directory, f"{doc_id}.xml"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    return dtd, texts


def _federated_texts(n_docs: int, seed: int = 0):
    """A registry corpus with all three cross-document phenomena."""
    dtd, trees = federated_corpus(n_docs=n_docs, cross_dup_fraction=0.3,
                                  cross_ref_fraction=0.3,
                                  dangling_fraction=0.2, seed=seed)
    return dtd, [(f"reg-{i:04d}", serialize(t))
                 for i, t in enumerate(trees)]


def _findings(report):
    return ([v.to_dict() for v in report.corpus_violations],
            report.merge_stats)


def _serial_fold(dtd, texts):
    """The corpus findings folded from each parsed document's
    ``extract_aggregates`` — what the node exports must reproduce."""
    violations, stats = fold_aggregates(dtd, [
        (doc_id, extract_aggregates(dtd,
                                    parse_document(text, dtd.structure)))
        for doc_id, text in texts])
    return [v.to_dict() for v in violations], stats


def _timed(f):
    t0 = time.perf_counter()
    result = f()
    return result, time.perf_counter() - t0


def _revalidated(obs) -> int:
    return sum(m["value"] for m in obs.metrics.to_dicts()
               if m["name"] == "watch_files_revalidated")


# -- byte-identity over real subprocess nodes ------------------------------


def test_e24_subprocess_parity():
    """Sharding across ``serve --stdio`` worker processes is
    unobservable in the per-document verdicts."""
    dtd, texts = _corpus_texts(n_docs=24)
    serial = CorpusValidator(dtd, jobs=1).validate(texts)
    with ShardedCorpusValidator(dtd, shards=2,
                                node_factory=SubprocessNode) as sv:
        sharded = sv.validate(texts)
    assert sharded.verdicts_json() == serial.verdicts_json()
    assert serial.n_invalid > 0  # the corpus must exercise violations
    assert sharded.corpus_violations == []  # Σ here is all shard-local


def test_e24_merge_findings_cross_subprocess_shards():
    """Cross-document duplicate IDs split across worker processes still
    surface — once — in the coordinator's merge fold."""
    dtd, trees = federated_corpus(n_docs=6, cross_dup_fraction=0.5,
                                  seed=3)
    docs = [(f"doc-{i}", serialize(t)) for i, t in enumerate(trees)]
    assert CorpusValidator(dtd, jobs=1).validate(docs).ok
    with ShardedCorpusValidator(dtd, shards=3,
                                node_factory=SubprocessNode) as sv:
        report = sv.validate(docs)
    assert report.ok and not report.corpus_ok
    assert [v.code for v in report.corpus_violations].count("id-clash") \
        == 1


def test_e24_federated_aggregates_cross_subprocess_pipes():
    """Merge aggregates exported by ``serve --stdio`` nodes fold to the
    same corpus findings as aggregates extracted from parsed trees."""
    dtd, texts = _federated_texts(n_docs=12, seed=5)
    with ShardedCorpusValidator(dtd, shards=2,
                                node_factory=SubprocessNode) as sv:
        report = sv.validate(texts)
    assert _findings(report) == _serial_fold(dtd, texts)
    codes = {v.code for v in report.corpus_violations}
    assert {"id-clash", "foreign-key"} <= codes
    assert report.merge_stats["refs_resolved_cross_document"] > 0


# -- the incremental watch -------------------------------------------------


def test_e24_watch_revalidates_exactly_one_file(tmp_path):
    """Acceptance: touching one file of a 50-document corpus costs one
    revalidation on the next wake-up, not fifty."""
    dtd, texts = _corpus_files(tmp_path, WATCH_DOCS)
    obs = Observability()
    with ShardedCorpusValidator(dtd, shards=2, cache=ResultCache(),
                                obs=obs) as sv:
        session = WatchSession(sv, [str(tmp_path)])
        cold = session.poll()
        assert cold is not None and len(cold.changed) == WATCH_DOCS
        assert session.poll() is None  # steady state: stat-only
        target = tmp_path / "doc-0000.xml"
        target.write_text(texts[1][1], encoding="utf-8")
        delta = session.poll()
        assert delta is not None
        assert delta.changed == [str(target)]
        assert len(delta.delta_verdicts) == 1
    assert _revalidated(obs) == WATCH_DOCS + 1


def test_e24_watch_incremental_speedup(tmp_path):
    """Acceptance: the one-file wake-up is >= 10x faster than the cold
    full pass over the same 50-document corpus."""
    dtd, texts = _corpus_files(tmp_path, WATCH_DOCS)
    with ShardedCorpusValidator(dtd, shards=2, cache=ResultCache(),
                                node_factory=LocalNode) as sv:
        session = WatchSession(sv, [str(tmp_path)])
        _cold_delta, cold = _timed(session.poll)
        (tmp_path / "doc-0000.xml").write_text(texts[1][1],
                                               encoding="utf-8")
        delta, warm = _timed(session.poll)
    assert delta is not None and len(delta.changed) == 1
    assert cold / max(warm, 1e-9) >= 10.0, (
        f"incremental wake-up only {cold / max(warm, 1e-9):.1f}x faster "
        f"({warm * 1e3:.1f}ms vs {cold * 1e3:.1f}ms)")


# -- standalone runner (CI smoke + timing report) --------------------------


def _report(n_docs: int, smoke: bool) -> int:
    dtd, texts = _corpus_texts(n_docs=n_docs)
    serial_rep, serial = _timed(
        lambda: CorpusValidator(dtd, jobs=1).validate(texts))
    with ShardedCorpusValidator(dtd, shards=2,
                                node_factory=SubprocessNode) as sv:
        sharded_rep, sharded = _timed(lambda: sv.validate(texts))
    identical = sharded_rep.verdicts_json() == serial_rep.verdicts_json()

    fdtd, ftexts = _federated_texts(n_docs=n_docs)
    with ShardedCorpusValidator(fdtd, shards=2,
                                node_factory=SubprocessNode) as fv:
        fed_rep, fed = _timed(lambda: fv.validate(ftexts))
    fold_equal = _findings(fed_rep) == _serial_fold(fdtd, ftexts)
    resolved = fed_rep.merge_stats.get("refs_resolved_cross_document", 0)
    crossing = bool(fed_rep.corpus_violations) and resolved > 0

    with tempfile.TemporaryDirectory() as watch_dir:
        wdtd, wtexts = _corpus_files(watch_dir, WATCH_DOCS)
        obs = Observability()
        with ShardedCorpusValidator(wdtd, shards=2, cache=ResultCache(),
                                    obs=obs,
                                    node_factory=SubprocessNode) as wv:
            session = WatchSession(wv, [watch_dir])
            _cold_delta, cold = _timed(session.poll)
            edited = os.path.join(watch_dir, "doc-0000.xml")
            with open(edited, "w", encoding="utf-8") as fh:
                fh.write(wtexts[1][1])
            delta, warm = _timed(session.poll)
    one_file = delta is not None and delta.changed == [edited] \
        and _revalidated(obs) == WATCH_DOCS + 1
    speedup = cold / max(warm, 1e-9)

    print(f"E24 corpus: {n_docs} docs, {serial_rep.n_invalid} invalid, "
          f"{os.cpu_count()} core(s), 2 subprocess shards")
    for name, seconds in [("serial jobs=1", serial),
                          ("sharded n=2", sharded),
                          ("federated sharded n=2", fed),
                          (f"watch cold ({WATCH_DOCS} docs)", cold),
                          ("watch edit 1", warm)]:
        print(f"  {name:<22} {seconds * 1e3:8.1f} ms")
    print(f"  verdicts byte-identical: {identical}")
    print(f"  federated findings equal the serial fold: {fold_equal} "
          f"({len(fed_rep.corpus_violations)} corpus findings, "
          f"{resolved} refs resolved cross-document)")
    print(f"  watch revalidated 1/{WATCH_DOCS}: {one_file}")
    print(f"  watch incremental speedup {speedup:8.1f} x (>= 10 required)")

    ok = identical and fold_equal and crossing and one_file \
        and speedup >= 10.0
    print("E24 smoke OK" if ok else "E24 FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(
        description="E24: sharded corpus validation + watch benchmark")
    cli.add_argument("--smoke", action="store_true",
                     help="CI mode: byte-identity and merge-fold "
                     "parity over subprocess nodes, one-file watch "
                     "revalidation, and the >= 10x incremental "
                     "assertion on a smaller corpus")
    cli.add_argument("--docs", type=int, default=200,
                     help="parity corpus size (default: 200)")
    args = cli.parse_args()
    raise SystemExit(_report(24 if args.smoke else args.docs,
                             args.smoke))
