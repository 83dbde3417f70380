"""E19/E23: single-pass validation — throughput and memory.

Paper artifact: Definition 2.4 is decidable in one pass over the
document when ``DTD^C`` is compiled ahead of time — the content models
step as DFAs, the unary constraints of Σ fold over attribute values as
elements close.  The experiment checks the two payoffs of
:mod:`repro.stream` against the batch parse-then-validate pipeline:

- **throughput** — on the E18 corpus, streaming validation is at least
  as fast as ``parse_document`` + ``validate`` (it skips the tree), and
  byte-identical in verdicts;
- **memory** — peak allocation is *sublinear* in document size when the
  extra size is Σ-irrelevant (the stream drops those vertices at their
  close tag; the batch path keeps every one), and on a 10k-vertex
  document the streaming peak stays under half the batch peak;
- (reported, not asserted) the ``sys.intern`` of element/attribute
  names in the tokenizer, which both pipelines share.

**E23** adds the codegen engine on top: the schema-specialized module
from :mod:`repro.codegen` must stay byte-identical to the stream
interpreter on the same inputs, and its zero-copy bytes scanner must
clear a >= 5x throughput bar over the interpreter on the Σ-sparse feed
workload (measured ~20x on the reference machine).  A dense leg runs
pretty-printed ``random_corpus`` files of 60 and 2000 vertices, where
every element is Σ-relevant, through ``Validator.check(path,
engine="codegen")`` (the mmap path) and checks byte-identity with
batch; it sets no speed bar.

Run styles::

    python -m pytest benchmarks/bench_stream.py -q   # shape assertions
    python benchmarks/bench_stream.py --smoke        # CI one-shot
    python benchmarks/bench_stream.py                # timing report
"""

import gc
import os
import sys
import tempfile
import time
import tracemalloc

if __package__:
    from benchmarks.conftest import print_series
else:  # `python benchmarks/bench_stream.py` — repo root not on sys.path
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from benchmarks.conftest import print_series
from repro.dtd.validate import validate
from repro.stream import StreamValidator, compile_plan
from repro.workloads.generators import random_corpus
from repro.xmlio import serialize
from repro.xmlio.dtdparse import parse_dtdc
from repro.xmlio.parser import parse_document

FEED_SCHEMA = """
<!ELEMENT feed (item*, entry*, ref*)>
<!ELEMENT item (#PCDATA)?>
<!ELEMENT entry EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST entry sku CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
%% constraints
entry.sku -> entry
ref.to sub entry.sku
"""


def _corpus_texts(n_docs: int = 100, seed: int = 0):
    """The E18 corpus again, so E18/E19 numbers are comparable."""
    dtd, docs = random_corpus(n_docs=n_docs, invalid_fraction=0.2,
                              seed=seed)
    return dtd, [serialize(doc) for doc in docs]


def _feed_doc(n_items: int, n_keyed: int = 50) -> str:
    """A document whose bulk is Σ-irrelevant: ``n_items`` text-carrying
    ``item`` elements, then a fixed keyed/referencing tail."""
    parts = ["<feed>"]
    parts.extend(f"<item>payload number {i} {'x' * 24}</item>"
                 for i in range(n_items))
    parts.extend(f'<entry sku="e{i}"/>' for i in range(n_keyed))
    parts.extend(f'<ref to="e{i % (n_keyed + 5)}"/>'
                 for i in range(n_keyed))
    parts.append("</feed>")
    return "".join(parts)


def _best_of(f, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_bytes(f) -> int:
    """Peak traced allocation of one call (inputs built beforehand, so
    the document text itself is outside the measurement)."""
    gc.collect()
    tracemalloc.start()
    try:
        f()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# -- equivalence + throughput ----------------------------------------------


def test_e19_streaming_matches_batch_on_corpus():
    dtd, texts = _corpus_texts(n_docs=40)
    sv = StreamValidator(compile_plan(dtd))
    for text in texts:
        batch = validate(parse_document(text, dtd.structure), dtd)
        assert sv.validate_text(text).to_json() == batch.to_json()


def test_e19_throughput_at_least_batch():
    """Acceptance: one streaming pass is >= 1.0x the batch pipeline on
    the E18 corpus (same documents, same schema, best of 3)."""
    dtd, texts = _corpus_texts(n_docs=100)
    sv = StreamValidator(compile_plan(dtd))

    def run_batch():
        for text in texts:
            validate(parse_document(text, dtd.structure), dtd)

    def run_stream():
        for text in texts:
            sv.validate_text(text)

    run_batch(), run_stream()  # warm parser/DFA caches for both sides
    batch = _best_of(run_batch)
    stream = _best_of(run_stream)
    print_series("E19: batch vs stream, 100 docs",
                 [(1, batch), (2, stream)], header="(1=batch, 2=stream)")
    assert batch / stream >= 1.0, (
        f"streaming is {batch / stream:.2f}x batch "
        f"({stream * 1e3:.1f}ms vs {batch * 1e3:.1f}ms)")


# -- E23: the codegen engine -----------------------------------------------


def test_e23_codegen_matches_stream_on_corpus():
    """Acceptance: the generated validator is byte-identical to the
    stream interpreter on the E18 corpus (both scanners)."""
    from repro.codegen import CodegenValidator
    from repro.server.registry import as_handle

    dtd, texts = _corpus_texts(n_docs=40)
    handle = as_handle(dtd)
    cg = CodegenValidator(handle)
    sv = StreamValidator(handle.plan)
    for text in texts:
        expected = sv.validate_text(text).to_json()
        assert cg.validate_text(text).to_json() == expected
        assert cg.validate_bytes(
            text.encode("utf-8")).to_json() == expected


def _dense_mismatches(directory: str) -> tuple[int, int]:
    """Pretty-printed ``random_corpus`` library files of 60 and 2000
    vertices (half of them with one violation), written to
    ``directory``: (files, codegen-over-mmap reports differing from
    batch)."""
    from repro import Validator

    files = mismatches = 0
    for n_vertices, n_docs in ((60, 40), (2000, 4)):
        dtd, docs = random_corpus(n_docs=n_docs, doc_vertices=n_vertices,
                                  invalid_fraction=0.5, seed=n_vertices)
        v = Validator(dtd)
        for k, doc in enumerate(docs):
            text = serialize(doc)
            path = os.path.join(directory, f"dense-{n_vertices}-{k}.xml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files += 1
            mismatches += v.check(path, engine="codegen").to_json() \
                != validate(parse_document(text, dtd.structure),
                            dtd).to_json()
    return files, mismatches


def test_e23_codegen_dense_files_match_batch(tmp_path):
    """Acceptance: on constraint-dense files, more Σ-relevant elements
    than one constraint-feed batch included, the mmap path is
    byte-identical to batch."""
    files, mismatches = _dense_mismatches(str(tmp_path))
    assert files and mismatches == 0


def test_e23_codegen_throughput_at_least_5x_stream():
    """Acceptance: on the Σ-sparse feed document the zero-copy codegen
    scan is >= 5x the stream interpreter (best of 3)."""
    from repro.codegen import CodegenValidator
    from repro.server.registry import as_handle

    handle = as_handle(parse_dtdc(FEED_SCHEMA))
    cg = CodegenValidator(handle)
    sv = StreamValidator(handle.plan)
    text = _feed_doc(8_000)
    data = text.encode("utf-8")
    assert cg.validate_bytes(data).to_json() \
        == sv.validate_text(text).to_json()
    stream = _best_of(lambda: sv.validate_text(text))
    codegen = _best_of(lambda: cg.validate_bytes(data))
    print_series("E23: stream vs codegen, 8k-item feed",
                 [(1, stream), (2, codegen)],
                 header="(1=stream, 2=codegen)")
    assert stream / codegen >= 5.0, (
        f"codegen is only {stream / codegen:.2f}x stream "
        f"({codegen * 1e3:.1f}ms vs {stream * 1e3:.1f}ms)")


# -- memory ----------------------------------------------------------------


def test_e19_peak_memory_sublinear():
    """Acceptance: 8x more Σ-irrelevant content costs < 4x the peak —
    the stream retains O(depth + Σ-relevant) state, not the document."""
    dtd = parse_dtdc(FEED_SCHEMA)
    sv = StreamValidator(compile_plan(dtd))
    small = _feed_doc(1_000)
    large = _feed_doc(8_000)
    sv.validate_text(small)  # warm DFA/evaluator caches outside the trace
    peak_small = _peak_bytes(lambda: sv.validate_text(small))
    peak_large = _peak_bytes(lambda: sv.validate_text(large))
    print(f"E19 peak: {peak_small} B @1k items, "
          f"{peak_large} B @8k items")
    assert peak_large < 4 * peak_small, (
        f"peak grew {peak_large / peak_small:.1f}x for 8x the document")


def test_e19_streaming_peak_under_half_of_batch():
    """Acceptance: on a ~10k-vertex document the streaming peak is
    under half the batch (parse + validate) peak."""
    dtd = parse_dtdc(FEED_SCHEMA)
    sv = StreamValidator(compile_plan(dtd))
    text = _feed_doc(10_000)
    sv.validate_text(text)
    validate(parse_document(text, dtd.structure), dtd)
    stream_peak = _peak_bytes(lambda: sv.validate_text(text))
    batch_peak = _peak_bytes(
        lambda: validate(parse_document(text, dtd.structure), dtd))
    print(f"E19 10k-vertex peak: stream {stream_peak} B, "
          f"batch {batch_peak} B")
    assert stream_peak < 0.5 * batch_peak, (
        f"stream peak {stream_peak} B is "
        f"{stream_peak / batch_peak:.2f}x the batch peak {batch_peak} B")


# -- standalone runner (CI smoke + timing report) --------------------------


def _interning_delta(n: int = 20_000) -> tuple[int, int]:
    """(distinct label objects, total label tokens) across one parse —
    the ``sys.intern`` satellite makes the first number O(|element
    types|) instead of O(n)."""
    from repro.xmlio.tokenizer import Tokenizer

    text = "<feed>" + "<item>x</item>" * n + "</feed>"
    ids = set()
    total = 0
    for token in Tokenizer(text).tokens():
        if token.kind in ("start", "empty", "end"):
            ids.add(id(token.value))
            total += 1
    return len(ids), total


def _report(n_docs: int, smoke: bool) -> int:
    from repro.codegen import CodegenValidator
    from repro.server.registry import as_handle

    dtd, texts = _corpus_texts(n_docs=n_docs)
    sv = StreamValidator(compile_plan(dtd))
    cg = CodegenValidator(as_handle(dtd))

    mismatches = sum(
        sv.validate_text(t).to_json()
        != validate(parse_document(t, dtd.structure), dtd).to_json()
        for t in texts)
    cg_mismatches = sum(
        cg.validate_bytes(t.encode("utf-8")).to_json()
        != sv.validate_text(t).to_json()
        for t in texts)

    batch = _best_of(lambda: [
        validate(parse_document(t, dtd.structure), dtd) for t in texts])
    stream = _best_of(lambda: [sv.validate_text(t) for t in texts])

    feed = as_handle(parse_dtdc(FEED_SCHEMA))
    fsv = StreamValidator(feed.plan)
    fcg = CodegenValidator(feed)
    text_10k = _feed_doc(10_000)
    data_10k = text_10k.encode("utf-8")
    fsv.validate_text(text_10k)
    validate(parse_document(text_10k, feed.dtd.structure), feed.dtd)
    stream_peak = _peak_bytes(lambda: fsv.validate_text(text_10k))
    batch_peak = _peak_bytes(
        lambda: validate(parse_document(text_10k, feed.dtd.structure),
                         feed.dtd))
    feed_equal = fcg.validate_bytes(data_10k).to_json() \
        == fsv.validate_text(text_10k).to_json()
    feed_stream = _best_of(lambda: fsv.validate_text(text_10k))
    feed_codegen = _best_of(lambda: fcg.validate_bytes(data_10k))
    speedup = feed_stream / feed_codegen

    distinct, total = _interning_delta()
    with tempfile.TemporaryDirectory() as directory:
        dense_files, dense_mismatches = _dense_mismatches(directory)

    print(f"E19 stream: {n_docs} docs, {os.cpu_count()} core(s)")
    print(f"  batch  jobs=1 {batch * 1e3:8.1f} ms")
    print(f"  stream jobs=1 {stream * 1e3:8.1f} ms")
    print(f"  throughput    {batch / stream:8.2f} x batch")
    print(f"  10k-vertex peak: stream {stream_peak:>10} B, "
          f"batch {batch_peak:>10} B "
          f"({stream_peak / batch_peak:.2f}x)")
    print(f"  interned labels: {distinct} distinct objects over "
          f"{total} name tokens")
    print(f"E23 codegen: 10k-item feed, stream {feed_stream * 1e3:.1f} "
          f"ms vs codegen {feed_codegen * 1e3:.1f} ms "
          f"({speedup:.1f}x)")
    print(f"E23 dense: {dense_files} library files (60 and 2000 "
          f"vertices) via mmap, {dense_mismatches} codegen/batch "
          "mismatch(es)")

    ok = (mismatches == 0 and cg_mismatches == 0 and feed_equal
          and dense_mismatches == 0
          and stream_peak < 0.5 * batch_peak and speedup >= 5.0)
    if not smoke:
        ok = ok and batch / stream >= 1.0
    print("E19/E23 smoke OK" if ok else "E19/E23 FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(
        description="E19: streaming single-pass validation benchmark")
    cli.add_argument("--smoke", action="store_true",
                     help="CI mode: byte-identity (sparse feed, corpus "
                     "and dense files) + the peak-memory guard, no "
                     "batch/stream throughput threshold")
    cli.add_argument("--docs", type=int, default=100,
                     help="corpus size (default: 100)")
    args = cli.parse_args()
    raise SystemExit(_report(args.docs, args.smoke))
