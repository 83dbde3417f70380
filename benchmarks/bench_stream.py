"""E19/E23: single-pass validation — throughput and memory.

Paper artifact: Definition 2.4 is decidable in one pass over the
document when ``DTD^C`` is compiled ahead of time — the content models
step as DFAs, the unary constraints of Σ fold over attribute values as
elements close.  The experiment checks the two payoffs of the
single-pass engine (:mod:`repro.codegen`) against the batch
parse-then-validate pipeline, on each of the engine's three input
forms — text (``validate_text``), bytes (``validate_bytes``) and a
path (``validate_path``, mmapped):

- **throughput** — on the E18 corpus, one pass is at least as fast as
  ``parse_document`` + ``validate`` (it skips the tree), and
  byte-identical in verdicts;
- **memory** — peak allocation is *sublinear* in document size when the
  extra size is Σ-irrelevant (the scanner consumes runs of such
  elements in bounded regex matches and never retains them; the batch
  path keeps every one): 8x the items costs under 4x the peak, and on
  a 10k-item document the peak stays under half the batch peak;
- (reported, not asserted) the ``sys.intern`` of element/attribute
  names in the tokenizer the batch parser uses.

**E23** measures the schema-specialized scanner itself: on the Σ-sparse
feed its bytes scan must be at least 5x the shared
:class:`~repro.xmlio.tokenizer.Tokenizer`'s pass alone — a lower bound
on any validator that folds the tokenizer's events, such as the
streaming interpreter the engine replaced.  A dense leg runs
pretty-printed files of 60 and 2000 vertices, where every element is
Σ-relevant, through ``Validator.check(path, engine="codegen")`` (the
mmap path) and checks byte-identity with batch, on both sides of the
engine's constraint split: ``random_corpus`` library files, whose
``L``/``L_u`` Σ the constraint kernels check, ``federated_corpus``
registry files, whose ``L_id`` Σ the kernels check too, and club
files, whose Σ (a §3.4 sub-element key and an ID inverse) stays on
the evaluators; it sets no speed bar.  It checks by count that the
kernel-fed files take codegen's column runs: ``codegen_column_elements``
equals the number of non-root elements on every library and registry
file, and 0 on every club file.  On every feed document, in every input
form, it checks that both run kinds are taken: every ``item`` is counted
in ``codegen_skipped_elements`` and the whole keyed tail in
``codegen_column_elements``.

Run styles::

    python -m pytest benchmarks/bench_stream.py -q   # shape assertions
    python benchmarks/bench_stream.py --smoke        # CI one-shot
    python benchmarks/bench_stream.py                # timing report
"""

import gc
import os
import random
import sys
import tempfile
import time
import tracemalloc

import pytest

if __package__:
    from benchmarks.conftest import print_series
else:  # `python benchmarks/bench_stream.py` — repo root not on sys.path
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from benchmarks.conftest import print_series
from repro.codegen import CodegenValidator
from repro.datamodel import DataTree
from repro.dtd.validate import validate
from repro.obs import Observability
from repro.server.registry import as_handle
from repro.workloads.generators import federated_corpus, random_corpus
from repro.xmlio import serialize
from repro.xmlio.dtdparse import parse_dtdc
from repro.xmlio.parser import parse_document
from repro.xmlio.tokenizer import Tokenizer

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

#: the single-pass engine's input forms
FORMS = ("text", "bytes", "path")


def _corpus_texts(n_docs: int = 100, seed: int = 0):
    """The E18 corpus again, so E18/E19 numbers are comparable."""
    dtd, docs = random_corpus(n_docs=n_docs, invalid_fraction=0.2,
                              seed=seed)
    return dtd, [serialize(doc) for doc in docs]


#: the keyed tail of a feed document: this many ``entry`` and as many
#: ``ref`` elements
FEED_KEYED = 50


def _feed_doc(n_items: int, n_keyed: int = FEED_KEYED) -> str:
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


def _batch(dtd, text: str):
    return validate(parse_document(text, dtd.structure), dtd)


class _Inputs:
    """Documents in each input form: texts, their UTF-8 bytes, and
    files holding them."""

    def __init__(self, texts, directory: str):
        self.texts = list(texts)
        self.data = [t.encode("utf-8") for t in self.texts]
        self.paths = []
        for k, data in enumerate(self.data):
            path = os.path.join(directory, f"doc-{k}.xml")
            with open(path, "wb") as fh:
                fh.write(data)
            self.paths.append(path)

    def calls(self, cg: CodegenValidator, form: str):
        """One zero-argument call per document, validating it in
        ``form``."""
        if form == "text":
            return [lambda t=t: cg.validate_text(t) for t in self.texts]
        if form == "bytes":
            return [lambda d=d: cg.validate_bytes(d) for d in self.data]
        return [lambda p=p: cg.validate_path(p) for p in self.paths]


def _feed(directory: str, *n_items: int):
    """The feed schema's validator and one :class:`_Inputs` per size."""
    cg = CodegenValidator(as_handle(parse_dtdc(FEED_SCHEMA)))
    return cg, [_Inputs([_feed_doc(n)], os.path.join(directory, str(n)))
                for n in n_items]


def _feed_off_path(cg: CodegenValidator, sized) -> int:
    """How many of the feed documents ``sized`` (``(n_items, inputs)``
    pairs, one document per :class:`_Inputs`) leave either run kind in
    some input form: every ``item`` must take a run without columns
    (``codegen_skipped_elements == n_items``), and every ``entry`` and
    ``ref`` a run with columns (``codegen_column_elements`` is the
    whole keyed tail)."""
    off = 0
    for n_items, inputs in sized:
        for form in FORMS:
            obs = Observability()
            (call,) = inputs.calls(
                CodegenValidator(cg.compiled, obs=obs), form)
            call()
            off += (obs.metrics.total("codegen_skipped_elements"),
                    obs.metrics.total("codegen_column_elements")) \
                != (n_items, 2 * FEED_KEYED)
    return off


def _mkdirs(directory: str, *names) -> str:
    for name in names:
        os.makedirs(os.path.join(directory, str(name)), exist_ok=True)
    return directory


# -- equivalence + throughput ----------------------------------------------


def test_e19_single_pass_matches_batch_on_corpus(tmp_path):
    """Acceptance: every input form is byte-identical to batch on the
    E18 corpus."""
    dtd, texts = _corpus_texts(n_docs=40)
    cg = CodegenValidator(as_handle(dtd))
    inputs = _Inputs(texts, str(tmp_path))
    for form in FORMS:
        for text, call in zip(texts, inputs.calls(cg, form)):
            assert call().to_json() == _batch(dtd, text).to_json(), form


@pytest.mark.parametrize("form", FORMS)
def test_e19_throughput_at_least_batch(form, tmp_path):
    """Acceptance: one pass is >= 1.0x the batch pipeline on the E18
    corpus (same documents, same schema, best of 3)."""
    dtd, texts = _corpus_texts(n_docs=100)
    cg = CodegenValidator(as_handle(dtd))
    calls = _Inputs(texts, str(tmp_path)).calls(cg, form)

    def run_batch():
        for text in texts:
            _batch(dtd, text)

    def run_single_pass():
        for call in calls:
            call()

    run_batch(), run_single_pass()  # warm parser/DFA caches for both
    batch = _best_of(run_batch)
    single = _best_of(run_single_pass)
    print_series(f"E19: batch vs codegen ({form}), 100 docs",
                 [(1, batch), (2, single)], header="(1=batch, 2=codegen)")
    assert batch / single >= 1.0, (
        f"codegen ({form}) is {batch / single:.2f}x batch "
        f"({single * 1e3:.1f}ms vs {batch * 1e3:.1f}ms)")


# -- E23: the scanner ------------------------------------------------------


#: a Σ that stays on the evaluators: a §3.4 sub-element key and an ID
#: inverse (parsed unchecked: the ID constraints an inverse presupposes
#: would be kernels, so they are left out)
CLUB_SCHEMA = """
<!ELEMENT club (member*, team*)>
<!ELEMENT member (name)>
<!ATTLIST member mid ID #REQUIRED teams IDREFS #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT team EMPTY>
<!ATTLIST team tid ID #REQUIRED members IDREFS #REQUIRED>
%% constraints
member.<name> -> member
member.teams inv team.members
"""


def _club_corpus(n_docs: int, doc_vertices: int, seed: int):
    """``(dtd, docs)`` under :data:`CLUB_SCHEMA`: members (each with a
    ``name`` child) and the teams they belong to, listed on both sides;
    half the documents repeat a name and drop one back-reference."""
    dtd = parse_dtdc(CLUB_SCHEMA, check=False)
    rng = random.Random(seed)
    docs = []
    for d in range(n_docs):
        n_teams = max(2, doc_vertices // 10)
        n_members = max(2, (doc_vertices - 1 - n_teams) // 2)
        teams = {m: sorted(rng.sample(range(n_teams), rng.randint(0, 2)))
                 for m in range(n_members)}
        corrupt = d % 2 == 1
        tree = DataTree("club")
        for m in range(n_members):
            member = tree.create_under(tree.root, "member")
            member.set_attribute("mid", f"m{m}")
            member.set_attribute("teams", [f"t{t}" for t in teams[m]])
            name = tree.create_under(member, "name")
            name.append(f"n{m - 1 if corrupt and m == n_members - 1 else m}")
        dropped = corrupt
        for t in range(n_teams):
            names = [f"m{m}" for m in range(n_members) if t in teams[m]]
            if dropped and names:
                names, dropped = names[1:], False
            team = tree.create_under(tree.root, "team")
            team.set_attribute("tid", f"t{t}")
            team.set_attribute("members", names)
        docs.append(tree)
    return dtd, docs


def _dense_corpora():
    """(name, dtd, docs) of 60 and 2000 vertices per document, on both
    sides of codegen's constraint split: ``random_corpus`` library
    documents (half of them with one violation) and ``federated_corpus``
    registry documents (with cross-document and ghost references),
    whose ``L``/``L_u`` and ``L_id`` Σ the constraint kernels check, and
    :func:`_club_corpus` documents, whose Σ stays on the evaluators."""
    for n_vertices, n_docs in ((60, 40), (2000, 4)):
        yield ("dense", *random_corpus(
            n_docs=n_docs, doc_vertices=n_vertices, invalid_fraction=0.5,
            seed=n_vertices))
        yield ("registry", *federated_corpus(
            n_docs=n_docs, doc_vertices=n_vertices, cross_dup_fraction=0.3,
            cross_ref_fraction=0.5, dangling_fraction=0.5,
            seed=n_vertices))
        yield ("club", *_club_corpus(n_docs, n_vertices, seed=n_vertices))


def _dense_mismatches(directory: str) -> tuple[int, int, int]:
    """The pretty-printed :func:`_dense_corpora` files, written to
    ``directory``: (files, codegen-over-mmap reports differing from
    batch, files whose ``codegen_column_elements`` is not every
    non-root element on the kernel-fed corpora and 0 on club)."""
    from repro import Validator

    files = mismatches = off_path = 0
    for name, dtd, docs in _dense_corpora():
        for doc in docs:
            text = serialize(doc)
            path = os.path.join(directory, f"{name}-{files}.xml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files += 1
            obs = Observability()
            report = Validator(dtd, obs=obs).check(path, engine="codegen")
            mismatches += report.to_json() != _batch(dtd, text).to_json()
            expected = 0 if name == "club" else len(doc.vertices()) - 1
            off_path += obs.metrics.total(
                "codegen_column_elements") != expected
    return files, mismatches, off_path


def test_e23_codegen_dense_files_match_batch(tmp_path):
    """Acceptance: on constraint-dense files of up to 2000 vertices, the
    mmap path is byte-identical to batch — with Σ on the constraint
    kernels (library, registry) and on the evaluators (club) — and the
    kernel-fed files take the column runs throughout."""
    files, mismatches, off_path = _dense_mismatches(str(tmp_path))
    assert files and mismatches == 0 and off_path == 0


def test_e23_club_files_stay_on_evaluators():
    """The club leg keeps the evaluator path under the dense check: its
    Σ has no kernel, and its files carry violations of both
    constraints."""
    dtd, docs = _club_corpus(2, 60, seed=60)
    assert not any(as_handle(dtd).plan.kernels)
    codes = {v.code for v in _batch(dtd, serialize(docs[1])).constraint}
    assert codes == {"key", "inverse"}


def test_e23_feed_takes_both_run_kinds(tmp_path):
    """Acceptance: on the 1k- and 8k-item feeds, in every input form,
    every item takes a run without columns and the keyed tail runs with
    columns."""
    sizes = (1_000, 8_000)
    cg, inputs = _feed(_mkdirs(str(tmp_path), *sizes), *sizes)
    assert _feed_off_path(cg, zip(sizes, inputs)) == 0


def _tokenize(text: str) -> None:
    for _token in Tokenizer(text).tokens():
        pass


def test_e23_codegen_throughput_at_least_5x_tokenizer():
    """Acceptance: on the Σ-sparse feed document the zero-copy codegen
    scan is >= 5x the tokenizer's pass alone (best of 3)."""
    dtd = parse_dtdc(FEED_SCHEMA)
    cg = CodegenValidator(as_handle(dtd))
    text = _feed_doc(8_000)
    data = text.encode("utf-8")
    assert cg.validate_bytes(data).to_json() == _batch(dtd, text).to_json()
    tokenize = _best_of(lambda: _tokenize(text))
    codegen = _best_of(lambda: cg.validate_bytes(data))
    print_series("E23: tokenizer pass vs codegen, 8k-item feed",
                 [(1, tokenize), (2, codegen)],
                 header="(1=tokenize, 2=codegen)")
    assert tokenize / codegen >= 5.0, (
        f"codegen is only {tokenize / codegen:.2f}x the tokenizer pass "
        f"({codegen * 1e3:.1f}ms vs {tokenize * 1e3:.1f}ms)")


# -- memory ----------------------------------------------------------------


@pytest.mark.parametrize("form", FORMS)
def test_e19_peak_memory_sublinear(form, tmp_path):
    """Acceptance: 8x more Σ-irrelevant content costs < 4x the peak —
    the scanner retains O(depth + Σ-relevant) state, not the
    document."""
    cg, (small, large) = _feed(_mkdirs(str(tmp_path), 1_000, 8_000),
                               1_000, 8_000)
    (small_call,), (large_call,) = small.calls(cg, form), \
        large.calls(cg, form)
    small_call()  # warm DFA/evaluator caches outside the trace
    peak_small = _peak_bytes(small_call)
    peak_large = _peak_bytes(large_call)
    print(f"E19 peak ({form}): {peak_small} B @1k items, "
          f"{peak_large} B @8k items")
    assert peak_large < 4 * peak_small, (
        f"peak grew {peak_large / peak_small:.1f}x for 8x the document")


@pytest.mark.parametrize("form", FORMS)
def test_e19_single_pass_peak_under_half_of_batch(form, tmp_path):
    """Acceptance: on a ~10k-vertex document the single-pass peak is
    under half the batch (parse + validate) peak."""
    cg, (inputs,) = _feed(_mkdirs(str(tmp_path), 10_000), 10_000)
    (call,) = inputs.calls(cg, form)
    text = inputs.texts[0]
    dtd = cg.compiled.plan.dtd
    call()
    _batch(dtd, text)
    peak = _peak_bytes(call)
    batch_peak = _peak_bytes(lambda: _batch(dtd, text))
    print(f"E19 10k-vertex peak ({form}): codegen {peak} B, "
          f"batch {batch_peak} B")
    assert peak < 0.5 * batch_peak, (
        f"codegen peak {peak} B is {peak / batch_peak:.2f}x the batch "
        f"peak {batch_peak} B")


# -- standalone runner (CI smoke + timing report) --------------------------


def _interning_delta(n: int = 20_000) -> tuple[int, int]:
    """(distinct label objects, total label tokens) across one parse —
    the ``sys.intern`` satellite makes the first number O(|element
    types|) instead of O(n)."""
    text = "<feed>" + "<item>x</item>" * n + "</feed>"
    ids = set()
    total = 0
    for token in Tokenizer(text).tokens():
        if token.kind in ("start", "empty", "end"):
            ids.add(id(token.value))
            total += 1
    return len(ids), total


def _report(n_docs: int, smoke: bool) -> int:
    with tempfile.TemporaryDirectory() as directory:
        return _report_in(directory, n_docs, smoke)


def _report_in(directory: str, n_docs: int, smoke: bool) -> int:
    dtd, texts = _corpus_texts(n_docs=n_docs)
    cg = CodegenValidator(as_handle(dtd))
    corpus = _Inputs(texts, _mkdirs(directory, "corpus") + "/corpus")
    expected = [_batch(dtd, t).to_json() for t in texts]
    mismatches = {form: sum(call().to_json() != want for call, want
                            in zip(corpus.calls(cg, form), expected))
                  for form in FORMS}
    batch = _best_of(lambda: [_batch(dtd, t) for t in texts])
    single = {form: _best_of(lambda calls=corpus.calls(cg, form):
                             [call() for call in calls])
              for form in FORMS}

    feed_sizes = (1_000, 8_000, 10_000)
    fcg, feeds = _feed(_mkdirs(directory, *feed_sizes), *feed_sizes)
    small, large, big = feeds
    feed_off_path = _feed_off_path(fcg, zip(feed_sizes, feeds))
    feed_dtd = fcg.compiled.plan.dtd
    text_10k = big.texts[0]
    _batch(feed_dtd, text_10k)
    batch_peak = _peak_bytes(lambda: _batch(feed_dtd, text_10k))
    peaks = {}
    for form in FORMS:
        (s_call,), (l_call,), (b_call,) = (
            small.calls(fcg, form), large.calls(fcg, form),
            big.calls(fcg, form))
        s_call(), b_call()
        peaks[form] = (_peak_bytes(s_call), _peak_bytes(l_call),
                       _peak_bytes(b_call))
    text_8k = large.texts[0]
    data_8k = large.data[0]
    feed_equal = fcg.validate_bytes(data_8k).to_json() \
        == _batch(feed_dtd, text_8k).to_json()
    tokenize = _best_of(lambda: _tokenize(text_8k))
    feed_codegen = _best_of(lambda: fcg.validate_bytes(data_8k))
    speedup = tokenize / feed_codegen

    distinct, total = _interning_delta()
    dense_files, dense_mismatches, dense_off_path = _dense_mismatches(
        _mkdirs(directory, "dense") + "/dense")

    print(f"E19 single pass: {n_docs} docs, {os.cpu_count()} core(s)")
    print(f"  batch          {batch * 1e3:8.1f} ms")
    for form in FORMS:
        print(f"  codegen {form:<6} {single[form] * 1e3:8.1f} ms "
              f"({batch / single[form]:.2f}x batch, "
              f"{mismatches[form]} mismatch(es))")
    for form in FORMS:
        p1k, p8k, p10k = peaks[form]
        print(f"  peak {form:<6} {p1k:>9} B @1k, {p8k:>9} B @8k "
              f"({p8k / p1k:.2f}x), {p10k:>9} B @10k "
              f"({p10k / batch_peak:.3f}x batch {batch_peak} B)")
    print(f"  interned labels: {distinct} distinct objects over "
          f"{total} name tokens")
    print(f"E23 codegen: 8k-item feed, tokenizer pass "
          f"{tokenize * 1e3:.1f} ms vs codegen bytes "
          f"{feed_codegen * 1e3:.1f} ms ({speedup:.1f}x)")
    print(f"E23 feed runs: {feed_off_path} feed document view(s) with an "
          f"item off the runs without columns or a keyed element off the "
          f"column runs")
    print(f"E23 dense: {dense_files} library and registry (kernel) and "
          f"club (evaluator) files of 60 and 2000 vertices via mmap, "
          f"{dense_mismatches} codegen/batch mismatch(es), "
          f"{dense_off_path} file(s) off the column-run path")

    ok = (not any(mismatches.values()) and feed_equal
          and dense_mismatches == 0 and dense_off_path == 0
          and feed_off_path == 0
          and speedup >= 5.0
          and all(p8k < 4 * p1k and p10k < 0.5 * batch_peak
                  for p1k, p8k, p10k in peaks.values()))
    if not smoke:
        ok = ok and all(batch / t >= 1.0 for t in single.values())
    print("E19/E23 smoke OK: codegen text/bytes/path match batch, "
          "peak guards hold, >= 5x the tokenizer pass"
          if ok else "E19/E23 FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(
        description="E19/E23: single-pass validation benchmark")
    cli.add_argument("--smoke", action="store_true",
                     help="CI mode: byte-identity of codegen's text, "
                     "bytes and path input (corpus, sparse feed and "
                     "dense files), the run-path counts on the feed and "
                     "dense files, the peak-memory guards and the "
                     ">= 5x tokenizer bar; no batch throughput threshold")
    cli.add_argument("--docs", type=int, default=100,
                     help="corpus size (default: 100)")
    args = cli.parse_args()
    raise SystemExit(_report(args.docs, args.smoke))
