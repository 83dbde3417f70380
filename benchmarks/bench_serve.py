"""E21: the long-lived validation service vs per-request processes.

Paper artifact: Definition 2.4 validity is a per-document judgment
against a fixed ``DTD^C`` — nothing about the schema changes between
documents, so all per-schema work (parsing S and Σ, fingerprinting,
compiling the stream plan) is pure overhead when it is re-paid per
request.  ``repro-xic serve`` amortizes it: the
:class:`~repro.server.registry.SchemaRegistry` compiles once, the
daemon answers many requests, and the content-addressed cache answers
byte-identical re-submissions without re-validating.  The experiment
measures exactly that:

- **throughput + tail latency** — N concurrent clients over the JSONL
  TCP transport; reports docs/sec and p99 per-request latency;
- **cold vs warm cache** — the same corpus re-submitted against a
  shared :class:`~repro.corpus.ResultCache` must answer every request
  from the cache with byte-identical reports;
- **amortization** — per-document service time must beat a fresh
  ``repro-xic validate`` subprocess per document by >= 5x (the
  subprocess re-pays interpreter start + imports + schema compile on
  every single document).

Run styles::

    python -m pytest benchmarks/bench_serve.py -q    # shape assertions
    python benchmarks/bench_serve.py --smoke         # CI one-shot
    python benchmarks/bench_serve.py                 # timing report
"""

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time

if __package__:
    pass
else:  # `python benchmarks/bench_serve.py` — repo root not on sys.path
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from repro import Observability, SchemaRegistry, ValidationServer
from repro.corpus import ResultCache
from repro.obs import NULL_TRACER
from repro.workloads.generators import random_corpus
from repro.xmlio import serialize

#: The schema every request validates against (same shape as the CLI
#: contract fixtures; random_corpus generates matching documents).
LIB_SCHEMA = """
<!ELEMENT library (entry*, ref*)>
<!ELEMENT entry (#PCDATA)?>
<!ELEMENT ref EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED shelf CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
%% constraints
entry.isbn -> entry
ref.to sub entry.isbn
"""

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _corpus_texts(n_docs: int, seed: int = 0):
    _dtd, docs = random_corpus(n_docs=n_docs, invalid_fraction=0.0,
                               seed=seed)
    return [(f"doc-{i:04d}", serialize(doc))
            for i, doc in enumerate(docs)]


def _percentile(latencies, q: float) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


def serve_run(texts, cache=None, concurrency: int = 8,
              telemetry: bool = False):
    """Push ``texts`` through an in-process server over the JSONL TCP
    transport with ``concurrency`` client connections.

    With ``telemetry=True`` the server runs the full request-telemetry
    path: a real tracer, 100% sampling (every request opens a span tree
    and lands in the trace store), and the structured event log.

    Returns ``(total_seconds, latencies, n_cached)``; every response is
    checked for ``ok`` and ``valid`` on the way through.
    """
    async def scenario():
        obs = (Observability() if telemetry
               else Observability(tracer=NULL_TRACER))
        registry = SchemaRegistry(obs=obs)
        registry.load("lib", LIB_SCHEMA)
        server = ValidationServer(registry, cache=cache, obs=obs,
                                  sample=1.0 if telemetry else 0.0)
        jsonl = await asyncio.start_server(
            server.serve_jsonl, "127.0.0.1", 0)
        host, port = jsonl.sockets[0].getsockname()[:2]
        latencies: list[float] = []
        cached = 0

        async def worker(chunk):
            nonlocal cached
            reader, writer = await asyncio.open_connection(host, port)
            for doc_id, text in chunk:
                t0 = time.perf_counter()
                writer.write(json.dumps(
                    {"op": "validate", "schema": "lib", "id": doc_id,
                     "document": text}).encode("utf-8") + b"\n")
                await writer.drain()
                resp = json.loads(await reader.readline())
                latencies.append(time.perf_counter() - t0)
                assert resp["ok"] and resp["valid"], resp
                cached += bool(resp["cached"])
            writer.close()
            await writer.wait_closed()

        chunks = [texts[i::concurrency] for i in range(concurrency)]
        t0 = time.perf_counter()
        await asyncio.gather(*(worker(c) for c in chunks if c))
        total = time.perf_counter() - t0
        jsonl.close()
        await jsonl.wait_closed()
        await server.close()
        return total, latencies, cached

    return asyncio.run(scenario())


def subprocess_baseline(tmp_dir, runs: int = 3) -> float:
    """Mean seconds for one document via a fresh ``repro-xic validate``
    process — what serving replaces.  Each run pays interpreter start,
    package import, schema parse, and plan compile from scratch."""
    schema = os.path.join(tmp_dir, "lib.dtdc")
    with open(schema, "w") as fh:
        fh.write(LIB_SCHEMA)
    doc = os.path.join(tmp_dir, "doc.xml")
    with open(doc, "w") as fh:
        fh.write(_corpus_texts(1)[0][1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro", "validate", doc, schema]
    elapsed = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=_REPO_ROOT,
                              capture_output=True)
        elapsed.append(time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr.decode()
    return sum(elapsed) / len(elapsed)


# -- shape assertions (pytest) ---------------------------------------------


def test_e21_cold_vs_warm_cache():
    """A re-submitted corpus answers entirely from the cache, with the
    same per-request verdicts."""
    texts = _corpus_texts(n_docs=96)
    cache = ResultCache()
    _total, cold_lat, cold_cached = serve_run(texts, cache=cache)
    _total, warm_lat, warm_cached = serve_run(texts, cache=cache)
    assert cold_cached == 0
    assert warm_cached == len(texts)
    assert len(cold_lat) == len(warm_lat) == len(texts)


def test_e21_concurrent_clients_consistent():
    """Throughput run: 8 concurrent connections, every response valid;
    p99 is finite and the run makes progress (docs/sec > 0)."""
    texts = _corpus_texts(n_docs=64)
    total, latencies, _cached = serve_run(texts, concurrency=8)
    rate = len(texts) / max(total, 1e-9)
    p99 = _percentile(latencies, 0.99)
    print(f"\nE21: {rate:,.0f} docs/sec, p99 {p99 * 1e3:.2f} ms "
          f"over 8 connections")
    assert rate > 0 and p99 > 0


def test_e21_server_beats_subprocess(tmp_path):
    """Acceptance: per-document service time >= 5x faster than one
    ``repro-xic validate`` subprocess per document."""
    texts = _corpus_texts(n_docs=48)
    total, _lat, _cached = serve_run(texts)
    per_doc_served = total / len(texts)
    per_doc_subprocess = subprocess_baseline(str(tmp_path))
    speedup = per_doc_subprocess / max(per_doc_served, 1e-9)
    print(f"\nE21: served {per_doc_served * 1e3:.2f} ms/doc vs "
          f"subprocess {per_doc_subprocess * 1e3:.0f} ms/doc "
          f"({speedup:.0f}x)")
    assert speedup >= 5.0, (
        f"serving only {speedup:.1f}x faster than per-request "
        f"subprocesses ({per_doc_served * 1e3:.2f} ms vs "
        f"{per_doc_subprocess * 1e3:.0f} ms per doc)")


#: blocks of the telemetry gate: the median of this many per-block
#: ratios holds still on a 2-vCPU host whose speed shifts between runs
TELEMETRY_BLOCKS = 15


def _telemetry_ratios(texts, blocks: int) -> "list[float]":
    """Traced/untraced throughput ratio per block.  Each config first
    serves a throwaway warmup (one-time import/compile costs stay out
    of the timed runs).  Then every block times four runs back to back,
    untraced-traced-traced-untraced or its mirror (alternating between
    blocks), and compares each config's faster run: host speed drift
    within a block lands on both configs alike, and a run slowed by a
    stray pause is dropped, so the ratio measures telemetry, not the
    host."""
    warmup = texts[: max(8, len(texts) // 4)]
    for telemetry in (False, True):
        serve_run(warmup, telemetry=telemetry)
    ratios = []
    for block in range(blocks):
        first = block % 2 == 1
        best: dict = {}
        for telemetry in (first, not first, not first, first):
            seconds = serve_run(texts, telemetry=telemetry)[0]
            best[telemetry] = min(best.get(telemetry, seconds), seconds)
        ratios.append(best[False] / max(best[True], 1e-9))
    return ratios


def test_e21_telemetry_overhead():
    """Acceptance: full request telemetry (tracer + 100% sampling +
    event log) keeps E21 throughput at >= 0.9x the warm baseline, as
    the median of interleaved per-block ratios."""
    texts = _corpus_texts(n_docs=96)
    ratios = _telemetry_ratios(texts, blocks=TELEMETRY_BLOCKS)
    ratio = statistics.median(ratios)
    print(f"\nE21 telemetry: traced/untraced per block "
          f"{', '.join(f'{r:.2f}' for r in ratios)}; median {ratio:.2f}x")
    assert ratio >= 0.9, (
        f"telemetry costs too much: traced throughput is only "
        f"{ratio:.2f}x the untraced baseline (median of {ratios})")


# -- standalone runner (CI smoke + timing report) --------------------------


def _report(n_docs: int, smoke: bool) -> int:
    import tempfile

    texts = _corpus_texts(n_docs=n_docs)
    cache = ResultCache()
    cold_total, cold_lat, cold_cached = serve_run(texts, cache=cache)
    warm_total, warm_lat, warm_cached = serve_run(texts, cache=cache)
    with tempfile.TemporaryDirectory() as tmp:
        per_doc_sub = subprocess_baseline(tmp, runs=1 if smoke else 3)

    cold_rate = n_docs / max(cold_total, 1e-9)
    warm_rate = n_docs / max(warm_total, 1e-9)
    per_doc = cold_total / n_docs
    speedup = per_doc_sub / max(per_doc, 1e-9)
    print(f"E21 serve: {n_docs} docs, 8 connections")
    print(f"  cold      {cold_rate:10,.0f} docs/s   "
          f"p99 {_percentile(cold_lat, 0.99) * 1e3:7.2f} ms")
    print(f"  warm      {warm_rate:10,.0f} docs/s   "
          f"p99 {_percentile(warm_lat, 0.99) * 1e3:7.2f} ms   "
          f"({warm_cached}/{n_docs} cached)")
    print(f"  subprocess{per_doc_sub * 1e3:10,.0f} ms/doc   "
          f"served {per_doc * 1e3:.2f} ms/doc   ({speedup:.0f}x)")

    ok = cold_cached == 0 and warm_cached == n_docs
    if not smoke:
        ok = ok and speedup >= 5.0
    print("E21 smoke OK" if ok else "E21 FAILED")
    return 0 if ok else 1


def _telemetry_report(n_docs: int, blocks: int) -> int:
    texts = _corpus_texts(n_docs=n_docs)
    ratios = _telemetry_ratios(texts, blocks=blocks)
    ratio = statistics.median(ratios)
    print(f"E21 telemetry: {n_docs} docs, {blocks} interleaved blocks")
    for block, r in enumerate(ratios):
        print(f"  block {block}   traced/untraced {r:.2f}x")
    print(f"  median    {ratio:.2f}x")
    ok = ratio >= 0.9
    print("E21 telemetry OK" if ok else
          f"E21 telemetry FAILED (median ratio {ratio:.2f} < 0.9)")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(
        description="E21: long-lived validation service benchmark")
    cli.add_argument("--smoke", action="store_true",
                     help="CI mode: correctness checks only (cache "
                     "round-trip, response validity), no timing "
                     "thresholds")
    cli.add_argument("--telemetry", action="store_true",
                     help="compare full request telemetry (tracer, "
                     "sample=1.0, event log) against the untraced "
                     "baseline in interleaved blocks; fails if the "
                     "median traced/untraced ratio < 0.9")
    cli.add_argument("--docs", type=int, default=160,
                     help="corpus size (default: 160)")
    ns = cli.parse_args()
    if ns.telemetry:
        raise SystemExit(_telemetry_report(
            ns.docs if not ns.smoke else 96, blocks=TELEMETRY_BLOCKS))
    raise SystemExit(_report(ns.docs if not ns.smoke else 32, ns.smoke))
