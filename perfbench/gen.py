"""Seeded input generator: one workload's inputs plus expected verdicts.

Run in its own process, once per (input shape, seed)::

    python3 perfbench/gen.py SHAPE SEED OUTDIR

``SHAPE`` is ``library``, ``feed`` or ``federated`` (see :data:`SHAPES`).

Writes ``OUTDIR/schema.dtdc``, the documents under ``OUTDIR/docs/`` and,
last, ``OUTDIR/expect.json``.  The measured processes only read these
files.  Every verdict is checked against two expectations, both written
here:

- what the generator itself knows: which documents carry a violation
  (and, for the federated corpus, the corpus-level ID clashes, ghost
  references and cross-document resolutions);
- a reference computed now, apart from any measured run: the batch
  engine's ``ValidationReport.to_json()`` per document and a serial
  ``CorpusValidator(jobs=1)`` ``verdicts_json`` per corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

#: ``benchmarks/bench_stream.py``'s Σ-sparse feed schema
FEED_SCHEMA = """\
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

#: the fixed-width slot a serve-feed request stamps its serial number
#: into; it sits in Σ-irrelevant ``item`` text, so the stamp changes the
#: bytes (and the cache key) but never the report
STAMP = b"##########"

#: library corpus: mostly 60-vertex documents, a fixed 2% of 2000
N_SMALL, N_LARGE = 294, 6
SMALL_VERTICES, LARGE_VERTICES = 60, 2000
#: federated corpus shape and corruption counts (disjoint sets)
N_FEDERATED, FEDERATED_VERTICES = 200, 60
N_CROSS_DUP, N_CROSS_REF, N_GHOST = 10, 20, 10
#: serve-feed base documents: ``benchmarks/bench_stream.py``'s
#: ``_feed_doc`` (``item`` text elements, then ``FEED_KEYED`` keyed
#: ``entry`` and as many ``ref`` elements), with item counts spread
#: evenly over the 1,000-10,000 that bench_stream's feeds span
N_FEED = 60
FEED_ITEMS = (1_000, 10_000)
FEED_KEYED = 50


def _library_doc(d: int, n_vertices: int, corrupt: "str | None",
                 rng: random.Random) -> str:
    """A ``random_corpus``-shaped library document (serializer layout):
    half ``entry`` with document-local isbn keys, half ``ref`` into
    them; ``corrupt`` plants one dangling ref or one duplicated isbn."""
    n_entries = max(2, (n_vertices - 1) // 2)
    n_refs = max(1, n_vertices - 1 - n_entries)
    entries = [[f"isbn-{d}-{i}", f"shelf-{i % 7}"]
               for i in range(n_entries)]
    refs = [f"isbn-{d}-{rng.randrange(n_entries)}" for _ in range(n_refs)]
    if corrupt == "dangling":
        refs[rng.randrange(n_refs)] = f"isbn-{d}-dangling"
    elif corrupt == "duplicate":
        entries[1 + rng.randrange(n_entries - 1)] = \
            [f"isbn-{d}-0", "shelf-dup"]
    lines = ["<library>"]
    lines += [f'  <entry isbn="{i}" shelf="{s}"/>' for i, s in entries]
    lines += [f'  <ref to="{t}"/>' for t in refs]
    lines.append("</library>\n")
    return "\n".join(lines)


def _library(rng: random.Random):
    from repro.workloads.generators import library_schema

    n = N_SMALL + N_LARGE
    large = set(range(n // N_LARGE // 2, n, n // N_LARGE))
    bad = set(rng.sample(range(n), round(n * 0.2)))
    docs = []
    for d in range(n):
        corrupt = rng.choice(("dangling", "duplicate")) \
            if d in bad else None
        size = LARGE_VERTICES if d in large else SMALL_VERTICES
        docs.append((f"lib-{d:04d}.xml",
                     _library_doc(d, size, corrupt, rng), d not in bad))
    return library_schema(), "library", docs, {}


def _federated(rng: random.Random):
    """``federated_corpus``-shaped registry documents whose corpus-level
    findings are known here: documents re-declaring ``p-0-0`` (locally
    valid, one corpus ID clash), mentions of the next document's person
    (locally dangling, resolved across documents) and ghost mentions
    (dangling everywhere: one corpus-level finding each)."""
    from repro.workloads.generators import registry_schema

    picks = rng.sample(range(1, N_FEDERATED),
                       N_CROSS_DUP + N_CROSS_REF + N_GHOST)
    cross_dup = set(picks[:N_CROSS_DUP])
    cross_ref = set(picks[N_CROSS_DUP:N_CROSS_DUP + N_CROSS_REF])
    ghost = set(picks[N_CROSS_DUP + N_CROSS_REF:])
    n_persons = (FEDERATED_VERTICES - 1) // 2
    n_mentions = FEDERATED_VERTICES - 1 - n_persons
    docs = []
    for d in range(N_FEDERATED):
        pids = [f"p-{d}-{i}" for i in range(n_persons)]
        if d in cross_dup:
            pids.append("p-0-0")
        who = [f"p-{d}-{rng.randrange(n_persons)}"
               for _ in range(n_mentions)]
        if d in cross_ref:
            who[rng.randrange(n_mentions)] = \
                f"p-{(d + 1) % N_FEDERATED}-0"
        if d in ghost:
            who[rng.randrange(n_mentions)] = f"ghost-{d}"
        lines = ["<registry>"]
        lines += [f'  <person pid="{p}"/>' for p in pids]
        lines += [f'  <mention who="{w}"/>' for w in who]
        lines.append("</registry>\n")
        docs.append((f"fed-{d:04d}.xml", "\n".join(lines),
                     d not in cross_ref and d not in ghost))
    corpus = {"id_clashes": 1, "id_clash_documents": N_CROSS_DUP + 1,
              "ghost_refs": len(ghost),
              "refs_resolved_cross_document": len(cross_ref)}
    return registry_schema(), "registry", docs, corpus


def _feed_doc(b: int, n_items: int, rng: random.Random,
              corrupt: "str | None") -> str:
    """bench_stream's Σ-sparse feed document with ``n_items`` items, the
    first holding the request stamp; ``corrupt`` plants one dangling
    ``ref`` or one duplicated ``sku``."""
    parts = [f"<feed><item>stamp {STAMP.decode()} base {b}</item>"]
    parts += [f"<item>payload number {i} {'x' * 24}</item>"
              for i in range(1, n_items)]
    skus = [f"e{i}" for i in range(FEED_KEYED)]
    refs = list(skus)
    if corrupt == "dangling":
        refs[rng.randrange(FEED_KEYED)] = "e-ghost"
    elif corrupt == "duplicate":
        skus[1 + rng.randrange(FEED_KEYED - 1)] = skus[0]
    parts += [f'<entry sku="{s}"/>' for s in skus]
    parts += [f'<ref to="{r}"/>' for r in refs]
    parts.append("</feed>")
    return "".join(parts)


def _feed(rng: random.Random):
    from repro.xmlio.dtdparse import parse_dtdc

    lo, hi = FEED_ITEMS
    bad = set(rng.sample(range(N_FEED), round(N_FEED * 0.2)))
    docs = []
    for b in range(N_FEED):
        # one item count per stratum of [lo, hi]: every seed gets the
        # same spread of sizes
        n_items = lo + int((hi - lo) * (b + rng.random()) / N_FEED)
        corrupt = rng.choice(("dangling", "duplicate")) if b in bad \
            else None
        docs.append((f"feed-{b:04d}.xml",
                     _feed_doc(b, n_items, rng, corrupt), b not in bad))
    return parse_dtdc(FEED_SCHEMA, root="feed"), "feed", docs, {}


#: workload -> input shape; validate-dense and corpus-pool share theirs,
#: so the same seed gives them the same files
SHAPES = {"validate-dense": "library", "corpus-pool": "library",
          "serve-feed": "feed", "corpus-federated": "federated"}
_MAKERS = {"library": _library, "feed": _feed, "federated": _federated}


def stamped(data: bytes, serial: int) -> bytes:
    """``data`` with its stamp slot holding ``serial`` (fixed width)."""
    return data.replace(STAMP, b"%010d" % serial, 1)


def generate(shape: str, seed: int, outdir: str) -> None:
    from repro import Validator
    from repro.corpus import CorpusValidator
    from repro.xmlio.dtdparse import serialize_dtdc

    rng = random.Random(f"{shape}:{seed}")
    dtd, root, docs, corpus = _MAKERS[shape](rng)
    os.makedirs(os.path.join(outdir, "docs"), exist_ok=True)
    schema_path = os.path.join(outdir, "schema.dtdc")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_dtdc(dtd))
    validator = Validator(dtd)
    names, valid, reference, digests = [], [], [], set()
    for name, text, ok in docs:
        data = text.encode("utf-8")
        path = os.path.join(outdir, "docs", name)
        with open(path, "wb") as fh:
            fh.write(data)
        if shape == "feed":
            # every request carries another stamp and is checked against
            # this report, so a stamp that changed it would fail the run
            first = validator.check(stamped(data, 0).decode(),
                                    engine="batch").to_json()
            digests.add(hashlib.sha256(stamped(data, 0)).hexdigest())
        else:
            first = validator.check(path, engine="batch").to_json()
            digests.add(hashlib.sha256(data).hexdigest())
        if json.loads(first)["ok"] != ok:
            raise SystemExit(f"{name}: batch verdict disagrees with the "
                             "generator")
        names.append(name)
        valid.append(ok)
        reference.append(first)
    if len(digests) != len(docs):
        raise SystemExit("generated documents are not byte-distinct")
    expect = {"shape": shape, "seed": seed, "root": root,
              "schema": "schema.dtdc", "docs": names, "valid": valid,
              "reference": reference, "corpus": corpus}
    if shape != "feed":
        paths = [os.path.join(outdir, "docs", n) for n in names]
        expect["verdicts_json"] = CorpusValidator(
            dtd, jobs=1).validate(paths).verdicts_json()
    tmp = os.path.join(outdir, "expect.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(expect, fh)
    os.replace(tmp, os.path.join(outdir, "expect.json"))


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
