"""Parallel corpus validation with a persistent result cache.

Definition 2.4 validity (structure plus ``G ⊨ Σ``) is decided one
document at a time, so a corpus fans out over worker processes with no
coordination beyond chunking — the shape Abiteboul, Gottlob & Manna's
*Distributed XML Design* motivates for document partitioning.  This
package supplies the pieces:

- :class:`CorpusValidator` — chunked fan-out over a
  ``multiprocessing`` pool (``jobs=1`` runs the same code in-process,
  bit-identically), with Σ parsed once per worker;
- :class:`ResultCache` — a content-addressed report cache (SHA-256 of
  serialized document + schema fingerprint), in-memory LRU with an
  optional on-disk append-only log, so re-validating an unchanged
  corpus is O(hash);
- :class:`CorpusReport` / :class:`DocumentVerdict` — per-document
  verdicts in corpus order, violation totals by code, per-phase wall
  clock, and the merged per-worker observability export.

Entry points: ``repro.Validator(dtd).check_corpus(docs, jobs=8)`` from
code, ``repro-xic check-corpus SCHEMA DOCS... --jobs 8 --cache DIR``
from the command line.
"""

from repro.corpus.cache import (
    ResultCache, result_key, result_key_bytes, schema_fingerprint,
)
from repro.corpus.report import CorpusReport, DocumentVerdict
from repro.corpus.validator import CorpusValidator

__all__ = [
    "CorpusReport",
    "CorpusValidator",
    "DocumentVerdict",
    "ResultCache",
    "result_key",
    "result_key_bytes",
    "schema_fingerprint",
]
