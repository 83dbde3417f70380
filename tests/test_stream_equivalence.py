"""Property-based equivalence: single pass vs batch vs incremental.

The single-pass engine's whole contract is that nobody can tell it
apart from the batch pipeline.  These tests drive that with hypothesis
over the workload generators: random structures, random Σ aligned to
them, random documents (structurally valid by construction but riddled
with constraint violations by design), and assert byte-for-byte equal
reports — ``to_json()`` includes violation order, so any drift in
evaluator feeding order fails here.  Schemas the engine once refused to
compile — non-ASCII names, a content model whose DFA is exponential —
are driven the same way, over ASCII and non-ASCII documents, valid and
invalid.
"""

import os
import random
import re
import tempfile
import unicodedata

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen import CodegenValidator
from repro.constraints.base import Field
from repro.constraints.lang_lu import UnaryForeignKey, UnaryKey
from repro.corpus import CorpusValidator, ResultCache
from repro.constraints.checker import check
from repro.dtd.dtdc import DTDC
from repro.dtd.structure import DTDStructure
from repro.dtd.validate import validate
from repro.incremental.session import DocumentSession
from repro.server.registry import as_handle
from repro.workloads.generators import (
    random_check_sigma, random_corpus, random_document, random_structure,
)
from repro.xmlio import serialize
from repro.xmlio.parser import parse_document

seeds = st.integers(0, 2**31 - 1)


def _single_pass(dtd) -> CodegenValidator:
    return CodegenValidator(as_handle(dtd))


def _outcome(fn):
    """A view's result: the report JSON, or the exception it raised."""
    try:
        return ("report", fn().to_json())
    except Exception as exc:  # noqa: BLE001 - parity check
        return ("error", type(exc).__name__, str(exc))


def _path_outcome(cg, text: str):
    """:func:`_outcome` of ``cg.validate_path`` over ``text`` written
    to a file."""
    fd, path = tempfile.mkstemp(suffix=".xml")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        return _outcome(lambda: cg.validate_path(path))
    finally:
        os.unlink(path)


def _instance(seed: int) -> "tuple[DTDC, str] | None":
    """One (schema, document text) pair from the workload generators,
    or None when the sampled Σ is not well-formed for the structure
    (a foreign key referencing a non-key, say)."""
    from repro.errors import ConstraintError

    structure = random_structure(seed, n_types=5)
    sigma = random_check_sigma(structure, seed, n_constraints=6)
    try:
        dtd = DTDC(structure, sigma)
    except ConstraintError:
        return None
    text = serialize(random_document(structure, seed + 1,
                                     size_budget=80))
    return dtd, text


class TestStreamBatchEquivalence:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_report_is_byte_identical(self, seed):
        instance = _instance(seed)
        assume(instance is not None)
        dtd, text = instance
        batch = validate(parse_document(text, dtd.structure), dtd)
        stream = _single_pass(dtd).validate_text(text)
        assert stream.to_json() == batch.to_json()

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_codegen_report_is_byte_identical(self, seed):
        """Byte-for-byte equal reports over the str scanner, the
        zero-copy bytes scanner and the mmapped file."""
        instance = _instance(seed)
        assume(instance is not None)
        dtd, text = instance
        cg = _single_pass(dtd)
        batch = validate(parse_document(text, dtd.structure), dtd)
        assert cg.validate_text(text).to_json() == batch.to_json()
        assert cg.validate_bytes(
            text.encode("utf-8")).to_json() == batch.to_json()
        assert _path_outcome(cg, text) == ("report", batch.to_json())

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_constraint_portion_matches_check(self, seed):
        """The Σ half of the streamed report equals a standalone
        ``check()`` — same violations, same order."""
        instance = _instance(seed)
        assume(instance is not None)
        dtd, text = instance
        tree = parse_document(text, dtd.structure)
        checked = check(tree, dtd.constraints, dtd.structure)
        stream = _single_pass(dtd).validate_text(text)
        assert [v.to_dict() for v in stream.constraint] \
            == [v.to_dict() for v in checked.violations]

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_matches_incremental_session(self, seed):
        """A DocumentSession built over the parsed tree reports the
        same Σ violations the stream does."""
        instance = _instance(seed)
        assume(instance is not None)
        dtd, text = instance
        tree = parse_document(text, dtd.structure)
        session = DocumentSession(tree, dtd.constraints, dtd.structure)
        stream = _single_pass(dtd).validate_text(text)
        assert [v.to_dict() for v in stream.constraint] \
            == [v.to_dict() for v in session.validate().violations]


class TestCorpusModeEquivalence:
    @given(st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_corpus_verdicts_identical(self, seed):
        dtd, docs = random_corpus(n_docs=6, doc_vertices=40,
                                  invalid_fraction=0.5, seed=seed)
        batch = CorpusValidator(dtd).validate(docs)
        # codegen behind a result cache (the test below runs uncached)
        stream = CorpusValidator(dtd, engine="codegen",
                                 cache=ResultCache()).validate(docs)
        assert stream.verdicts_json() == batch.verdicts_json()

    @given(st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_corpus_codegen_verdicts_identical(self, seed):
        dtd, docs = random_corpus(n_docs=6, doc_vertices=40,
                                  invalid_fraction=0.5, seed=seed)
        batch = CorpusValidator(dtd).validate(docs)
        codegen = CorpusValidator(dtd, engine="codegen").validate(docs)
        assert codegen.verdicts_json() == batch.verdicts_json()


# -- schemas once outside the engine ------------------------------------------


def _non_ascii_dtdc() -> DTDC:
    """Non-ASCII element and attribute names, keyed and referenced."""
    s = DTDStructure("bücherei")
    s.define_element("bücherei", "(buch*, ausleihe*)")
    s.define_element("buch", "(titel, (#PCDATA)?)")
    s.define_element("titel", "(#PCDATA)")
    s.define_element("ausleihe", "EMPTY")
    s.define_attribute("buch", "nümmer")
    s.define_attribute("ausleihe", "für")
    s.check()
    return DTDC(s, [
        UnaryKey("buch", Field("nümmer")),
        UnaryForeignKey("ausleihe", Field("für"), "buch", Field("nümmer")),
    ])


def _blowup_dtdc() -> DTDC:
    """``(a|b)*, a`` followed by 13 × ``(a|b)``: 2^14 DFA states."""
    s = DTDStructure("r")
    s.define_element("r", "((a|b)*, a" + ", (a|b)" * 13 + ")")
    s.define_element("a", "(#PCDATA)?")
    s.define_element("b", "EMPTY")
    s.define_attribute("b", "k")
    s.check()
    return DTDC(s, [UnaryKey("b", Field("k"))])


SCHEMAS = {"non-ascii": _non_ascii_dtdc(), "blowup": _blowup_dtdc()}


def _ascii(text: str, _rnd) -> str:
    """Every name and value spelled in ASCII (``ü`` → ``u``)."""
    return unicodedata.normalize("NFKD", text).encode(
        "ascii", "ignore").decode("ascii")


def _non_ascii(text: str, _rnd) -> str:
    """A non-ASCII character in the first attribute value."""
    return text.replace('="', '="é', 1)


def _invalid(text: str, rnd) -> str:
    """An undeclared element right after the root's start tag, or a
    repeated attribute."""
    spot = re.search(r' [^\s=]+="[^"]*"', text)
    if spot is None or rnd.random() < 0.5:
        at = text.index(">") + 1
        return text[:at] + rnd.choice(("<zzz/>", "<ünbekannt/>")) + text[at:]
    return text[:spot.end()] + spot.group(0) + text[spot.end():]


VARIANTS = {"as-is": lambda text, _rnd: text, "ascii": _ascii,
            "non-ascii": _non_ascii, "invalid": _invalid}


class TestFormerlyExcludedSchemas:
    @given(st.sampled_from(sorted(SCHEMAS)), seeds,
           st.sampled_from(sorted(VARIANTS)))
    @settings(max_examples=80, deadline=None)
    def test_views_and_session_match_batch(self, case, seed, variant):
        dtd = SCHEMAS[case]
        rnd = random.Random(seed)
        text = serialize(random_document(dtd.structure, rnd,
                                         size_budget=60))
        text = VARIANTS[variant](text, rnd)
        batch = _outcome(
            lambda: validate(parse_document(text, dtd.structure), dtd))
        cg = _single_pass(dtd)
        assert _outcome(lambda: cg.validate_text(text)) == batch
        assert _outcome(
            lambda: cg.validate_bytes(text.encode("utf-8"))) == batch
        assert _path_outcome(cg, text) == batch
        if batch[0] == "report":
            # a session also reports structure; compare its Σ half
            tree = parse_document(text, dtd.structure)
            session = DocumentSession(tree, dtd.constraints, dtd.structure)
            sigma = [d for d in (v.to_dict()
                                 for v in session.validate().violations)
                     if d["constraint"]]
            assert [v.to_dict() for v in cg.validate_text(text).constraint] \
                == sigma
