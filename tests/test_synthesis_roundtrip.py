"""Property-based round trips for witness synthesis.

Random satisfiable schemas must yield witnesses every pipeline agrees
are clean: batch validation, the single-pass (codegen) validator over
the serialized text, and a DocumentSession replay — with byte-identical
reports.  And on random *unsatisfiable* schemas, removing the reported
unsat core must restore satisfiability (the ISSUE acceptance bar).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen import CodegenValidator
from repro.dtd.dtdc import DTDC
from repro.dtd.validate import validate
from repro.incremental.session import DocumentSession
from repro.server.registry import as_handle
from repro.synthesis import Verdict, check_satisfiability
from repro.workloads.generators import (
    random_check_sigma, random_satisfiable_dtdc, random_structure,
    random_valid_document,
)
from repro.xmlio import serialize
from repro.xmlio.parser import parse_document

seeds = st.integers(0, 2**20)


def _sat_instance(seed: int) -> "tuple[DTDC, object] | None":
    try:
        dtd = random_satisfiable_dtdc(seed=seed)
    except RuntimeError:  # no SAT sample within the attempt budget
        return None
    doc = random_valid_document(dtd, seed=seed)
    return None if doc is None else (dtd, doc)


class TestWitnessRoundTrip:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_witness_validates_clean_in_batch(self, seed):
        instance = _sat_instance(seed)
        assume(instance is not None)
        dtd, doc = instance
        report = validate(doc, dtd)
        assert report.ok and not list(report.violations)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_streaming_report_is_byte_identical(self, seed):
        instance = _sat_instance(seed)
        assume(instance is not None)
        dtd, doc = instance
        text = serialize(doc)
        batch = validate(parse_document(text, dtd.structure), dtd)
        stream = CodegenValidator(as_handle(dtd)).validate_text(text)
        assert stream.to_json() == batch.to_json()
        assert stream.ok

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_session_replay_is_clean_and_identical(self, seed):
        instance = _sat_instance(seed)
        assume(instance is not None)
        dtd, doc = instance
        text = serialize(doc)
        tree = parse_document(text, dtd.structure)
        session = DocumentSession(tree, dtd.constraints, dtd.structure)
        first = session.validate()
        replay = session.revalidate() if hasattr(session, "revalidate") \
            else session.validate()
        assert first.ok
        assert [v.to_dict() for v in first.violations] \
            == [v.to_dict() for v in replay.violations]

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_check_satisfiability_witness_round_trips_through_text(
            self, seed):
        """The analysis's own witness survives serialize → parse →
        validate without picking up violations."""
        try:
            dtd = random_satisfiable_dtdc(seed=seed)
        except RuntimeError:
            assume(False)
        report = check_satisfiability(dtd)
        assert report.verdict is Verdict.SAT
        text = serialize(report.witness)
        reparsed = parse_document(text, dtd.structure)
        assert validate(reparsed, dtd).ok


def _unsat_schema(depth: int, fillers: int, benign: bool) -> str:
    """A randomized member of the UNSAT family: a *required* type ``a``
    whose IDREF attribute is included in the ID of two distinct types —
    the L_id multi-target degeneracy forces ``ext(a)`` empty, yet the
    content models force ``a`` to occur.  ``depth`` nests ``a`` under a
    chain, ``fillers`` adds harmless optional types, ``benign`` adds a
    consistent extra reference."""
    chain = [f"x{i}" for i in range(depth)]
    filler_types = [f"f{i}" for i in range(fillers)]
    root_word = ", ".join(
        [chain[0] if chain else "a", "b*", "c*"]
        + (["d*"] if benign else [])
        + [f"{f}*" for f in filler_types])
    lines = [f"<!ELEMENT db ({root_word})>"]
    for here, nxt in zip(chain, chain[1:] + ["a"]):
        lines.append(f"<!ELEMENT {here} ({nxt})>")
    lines += ["<!ELEMENT a (#PCDATA)>",
              "<!ATTLIST a r IDREF #REQUIRED>",
              "<!ELEMENT b (#PCDATA)>",
              "<!ATTLIST b oid ID #REQUIRED>",
              "<!ELEMENT c (#PCDATA)>",
              "<!ATTLIST c oid ID #REQUIRED>"]
    sigma = ["b.oid ->id b", "c.oid ->id c",
             "a.r sub b.id", "a.r sub c.id"]
    if benign:
        lines += ["<!ELEMENT d (#PCDATA)>",
                  "<!ATTLIST d oid ID #REQUIRED>",
                  "<!ATTLIST d ref IDREF #IMPLIED>"]
        sigma += ["d.oid ->id d", "d.ref sub b.id"]
    for f in filler_types:
        lines.append(f"<!ELEMENT {f} (#PCDATA)>")
    return "\n".join(lines) + "\n\n%% constraints\n" + "\n".join(sigma)


class TestUnsatCoreProperty:
    @given(st.integers(0, 2), st.integers(0, 3), st.booleans())
    @settings(max_examples=24, deadline=None)
    def test_core_removal_restores_sat(self, depth, fillers, benign):
        from repro.xmlio.dtdparse import parse_dtdc

        dtd = parse_dtdc(_unsat_schema(depth, fillers, benign),
                         check=False)
        report = check_satisfiability(dtd)
        assert report.verdict is Verdict.UNSAT
        core = report.core
        assert core is not None and core.constraints
        kept = tuple(c for c in dtd.constraints
                     if not any(c is m for m in core.constraints))
        repaired = check_satisfiability(
            DTDC(dtd.structure, kept, check=False))
        assert repaired.verdict is Verdict.SAT
        # The benign extras never land in the core.
        assert all(str(m).startswith("a.r sub ")
                   for m in core.constraints)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_random_schemas_never_go_unknown_analytically(self, seed):
        """The analytic screen (no synthesis) is total: every
        well-formed random schema gets SAT or UNSAT, never a crash."""
        from repro.errors import ConstraintError

        structure = random_structure(seed, n_types=5)
        sigma = random_check_sigma(structure, seed, n_constraints=6)
        try:
            dtd = DTDC(structure, tuple(sigma))
        except ConstraintError:
            assume(False)
        report = check_satisfiability(dtd, synthesize=False)
        assert report.verdict in (Verdict.SAT, Verdict.UNSAT)
