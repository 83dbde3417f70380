"""The frozen public surface of the ``repro`` package.

``EXPECTED_ALL`` is a literal snapshot of ``repro.__all__``.  Changing
the public surface — adding, removing, or renaming a top-level name —
must update this file in the same commit, which makes every surface
change visible in review.  The entry points deprecated in 1.x
(``repro.validate``, ``repro.check``, ``repro.check_constraint``) were
removed in 2.0 and must stay gone.
"""

import pytest

import repro

# The frozen surface, sorted.  Update deliberately, never by reflex.
EXPECTED_ALL = sorted([
    # static analysis
    "AnalysisReport", "Diagnostic", "LintConfig", "Severity", "analyze",
    # constraint languages (§2.3)
    "Constraint", "Field", "ForeignKey", "IDConstraint", "IDForeignKey",
    "IDInverse", "IDSetValuedForeignKey", "Inverse", "Key", "Language",
    "SetValuedForeignKey", "UnaryForeignKey", "UnaryKey", "attr", "elem",
    "parse_constraint", "parse_constraints", "well_formed",
    # corpus validation
    "CorpusReport", "CorpusValidator", "ResultCache",
    # data model (§2.1)
    "DataTree", "TreeBuilder", "Vertex",
    # DTDs with constraints (§2.2, Def 2.4)
    "DTDC", "DTDStructure", "ValidationReport",
    # errors
    "ReproError",
    # implication engines (§3)
    "Derivation", "ImplicationResult", "LGeneralEngine", "LidEngine",
    "LPrimaryEngine", "LuEngine", "LuPrimaryEngine",
    # path constraints (§4)
    "Path", "PathFunctional", "PathImplicationEngine", "PathInclusion",
    "PathInverse", "parse_path", "type_of",
    # facade, sessions, observability (trace context + events: v1.3)
    "DocumentSession", "EventLog", "NULL_OBS", "Observability",
    "TraceContext", "Validator",
    # the engine registry (v1.4): repro.engines.register/names/create
    "engines",
    # the registry pivot + the validation service (v1.2)
    "SchemaHandle", "SchemaRegistry", "ValidationServer",
    # sharded corpus validation + watch mode (v1.5)
    "Locality", "ShardReport", "ShardedCorpusValidator", "WatchSession",
    # satisfiability + witness synthesis
    "SatReport", "UnsatCore", "Verdict", "check_satisfiability",
    "synthesize_witness",
    # workloads + xmlio
    "book_document", "book_dtdc",
    "parse_document", "parse_dtd", "parse_dtdc", "serialize",
    # metadata
    "__version__",
])


class TestFrozenSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_ALL

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_no_unlisted_public_names(self):
        """Anything importable without an underscore prefix is either
        in ``__all__`` or a submodule (submodules are navigational, not
        surface)."""
        import types

        public = {n for n in vars(repro)
                  if not n.startswith("_")
                  and not isinstance(getattr(repro, n), types.ModuleType)}
        unlisted = public - set(repro.__all__)
        assert not unlisted, f"public but not in __all__: {sorted(unlisted)}"


class TestDeprecatedEntryPoints:
    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name
