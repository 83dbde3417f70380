"""repro: a reproduction of "Integrity Constraints for XML"
(Wenfei Fan and Jerome Simeon, PODS 2000).

The package implements the paper end-to-end:

- the XML data model and DTDs with constraints (§2):
  :mod:`repro.datamodel`, :mod:`repro.xmlio`, :mod:`repro.regexlang`,
  :mod:`repro.dtd`, :mod:`repro.constraints`;
- implication and finite implication of the basic constraint languages
  ``L``, ``L_u``, ``L_id`` (§3): :mod:`repro.implication`;
- path constraints and their implication (§4): :mod:`repro.paths`;
- the relational and object-database substrates the paper draws on,
  with semantics-preserving exports to XML: :mod:`repro.relational`,
  :mod:`repro.oodb`;
- the FO2 expressiveness argument (§1, Figure 1): :mod:`repro.fo2`;
- the paper's running examples and seeded workload generators:
  :mod:`repro.workloads`;
- static analysis of ``DTD^C`` schemas (the ``repro-xic lint``
  engine): :mod:`repro.analysis`;
- whole-schema satisfiability with witness-document synthesis (the
  ``repro-xic synth`` engine): :mod:`repro.synthesis`;
- pluggable validation backends behind the unified
  ``Validator.check(doc, engine=...)`` API, including the
  schema-specialized codegen engine: :mod:`repro.engines`,
  :mod:`repro.codegen`.

Quickstart::

    from repro import Validator, book_dtdc, book_document
    validator = Validator(book_dtdc())
    assert validator.validate(book_document()).ok

    registry = SchemaRegistry()              # the long-lived pivot:
    registry.load("book", "book.dtdc")       # compile once, serve hot,
    registry.get("book").validator()         # hot-swap via reload()

    session = validator.session(book_document())   # incremental
    assert session.revalidate().ok

    from repro import LuEngine, parse_constraint
    sigma = [parse_constraint(s) for s in (
        "tau.a -> tau", "tau.b -> tau", "tau.a sub tau.b")]
    engine = LuEngine(sigma)
    phi = parse_constraint("tau.b sub tau.a")
    assert not engine.implies(phi)          # Cor 3.3: not implied ...
    assert engine.finitely_implies(phi)     # ... but finitely implied.
"""

from repro.analysis import (
    AnalysisReport, Diagnostic, LintConfig, Severity, analyze,
)
from repro.constraints import (
    Constraint, Field, ForeignKey, IDConstraint, IDForeignKey, IDInverse,
    IDSetValuedForeignKey, Inverse, Key, Language, SetValuedForeignKey,
    UnaryForeignKey, UnaryKey, attr, elem,
    parse_constraint, parse_constraints, well_formed,
)
from repro import engines
from repro.corpus import CorpusReport, CorpusValidator, ResultCache
from repro.datamodel import DataTree, TreeBuilder, Vertex
from repro.dtd import DTDC, DTDStructure, ValidationReport
from repro.errors import ReproError
from repro.implication import (
    Derivation, ImplicationResult, LGeneralEngine, LidEngine,
    LPrimaryEngine, LuEngine, LuPrimaryEngine,
)
from repro.paths import (
    Path, PathFunctional, PathImplicationEngine, PathInclusion,
    PathInverse, parse_path, type_of,
)
from repro.incremental import DocumentSession
from repro.obs import (
    NULL_OBS, EventLog, Observability, TraceContext,
)
from repro.server import (
    SchemaHandle, SchemaRegistry, ValidationServer,
)
from repro.shard import (
    Locality, ShardReport, ShardedCorpusValidator, WatchSession,
)
from repro.synthesis import (
    SatReport, UnsatCore, Verdict, check_satisfiability,
    synthesize_witness,
)
from repro.validator import Validator
from repro.workloads import book_document, book_dtdc
from repro.xmlio import parse_document, parse_dtd, parse_dtdc, serialize

__version__ = "2.0.0"

__all__ = [
    "AnalysisReport", "Diagnostic", "LintConfig", "Severity", "analyze",
    "Constraint", "Field", "ForeignKey", "IDConstraint", "IDForeignKey",
    "IDInverse", "IDSetValuedForeignKey", "Inverse", "Key", "Language",
    "SetValuedForeignKey", "UnaryForeignKey", "UnaryKey", "attr", "elem",
    "parse_constraint", "parse_constraints", "well_formed",
    "CorpusReport", "CorpusValidator", "ResultCache",
    "DataTree", "TreeBuilder", "Vertex",
    "DTDC", "DTDStructure", "ValidationReport",
    "ReproError",
    "Derivation", "ImplicationResult", "LGeneralEngine", "LidEngine",
    "LPrimaryEngine", "LuEngine", "LuPrimaryEngine",
    "Path", "PathFunctional", "PathImplicationEngine", "PathInclusion",
    "PathInverse", "parse_path", "type_of",
    "DocumentSession", "EventLog", "NULL_OBS", "Observability",
    "TraceContext", "Validator", "engines",
    "SchemaHandle", "SchemaRegistry", "ValidationServer",
    "Locality", "ShardReport", "ShardedCorpusValidator", "WatchSession",
    "SatReport", "UnsatCore", "Verdict", "check_satisfiability",
    "synthesize_witness",
    "book_document", "book_dtdc",
    "parse_document", "parse_dtd", "parse_dtdc", "serialize",
    "__version__",
]
