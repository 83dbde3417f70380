"""The single-pass validation engine.

Validates a document in one pass over its text, bytes or mmapped file,
with no :class:`~repro.datamodel.tree.DataTree`: a scanner specialised
to the schema parses, checks structure, feeds start-tag attribute maps
to the constraint kernels that check Σ's attribute-only keys, foreign
keys, ID constraints and ID references (:mod:`repro.codegen.kernels`),
and retains the elements the rest of Σ reads, whose constraint
evaluators then run batch's own ``full()`` pass over them once.  The
schema is compiled once into a :class:`~repro.codegen.plan.StreamPlan`
(:func:`compile_plan`), and the scanners are built in-process from it
(:func:`compile_schema`), once per schema handle and once per corpus
worker; content-model rows fill on first use from the plan's lazy
matchers, so every schema compiles.  Reports are byte-identical
(``to_json()``) to the batch validator's; see
:class:`~repro.codegen.runtime.RunState` for why.

Select it through the unified engine API::

    validator.check("doc.xml", engine="codegen")   # or engine="auto"
"""

from repro.codegen.engine import (
    CodegenValidator, CompiledSchema, compile_schema,
)
from repro.codegen.plan import StreamPlan, compile_plan
from repro.codegen.runtime import RunState

__all__ = [
    "CodegenValidator",
    "CompiledSchema",
    "RunState",
    "StreamPlan",
    "compile_plan",
    "compile_schema",
]
