"""Schema-specialized validator codegen.

Compiles a ``DTD^C`` to a Python module of literal tables — per-label
DFA transitions as dict literals, the attributes Σ actually watches, the
Σ-irrelevant labels whose runs single regex matches consume — that the
schema-independent scanner in :mod:`repro.codegen.runtime` runs over.
The module is ``exec``'d once per schema fingerprint per process and
cached on disk so server restarts and corpus worker fleets compile once
per machine.  Reports are byte-identical (``to_json()``) to the batch
and streaming validators; see :mod:`repro.codegen.generate` for the
determinism contract and :mod:`repro.codegen.cache` for the
integrity-checked source cache.

Select it through the unified engine API::

    validator.check("doc.xml", engine="codegen")   # or engine="auto"
"""

from repro.codegen.cache import (
    CACHE_ENV, cache_dir, cache_path, load_source, store_source,
)
from repro.codegen.engine import (
    CodegenValidator, CompiledSchema, compile_schema, load_compiled,
)
from repro.codegen.generate import (
    GENERATOR_VERSION, CompileError, generate_source,
)
from repro.codegen.runtime import RunState

__all__ = [
    "CACHE_ENV",
    "CodegenValidator",
    "CompileError",
    "CompiledSchema",
    "GENERATOR_VERSION",
    "RunState",
    "cache_dir",
    "cache_path",
    "compile_schema",
    "generate_source",
    "load_compiled",
    "load_source",
    "store_source",
]
