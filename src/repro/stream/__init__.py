"""The compiled form of a ``DTD^C`` for single-pass validation.

:func:`compile_plan` compiles a schema once into a :class:`StreamPlan`:
per-label content-model matchers, attribute declarations, and the
labels and fields Σ reads.  The single-pass engine,
:mod:`repro.codegen`, builds its scanners from the plan and retains
Σ-relevant elements as :class:`StreamVertex` objects indexed by a
:class:`StreamIndex`::

    from repro import Validator

    report = Validator(dtd).check("doc.xml", engine="codegen")

Reports are byte-identical (``to_json()``) to the batch path
``validate(parse_document(text, dtd.structure), dtd)``.
"""

from repro.stream.plan import LabelPlan, StreamPlan, compile_plan
from repro.stream.validator import StreamIndex, StreamVertex

__all__ = [
    "LabelPlan",
    "StreamIndex",
    "StreamPlan",
    "StreamVertex",
    "compile_plan",
]
