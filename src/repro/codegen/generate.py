"""Compile a ``DTD^C`` to Python source.

:func:`generate_source` turns a compiled
:class:`~repro.stream.plan.StreamPlan` into the text of a Python module
made of literal tables plus one import: its ``bind(plan)`` entry point
hands the tables to :func:`repro.codegen.runtime.scanners`, which
returns two scanners — one over ``str`` buffers, one over
``bytes``/``mmap`` buffers — each a single closure that parses, checks
structure, and feeds Σ-relevant vertices into a
:class:`~repro.codegen.runtime.RunState`.  The scanner code itself is
schema-independent and lives in :mod:`repro.codegen.runtime`, so a
cold start compiles only the tables; :data:`GENERATOR_VERSION` covers
the tables' format.

What gets specialized into the tables (all of it emitted in sorted
order, so the text is a pure function of the schema fingerprint):

- **per-label DFA tables** — every content model is eagerly
  determinized (fresh :class:`~repro.regexlang.automaton.Matcher`, BFS
  over the sorted alphabet, so state numbering never depends on
  validation history) and inlined as ``{state: {symbol: next}}`` dict
  transitions plus precomputed accepting sets and sorted
  expected-symbol diagnostics;
- **watched attributes** — only the attribute names Σ actually reads
  (constraint field sites plus declared-ID attributes) are materialized
  on retained vertices; every other attribute costs one membership test
  for the undeclared/missing structural checks and is never copied;
- **Σ-irrelevant run labels** — labels no constraint watches, with no
  declared attributes and a text-or-empty content model (``SKIP``: the
  label and whether one text chunk is legal).  The runtime consumes
  their runs with one compiled regex each (``<item>…</item><item>…``
  …), advancing the parent DFA arithmetically (cycle detection) instead
  of per-event.  On the bytes scanner this is the zero-copy path: the
  buffer (usually an ``mmap``) is scanned without decoding, and only
  start-tag attribute spans and captured text become strings.

What deliberately is *not* baked into the source: the declared-attribute
iteration order (``structure.attributes`` returns a frozenset whose
order is hash-seed dependent — the missing-attribute violation order
must match the in-process batch/stream validators, so ``bind(plan)``
reads it from the live plan), and all evaluator machinery (reused from
the host package via :class:`~repro.codegen.runtime.RunState`).
"""

from __future__ import annotations

from repro.constraints.evaluators import evaluator_for
from repro.errors import ReproError
from repro.regexlang.automaton import Matcher
from repro.stream.plan import StreamPlan, _field_sites

__all__ = ["CompileError", "GENERATOR_VERSION", "generate_source"]

#: bumped whenever the emitted source or its tables' format changes; part
#: of the on-disk cache key so stale entries from older generators are
#: never reused
GENERATOR_VERSION = 2

#: eager determinization bound: content models whose DFA exceeds this
#: are rejected (callers fall back to the lazy streaming interpreter)
_STATE_CAP = 4096


class CompileError(ReproError):
    """The schema cannot be compiled by the codegen engine."""


def _require_ascii(name: str, what: str) -> None:
    try:
        name.encode("ascii")
    except UnicodeEncodeError:
        raise CompileError(
            f"{what} {name!r} is not ASCII; the codegen engine supports "
            "ASCII names only (use engine='stream')") from None


def _dfa_tables(regex, label: str):
    """Eagerly determinize one content model, deterministically.

    A fresh :class:`Matcher` is used (never the shared ``matcher_for``
    cache, whose state numbering depends on what has been validated so
    far this process) and states are explored breadth-first over the
    sorted alphabet, so the numbering — and therefore the emitted
    source — is a pure function of the regex.
    """
    m = Matcher(regex)
    alphabet = sorted(m.nfa.alphabet())
    st = 0
    while st < len(m._state_list):
        if len(m._state_list) > _STATE_CAP:
            raise CompileError(
                f"content model of {label!r} exceeds the codegen DFA "
                f"state cap ({_STATE_CAP} states); use engine='stream'")
        for sym in alphabet:
            m._successor(st, sym)
        st += 1
    n = len(m._state_list)
    trans = {s: {sym: nx for sym, nx in m._trans[s].items()
                 if nx is not None} for s in range(n)}
    acc = tuple(s for s in range(n) if m._accepting[s])
    expected = {s: sorted(m.expected_from(s)) for s in range(n)}
    return trans, acc, expected


def _watched_attributes(plan: StreamPlan) -> dict[str, list[str]]:
    """Attribute names per label that Σ can actually read: constraint
    field sites (probed exactly like the plan compiler) plus declared-ID
    attributes (``StreamIndex`` reads them for ``id_owners``)."""
    probes = [evaluator_for(c, None, plan.id_map)
              for c in plan.constraints]
    watched: dict[str, set[str]] = {}
    for ev in probes:
        for owner, f in _field_sites(ev):
            if not f.is_element:
                watched.setdefault(owner, set()).add(f.name)
    for label, id_attr in plan.id_map.items():
        watched.setdefault(label, set()).add(id_attr)
    return {label: sorted(names) for label, names in watched.items()}


def _skip_entry(label: str, plan: StreamPlan, trans, acc) -> "bool | None":
    """Whether ``label`` takes the run fast path with one text chunk
    legal (True) or only empty (False); None when it does not.

    Skippable means: no constraint retains vertices of this label, no
    parent captures its text, it declares no attributes, and its content
    model accepts exactly what the run pattern admits — the empty word
    (``<L/>``, ``<L></L>``) and, when text is legal, one text chunk
    (``<L>text</L>``).  Elements matched by the pattern can contribute
    nothing to the report beyond a vid and one parent-DFA step, which
    the scanner applies arithmetically.
    """
    lp = plan.labels[label]
    if (label in plan.relevant or label in plan.text_fields
            or lp.declared_attrs):
        return None
    accepting = set(acc)
    if 0 not in accepting:
        return None
    s_next = trans[0].get("S")
    return s_next is not None and s_next in accepting


def generate_source(plan: StreamPlan, fingerprint: str = "") -> str:
    """The deterministic Python source for ``plan``'s schema.

    Byte-identical output for equal schemas regardless of process,
    ``PYTHONHASHSEED``, or prior validation activity — the property the
    on-disk source cache and its integrity hash depend on.
    """
    structure = plan.structure
    _require_ascii(plan.root, "root element type")
    for label in plan.relevant:
        _require_ascii(label, "element type")
    for label in sorted(plan.labels):
        _require_ascii(label, "element type")
        for attr in plan.labels[label].declared_attrs:
            _require_ascii(attr, "attribute")
    watched = _watched_attributes(plan)
    for label, names in watched.items():
        _require_ascii(label, "element type")
        for attr in names:
            _require_ascii(attr, "attribute")

    cm_lines = ["CM = {"]
    skip_lines = ["SKIP = {"]
    for label in sorted(plan.labels):
        trans, acc, expected = _dfa_tables(structure.content(label), label)
        for row in trans.values():
            for sym in row:
                _require_ascii(sym, "content-model symbol")
        trans_src = "{" + ", ".join(
            f"{st}: " + "{" + ", ".join(
                f"{sym!r}: {nx}" for sym, nx in sorted(row.items()))
            + "}" for st, row in sorted(trans.items())) + "}"
        exp_src = "{" + ", ".join(
            f"{st}: {expected[st]!r}" for st in sorted(expected)) + "}"
        cm_lines.append(f"    {label!r}: ({trans_src}, {acc!r}, {exp_src}),")
        skip = _skip_entry(label, plan, trans, acc)
        if skip is not None:
            skip_lines.append(f"    {label!r}: {skip!r},")
    cm_lines.append("}")
    skip_lines.append("}")

    watched_src = "{" + ", ".join(
        f"{label!r}: {tuple(names)!r}"
        for label, names in sorted(watched.items())) + "}"
    wants_src = "{" + ", ".join(
        f"{label!r}: {tuple(sorted(plan.labels[label].elem_fields))!r}"
        for label in sorted(plan.labels)
        if plan.labels[label].elem_fields) + "}"

    parts = [
        f'"""Generated by repro-codegen v{GENERATOR_VERSION}; '
        'do not edit.\n\n'
        'Deterministically derived from one schema; regenerate with\n'
        'repro.codegen.generate_source().\n'
        '"""\n\n'
        "from repro.codegen.runtime import scanners\n\n"
        f"GENERATOR_VERSION = {GENERATOR_VERSION}\n"
        f"FINGERPRINT = {fingerprint!r}\n"
        f"ROOT = {plan.root!r}\n"
        f"RELEVANT = frozenset({sorted(plan.relevant)!r})\n",
        "\n".join(cm_lines) + "\n",
        f"WATCHED = {watched_src}\n",
        f"WANTS = {wants_src}\n",
        "\n".join(skip_lines) + "\n",
        "\n\n"
        "def bind(plan):\n"
        '    """Build the (str scanner, bytes scanner) pair over the live '
        'plan."""\n'
        "    return scanners(plan, ROOT, RELEVANT, CM, WATCHED, WANTS, "
        "SKIP)\n",
    ]
    return "".join(parts)
