"""Single-pass streaming validation from the token stream.

:class:`StreamValidator` folds :class:`~repro.xmlio.tokenizer.Tokenizer`
events through a compiled :class:`~repro.stream.plan.StreamPlan` — no
:class:`~repro.datamodel.tree.DataTree`, no
:class:`~repro.datamodel.indexes.AttributeIndex` — and emits a
:class:`~repro.dtd.validate.ValidationReport` that is byte-identical
(``to_json()``) to ``validate(parse_document(text, S), dtd)``.

What makes byte-identity work:

- **vids** are assigned in start-tag order, which is exactly the
  pre-order rank :meth:`DataTree.create` hands out during a parse.
- **Structural violations** are collected with ``(vid, rank)`` sort keys
  (root check < element/content-model < attribute checks) and stably
  sorted at the end, reproducing the batch validator's pre-order sweep
  even though attribute checks fire at the start tag and content-model
  checks at the close tag.
- **Content models** are stepped one DFA transition per child event
  (``Matcher.step``); the state held at the first dead transition
  reproduces ``prefix_length`` / ``expected_after`` diagnostics without
  ever buffering the child word.
- **Constraints** reuse the untouched
  :class:`~repro.constraints.evaluators.ConstraintEvaluator` machinery.
  A closed element is fed through the same ``add()`` path as an
  incremental insertion, but in strict document (pre-)order: closed
  relevant vertices are buffered while any relevant element remains
  open and flushed sorted by vid, so every evaluator sees exactly the
  vertex sequence a batch ``full()`` pass would (dict insertion orders
  — and therefore emission orders — cannot drift).  Inverse evaluators,
  whose violated-pair order is a function of the whole extension, and
  static (schema-level) violations are deferred to one end-of-document
  ``full()`` over the retained vertices.

Peak memory is O(open-element depth + retained Σ-relevant vertices +
evaluator residual state): vertices whose label no constraint or
declared-ID attribute cares about are dropped at their close tag.
"""

from __future__ import annotations

import os
from operator import attrgetter, itemgetter

from repro.constraints.evaluators import IDConstraintEvaluator, evaluator_for
from repro.dtd.validate import ValidationReport
from repro.errors import XMLSyntaxError
from repro.obs import NULL_OBS
from repro.stream.plan import StreamPlan, compile_plan
from repro.xmlio.tokenizer import Tokenizer

_EMPTY: frozenset[str] = frozenset()

#: open-depth histogram buckets: documents deeper than 128 are exotic
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _TextChild:
    """Stand-in for a text-carrying child vertex: just its ``text``."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class StreamVertex:
    """The retained residue of a Σ-relevant element after its close tag.

    Quacks like :class:`~repro.datamodel.tree.Vertex` for exactly the
    surface the constraint evaluators touch: ``vid``, ``label``,
    ``attr_or_empty``, ``children_labeled`` (sub-element fields only),
    and ``int(v)`` for violation reporting.
    """

    __slots__ = ("vid", "label", "_attributes", "_elem_children")

    def __init__(self, vid: int, label: str,
                 attributes: dict[str, frozenset[str]]):
        self.vid = vid
        self.label = label
        self._attributes = attributes
        self._elem_children: dict[str, list[_TextChild]] | None = None

    def attr_or_empty(self, name: str) -> frozenset[str]:
        return self._attributes.get(name, _EMPTY)

    def children_labeled(self, label: str) -> list[_TextChild]:
        if self._elem_children is None:
            return []
        return self._elem_children.get(label, [])

    def _add_elem_child(self, label: str, text: str) -> None:
        if self._elem_children is None:
            self._elem_children = {}
        self._elem_children.setdefault(label, []).append(_TextChild(text))

    def __int__(self) -> int:
        return self.vid

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<StreamVertex {self.vid} {self.label!r}>"


class StreamIndex:
    """The Σ-relevant shard of an :class:`AttributeIndex`, built as the
    stream flushes closed vertices in pre-order.

    Supports exactly the evaluator-facing surface: ``extension`` (in vid
    = document order, like the tree-wide index), ``id_owners`` /
    ``id_owner_list`` (insertion in pre-order, ditto), and
    ``index_vertex`` returning the declared-ID values gained.
    """

    __slots__ = ("id_attributes", "_ext", "_id_owners")

    def __init__(self, id_map: dict[str, str]):
        self.id_attributes = id_map
        self._ext: dict[str, dict[int, StreamVertex]] = {}
        self._id_owners: dict[str, dict[int, StreamVertex]] = {}

    def index_vertex(self, v: StreamVertex) -> frozenset[str]:
        """Index ``v``; returns its declared-ID values (the vertex's own
        frozenset, never a copy)."""
        self._ext.setdefault(v.label, {})[v.vid] = v
        id_attr = self.id_attributes.get(v.label)
        if id_attr is None:
            return _EMPTY
        values = v.attr_or_empty(id_attr)
        for value in values:
            self._id_owners.setdefault(value, {})[v.vid] = v
        return values

    def extension(self, label: str) -> list[StreamVertex]:
        return list(self._ext.get(label, {}).values())

    @property
    def id_owners(self) -> dict[str, dict[int, StreamVertex]]:
        return self._id_owners

    def id_owner_list(self, value: str) -> list[StreamVertex]:
        return list(self._id_owners.get(value, {}).values())


class _Frame:
    """One open element on the stack."""

    __slots__ = ("label", "vid", "lp", "matcher", "cm_state", "cm_viable",
                 "cm_dead_state", "sv", "wants", "texts")

    def __init__(self, label, vid, lp, matcher, sv, wants, texts):
        self.label = label
        self.vid = vid
        self.lp = lp                    # LabelPlan, or None if undeclared
        self.matcher = matcher
        self.cm_state = 0 if matcher is not None else None
        self.cm_viable = 0              # children consumed while viable
        self.cm_dead_state = -1         # state at the first dead step
        self.sv = sv                    # StreamVertex, or None if dropped
        self.wants = wants              # child labels wanted as §3.4 fields
        self.texts = texts              # captured text chunks, or None


class StreamValidator:
    """Validate documents against one compiled plan, one pass each."""

    def __init__(self, plan_or_dtd, obs=None):
        self.plan: StreamPlan = (
            plan_or_dtd if isinstance(plan_or_dtd, StreamPlan)
            else compile_plan(plan_or_dtd))
        self.obs = obs or NULL_OBS
        #: the :class:`_Run` of the most recent document, kept until the
        #: next one: its finished evaluators are what a shard node
        #: exports as the document's ``L_id`` merge aggregates
        self.last_run: "_Run | None" = None

    def validate(self, source: "str | os.PathLike") -> ValidationReport:
        """Validate a path (:class:`os.PathLike`) or a string that is
        either XML text (starts with ``<``) or a filesystem path."""
        if isinstance(source, os.PathLike):
            return self.validate_path(os.fspath(source))
        if source.lstrip().startswith("<"):
            return self.validate_text(source)
        return self.validate_path(source)

    def validate_path(self, path: str) -> ValidationReport:
        with open(path, "rb") as fh:
            return self.validate_text(fh.read().decode("utf-8"))

    def validate_text(self, text: str,
                      keep_whitespace: bool = False) -> ValidationReport:
        """One streaming pass; raises
        :class:`~repro.errors.XMLSyntaxError` on malformed input, with
        the same messages as :func:`~repro.xmlio.parser.parse_document`.
        """
        obs = self.obs
        if not obs.enabled:
            run = self.last_run = _Run(self.plan, NULL_OBS)
            return run.run(text, keep_whitespace)
        with obs.span("stream.validate", chars=len(text)) as span:
            run = self.last_run = _Run(self.plan, obs)
            report = run.run(text, keep_whitespace)
            span.set(events=run.n_events, elements=run.next_vid,
                     violations=len(report))
        return report


class _Run:
    """Mutable state of one streaming validation pass."""

    def __init__(self, plan: StreamPlan, obs):
        self.plan = plan
        self.structure = plan.structure
        self.labels = plan.labels
        self.matchers = plan.matchers
        self.relevant = plan.relevant
        self.obs = obs
        self.next_vid = 0
        self.n_events = 0
        self.root_seen = False
        self.stack: list[_Frame] = []
        self.pending_text: list[tuple[str, int]] = []
        #: ((vid, rank), code, message, vids): rank -1 root check,
        #: 0 element/content-model, 1 attribute checks — the batch sweep
        #: order, recovered by one stable sort at the end
        self.structural: list[tuple] = []
        self.index = StreamIndex(plan.id_map)
        self.evaluators = [evaluator_for(c, self.index, plan.id_map,
                                         obs=obs if obs.enabled else None)
                           for c in plan.constraints]
        self.dispatch = {
            label: tuple(self.evaluators[i] for i in lp.evaluators)
            for label, lp in plan.labels.items() if lp.evaluators}
        self.id_listeners = tuple(
            ev for i, ev in enumerate(self.evaluators)
            if isinstance(ev, IDConstraintEvaluator)
            and i not in plan.deferred)
        self.open_relevant = 0
        self.region: list[StreamVertex] = []

    # -- the pass --------------------------------------------------------

    def run(self, text: str, keep_whitespace: bool) -> ValidationReport:
        track = self.obs.enabled
        depth_hist = self.obs.histogram(
            "stream_open_depth",
            help="open-element stack depth at each start tag",
            buckets=_DEPTH_BUCKETS) if track else None
        stack = self.stack
        pending = self.pending_text
        n_events = 0
        for token in Tokenizer(text).tokens():
            n_events += 1
            kind = token.kind
            if kind == "text":
                pending.append((token.value, token.line))
                continue
            if kind in ("comment", "pi", "doctype"):
                continue
            if pending:
                self._flush_text(keep_whitespace)
            if kind == "start":
                stack.append(self._open(token))
                if track:
                    depth_hist.observe(len(stack))
            elif kind == "empty":
                self._close(self._open(token))
            else:  # "end"
                if not stack:
                    raise XMLSyntaxError(
                        f"unexpected end tag </{token.value}>",
                        line=token.line)
                top = stack.pop()
                if top.label != token.value:
                    raise XMLSyntaxError(
                        f"end tag </{token.value}> does not match open "
                        f"element <{top.label}>", line=token.line)
                self._close(top)
        if pending:
            self._flush_text(keep_whitespace)
        self.n_events = n_events
        if not self.root_seen:
            raise XMLSyntaxError("document has no root element")
        if stack:
            raise XMLSyntaxError(
                f"unclosed element <{stack[-1].label}> at end of input")
        return self._finish()

    def _flush_text(self, keep_whitespace: bool) -> None:
        stack = self.stack
        for chunk, line in self.pending_text:
            if not stack:
                if chunk.strip():
                    raise XMLSyntaxError(
                        "character data outside the root element", line=line)
                continue
            if keep_whitespace or chunk.strip():
                top = stack[-1]
                self._step(top, "S")
                if top.texts is not None:
                    top.texts.append(chunk)
        self.pending_text.clear()

    def _open(self, token) -> _Frame:
        label = token.value
        stack = self.stack
        if not self.root_seen:
            self.root_seen = True
            if label != self.structure.root:
                self.structural.append((
                    (0, -1), "root",
                    f"root is {label!r}, expected {self.structure.root!r}",
                    (0,)))
        elif not stack:
            raise XMLSyntaxError(f"second root element {label!r}",
                                 line=token.line)
        vid = self.next_vid
        self.next_vid = vid + 1
        parent = stack[-1] if stack else None
        if parent is not None:
            self._step(parent, label)

        lp = self.labels.get(label)
        structural = self.structural
        attrs: dict[str, frozenset[str]] = {}
        if lp is None:
            for name, raw in token.attributes:
                attrs[name] = frozenset((raw,))
            structural.append(((vid, 0), "element",
                               f"undeclared element type {label!r}", (vid,)))
        else:
            set_valued = lp.set_valued
            for name, raw in token.attributes:
                attrs[name] = (frozenset(raw.split()) if name in set_valued
                               else frozenset((raw,)))
            declared = lp.declared_attrs
            for name, values in attrs.items():
                if name not in declared:
                    structural.append((
                        (vid, 1), "attribute",
                        f"undeclared attribute {label}.{name}", (vid,)))
                elif name not in set_valued and len(values) != 1:
                    structural.append((
                        (vid, 1), "attribute",
                        f"single-valued attribute {label}.{name} holds "
                        f"{len(values)} values", (vid,)))
            for name in declared:
                if name not in attrs:
                    structural.append((
                        (vid, 1), "attribute",
                        f"missing attribute {label}.{name}", (vid,)))

        sv = None
        wants = _EMPTY
        if label in self.relevant:
            sv = StreamVertex(vid, label, attrs)
            self.open_relevant += 1
            if lp is not None:
                wants = lp.elem_fields
        texts = (
            [] if parent is not None and parent.wants
            and label in parent.wants else None)
        return _Frame(label, vid,
                      lp, self.matchers[label] if lp is not None else None,
                      sv, wants, texts)

    def _step(self, frame: _Frame, symbol: str) -> None:
        state = frame.cm_state
        if state is None:
            return
        nxt = frame.matcher.step(state, symbol)
        if nxt is None:
            frame.cm_dead_state = state
            frame.cm_state = None
        else:
            frame.cm_state = nxt
            frame.cm_viable += 1

    def _close(self, frame: _Frame) -> None:
        if frame.lp is not None:
            state = frame.cm_state
            if state is None or not frame.matcher.is_accepting_state(state):
                viable = frame.cm_viable
                expected = sorted(frame.matcher.expected_from(
                    frame.cm_dead_state if state is None else state))
                self.structural.append((
                    (frame.vid, 0), "content-model",
                    f"children of {frame.label!r} do not match its content "
                    f"model (stuck after {viable} child(ren); expected one "
                    f"of {expected})", (frame.vid,)))
        if frame.texts is not None:
            parent = self.stack[-1]
            if parent.sv is not None:
                parent.sv._add_elem_child(frame.label, "".join(frame.texts))
        if frame.sv is not None:
            self.region.append(frame.sv)
            self.open_relevant -= 1
            if not self.open_relevant:
                self._flush_region()

    def _flush_region(self) -> None:
        """Feed the buffered closed vertices to the evaluators in vid
        (= document pre-) order.

        The buffer drains only when no Σ-relevant element is open, so
        every vertex opened later has a larger vid than anything flushed
        here — the concatenation of flushes is globally vid-sorted, and
        each evaluator sees the same vertex sequence as a batch
        ``full()`` over the complete extension.
        """
        region = self.region
        if len(region) > 1:
            region.sort(key=attrgetter("vid"))
        index = self.index
        dispatch = self.dispatch
        id_listeners = self.id_listeners
        for v in region:
            gained = index.index_vertex(v)
            interested = dispatch.get(v.label)
            if interested is not None:
                for ev in interested:
                    ev.add(v)
            if gained and id_listeners:
                for ev in id_listeners:
                    ev.id_values_changed(gained)
        region.clear()

    def _finish(self) -> ValidationReport:
        obs = self.obs
        report = ValidationReport()
        self.structural.sort(key=itemgetter(0))
        for _key, code, message, vids in self.structural:
            report.add(code, message, vertices=vids)
        deferred = self.plan.deferred
        for i, ev in enumerate(self.evaluators):
            if obs.enabled:
                with obs.span("stream.emit",
                              constraint=str(ev.constraint)):
                    if i in deferred:
                        ev.full()
                    ev.emit(report)
            else:
                if i in deferred:
                    ev.full()
                ev.emit(report)
        if obs.enabled:
            obs.counter("stream_events",
                        help="tokenizer events folded by the streaming "
                        "validator").add(self.n_events)
            obs.counter("stream_elements",
                        help="element vertices seen by the streaming "
                        "validator").add(self.next_vid)
            for label, members in self.index._ext.items():
                obs.counter("stream_dispatch_vertices", {"label": label},
                            help="closed vertices dispatched to "
                            "constraint evaluators, per label"
                            ).add(len(members))
                with obs.span("stream.dispatch", label=label,
                              vertices=len(members)):
                    pass
        return report
