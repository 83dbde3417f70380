"""The codegen engine's scanners and its per-document run state.

:func:`scanners` builds, in-process from a compiled
:class:`~repro.stream.plan.StreamPlan`, two scanner closures — one over
``str`` buffers, one over ``bytes``/``mmap`` buffers — each a single
pass that parses, checks structure, and feeds Σ-relevant vertices into
a :class:`RunState`.  Their tables are specialised to the schema:

- **content models** step through the plan's lazily-determinised
  :class:`~repro.regexlang.automaton.Matcher`: a transition is one
  lookup in the matcher's own row for the state (:attr:`Matcher.rows`),
  and a row fills on first use, so no content model is determinised
  beyond what documents reach;
- **watched attributes** — only the attribute names Σ reads
  (:attr:`~repro.stream.plan.LabelPlan.watched`) are materialized on
  retained vertices; every other attribute costs one membership test
  for the undeclared/missing structural checks and is never copied;
- **Σ-irrelevant run labels** (:func:`run_labels`) — labels no
  constraint watches, with no declared attributes and a text-or-empty
  content model, whose runs a bounded regex match consumes.

What a scanner does per construct:

- a whole start tag (name, attributes, ``>``/``/>``) is one regex
  match, and so is a whole end tag; whitespace-only text in front of
  either is consumed by the same match, never queued.  On the bytes
  path a start tag's attribute span is decoded once, so every attribute
  name and value is a ``str`` from then on.  A start tag the one-regex
  match rejects, or whose span holds a raw ``<`` (which the regex lets
  through quoted values: a negated two-character class is markedly
  slower on ``bytes``), is replayed attribute by attribute only to
  raise the located error the tokenizer raises;
- ``<x/>`` is closed inline, without building a stack frame;
- a run of Σ-irrelevant leaves is consumed :data:`RUN_MAX` elements per
  regex match, so neither the regex engine's backtracking stack nor the
  copy an ``mmap`` (which has no ``count``) needs to count a match in
  grows with the run; the parent DFA advances arithmetically;
- closed Σ-relevant vertices are buffered and handed to
  :meth:`RunState.flush_region` in batches of :data:`FLUSH_BATCH`.

Both scanners use the ``str`` whitespace class: the bytes scanner runs
on ASCII input only, where that class is :data:`_WS_BYTES`, and its
tables leave out names that are not ASCII (no such tag can occur).
Element and attribute names are those the tokenizer's ``_NAME_RE``
accepts; a leading byte-order mark is skipped, and a repeated
attribute name, a raw ``<`` in an attribute value and ``--`` in a
comment raise the tokenizer's located errors.
"""

from __future__ import annotations

import re
from operator import attrgetter, itemgetter

from repro.constraints.evaluators import IDConstraintEvaluator, evaluator_for
from repro.dtd.validate import ValidationReport
from repro.errors import XMLSyntaxError
from repro.obs import NULL_OBS
from repro.stream.validator import StreamIndex, StreamVertex
from repro.xmlio.escape import unescape

__all__ = ["FLUSH_BATCH", "RUN_MAX", "RunState", "run_labels", "scanners"]

#: closed Σ-relevant vertices buffered before :meth:`RunState.flush_region`
#: runs (a batch is flushed only while no Σ-relevant element is open)
FLUSH_BATCH = 256

#: the ASCII characters ``str.isspace()`` (and ``str``-mode ``\s``)
#: accepts: ``\t \n \x0b \x0c \r``, ``\x1c``–``\x1f`` and space — the
#: bytes scanner's whitespace, as ``strip()`` argument and regex class
_WS_BYTES = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_NAME = r"[A-Za-z_:][\w:.\-]*"
_EMPTY_FS: frozenset = frozenset()
_EMPTY_MAP: dict = {}
_VID = attrgetter("vid")

#: the attributes of a decoded start-tag span as (name, "-quoted value,
#: '-quoted value); the span already matched the start-tag pattern, so
#: a name is simply the next run of non-space, non-``=`` characters
_ATTR_FIND = re.compile(
    r"([^\s=]+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)')").findall


#: most elements one match of a run pattern consumes; a longer run takes
#: several matches, so a match's backtracking stack (and an ``mmap``'s
#: counting copy) stays bounded whatever the run's length
RUN_MAX = 256


def run_labels(plan) -> dict[str, bool]:
    """The Σ-irrelevant leaf labels whose runs the scanner consumes with
    a regex match, each mapped to whether one text chunk is legal in it.

    Such a label is retained by no constraint, captured as text by no
    parent, declares no attributes, and has a content model that
    accepts exactly what the run pattern admits — the empty word
    (``<L/>``, ``<L></L>``) and, when text is legal, one text chunk
    (``<L>text</L>``).  Elements matched by the pattern can contribute
    nothing to the report beyond a vid and one parent-DFA step, which
    the scanner applies arithmetically.
    """
    runs = {}
    for label, lp in plan.labels.items():
        if (label in plan.relevant or label in plan.text_fields
                or lp.declared_attrs):
            continue
        m = plan.matchers[label]
        if m.is_accepting_state(0):
            after_text = m.step(0, "S")
            runs[label] = (after_text is not None
                           and m.is_accepting_state(after_text))
    return runs


def _run_pattern(label: str, text_ok: bool, ws: str):
    """The run pattern for a Σ-irrelevant leaf label and the tokens that
    count its elements: ``<L/>``, ``<L></L>`` and, when text is legal,
    ``<L>text</L>``, separated by whitespace, at most :data:`RUN_MAX`
    of them.  A run ends at its last element, so text after it starts
    where the tokenizer's does (the line of an error in that text
    depends on it)."""
    e = re.escape(label)
    if text_ok:
        unit = f"<{e}>[^<&]*</{e}>|<{e}/>"
        tokens = (f"<{label}>", f"<{label}/>")
    else:
        unit = f"<{e}/>|<{e}></{e}>"
        tokens = (f"<{label}/>", f"<{label}></{label}>")
    return f"(?:{unit})(?:{ws}*(?:{unit})){{0,{RUN_MAX - 1}}}", tokens


def scanners(plan, runs):
    """The (str scanner, bytes scanner) pair for ``plan``, with the
    labels of ``runs`` (:func:`run_labels`) taking the run fast path."""
    return (_scanner(plan, runs, as_bytes=False),
            _scanner(plan, runs, as_bytes=True))


def _duplicate_attribute(name: str, label: str, line: int):
    """The tokenizer's error for a start tag repeating ``name``."""
    return XMLSyntaxError(
        f"duplicate attribute {name!r} in start tag <{label}", line=line)


def _scanner(plan, runs, *, as_bytes):
    if as_bytes:
        def M(s):
            return s.encode("ascii")

        dec = bytes.decode
        ws = "[" + _WS_BYTES.decode("ascii") + "]"
        strip_ws = _WS_BYTES

        def R(p):
            return re.compile(p.encode("ascii"))
    else:
        def M(s):
            return s

        dec = str
        ws = r"\s"
        strip_ws = None
        R = re.compile

    root = plan.root
    relevant = plan.relevant
    # rec tuple layout (one per declared label, keyed by its mode label)
    # 0 str label  1 matcher rows  2 matcher acceptance  3 matcher
    # 4 declared (live order)  5 set-valued  6 watched  7 relevant
    # 8 wants  9 run regex  10 run count tokens
    LABELS = {}
    for slabel, lp in plan.labels.items():
        if as_bytes and not slabel.isascii():
            continue  # the bytes scanner only ever sees ASCII input
        m = plan.matchers[slabel]
        text_ok = runs.get(slabel)
        if text_ok is None:
            run_re, run_tokens = None, ()
        else:
            pattern, tokens = _run_pattern(slabel, text_ok, ws)
            run_re, run_tokens = R(pattern), tuple(M(t) for t in tokens)
        LABELS[M(slabel)] = (
            slabel, m.rows, m.accepting, m,
            lp.declared_attrs, lp.set_valued, lp.watched,
            slabel in relevant, lp.elem_fields, run_re, run_tokens)
    LT = M("<")
    AMP = M("&")
    NL = M("\n")
    START_TAG = R(
        rf"{ws}*<({_NAME})((?:{ws}+{_NAME}{ws}*={ws}*"
        rf"(?:\"[^\"]*\"|'[^']*'))*){ws}*(/?)>").match
    END_TAG = R(rf"{ws}*</({_NAME}){ws}*>").match
    # the per-attribute pieces, replayed only to locate an error
    NAME_RE = R(_NAME)
    ATTR_RE = R(rf"{ws}+({_NAME}){ws}*={ws}*(\"[^\"<]*\"|'[^'<]*')")
    DOCT_RE = R(r"[\[\]>]")
    COMMENT_OPEN = M("<!--")
    COMMENT_CLOSE = M("-->")
    DASHES = M("--")
    DASH = M("-")
    CDATA_OPEN = M("<![CDATA[")
    CDATA_CLOSE = M("]]>")
    PI_OPEN = M("<?")
    PI_CLOSE = M("?>")
    DOCTYPE_OPEN = M("<!DOCTYPE")
    END_OPEN = M("</")
    LBRACK = M("[")
    RBRACK = M("]")

    def scan(buf, rs):
        n = len(buf)
        # a leading byte-order mark is skipped (only decoded input can
        # carry one: it is not ASCII)
        pos = 1 if not as_bytes and buf[:1] == "\ufeff" else 0
        find = buf.find
        start_tag = START_TAG
        end_tag = END_TAG
        labels = LABELS
        structural = rs.structural
        region = rs.region
        flush_region = rs.flush_region
        stack = []
        # frame layout: 0 mode label  1 str label  2 vid  3 matcher rows
        # 4 state  5 viable  6 dead state  7 vertex  8 wants  9 texts
        # 10 rec
        # A content-model step is ``rows[state].get(symbol)``; None is a
        # dead transition or one not taken yet, which the matcher's
        # ``step`` tells apart (filling the row).
        pending = []  # non-blank text chunks: (raw, pos, cooked or None)
        next_vid = 0
        n_skipped = 0
        root_seen = False
        open_relevant = 0

        count = getattr(buf, "count", None)
        if count is None:
            # an mmap has no .count: count in a copy of the span
            def count(sub, start, end):
                return buf[start:end].count(sub)

        def line_at(p):
            # error paths only
            return count(NL, 0, p) + 1

        def cook(raw, p):
            # unescape a decoded str with the error line computed lazily
            # — the happy path never pays a line count
            try:
                return unescape(raw, 1)
            except XMLSyntaxError:
                unescape(raw, line_at(p))
                raise

        def flush():
            if not stack:
                raise XMLSyntaxError(
                    "character data outside the root element",
                    line=line_at(pending[0][1]))
            top = stack[-1]
            for chunk, _cpos, cooked in pending:
                state = top[4]
                if state is not None:
                    nxt = top[3][state].get("S")
                    if nxt is None:
                        nxt = top[10][3].step(state, "S")
                    if nxt is None:
                        top[6] = state
                        top[4] = None
                    else:
                        top[4] = nxt
                        top[5] += 1
                if top[9] is not None:
                    top[9].append(dec(chunk) if cooked is None else cooked)
            pending.clear()

        def start_tag_error(p):
            # the one-regex match rejected the tag at ``p``: replay it
            # attribute by attribute for the tokenizer's located error
            nm = NAME_RE.match(buf, p + 1)
            if nm is None:
                return XMLSyntaxError("malformed start tag",
                                      line=line_at(p))
            rec = labels.get(nm.group(0))
            slabel = rec[0] if rec is not None else dec(nm.group(0))
            j = nm.end()
            names = set()
            while True:
                am = ATTR_RE.match(buf, j)
                if am is None:
                    break
                name = dec(am.group(1))
                if name in names:
                    return _duplicate_attribute(name, slabel, line_at(p))
                names.add(name)
                raw = dec(am.group(2)[1:-1])
                if "&" in raw:
                    cook(raw, p)
                j = am.end()
            return XMLSyntaxError(f"malformed start tag <{slabel}",
                                  line=line_at(p))

        while pos < n:
            m = start_tag(buf, pos)
            if m is not None:
                label, span, slash = m.groups()
                rec = labels.get(label)
                if stack and rec is not None and rec[9] is not None:
                    # a run of Σ-irrelevant leaves: consume up to
                    # RUN_MAX of them
                    sm = rec[9].match(buf, m.start(1) - 1)
                    if sm is not None:
                        if pending:
                            flush()
                        start, end = sm.span()
                        cnt = 0
                        for tok in rec[10]:
                            cnt += count(tok, start, end)
                        parent = stack[-1]
                        state = parent[4]
                        if state is not None:
                            trans = parent[3]
                            sym = rec[0]
                            seen = {}
                            k = 0
                            while k < cnt:
                                at = seen.get(state)
                                if at is not None:
                                    # periodic: remaining steps all live
                                    rem = (cnt - k) % (k - at)
                                    for _ in range(rem):
                                        state = trans[state][sym]
                                    k = cnt
                                    break
                                seen[state] = k
                                nxt = trans[state].get(sym)
                                if nxt is None:
                                    nxt = parent[10][3].step(state, sym)
                                if nxt is None:
                                    parent[6] = state
                                    state = None
                                    break
                                state = nxt
                                k += 1
                            if state is None:
                                parent[4] = None
                                parent[5] += k
                            else:
                                parent[4] = state
                                parent[5] += cnt
                        next_vid += cnt
                        n_skipped += cnt
                        pos = end
                        continue
                if rec is not None:
                    slabel = rec[0]
                    keep = rec[6]
                else:
                    slabel = dec(label)
                    keep = _EMPTY_FS
                # amap: every attribute; attrs: the watched ones, as the
                # value sets a retained vertex carries
                attrs = {}
                if span:
                    span = dec(span)
                    if "<" in span:  # a raw '<' in an attribute value
                        raise start_tag_error(m.start(1) - 1)
                    amp = "&" in span
                    amap = {}
                    for name, dq, sq in _ATTR_FIND(span):
                        if name in amap:
                            raise _duplicate_attribute(
                                name, slabel, line_at(m.start(1) - 1))
                        val = dq or sq
                        if amp and "&" in val:
                            val = cook(val, m.start(1) - 1)
                        amap[name] = val
                        if name in keep:
                            attrs[name] = (
                                frozenset(val.split()) if name in rec[5]
                                else frozenset((val,)))
                else:
                    amap = _EMPTY_MAP
                if pending:
                    flush()
                if not root_seen:
                    root_seen = True
                    if slabel != root:
                        structural.append((
                            (0, -1), "root",
                            f"root is {slabel!r}, expected {root!r}",
                            (0,)))
                elif not stack:
                    raise XMLSyntaxError(
                        f"second root element {slabel!r}",
                        line=line_at(m.start(1) - 1))
                vid = next_vid
                next_vid = vid + 1
                if stack:
                    parent = stack[-1]
                    state = parent[4]
                    if state is not None:
                        nxt = parent[3][state].get(slabel)
                        if nxt is None:
                            nxt = parent[10][3].step(state, slabel)
                        if nxt is None:
                            parent[6] = state
                            parent[4] = None
                        else:
                            parent[4] = nxt
                            parent[5] += 1
                    texts = ([] if parent[8] and slabel in parent[8]
                             else None)
                else:
                    parent = None
                    texts = None
                sv = None
                if rec is not None:
                    declared = rec[4]
                    if amap.keys() != declared:
                        for name in amap:
                            if name not in declared:
                                structural.append((
                                    (vid, 1), "attribute",
                                    f"undeclared attribute "
                                    f"{slabel}.{name}", (vid,)))
                        # (the batch validator's single-valued
                        # multiplicity check cannot fire on parsed
                        # input: a parsed attribute always carries
                        # exactly one value)
                        for name in declared:
                            if name not in amap:
                                structural.append((
                                    (vid, 1), "attribute",
                                    f"missing attribute {slabel}.{name}",
                                    (vid,)))
                    if rec[7]:
                        sv = StreamVertex(vid, slabel, attrs)
                else:
                    structural.append((
                        (vid, 0), "element",
                        f"undeclared element type {slabel!r}", (vid,)))
                    if slabel in relevant:
                        sv = StreamVertex(vid, slabel, {
                            name: frozenset((val,))
                            for name, val in amap.items()})
                pos = m.end()
                if slash:
                    # <x/>: closed here, with no children
                    if rec is not None and not rec[2][0]:
                        expected = sorted(rec[3].expected_from(0))
                        structural.append((
                            (vid, 0), "content-model",
                            f"children of {slabel!r} do not match its "
                            f"content model (stuck after 0 child(ren); "
                            f"expected one of {expected})", (vid,)))
                    if texts is not None and parent[7] is not None:
                        parent[7]._add_elem_child(slabel, "")
                    if sv is not None:
                        region.append(sv)
                        if not open_relevant and len(region) >= FLUSH_BATCH:
                            flush_region()
                    continue
                if sv is not None:
                    open_relevant += 1
                stack.append([
                    label, slabel, vid,
                    rec[1] if rec is not None else None,
                    0 if rec is not None else None,
                    0, -1, sv,
                    rec[8] if sv is not None and rec is not None
                    else _EMPTY_FS,
                    texts, rec])
                continue
            m = end_tag(buf, pos)
            if m is not None:
                elabel = m.group(1)
                if pending:
                    flush()
                if not stack:
                    raise XMLSyntaxError(
                        f"unexpected end tag </{dec(elabel)}>",
                        line=line_at(m.start(1) - 2))
                top = stack.pop()
                if top[0] != elabel:
                    raise XMLSyntaxError(
                        f"end tag </{dec(elabel)}> does not match open "
                        f"element <{top[1]}>",
                        line=line_at(m.start(1) - 2))
                rec = top[10]
                if rec is not None:
                    state = top[4]
                    if state is None or not rec[2][state]:
                        expected = sorted(rec[3].expected_from(
                            top[6] if state is None else state))
                        structural.append((
                            (top[2], 0), "content-model",
                            f"children of {top[1]!r} do not match its "
                            f"content model (stuck after {top[5]} "
                            f"child(ren); expected one of {expected})",
                            (top[2],)))
                texts = top[9]
                if texts is not None:
                    psv = stack[-1][7]
                    if psv is not None:
                        psv._add_elem_child(top[1], "".join(texts))
                sv = top[7]
                if sv is not None:
                    region.append(sv)
                    open_relevant -= 1
                    if not open_relevant and len(region) >= FLUSH_BATCH:
                        flush_region()
                pos = m.end()
                continue
            i = find(LT, pos)
            if i != pos:
                # text up to the next markup; blank text is dropped here
                end = n if i < 0 else i
                chunk = buf[pos:end]
                if AMP in chunk:
                    cooked = cook(dec(chunk), pos)
                    if cooked.strip():
                        pending.append((chunk, pos, cooked))
                elif chunk.strip(strip_ws):
                    pending.append((chunk, pos, None))
                pos = end
                continue
            if buf[pos:pos + 4] == COMMENT_OPEN:
                e = find(COMMENT_CLOSE, pos + 4)
                if e < 0:
                    raise XMLSyntaxError("unterminated comment",
                                         line=line_at(pos))
                if find(DASHES, pos + 4, e) >= 0 or (
                        e > pos + 4 and buf[e - 1:e] == DASH):
                    raise XMLSyntaxError("'--' inside a comment",
                                         line=line_at(pos))
                pos = e + 3
                continue
            if buf[pos:pos + 9] == CDATA_OPEN:
                e = find(CDATA_CLOSE, pos + 9)
                if e < 0:
                    raise XMLSyntaxError("unterminated CDATA section",
                                         line=line_at(pos))
                # CDATA is a text chunk, never unescaped
                chunk = buf[pos + 9:e]
                if chunk.strip(strip_ws):
                    pending.append((chunk, pos, None))
                pos = e + 3
                continue
            if buf[pos:pos + 2] == PI_OPEN:
                e = find(PI_CLOSE, pos + 2)
                if e < 0:
                    raise XMLSyntaxError(
                        "unterminated processing instruction",
                        line=line_at(pos))
                pos = e + 2
                continue
            if buf[pos:pos + 9] == DOCTYPE_OPEN:
                depth = 0
                in_bracket = False
                j = pos
                while True:
                    dm = DOCT_RE.search(buf, j)
                    if dm is None:
                        raise XMLSyntaxError(
                            "unterminated DOCTYPE declaration",
                            line=line_at(pos))
                    ch = dm.group(0)
                    j = dm.end()
                    if ch == LBRACK:
                        in_bracket = True
                        depth += 1
                    elif ch == RBRACK:
                        depth -= 1
                        if depth == 0:
                            in_bracket = False
                    elif not in_bracket:
                        pos = j
                        break
                continue
            if buf[pos:pos + 2] == END_OPEN:
                em = NAME_RE.match(buf, pos + 2)
                if em is None:
                    raise XMLSyntaxError("malformed end tag",
                                         line=line_at(pos))
                # END_TAG rejected it, so no '>' follows the name
                raise XMLSyntaxError(
                    f"malformed end tag </{dec(em.group(0))}",
                    line=line_at(pos))
            raise start_tag_error(pos)

        if pending:
            flush()
        if not root_seen:
            raise XMLSyntaxError("document has no root element")
        if stack:
            raise XMLSyntaxError(
                f"unclosed element <{stack[-1][1]}> at end of input")
        if region:
            flush_region()
        rs.next_vid = next_vid
        rs.n_skipped = n_skipped
        return rs.finish()

    return scan


class RunState:
    """Mutable constraint-side state of one scanner pass: the evaluator
    feed and report assembly.

    The scanner owns parsing, structural checks and vertex construction;
    it appends closed Σ-relevant vertices to :attr:`region` and calls
    :meth:`flush_region` once a batch of :data:`FLUSH_BATCH` has
    gathered while no Σ-relevant element is open, and once more before
    :meth:`finish`.  The report is byte-identical (``to_json()``) to the
    batch ``validate(parse_document(text, S), dtd)`` because:

    - **vids** are assigned in start-tag order, which is exactly the
      pre-order rank :meth:`DataTree.create` hands out during a parse;
    - **structural violations** are collected with ``(vid, rank)`` sort
      keys (root check < element/content-model < attribute checks) and
      stably sorted in :meth:`finish`, reproducing the batch validator's
      pre-order sweep even though attribute checks fire at the start
      tag and content-model checks at the close tag;
    - **content models** are stepped one DFA transition per child; the
      state held at the first dead transition reproduces the
      ``prefix_length`` / ``expected_after`` diagnostics without ever
      buffering the child word;
    - **constraints** reuse the
      :class:`~repro.constraints.evaluators.ConstraintEvaluator`
      machinery.  A closed element is fed through the same ``add()``
      path as an incremental insertion, in strict document (pre-)order:
      the region drains only while no Σ-relevant element is open, and
      sorted by vid, so every vertex opened later has a larger vid than
      anything flushed and each evaluator sees the vertex sequence a
      batch ``full()`` pass would (dict insertion orders — and so
      emission orders — cannot drift).  Inverse evaluators, whose
      violated-pair order is a function of the whole extension, and
      static (schema-level) violations are deferred to one
      end-of-document ``full()`` over the retained vertices.

    Peak memory is O(open-element depth + retained Σ-relevant vertices
    + evaluator residual state): vertices whose label no constraint or
    declared-ID attribute cares about are never retained.
    """

    __slots__ = ("plan", "obs", "structural", "region", "index",
                 "evaluators", "dispatch", "id_listeners", "next_vid",
                 "n_skipped")

    def __init__(self, plan, obs=None):
        obs = obs or NULL_OBS
        self.plan = plan
        self.obs = obs
        #: ((vid, rank), code, message, vids): rank -1 root check, 0
        #: element/content-model, 1 attribute checks
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
        self.region: list = []
        self.next_vid = 0
        #: elements admitted through the Σ-irrelevant run fast path
        #: (never individually materialized)
        self.n_skipped = 0

    def flush_region(self) -> None:
        """Feed buffered closed vertices to the evaluators in vid order
        (drained only while no Σ-relevant element is open, so the
        concatenation of flushes is globally vid-sorted)."""
        region = self.region
        if len(region) > 1:
            region.sort(key=_VID)
        index_vertex = self.index.index_vertex
        dispatch = self.dispatch
        id_listeners = self.id_listeners
        for v in region:
            gained = index_vertex(v)
            interested = dispatch.get(v.label)
            if interested is not None:
                for ev in interested:
                    ev.add(v)
            if gained and id_listeners:
                for ev in id_listeners:
                    ev.id_values_changed(gained)
        region.clear()

    def finish(self) -> ValidationReport:
        """Assemble the report: structural violations in batch sweep
        order, then every evaluator's emit (deferred ones run their
        end-of-document ``full()`` first)."""
        obs = self.obs
        report = ValidationReport()
        self.structural.sort(key=itemgetter(0))
        for _key, code, message, vids in self.structural:
            report.add(code, message, vertices=vids)
        deferred = self.plan.deferred
        for i, ev in enumerate(self.evaluators):
            if obs.enabled:
                with obs.span("codegen.emit",
                              constraint=str(ev.constraint)):
                    if i in deferred:
                        ev.full()
                    ev.emit(report)
            else:
                if i in deferred:
                    ev.full()
                ev.emit(report)
        if obs.enabled:
            obs.counter("codegen_elements",
                        help="element vertices seen by the codegen "
                        "engine").add(self.next_vid)
            obs.counter("codegen_skipped_elements",
                        help="elements admitted through the codegen "
                        "sigma-irrelevant run fast path").add(self.n_skipped)
            for label, members in self.index._ext.items():
                obs.counter("codegen_dispatch_vertices", {"label": label},
                            help="closed vertices dispatched to "
                            "constraint evaluators by the codegen "
                            "engine, per label").add(len(members))
        return report
