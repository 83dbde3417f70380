"""The schema-independent half of every generated module.

A generated module (see :mod:`repro.codegen.generate`) holds only
literal tables: per-label DFA transitions, the Σ-watched attribute
names, sub-element field wants and the Σ-irrelevant run labels.  Its
``bind(plan)`` hands them to :func:`scanners`, which builds the two
scanner closures — one over ``str`` buffers, one over ``bytes``/``mmap``
buffers — each a single pass that parses, checks structure, and feeds
Σ-relevant vertices into a :class:`RunState`.

What a scanner does per construct:

- a whole start tag (name, attributes, ``>``/``/>``) is one regex
  match, and so is a whole end tag; whitespace-only text in front of
  either is consumed by the same match, never queued.  On the bytes
  path a start tag's attribute span is decoded once, so every attribute
  name and value is a ``str`` from then on.  A start tag the one-regex
  match rejects is replayed attribute by attribute only to raise the
  located error the tokenizer raises;
- ``<x/>`` is closed inline, without building a stack frame;
- a run of Σ-irrelevant leaves is consumed by one regex match and its
  elements are counted in place (an ``mmap``, which has no ``count``,
  counts a copy of the run); the parent DFA advances arithmetically;
- closed Σ-relevant vertices are buffered and handed to
  :meth:`RunState.flush_region` in batches of :data:`FLUSH_BATCH`.

Both scanners use the ``str`` whitespace class: the bytes scanner runs
on ASCII input only, where that class is :data:`_WS_BYTES`.

:class:`RunState` owns everything whose byte-exact behaviour belongs to
the existing machinery — evaluator dispatch, the pre-order region
buffer, deferred ``full()`` passes, and report assembly — reusing the
same :class:`~repro.stream.validator.StreamIndex` /
:func:`~repro.constraints.evaluators.evaluator_for` code paths the
streaming interpreter runs, so the :class:`ValidationReport` stays
byte-identical (``to_json()``) across batch, stream and codegen engines.
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

__all__ = ["FLUSH_BATCH", "RunState", "scanners"]

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


def _skip_pattern(label: str, text_ok: bool, ws: str):
    """The run pattern for a Σ-irrelevant leaf label and the tokens that
    count its elements: ``<L/>``, ``<L></L>`` and, when text is legal,
    ``<L>text</L>``, separated by whitespace.  A run ends at its last
    element, so text after it starts where the tokenizer's does (the
    line of an error in that text depends on it)."""
    e = re.escape(label)
    if text_ok:
        unit = f"<{e}>[^<&]*</{e}>|<{e}/>"
        tokens = (f"<{label}>", f"<{label}/>")
    else:
        unit = f"<{e}/>|<{e}></{e}>"
        tokens = (f"<{label}/>", f"<{label}></{label}>")
    return f"(?:{unit})(?:{ws}*(?:{unit}))*", tokens


def scanners(plan, root, relevant, cm, watched, wants, skip):
    """The (str scanner, bytes scanner) pair over a generated module's
    tables and the live plan (whose declared-attribute iteration order
    must match the in-process batch/stream validators)."""
    args = (plan, root, relevant, cm, watched, wants, skip)
    return _scanner(*args, as_bytes=False), _scanner(*args, as_bytes=True)


def _scanner(plan, root, relevant, cm, watched, wants, skip, *, as_bytes):
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

    # rec tuple layout (one per declared label, keyed by its mode label)
    # 0 slabel  1 trans  2 accepting  3 expected  4 declared (live order)
    # 5 set-valued  6 watched  7 relevant  8 wants  9 skip regex
    # 10 skip count tokens  11 own symbol
    LABELS = {}
    for slabel, (trans, acc, exp) in cm.items():
        lp = plan.labels[slabel]
        text_ok = skip.get(slabel)
        if text_ok is None:
            run_re, run_tokens = None, ()
        else:
            pattern, tokens = _skip_pattern(slabel, text_ok, ws)
            run_re, run_tokens = R(pattern), tuple(M(t) for t in tokens)
        LABELS[M(slabel)] = (
            slabel,
            {st: {M(sym): nx for sym, nx in row.items()}
             for st, row in trans.items()},
            frozenset(acc),
            exp,
            lp.declared_attrs,
            lp.set_valued,
            frozenset(watched.get(slabel, ())),
            slabel in relevant,
            frozenset(wants.get(slabel, ())),
            run_re,
            run_tokens,
            M(slabel),
        )
    REL = frozenset(M(s) for s in relevant)
    LT = M("<")
    AMP = M("&")
    NL = M("\n")
    SYM_S = M("S")
    START_TAG = R(
        rf"{ws}*<({_NAME})((?:{ws}+{_NAME}{ws}*={ws}*"
        rf"(?:\"[^\"]*\"|'[^']*'))*){ws}*(/?)>").match
    END_TAG = R(rf"{ws}*</({_NAME}){ws}*>").match
    # the per-attribute pieces, replayed only to locate an error
    NAME_RE = R(_NAME)
    ATTR_RE = R(rf"{ws}+({_NAME}){ws}*={ws}*(\"[^\"]*\"|'[^']*')")
    DOCT_RE = R(r"[\[\]>]")
    COMMENT_OPEN = M("<!--")
    COMMENT_CLOSE = M("-->")
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
        pos = 0
        find = buf.find
        start_tag = START_TAG
        end_tag = END_TAG
        labels = LABELS
        structural = rs.structural
        region = rs.region
        flush_region = rs.flush_region
        stack = []
        # frame layout: 0 mode label  1 str label  2 vid  3 trans
        # 4 state  5 viable  6 dead state  7 vertex  8 wants  9 texts
        # 10 rec
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
                    nxt = top[3][state].get(SYM_S)
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
            while True:
                am = ATTR_RE.match(buf, j)
                if am is None:
                    break
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
                    # a run of Σ-irrelevant leaves: consume it whole
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
                            sym = rec[11]
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
                    amp = "&" in span
                    amap = {}
                    for name, dq, sq in _ATTR_FIND(span):
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
                        nxt = parent[3][state].get(label)
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
                        # (the batch/stream single-valued multiplicity
                        # check cannot fire on parsed input: a parsed
                        # attribute always carries exactly one value)
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
                    if label in REL:
                        sv = StreamVertex(vid, slabel, {
                            name: frozenset((val,))
                            for name, val in amap.items()})
                pos = m.end()
                if slash:
                    # <x/>: closed here, with no children
                    if rec is not None and 0 not in rec[2]:
                        structural.append((
                            (vid, 0), "content-model",
                            f"children of {slabel!r} do not match its "
                            f"content model (stuck after 0 child(ren); "
                            f"expected one of {rec[3][0]})", (vid,)))
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
                    if state is None or state not in rec[2]:
                        expected = rec[3][top[6] if state is None
                                          else state]
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
    """Mutable constraint-side state of one generated-scanner pass.

    The scanner owns parsing, structural checks and vertex construction;
    it appends closed Σ-relevant vertices to :attr:`region` and calls
    :meth:`flush_region` once a batch of :data:`FLUSH_BATCH` has
    gathered while no Σ-relevant element is open, and once more before
    :meth:`finish`.  The feed order mirrors ``repro.stream.validator._Run``
    — same vid ordering, same evaluator ``add()`` sequence, same deferred
    ``full()`` set — which is what makes the reports byte-identical; only
    the timing of the calls differs.
    """

    __slots__ = ("plan", "obs", "structural", "region", "index",
                 "evaluators", "dispatch", "id_listeners", "next_vid",
                 "n_skipped")

    def __init__(self, plan, obs=None):
        obs = obs or NULL_OBS
        self.plan = plan
        self.obs = obs
        #: ((vid, rank), code, message, vids) — the same stable-sort keys
        #: the streaming validator uses to recover batch sweep order
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
