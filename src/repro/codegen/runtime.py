"""The codegen engine's scanners and its per-document run state.

:func:`scanners` builds, in-process from a compiled
:class:`~repro.codegen.plan.StreamPlan`, two scanner closures — one over
``str`` buffers, one over ``bytes``/``mmap`` buffers — each a single
pass that parses, checks structure, and feeds Σ into a
:class:`RunState`: start-tag attribute maps into the constraint kernels
(:mod:`repro.codegen.kernels`), and the elements the other constraints
read into a :class:`StreamIndex` for their evaluators.  Their tables are
specialised to the schema:

- **content models** step through the plan's lazily-determinised
  :class:`~repro.regexlang.automaton.Matcher`: a transition is one
  lookup in the matcher's own row for the state (:attr:`Matcher.rows`),
  and a row fills on first use, so no content model is determinised
  beyond what documents reach;
- **kernel feeds** — per label, the kernel feeds its start tags run
  (:attr:`~repro.codegen.plan.StreamPlan.feeds`, plus the ID owner
  table's at each ID-bearing label when an ``IDConstraint`` is a
  kernel), called with the vid and the tag's unescaped attribute map;
- **run labels** (:attr:`~repro.codegen.plan.StreamPlan.runs`) —
  leaves whose runs a bounded regex match consumes: a kernel-fed leaf,
  whose run elements ``<L a1="…" a2="…"/>`` feed each kernel (and the
  ID owner table) the run's attribute values as columns, or a leaf no
  constraint reads, with no attributes and a text-or-empty content
  model, whose run has no columns.

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
- a run of a run label's leaves is consumed :data:`RUN_MAX` elements
  per regex match, so neither the regex engine's backtracking stack nor
  the copy an ``mmap`` (which has no ``count``) needs to count a match
  in grows with the run; the parent DFA advances arithmetically.  A run
  element carries exactly the label's run attributes, in declaration
  order, double-quoted and free of ``<``, ``&`` and ``"``, or, with no
  run attributes, text free of ``<``.  No match crosses the document's
  next ``&``: the scanner keeps the offset of the first ``&`` at or
  after a run's start, found again by one ``find`` only once a run
  starts past it, and passes it as every run match's ``endpos``, so a
  run ends before the element whose text holds that ``&``, and the
  element takes the per-tag path.  (``[^<]`` compiles to ``re``'s
  one-character loop; ``[^<&]`` takes its general set test for every
  character, at about a third of the speed.)  A run without columns is
  counted by one ``count`` of ``<L`` over the match.
  A run with columns is decoded once, one ``findall`` yields its values
  in order, and every column feed (:attr:`RunState.columns`) takes them
  as ``(first vid, count, {attribute: values})``.  A tag the pattern
  does not take (another order, single quotes, an entity, a missing or
  extra attribute, ``></L>`` where columns are fed, text where none is
  legal, a comment in the run) goes to the per-tag path, from that tag
  on.  Each run pattern is compiled on the scanner's first run attempt
  for its label, never when the scanner is built;
- an element of a label the evaluator-path constraints read
  (:attr:`~repro.codegen.plan.StreamPlan.relevant`) becomes a
  :class:`StreamVertex` at its start tag, appended to its label's
  extension; a schema whose Σ is all kernels retains none.

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
import sys
from operator import itemgetter

from repro.codegen.kernels import IDOwners, kernel_for
from repro.constraints.evaluators import evaluator_for
from repro.dtd.validate import ValidationReport
from repro.errors import XMLSyntaxError
from repro.obs import NULL_OBS
from repro.xmlio.escape import unescape

__all__ = ["RUN_MAX", "RunState", "StreamIndex", "StreamVertex",
           "scanners"]

#: the ASCII characters ``str.isspace()`` (and ``str``-mode ``\s``)
#: accepts: ``\t \n \x0b \x0c \r``, ``\x1c``–``\x1f`` and space — the
#: bytes scanner's whitespace, as ``strip()`` argument and regex class
_WS_BYTES = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_NAME = r"[A-Za-z_:][\w:.\-]*"
_EMPTY_FS: frozenset = frozenset()
_EMPTY_MAP: dict = {}

#: the attributes of a decoded start-tag span as (name, "-quoted value,
#: '-quoted value); the span already matched the start-tag pattern, so
#: a name is simply the next run of non-space, non-``=`` characters
_ATTR_FIND = re.compile(
    r"([^\s=]+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)')").findall


#: the values of a decoded run span, in document order: the span matched
#: a run pattern, so every ``="`` opens the next value
_VALUE_FIND = re.compile(r'=\s*"([^"]*)"').findall


#: most elements one match of a run pattern consumes; a longer run takes
#: several matches, so a match's backtracking stack (and an ``mmap``'s
#: counting copy) stays bounded whatever the run's length
RUN_MAX = 256

#: the possessive-quantifier suffix where ``re`` has one (Python 3.11+):
#: every quantifier in a run pattern is followed by a character its
#: class excludes, so it never gives anything back, and a possessive one
#: keeps no backtracking state per element (a 256-element match
#: otherwise grows the matcher's stack by about 180 KB)
_POSSESSIVE = "+" if sys.version_info >= (3, 11) else ""


def _run_pattern(label: str, names: tuple[str, ...], text_ok: bool,
                 ws: str) -> str:
    """The run pattern for a run label (:attr:`StreamPlan.runs
    <repro.codegen.plan.StreamPlan.runs>`): up to :data:`RUN_MAX`
    elements ``<L a1="…" a2="…"/>``, with exactly the attributes
    ``names``, in that order, each value double-quoted and free of
    ``<``, ``&`` and ``"``, separated by whitespace; with no ``names``
    also ``<L></L>`` or, when text is legal, ``<L>text</L>``, the text
    free of ``<``.  The pattern lets a ``&`` through in that text, so
    the scanner passes the offset of the next ``&`` as every match's
    ``endpos``: a unit holding one runs past it and fails, and no match
    holds a ``&``.  A match starts at the first element's ``<`` (so the
    first separator is empty) and ends at its last element, so text
    after a run starts where the tokenizer's does (the line of an error
    in that text depends on it).  No ``<`` but an element's own tags
    lies in a match, so ``<L`` occurs in it once per element."""
    p = _POSSESSIVE
    e = re.escape(label)
    attrs = "".join(
        f'{ws}+{p}{re.escape(name)}{ws}*{p}={ws}*{p}"[^"<&]*{p}"'
        for name in names)
    unit = f"<{e}{attrs}{ws}*{p}/>"
    if not names:
        unit = (f"<{e}>[^<]*{p}</{e}>|" if text_ok
                else f"<{e}></{e}>|") + unit
    return f"(?:{ws}*{p}(?:{unit})){{1,{RUN_MAX}}}{p}"


def scanners(plan):
    """The (str scanner, bytes scanner) pair for ``plan``."""
    return (_scanner(plan, as_bytes=False),
            _scanner(plan, as_bytes=True))


def _duplicate_attribute(name: str, label: str, line: int):
    """The tokenizer's error for a start tag repeating ``name``."""
    return XMLSyntaxError(
        f"duplicate attribute {name!r} in start tag <{label}", line=line)


def _scanner(plan, *, as_bytes):
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
    elem_fields = plan.elem_fields
    # rec list layout (one per declared label, keyed by its mode label)
    # 0 str label  1 matcher rows  2 matcher acceptance  3 matcher
    # 4 declared (live order)  5 set-valued  6 run match (None until the
    # first run attempt)  7 run pattern (None: no run path)  8 run count
    # token ``<L``  9 run attribute names (``()``: a run without columns)
    LABELS = {}
    for slabel, lp in plan.labels.items():
        if as_bytes and not slabel.isascii():
            continue  # the bytes scanner only ever sees ASCII input
        m = plan.matchers[slabel]
        run = plan.runs.get(slabel)
        pattern, names = None, ()
        if run is not None:
            names, text_ok = run
            if not as_bytes or all(n.isascii() for n in names):
                # (an element carrying a non-ASCII attribute name never
                # reaches the bytes scanner)
                pattern = _run_pattern(slabel, names, text_ok, ws)
        LABELS[M(slabel)] = [
            slabel, m.rows, m.accepting, m,
            lp.declared_attrs, lp.set_valued, None, pattern,
            M("<" + slabel), names]
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
        index_vertex = rs.index.index_vertex
        feeds = rs.feeds
        columns = rs.columns
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
        n_column = 0
        root_seen = False
        # the first '&' at or after the start of the run attempt that
        # looked for it (n: none); -1 until the first run attempt looks
        next_amp = -1

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

        def advance(parent, sym, cnt):
            # step the parent's content model over ``cnt`` children
            # ``sym`` (a run): once a state repeats, the steps are
            # periodic and the rest are all live
            state = parent[4]
            if state is None:
                return
            trans = parent[3]
            seen = {}
            k = 0
            while k < cnt:
                at = seen.get(state)
                if at is not None:
                    for _ in range((cnt - k) % (k - at)):
                        state = trans[state][sym]
                    break
                seen[state] = k
                nxt = trans[state].get(sym)
                if nxt is None:
                    nxt = parent[10][3].step(state, sym)
                if nxt is None:
                    parent[6] = state
                    parent[4] = None
                    parent[5] += k
                    return
                state = nxt
                k += 1
            parent[4] = state
            parent[5] += cnt

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
                if stack and rec is not None and rec[7] is not None:
                    # a run of leaves: consume up to RUN_MAX of them,
                    # ending before the next '&', so an element whose
                    # text holds one takes the per-tag path
                    run = rec[6]
                    if run is None:
                        run = rec[6] = R(rec[7]).match
                    start = m.start(1) - 1
                    if next_amp < start:
                        next_amp = find(AMP, start)
                        if next_amp < 0:
                            next_amp = n
                    sm = run(buf, start, next_amp)
                    if sm is not None:
                        if pending:
                            flush()
                        end = sm.end()
                        names = rec[9]
                        if not names:
                            cnt = count(rec[8], start, end)
                            n_skipped += cnt
                        else:
                            values = _VALUE_FIND(dec(buf[start:end]))
                            k = len(names)
                            if k == 1:
                                cnt = len(values)
                                cols = {names[0]: values}
                            else:
                                cnt = len(values) // k
                                cols = {name: values[j::k]
                                        for j, name in enumerate(names)}
                            for feed in columns[rec[0]]:
                                feed(next_vid, cnt, cols)
                            n_column += cnt
                        advance(stack[-1], rec[0], cnt)
                        next_vid += cnt
                        pos = end
                        continue
                slabel = rec[0] if rec is not None else dec(label)
                # amap: every attribute, unescaped
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
                else:
                    structural.append((
                        (vid, 0), "element",
                        f"undeclared element type {slabel!r}", (vid,)))
                if relevant and slabel in relevant:
                    sv = StreamVertex(
                        vid, slabel, amap,
                        rec[5] if rec is not None else _EMPTY_FS)
                    index_vertex(sv)
                    wants = elem_fields.get(slabel, _EMPTY_FS)
                else:
                    sv = None
                    wants = _EMPTY_FS
                if feeds:
                    kf = feeds.get(slabel)
                    if kf is not None:
                        for feed in kf:
                            feed(vid, amap)
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
                    if texts is not None:
                        parent[7]._add_elem_child(slabel, "")
                    continue
                stack.append([
                    label, slabel, vid,
                    rec[1] if rec is not None else None,
                    0 if rec is not None else None,
                    0, -1, sv, wants, texts, rec])
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
                    stack[-1][7]._add_elem_child(top[1], "".join(texts))
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
        rs.next_vid = next_vid
        rs.n_skipped = n_skipped
        rs.n_column = n_column
        return rs.finish()

    return scan


class _TextChild:
    """Stand-in for a text-carrying child vertex: just its ``text``."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class StreamVertex:
    """A retained element: what the evaluator-path constraints read.

    Quacks like :class:`~repro.datamodel.tree.Vertex` for exactly the
    surface the constraint evaluators touch: ``vid``, ``label``,
    ``attr_or_empty``, ``children_labeled`` (sub-element fields only),
    and ``int(v)`` for violation reporting.  It takes the start tag's
    whole attribute map, valued as the batch parser values it: an
    attribute in ``split`` (declared set-valued on the label) splits on
    whitespace, any other is one value.
    """

    __slots__ = ("vid", "label", "_attributes", "_elem_children")

    def __init__(self, vid: int, label: str, amap: dict[str, str],
                 split: frozenset[str]):
        self.vid = vid
        self.label = label
        self._attributes = {
            name: frozenset(val.split()) if name in split
            else frozenset((val,)) for name, val in amap.items()}
        self._elem_children: dict[str, list[_TextChild]] | None = None

    def attr_or_empty(self, name: str) -> frozenset[str]:
        return self._attributes.get(name, _EMPTY_FS)

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
    """The retained labels' extensions, for the evaluators' ``full()``.

    Supports exactly the evaluator-facing surface: ``extension``, in
    vid (= document) order like the tree-wide
    :class:`~repro.datamodel.indexes.AttributeIndex`, because the
    scanner appends each vertex at its start tag.  No evaluator the
    single pass runs reads ``id_owners``: an ``IDConstraint`` is a
    kernel, which keeps its own owner table
    (:class:`~repro.codegen.kernels.IDOwners`), or statically violated.
    """

    __slots__ = ("_ext",)

    def __init__(self):
        self._ext: dict[str, list[StreamVertex]] = {}

    def index_vertex(self, v: StreamVertex) -> None:
        """Append ``v`` to its label's extension."""
        self._ext.setdefault(v.label, []).append(v)

    def extension(self, label: str) -> list[StreamVertex]:
        return list(self._ext.get(label, ()))


class RunState:
    """Mutable constraint-side state of one scanner pass: the kernel
    feeds, the retained vertices and report assembly.

    The scanner owns parsing, structural checks and vertex construction.
    Σ is split once per schema (:attr:`~repro.codegen.plan.StreamPlan.kernels`):

    - **kernels** (:mod:`repro.codegen.kernels`) check the
      attribute-only ``L``/``L_u`` keys and foreign keys, ID
      constraints and ID references.  At each start tag the scanner
      calls the feeds :attr:`feeds` lists for its label with the vid
      and the attribute map, and at each column run the feeds
      :attr:`columns` lists with the run's first vid, its length and
      its attribute values as columns; nothing of the element is
      retained.  One :class:`~repro.codegen.kernels.IDOwners` table
      per document, fed at every ID-bearing start tag or run, serves
      every ID kernel.  Foreign keys and ID clashes resolve here, in
      :meth:`finish`.
    - **evaluators** check the rest — §3.4 sub-element fields,
      inverses and static violations — with the calls the batch
      checker makes: one ``full()`` per document
      (:meth:`flush_region`), then ``emit()``.  The scanner appends
      each element of a label they read
      (:attr:`~repro.codegen.plan.StreamPlan.relevant`) to
      :attr:`index` at its start tag, so ``full()`` reads the
      extensions batch reads.

    The report is byte-identical (``to_json()``) to the batch
    ``validate(parse_document(text, S), dtd)`` because:

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
    - **kernels** see start tags and column runs in vid order, so
      their groups, sources and ID owners are already in the order a
      batch ``full()`` emits them;
    - **evaluators** run batch's own ``full()`` over extensions that
      list the vertices batch's index lists, in the same order, with
      the same attribute values and sub-element texts;
    - :meth:`finish` emits every constraint at its Σ position.

    With observability on, an evaluator counts during its ``full()``
    pass, as batch's does, and a kernel's counters are read off its
    finished state (``settled_counts``); kernels count nothing while
    being fed.

    Peak memory is O(open-element depth + kernel rows + retained
    vertices + evaluator residual state): an element is retained only
    when an evaluator reads its label.
    """

    __slots__ = ("plan", "obs", "structural", "index", "evaluators",
                 "feeds", "columns", "next_vid", "n_skipped", "n_column")

    def __init__(self, plan, obs=None):
        self.plan = plan
        self.obs = obs or NULL_OBS
        #: ((vid, rank), code, message, vids): rank -1 root check, 0
        #: element/content-model, 1 attribute checks
        self.structural: list[tuple] = []
        self.index = StreamIndex()
        owners = IDOwners(plan.id_owners) if plan.id_owners else None
        #: one kernel or evaluator per Σ position
        self.evaluators = evaluators = [
            evaluator_for(c, self.index, plan.id_map) if spec is None
            else kernel_for(spec, c, name, owners)
            for c, spec, name in zip(plan.constraints, plan.kernels,
                                     plan.names)]
        #: label -> the kernel feeds a start tag of that label runs (the
        #: owner table's first)
        self.feeds = feeds = {
            label: tuple(evaluators[i].feeds[role] for i, role in sites)
            for label, sites in plan.feeds.items()}
        #: run label with run attributes -> the column feeds a run of
        #: that label runs, in the order of :attr:`feeds`
        self.columns = columns = {
            label: tuple(evaluators[i].columns[role]
                         for i, role in plan.feeds.get(label, ()))
            for label, (names, _text_ok) in plan.runs.items() if names}
        if owners is not None:
            for label, feed in owners.feeds.items():
                feeds[label] = (feed, *feeds.get(label, ()))
            for label, column in owners.columns.items():
                if label in columns:
                    columns[label] = (column, *columns[label])
        self.next_vid = 0
        #: elements admitted through runs without columns (never
        #: individually materialized)
        self.n_skipped = 0
        #: elements fed to the kernels through column runs
        self.n_column = 0

    def flush_region(self) -> None:
        """Run every evaluator-path constraint's ``full()`` pass over the
        retained vertices, once, when the document is done."""
        for ev, spec in zip(self.evaluators, self.plan.kernels):
            if spec is None:
                ev.full()

    def finish(self) -> ValidationReport:
        """Assemble the report: structural violations in batch sweep
        order, then every constraint's emit at its Σ position, each
        under a ``codegen.emit`` span.  The evaluators' ``full()`` pass
        runs first, after the counters are bound, when any of them reads
        an element (never when Σ is all kernels)."""
        obs = self.obs
        if obs.enabled:
            self._publish(obs)
        plan = self.plan
        if plan.relevant:
            self.flush_region()
        report = ValidationReport()
        self.structural.sort(key=itemgetter(0))
        for _key, code, message, vids in self.structural:
            report.add(code, message, vertices=vids)
        span = obs.tracer.span
        for name, ev in zip(plan.names, self.evaluators):
            with span("codegen.emit", constraint=name):
                ev.emit(report)
        return report

    def _publish(self, obs) -> None:
        """Bind every constraint's counters (an evaluator's ``full()``
        and every emit count into them), add the kernels' settled
        counts, and count elements."""
        for ev, spec in zip(self.evaluators, self.plan.kernels):
            ev.attach_obs(obs)
            if spec is not None:
                visited, hits, misses = ev.settled_counts()
                ev.c_visited.add(visited)
                ev.c_hits.add(hits)
                ev.c_misses.add(misses)
        obs.counter("codegen_elements",
                    help="element vertices seen by the codegen "
                    "engine").add(self.next_vid)
        obs.counter("codegen_skipped_elements",
                    help="elements admitted through the codegen "
                    "sigma-irrelevant run fast path").add(self.n_skipped)
        obs.counter("codegen_column_elements",
                    help="elements fed to the codegen constraint kernels "
                    "through column runs").add(self.n_column)
        for label, members in self.index._ext.items():
            obs.counter("codegen_dispatch_vertices", {"label": label},
                        help="retained vertices the codegen engine's "
                        "constraint evaluators read, per "
                        "label").add(len(members))
