"""A from-scratch XML tokenizer.

Produces a stream of tokens sufficient for the data model of the paper:
start tags (with attributes), end tags, empty-element tags, character
data, CDATA sections, comments, processing instructions, the XML
declaration and a DOCTYPE declaration (whose internal subset is captured
verbatim for the DTD parser).

The tokenizer tracks line numbers for error reporting and resolves
character/entity references in text and attribute values.  As in
expat, a leading byte-order mark is skipped, and a start tag that
repeats an attribute name, a raw ``<`` in an attribute value and a
comment containing ``--`` (or ending in ``-``) are errors.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from repro.errors import XMLSyntaxError
from repro.xmlio.escape import unescape

_NAME_RE = re.compile(r"[A-Za-z_:][\w:.\-]*")
_ATTR_RE = re.compile(
    r"\s+([A-Za-z_:][\w:.\-]*)\s*=\s*(\"[^\"<]*\"|'[^'<]*')")
_WS_RE = re.compile(r"\s*")


@dataclass(frozen=True)
class Token:
    """One lexical unit of the XML document."""

    kind: str  # 'start' | 'end' | 'empty' | 'text' | 'comment' | 'pi' | 'doctype'
    value: str = ""
    attributes: tuple[tuple[str, str], ...] = field(default=())
    line: int = 0


class Tokenizer:
    """Tokenize an XML document string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 1 if text.startswith("\ufeff") else 0
        self.line = 1

    def _advance(self, upto: int) -> str:
        chunk = self.text[self.pos:upto]
        self.line += chunk.count("\n")
        self.pos = upto
        return chunk

    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, line=self.line)

    def tokens(self):
        """Yield :class:`Token` objects until end of input."""
        text = self.text
        while self.pos < len(text):
            if text[self.pos] != "<":
                end = text.find("<", self.pos)
                if end == -1:
                    end = len(text)
                line = self.line
                raw = self._advance(end)
                yield Token("text", unescape(raw, line), line=line)
                continue
            if text.startswith("<!--", self.pos):
                end = text.find("-->", self.pos + 4)
                if end == -1:
                    raise self._error("unterminated comment")
                line = self.line
                body = text[self.pos + 4:end]
                if "--" in body or body.endswith("-"):
                    raise self._error("'--' inside a comment")
                self._advance(end + 3)
                yield Token("comment", body, line=line)
                continue
            if text.startswith("<![CDATA[", self.pos):
                end = text.find("]]>", self.pos + 9)
                if end == -1:
                    raise self._error("unterminated CDATA section")
                line = self.line
                body = text[self.pos + 9:end]
                self._advance(end + 3)
                yield Token("text", body, line=line)
                continue
            if text.startswith("<?", self.pos):
                end = text.find("?>", self.pos + 2)
                if end == -1:
                    raise self._error("unterminated processing instruction")
                line = self.line
                body = text[self.pos + 2:end]
                self._advance(end + 2)
                yield Token("pi", body, line=line)
                continue
            if text.startswith("<!DOCTYPE", self.pos):
                yield self._doctype()
                continue
            if text.startswith("</", self.pos):
                yield self._end_tag()
                continue
            yield self._start_tag()

    def _doctype(self) -> Token:
        """Consume ``<!DOCTYPE name [internal subset]>``."""
        line = self.line
        depth = 0
        i = self.pos
        in_bracket = False
        while i < len(self.text):
            ch = self.text[i]
            if ch == "[":
                in_bracket = True
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    in_bracket = False
            elif ch == ">" and not in_bracket:
                body = self.text[self.pos + len("<!DOCTYPE"):i]
                self._advance(i + 1)
                return Token("doctype", body.strip(), line=line)
            i += 1
        raise self._error("unterminated DOCTYPE declaration")

    def _end_tag(self) -> Token:
        line = self.line
        m = _NAME_RE.match(self.text, self.pos + 2)
        if m is None:
            raise self._error("malformed end tag")
        # Interned: every consumer dispatches on element labels through
        # dicts, and interning makes those lookups pointer comparisons.
        name = sys.intern(m.group(0))
        i = _WS_RE.match(self.text, m.end()).end()
        if i >= len(self.text) or self.text[i] != ">":
            raise self._error(f"malformed end tag </{name}")
        self._advance(i + 1)
        return Token("end", name, line=line)

    def _start_tag(self) -> Token:
        line = self.line
        m = _NAME_RE.match(self.text, self.pos + 1)
        if m is None:
            raise self._error("malformed start tag")
        name = sys.intern(m.group(0))
        i = m.end()
        attrs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            am = _ATTR_RE.match(self.text, i)
            if am is None:
                break
            attr = sys.intern(am.group(1))
            if attr in seen:
                raise self._error(
                    f"duplicate attribute {attr!r} in start tag <{name}")
            seen.add(attr)
            raw = am.group(2)[1:-1]
            attrs.append((attr, unescape(raw, self.line)))
            i = am.end()
        i = _WS_RE.match(self.text, i).end()
        if self.text.startswith("/>", i):
            self._advance(i + 2)
            return Token("empty", name, tuple(attrs), line)
        if i < len(self.text) and self.text[i] == ">":
            self._advance(i + 1)
            return Token("start", name, tuple(attrs), line)
        raise self._error(f"malformed start tag <{name}")
