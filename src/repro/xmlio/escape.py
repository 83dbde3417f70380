"""Character escaping, entity resolution and document decoding for XML
text."""

from __future__ import annotations

import re

from repro.errors import XMLSyntaxError

_PREDEFINED = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_ENTITY_RE = re.compile(r"&(#x[0-9A-Fa-f]+|#[0-9]+|[A-Za-z][\w.\-]*);")

#: significant digits of the largest ``Char``, U+10FFFF, per base: a
#: longer reference is rejected before ``int()`` converts it
_MAX_DIGITS = {16: 6, 10: 7}


def _char_ref(body: str, line: int | None) -> str:
    """The character a ``&#...;`` reference names; a code point outside
    XML 1.0's ``Char`` production (NUL, C0 controls other than tab, LF
    and CR, surrogates, U+FFFE/U+FFFF, beyond U+10FFFF) is an error."""
    base, digits = (16, body[2:]) if body[1] == "x" else (10, body[1:])
    digits = digits.lstrip("0")
    if len(digits) <= _MAX_DIGITS[base]:
        cp = int(digits or "0", base)
        if (0x20 <= cp <= 0xD7FF or cp in (0x9, 0xA, 0xD)
                or 0xE000 <= cp <= 0xFFFD or 0x10000 <= cp <= 0x10FFFF):
            return chr(cp)
    shown = body if len(body) <= 16 else body[:16] + "..."
    raise XMLSyntaxError(
        f"character reference &{shown}; is not an XML character",
        line=line)


def decode_document(data: bytes) -> str:
    """``data`` decoded as UTF-8, the one document encoding.

    A byte sequence that is not UTF-8 raises :class:`XMLSyntaxError` at
    the line of its first undecodable byte, like any other
    well-formedness error.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise XMLSyntaxError(
            f"byte 0x{data[exc.start]:02x} is not valid UTF-8",
            line=data.count(b"\n", 0, exc.start) + 1) from None


def encode_document(text: str) -> bytes:
    """``text`` encoded as UTF-8, the one document encoding.

    The only characters UTF-8 cannot encode are lone surrogates, which
    lie outside XML 1.0's ``Char`` production; the first one raises
    :class:`XMLSyntaxError` at its line, worded like the error for a
    character reference to it.
    """
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise XMLSyntaxError(
            f"character U+{ord(text[exc.start]):04X} is not an XML "
            "character", line=text.count("\n", 0, exc.start) + 1) from None


def unescape(text: str, line: int | None = None) -> str:
    """Resolve predefined and numeric character references.

    Unknown named entities and references to code points that are not
    XML characters raise :class:`XMLSyntaxError` (the library does not
    support custom entity declarations).
    """

    def replace(m: re.Match) -> str:
        body = m.group(1)
        if body.startswith("#"):
            return _char_ref(body, line)
        try:
            return _PREDEFINED[body]
        except KeyError:
            raise XMLSyntaxError(f"unknown entity &{body};",
                                 line=line) from None

    if "&" not in text:
        return text
    out = _ENTITY_RE.sub(replace, text)
    if "&" in _ENTITY_RE.sub("", text):
        raise XMLSyntaxError("bare '&' in character data (use &amp;)",
                             line=line)
    return out


def escape_text(text: str) -> str:
    """Escape character data for element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;") \
        .replace(">", "&gt;")


def escape_attribute(text: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return escape_text(text).replace('"', "&quot;")
