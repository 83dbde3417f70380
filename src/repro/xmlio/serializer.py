"""Serialization of data trees back to XML text.

Set-valued attributes are emitted as whitespace-joined token lists
(IDREFS style, values sorted for determinism); elements without children
use the empty-element form.  ``indent`` pretty-prints element-only
content; elements with text children are emitted inline to keep the
round-trip text-exact.
"""

from __future__ import annotations

from repro.datamodel.tree import DataTree, Vertex
from repro.xmlio.escape import escape_attribute, escape_text


def serialize(tree: DataTree, indent: int | None = 2,
              xml_declaration: bool = False) -> str:
    """Render a data tree as XML text."""
    parts: list[str] = []
    if xml_declaration:
        parts.append('<?xml version="1.0"?>\n')
    _emit(tree.root, parts, indent)
    parts.append("\n")
    return "".join(parts)


def _attributes(vertex: Vertex) -> str:
    chunks: list[str] = []
    for name in sorted(vertex.attributes):
        values = sorted(vertex.attr(name))
        chunks.append(f' {name}="{escape_attribute(" ".join(values))}"')
    return "".join(chunks)


def _emit(root: Vertex, parts: list[str], indent: int | None) -> None:
    """Append ``root``'s markup to ``parts``.  Iterative, so a tree's
    depth is bounded by memory, not by the interpreter's recursion
    limit: the stack holds the output still to come, strings as they
    are and vertices as ``(vertex, depth, indent)``."""
    stack: list = [(root, 0, indent)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        vertex, depth, ind = item
        pad = "" if ind is None else " " * (ind * depth)
        open_tag = f"{pad}<{vertex.label}{_attributes(vertex)}"
        children = vertex.children
        if not children:
            parts.append(open_tag + "/>")
            continue
        parts.append(open_tag + ">")
        if ind is None or any(isinstance(c, str) for c in children):
            # Inline form: text content must not gain whitespace.
            stack.append(f"</{vertex.label}>")
            for child in reversed(children):
                stack.append(escape_text(child) if isinstance(child, str)
                             else (child, 0, None))
            continue
        stack.append(f"\n{pad}</{vertex.label}>")
        for child in reversed(children):
            stack.append((child, depth + 1, ind))
            stack.append("\n")
