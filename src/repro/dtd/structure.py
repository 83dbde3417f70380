"""DTD structures: ``S = (E, P, R, kind, r)`` (Definition 2.2).

- ``E``    — finite set of element types;
- ``P``    — element type definitions: ``P(tau)`` is a content-model
  regular expression over ``E ∪ {S}``;
- ``R``    — attribute type definitions: ``R(tau, l)`` is ``S``
  (single-valued) or ``S*`` (set-valued);
- ``kind`` — partial function marking attributes ``ID`` or ``IDREF``
  (``IDREFS`` is represented as kind ``IDREF`` on a set-valued
  attribute, exactly as in the paper's person/dept example);
- ``r``    — the root element type.

The class enforces the side conditions of Definition 2.2 eagerly:
``kind`` is only defined where ``R`` is, each element type has at most
one ID attribute, and ID attributes are single-valued.
"""

from __future__ import annotations

import enum

from repro.errors import SchemaError
from repro.regexlang.ast import ATOMIC, Regex
from repro.regexlang.parse import parse_regex
from repro.regexlang.properties import symbols_of, unique_subelements


class AttributeKind(enum.Enum):
    """The ``kind`` annotation of an attribute (when defined)."""

    ID = "ID"
    IDREF = "IDREF"


class DTDStructure:
    """The structural specification of a DTD.

    Build one programmatically::

        s = DTDStructure(root="book")
        s.define_element("book", "(entry, author*, section*, ref)")
        s.define_element("entry", "(title, publisher)")
        s.define_attribute("entry", "isbn")
        s.define_attribute("ref", "to", set_valued=True)

    or parse one from DTD text with
    :func:`repro.xmlio.dtdparse.parse_dtd`.
    """

    def __init__(self, root: str):
        if not root:
            raise SchemaError("a DTD structure needs a root element type")
        self.root = root
        self._content: dict[str, Regex] = {}
        self._attributes: dict[str, dict[str, bool]] = {}  # tau -> l -> set_valued
        self._kind: dict[tuple[str, str], AttributeKind] = {}
        self._unique_cache: dict[str, frozenset[str]] = {}

    # -- declaration API -------------------------------------------------------

    def define_element(self, name: str, content: "str | Regex" = "EMPTY"
                       ) -> None:
        """Declare element type ``name`` with the given content model.

        ``content`` may be a regex AST or textual content model (both the
        paper's and DTD syntax are accepted); string-only elements are
        declared with content ``"#PCDATA"`` / ``"S*"``-style models.
        Redeclaration replaces the previous content model.
        """
        if not name:
            raise SchemaError("element type name must be non-empty")
        regex = parse_regex(content) if isinstance(content, str) else content
        self._content[name] = regex
        self._attributes.setdefault(name, {})
        self._unique_cache.pop(name, None)

    def define_attribute(self, element: str, attribute: str,
                         set_valued: bool = False,
                         kind: AttributeKind | str | None = None) -> None:
        """Declare ``R(element, attribute)`` (and optionally its kind).

        ``set_valued=True`` means ``R = S*``; ``kind`` may be an
        :class:`AttributeKind`, the strings ``"ID"`` / ``"IDREF"``, or
        ``None``.  Definition 2.2's side conditions are enforced here.
        """
        if element not in self._content:
            raise SchemaError(
                f"cannot declare attribute on undeclared element {element!r}")
        if not attribute:
            raise SchemaError("attribute name must be non-empty")
        if isinstance(kind, str):
            kind = AttributeKind(kind)
        if kind is AttributeKind.ID:
            if set_valued:
                raise SchemaError(
                    f"ID attribute {element}.{attribute} must be "
                    "single-valued")
            existing = self.id_attribute(element)
            if existing is not None and existing != attribute:
                raise SchemaError(
                    f"element {element!r} already has ID attribute "
                    f"{existing!r}; at most one ID attribute is allowed")
        self._attributes[element][attribute] = set_valued
        if kind is None:
            self._kind.pop((element, attribute), None)
        else:
            self._kind[(element, attribute)] = kind

    # -- the formal accessors -----------------------------------------------------

    @property
    def element_types(self) -> frozenset[str]:
        """``E``: the declared element types."""
        return frozenset(self._content)

    def content(self, element: str) -> Regex:
        """``P(element)``: the content model."""
        try:
            return self._content[element]
        except KeyError:
            raise SchemaError(f"undeclared element type {element!r}") from None

    def has_element(self, element: str) -> bool:
        """Whether ``element`` is in ``E``."""
        return element in self._content

    def attributes(self, element: str) -> frozenset[str]:
        """``Att(element)``: the declared attribute names."""
        return frozenset(self._attributes.get(element, ()))

    def attribute_order(self, element: str) -> tuple[str, ...]:
        """``Att(element)`` in the order the attributes were declared."""
        return tuple(self._attributes.get(element, ()))

    def has_attribute(self, element: str, attribute: str) -> bool:
        """Whether ``R(element, attribute)`` is defined."""
        return attribute in self._attributes.get(element, ())

    def is_set_valued(self, element: str, attribute: str) -> bool:
        """Whether ``R(element, attribute) = S*``."""
        try:
            return self._attributes[element][attribute]
        except KeyError:
            raise SchemaError(
                f"undeclared attribute {element}.{attribute}") from None

    def kind(self, element: str, attribute: str) -> AttributeKind | None:
        """``kind(element, attribute)``, or ``None`` when undefined."""
        return self._kind.get((element, attribute))

    def id_attribute(self, element: str) -> str | None:
        """The unique attribute ``l`` with ``kind(element, l) = ID``."""
        for (tau, attr), kind in self._kind.items():
            if tau == element and kind is AttributeKind.ID:
                return attr
        return None

    def idref_attributes(self, element: str) -> list[str]:
        """All attributes of ``element`` with kind IDREF, sorted."""
        return sorted(attr for (tau, attr), kind in self._kind.items()
                      if tau == element and kind is AttributeKind.IDREF)

    def id_attribute_map(self) -> dict[str, str]:
        """Map element type -> its ID attribute, for types that have one."""
        out: dict[str, str] = {}
        for (tau, attr), kind in self._kind.items():
            if kind is AttributeKind.ID:
                out[tau] = attr
        return out

    # -- derived structure ----------------------------------------------------------

    def subelements(self, element: str) -> frozenset[str]:
        """The element types occurring in ``P(element)`` (excluding ``S``)."""
        return frozenset(symbols_of(self.content(element))) - {ATOMIC}

    def allows_text(self, element: str) -> bool:
        """Whether ``S`` occurs in ``P(element)``."""
        return ATOMIC in symbols_of(self.content(element))

    def unique_subelements(self, element: str) -> frozenset[str]:
        """The unique sub-elements of ``element`` (§3.4), cached.

        ``S`` counts when it occurs exactly once in every word; element
        types are returned by name.
        """
        cached = self._unique_cache.get(element)
        if cached is None:
            cached = frozenset(unique_subelements(self.content(element)))
            self._unique_cache[element] = cached
        return cached

    def check(self) -> None:
        """Verify global coherence: every element type mentioned in a
        content model is declared, and the root is declared."""
        if self.root not in self._content:
            raise SchemaError(f"root element type {self.root!r} undeclared")
        for tau in self._content:
            for symbol in self.subelements(tau):
                if symbol not in self._content:
                    raise SchemaError(
                        f"content model of {tau!r} mentions undeclared "
                        f"element type {symbol!r}")

    # -- presentation ------------------------------------------------------------------

    def describe(self) -> str:
        """A human-readable multi-line description (used by the CLI)."""
        lines = [f"root: {self.root}"]
        for tau in sorted(self._content):
            lines.append(f"P({tau}) = {self._content[tau]}")
            for attr in sorted(self._attributes.get(tau, ())):
                sv = "S*" if self._attributes[tau][attr] else "S"
                kind = self._kind.get((tau, attr))
                suffix = f" [{kind.value}]" if kind else ""
                lines.append(f"R({tau}, {attr}) = {sv}{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<DTDStructure root={self.root!r} "
                f"|E|={len(self._content)}>")
