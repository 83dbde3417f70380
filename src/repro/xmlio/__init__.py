"""XML and DTD text processing, implemented from scratch.

- :func:`parse_document` — XML text to a
  :class:`~repro.datamodel.tree.DataTree` (with optional DTD-driven
  splitting of set-valued attributes);
- :func:`serialize` — data tree back to XML text;
- :func:`parse_dtd` — DTD declarations to a
  :class:`~repro.dtd.structure.DTDStructure`;
- :func:`parse_dtdc` — the ``.dtdc`` format (DTD declarations plus
  constraint lines) to a :class:`~repro.dtd.dtdc.DTDC`;
- :func:`serialize_dtdc` — the reverse;
- :func:`decode_document` — document bytes to text (UTF-8), raising a
  located :class:`~repro.errors.XMLSyntaxError` on an undecodable byte.
"""

from repro.xmlio.escape import decode_document
from repro.xmlio.parser import parse_document, parse_document_with_dtd
from repro.xmlio.serializer import serialize
from repro.xmlio.dtdparse import parse_dtd, parse_dtdc, serialize_dtdc

__all__ = ["decode_document", "parse_document", "parse_document_with_dtd",
           "serialize", "parse_dtd", "parse_dtdc", "serialize_dtdc"]
