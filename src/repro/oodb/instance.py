"""Object stores: instances of ODL schemas.

Objects carry a store-unique ``oid``, attribute values, and relationship
references (oids).  :meth:`ObjectStore.check` validates referential
integrity, key uniqueness and inverse symmetry — the invariants the
``L_id`` export is expected to preserve on the XML side.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import DataModelError
from repro.oodb.odl import OdlSchema


@dataclass
class StoredObject:
    """One object: class name, oid, attribute and relationship values."""

    cls: str
    oid: str
    attributes: dict[str, str] = field(default_factory=dict)
    references: dict[str, tuple[str, ...]] = field(default_factory=dict)


class ObjectStore:
    """A populated object database."""

    def __init__(self, schema: OdlSchema):
        schema.check()
        self.schema = schema
        self._objects: dict[str, StoredObject] = {}

    def create(self, cls: str, oid: str,
               attributes: dict[str, str] | None = None,
               **references: "str | Iterable[str]") -> StoredObject:
        """Insert an object; references are given as oid(s) per
        relationship name."""
        odl = self.schema.cls(cls)
        if oid in self._objects:
            raise DataModelError(f"duplicate oid {oid!r}")
        attributes = dict(attributes or {})
        unknown = set(attributes) - set(odl.attributes)
        if unknown:
            raise DataModelError(
                f"{cls} has no attributes {sorted(unknown)}")
        refs: dict[str, tuple[str, ...]] = {}
        for name, value in references.items():
            rel = odl.relationship(name)
            oids = (value,) if isinstance(value, str) else tuple(value)
            if not rel.many and len(oids) > 1:
                raise DataModelError(
                    f"{cls}.{name} is to-one but got {len(oids)} refs")
            refs[name] = oids
        obj = StoredObject(cls, oid, attributes, refs)
        self._objects[oid] = obj
        return obj

    def get(self, oid: str) -> StoredObject:
        """The object with the given oid (raises on unknown ids)."""
        try:
            return self._objects[oid]
        except KeyError:
            raise DataModelError(f"unknown oid {oid!r}") from None

    def objects_of(self, cls: str) -> list[StoredObject]:
        """All objects of one class, in insertion order."""
        return [o for o in self._objects.values() if o.cls == cls]

    # -- integrity -------------------------------------------------------------

    def check(self) -> list[str]:
        """All integrity problems: dangling/ill-typed references, key
        clashes, broken inverse symmetry.  Empty list = consistent."""
        problems: list[str] = []
        for obj in self._objects.values():
            odl = self.schema.cls(obj.cls)
            for name, oids in obj.references.items():
                rel = odl.relationship(name)
                if not rel.many and len(oids) > 1:
                    problems.append(
                        f"{obj.oid}: to-one relationship "
                        f"{obj.cls}.{name} holds {len(oids)} references")
                for ref in oids:
                    target = self._objects.get(ref)
                    if target is None:
                        problems.append(
                            f"{obj.oid}: {obj.cls}.{name} dangles ({ref})")
                    elif target.cls != rel.target:
                        problems.append(
                            f"{obj.oid}: {obj.cls}.{name} references a "
                            f"{target.cls}, expected {rel.target}")
        for cls in self.schema.classes:
            for key in cls.keys:
                seen: dict[tuple[str, ...], str] = {}
                for obj in self.objects_of(cls.name):
                    row = tuple(obj.attributes.get(a, "")
                                for a in sorted(key))
                    if row in seen:
                        problems.append(
                            f"key {sorted(key)} of {cls.name} clashes: "
                            f"{seen[row]} vs {obj.oid}")
                    seen[row] = obj.oid
        for (c1, r1, c2, r2) in self.schema.inverse_pairs():
            problems.extend(self._check_inverse(c1, r1, c2, r2))
        return problems

    def _check_inverse(self, c1: str, r1: str, c2: str,
                       r2: str) -> list[str]:
        problems: list[str] = []
        for obj in self.objects_of(c1):
            for ref in obj.references.get(r1, ()):
                target = self._objects.get(ref)
                if target is not None and \
                        obj.oid not in target.references.get(r2, ()):
                    problems.append(
                        f"inverse broken: {obj.oid}.{r1} -> {ref} but "
                        f"{ref}.{r2} lacks {obj.oid}")
        for obj in self.objects_of(c2):
            for ref in obj.references.get(r2, ()):
                target = self._objects.get(ref)
                if target is not None and \
                        obj.oid not in target.references.get(r1, ()):
                    problems.append(
                        f"inverse broken: {obj.oid}.{r2} -> {ref} but "
                        f"{ref}.{r1} lacks {obj.oid}")
        return problems

    def link_inverse(self, a_oid: str, rel: str, b_oid: str) -> None:
        """Create a reference and its inverse in one step."""
        a = self.get(a_oid)
        b = self.get(b_oid)
        relationship = self.schema.cls(a.cls).relationship(rel)
        a.references[rel] = tuple(
            dict.fromkeys(a.references.get(rel, ()) + (b_oid,)))
        if relationship.inverse is not None:
            b.references[relationship.inverse] = tuple(dict.fromkeys(
                b.references.get(relationship.inverse, ()) + (a_oid,)))
