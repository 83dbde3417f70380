"""Data trees: the formal model of XML documents (Definition 2.1).

A :class:`DataTree` owns a set of :class:`Vertex` objects.  Each vertex has

- a *label* (its element name, an element of the set **E** of the paper),
- an ordered list of *children*, each of which is either a plain string
  (an atomic value in **S**) or another vertex, and
- a partial attribute map from attribute names (**A**) to finite sets of
  string values (``att : V x A -> P(S)``).

The tree invariant of Definition 2.1 — every vertex has at most one
parent, and every non-root vertex is reachable from the root — is
enforced eagerly by the mutation API and can be re-checked at any time
with :meth:`DataTree.check_invariants`.

Attribute values are stored as ``frozenset`` objects.  Single-valued
attributes (``R(tau, l) = S``) are represented as singleton sets, which is
exactly the convention of Definition 2.4.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import DataModelError, DuplicateVertexError, UnknownVertexError

#: Type alias for a child of a vertex: either an atomic string value or a
#: nested element vertex.
Child = "str | Vertex"


def _freeze_values(values: "str | Iterable[str]") -> frozenset[str]:
    """Normalize an attribute value to a ``frozenset`` of strings.

    A bare string is treated as a singleton value, *not* as an iterable of
    characters — passing ``"abc"`` yields ``frozenset({"abc"})``.
    """
    if isinstance(values, str):
        return frozenset((values,))
    out = frozenset(values)
    if not all(isinstance(v, str) for v in out):
        raise TypeError("attribute values must be strings")
    return out


class Vertex:
    """A single element node of a data tree.

    Vertices are created through :meth:`DataTree.create` (or the
    :class:`~repro.datamodel.builder.TreeBuilder`) and belong to exactly
    one tree for their whole life.  Identity is object identity; the
    integer :attr:`vid` is a stable, human-readable handle that is unique
    within the owning tree.
    """

    __slots__ = ("vid", "label", "_children", "_attributes", "_parent", "_tree")

    def __init__(self, tree: "DataTree", vid: int, label: str):
        self.vid = vid
        self.label = label
        self._children: list[str | Vertex] = []
        self._attributes: dict[str, frozenset[str]] = {}
        self._parent: Vertex | None = None
        self._tree = tree

    # -- structure ----------------------------------------------------------

    @property
    def owner(self) -> "DataTree":
        """The tree this vertex belongs to (for its whole life)."""
        return self._tree

    @property
    def parent(self) -> "Vertex | None":
        """The unique parent vertex, or ``None`` for the root / detached."""
        return self._parent

    @property
    def children(self) -> tuple["str | Vertex", ...]:
        """The ordered children (strings and vertices), as a tuple."""
        return tuple(self._children)

    @property
    def child_vertices(self) -> tuple["Vertex", ...]:
        """Only the element (vertex) children, in document order."""
        return tuple(c for c in self._children if isinstance(c, Vertex))

    @property
    def child_labels(self) -> tuple[str, ...]:
        """The label word of this vertex's children.

        String children contribute the reserved symbol ``"S"`` (the atomic
        type of the paper); element children contribute their label.  This
        is the word that must belong to ``L(P(label))`` for the document to
        be structurally valid (Definition 2.4).
        """
        return tuple("S" if isinstance(c, str) else c.label for c in self._children)

    @property
    def text(self) -> str:
        """The concatenation of the *direct* string children."""
        return "".join(c for c in self._children if isinstance(c, str))

    def append(self, child: "str | Vertex") -> "str | Vertex":
        """Append a child (string value or vertex) and return it.

        Appending a vertex that already has a parent, that belongs to a
        different tree, or that would create a cycle raises
        :class:`DataModelError`.
        """
        if isinstance(child, str):
            self._children.append(child)
            return child
        if not isinstance(child, Vertex):
            raise TypeError(f"child must be str or Vertex, got {type(child)!r}")
        if child._tree is not self._tree:
            raise DataModelError("cannot adopt a vertex from another tree")
        if child._parent is not None:
            raise DuplicateVertexError(
                f"vertex #{child.vid} ({child.label!r}) already has a parent")
        # Reject cycles: a vertex may not become a child of its own
        # descendant (includes child is self).
        anc: Vertex | None = self
        while anc is not None:
            if anc is child:
                raise DataModelError(
                    f"appending vertex #{child.vid} would create a cycle")
            anc = anc._parent
        child._parent = self
        self._children.append(child)
        return child

    def _attach(self, child: "Vertex") -> "Vertex":
        """Append ``child``, a vertex of this tree that was created
        detached and never attached: it has no parent and no children,
        so it cannot be an ancestor of ``self`` and :meth:`append`'s
        walk up the ancestors (linear in depth) is skipped."""
        child._parent = self
        self._children.append(child)
        return child

    def extend(self, children: Iterable["str | Vertex"]) -> None:
        """Append several children in order."""
        for child in children:
            self.append(child)

    def remove_child(self, child: "str | Vertex") -> None:
        """Remove one occurrence of ``child``; a removed vertex becomes
        detached (it keeps its subtree and can be re-appended elsewhere).

        Raises :class:`DataModelError` when ``child`` is not a child.
        """
        for i, existing in enumerate(self._children):
            if existing is child or (isinstance(child, str)
                                     and existing == child
                                     and isinstance(existing, str)):
                del self._children[i]
                if isinstance(existing, Vertex):
                    existing._parent = None
                return
        raise DataModelError(
            f"{child!r} is not a child of vertex #{self.vid}")

    def detach(self) -> "Vertex":
        """Remove this vertex from its parent and return it.

        Detaching the root raises :class:`DataModelError`.
        """
        if self._parent is None:
            raise DataModelError("cannot detach a parentless vertex")
        self._parent.remove_child(self)
        return self

    def replace_child(self, old: "Vertex", new: "str | Vertex") -> None:
        """Replace the child ``old`` with ``new`` in place (same
        position); ``old`` becomes detached."""
        for i, existing in enumerate(self._children):
            if existing is old:
                # Validate adoption exactly like append() would.
                self.append(new)
                adopted = self._children.pop()
                self._children[i] = adopted
                old._parent = None
                return
        raise DataModelError(
            f"{old!r} is not a child of vertex #{self.vid}")

    # -- attributes ----------------------------------------------------------

    @property
    def attributes(self) -> Mapping[str, frozenset[str]]:
        """Read-only view of the attribute map of this vertex."""
        return dict(self._attributes)

    def set_attribute(self, name: str, values: "str | Iterable[str]") -> None:
        """Set attribute ``name`` to a (set of) string value(s).

        A bare string is stored as a singleton set.  Setting an attribute
        replaces any previous value; use :meth:`del_attribute` to remove.
        """
        frozen = _freeze_values(values)
        self._attributes[sys.intern(name)] = frozen
        self._tree._on_attribute_change(self, name)

    def del_attribute(self, name: str) -> None:
        """Remove attribute ``name``; missing attributes are ignored."""
        if name in self._attributes:
            del self._attributes[name]
            self._tree._on_attribute_change(self, name)

    def has_attribute(self, name: str) -> bool:
        """Whether ``att(self, name)`` is defined."""
        return name in self._attributes

    def attr(self, name: str) -> frozenset[str]:
        """``x.l`` of the paper: the value set of attribute ``name``.

        Raises :class:`KeyError` when the attribute is undefined; use
        :meth:`attr_or_empty` for a non-raising variant.
        """
        return self._attributes[name]

    def attr_or_empty(self, name: str) -> frozenset[str]:
        """Like :meth:`attr` but returns an empty set when undefined."""
        return self._attributes.get(name, frozenset())

    def single(self, name: str) -> str:
        """The value of a single-valued attribute.

        Raises :class:`DataModelError` when the attribute holds zero or
        more than one value.
        """
        values = self._attributes.get(name)
        if values is None or len(values) != 1:
            raise DataModelError(
                f"attribute {name!r} of vertex #{self.vid} ({self.label!r}) "
                f"is not single-valued: {values!r}")
        return next(iter(values))

    def attr_tuple(self, names: Iterable[str]) -> tuple[str, ...]:
        """``x[X]`` of the paper: the tuple of single values along ``names``."""
        return tuple(self.single(n) for n in names)

    # -- traversal ------------------------------------------------------------

    def descendants(self) -> Iterator["Vertex"]:
        """All vertex descendants in pre-order (excluding ``self``)."""
        stack = [c for c in reversed(self._children) if isinstance(c, Vertex)]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                c for c in reversed(node._children) if isinstance(c, Vertex))

    def subtree(self) -> Iterator["Vertex"]:
        """``self`` followed by all descendants, pre-order."""
        yield self
        yield from self.descendants()

    def children_labeled(self, label: str) -> list["Vertex"]:
        """The element children carrying ``label``, in document order."""
        return [c for c in self._children
                if isinstance(c, Vertex) and c.label == label]

    def first_child_labeled(self, label: str) -> "Vertex | None":
        """The first element child carrying ``label``, or ``None``."""
        for c in self._children:
            if isinstance(c, Vertex) and c.label == label:
                return c
        return None

    def path_from_root(self) -> list["Vertex"]:
        """The vertices from the root down to ``self`` (inclusive)."""
        chain: list[Vertex] = []
        node: Vertex | None = self
        while node is not None:
            chain.append(node)
            node = node._parent
        chain.reverse()
        return chain

    @property
    def depth(self) -> int:
        """Number of edges from the root (the root has depth 0)."""
        depth = 0
        node = self._parent
        while node is not None:
            depth += 1
            node = node._parent
        return depth

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Vertex #{self.vid} {self.label!r}>"


class DataTree:
    """A data tree ``(V, elem, att, root)`` per Definition 2.1.

    Create the root with the constructor, then grow the tree::

        tree = DataTree("book")
        entry = tree.create("entry")
        tree.root.append(entry)
        entry.set_attribute("isbn", "1-55860-622-X")

    The class maintains an ``ext`` index (label -> vertices) incrementally
    so that ``ext(tau)`` is O(1); note that *detached* vertices (created
    but never appended) are intentionally included in ``V`` only after
    they are attached — see :meth:`vertices`.
    """

    def __init__(self, root_label: str):
        self._next_vid = 0
        self._all: list[Vertex] = []
        self.root = self.create(root_label)
        self._attr_epoch = 0  # bumped on every attribute change (cache key)

    # -- construction ----------------------------------------------------------

    def create(self, label: str) -> Vertex:
        """Create a new, detached vertex with the given element label."""
        if not isinstance(label, str) or not label:
            raise TypeError("vertex label must be a non-empty string")
        # Interned labels make ``extension(label)`` and per-label dispatch
        # dict lookups hit CPython's pointer-equality fast path.
        v = Vertex(self, self._next_vid, sys.intern(label))
        self._next_vid += 1
        self._all.append(v)
        return v

    def create_under(self, parent: Vertex, label: str) -> Vertex:
        """Create a vertex and immediately append it to ``parent``, in
        time independent of ``parent``'s depth."""
        if parent._tree is not self:
            raise DataModelError("cannot adopt a vertex from another tree")
        return parent._attach(self.create(label))

    # -- the formal accessors ----------------------------------------------------

    def vertices(self) -> list[Vertex]:
        """``V``: the root plus every vertex attached under it, pre-order."""
        return list(self.root.subtree())

    def ext(self, label: str) -> list[Vertex]:
        """``ext(tau)``: all attached vertices labeled ``label``, pre-order."""
        return [v for v in self.root.subtree() if v.label == label]

    def ext_values(self, label: str, attribute: str) -> set[str]:
        """``ext(tau).l``: the union of ``x.l`` over ``x in ext(tau)``.

        Vertices on which the attribute is undefined contribute nothing.
        """
        out: set[str] = set()
        for v in self.ext(label):
            out |= v.attr_or_empty(attribute)
        return out

    def labels(self) -> set[str]:
        """All element labels occurring in the (attached) tree."""
        return {v.label for v in self.root.subtree()}

    def size(self) -> int:
        """Number of attached vertices."""
        return sum(1 for _ in self.root.subtree())

    def find(self, vid: int) -> Vertex:
        """Look up an attached vertex by its :attr:`Vertex.vid`."""
        for v in self.root.subtree():
            if v.vid == vid:
                return v
        raise UnknownVertexError(f"no attached vertex with vid {vid}")

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Re-verify the Definition 2.1 invariants; raise on violation.

        The mutation API maintains these eagerly, so this is mostly useful
        in tests and after deserialization.
        """
        seen: set[int] = set()
        for v in self.root.subtree():
            if id(v) in seen:
                raise DuplicateVertexError(
                    f"vertex #{v.vid} is reachable twice")
            seen.add(id(v))
            for c in v.children:
                if isinstance(c, Vertex) and c.parent is not v:
                    raise DataModelError(
                        f"vertex #{c.vid} has inconsistent parent pointer")
        if self.root.parent is not None:
            raise DataModelError("root must not have a parent")

    # -- change notification (used by AttributeIndex caching) -----------------------

    def _on_attribute_change(self, vertex: Vertex, name: str) -> None:
        self._attr_epoch += 1

    @property
    def attribute_epoch(self) -> int:
        """Monotone counter bumped on every attribute mutation.

        Index structures use this to detect staleness cheaply.
        """
        return self._attr_epoch

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<DataTree root={self.root.label!r} size={self.size()}>"
