"""Paths and the ``type(tau.rho)`` typing judgment (§4.1).

A path is a dot-separated sequence of names, each resolving to either an
*attribute* step or a *sub-element* step of the type reached so far.
Typing (Definition of §4.1):

- ``type(tau . ε) = tau``;
- an attribute step ``l`` on a type ``tau1`` has type ``tau2`` when the
  ``L_id`` constraints imply ``tau1.l ⊆ tau2.id`` or
  ``tau1.l ⊆_S tau2.id`` (the reference *dereferences*), and the atomic
  type ``S`` otherwise;
- an element step ``tau2`` is allowed when ``tau2`` occurs in the
  content model of ``tau1``.

Name resolution prefers the attribute when a name is both an attribute
and a sub-element of the current type (paths in the paper never need the
ambiguous case); a step can be forced with ``@name`` (attribute) or
``<name>`` (sub-element) in the textual syntax.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.base import Field, Language
from repro.constraints.lang_lid import IDForeignKey, IDSetValuedForeignKey
from repro.constraints.lang_lu import SetValuedForeignKey, UnaryForeignKey
from repro.constraints.wellformed import language_of
from repro.dtd.dtdc import DTDC
from repro.errors import PathSyntaxError
from repro.implication.lid import LidEngine
from repro.implication.lu import LuEngine
from repro.regexlang.ast import ATOMIC


@dataclass(frozen=True)
class PathStep:
    """One step: a name plus (optionally pre-resolved) step kind.

    ``kind`` is ``"auto"`` (resolve against the DTD), ``"attribute"`` or
    ``"element"``.
    """

    name: str
    kind: str = "auto"

    def __str__(self) -> str:
        if self.kind == "attribute":
            return f"@{self.name}"
        if self.kind == "element":
            return f"<{self.name}>"
        return self.name


@dataclass(frozen=True)
class Path:
    """A (possibly empty) sequence of steps."""

    steps: tuple[PathStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __bool__(self) -> bool:
        return bool(self.steps)

    def prefix(self, n: int) -> "Path":
        """The first ``n`` steps."""
        return Path(self.steps[:n])

    def suffix(self, n: int) -> "Path":
        """The path starting at step index ``n``."""
        return Path(self.steps[n:])

    def concat(self, other: "Path") -> "Path":
        """This path followed by ``other``."""
        return Path(self.steps + other.steps)

    def __str__(self) -> str:
        return ".".join(str(s) for s in self.steps) if self.steps else "ε"


def parse_path(text: str) -> Path:
    """Parse ``entry.isbn`` / ``book.<section>.@sid`` / ``ε`` syntax."""
    text = text.strip()
    if text in ("", "ε", "epsilon"):
        return Path(())
    steps: list[PathStep] = []
    for raw in text.split("."):
        raw = raw.strip()
        if not raw:
            raise PathSyntaxError(f"empty step in path {text!r}")
        if raw.startswith("@"):
            steps.append(PathStep(raw[1:], "attribute"))
        elif raw.startswith("<") and raw.endswith(">"):
            steps.append(PathStep(raw[1:-1], "element"))
        else:
            steps.append(PathStep(raw))
    return Path(tuple(steps))


class PathTyper:
    """Caches the Σ closure and answers typing queries.

    §4 presents paths over ``L_id`` constraints; the paper's own §4.1
    example (``book.ref.to.author``) dereferences through the *L_u*
    constraint ``ref.to ⊆_S entry.isbn``, so the typer accepts either
    language: an attribute step dereferences to ``tau2`` when Σ implies
    an inclusion from it into an identifying attribute of ``tau2``
    (``tau2.id`` for L_id, a key of ``tau2`` for L_u).
    """

    def __init__(self, dtd: DTDC):
        self.dtd = dtd
        language = language_of(dtd.constraints) if dtd.constraints \
            else Language.LID
        if language & Language.LID:
            self.engine = LidEngine(dtd.constraints)
        else:
            self.engine = LuEngine(dtd.constraints)

    def deref_target(self, element: str, attribute: str) -> str | None:
        """The type ``tau2`` the attribute references (via
        ``Σ ⊨ element.attribute ⊆ tau2.id`` or its L_u key analogue),
        or ``None`` when the attribute is atomic-typed."""
        field = Field(attribute)
        structure = self.dtd.structure
        if isinstance(self.engine, LidEngine):
            for tau2 in sorted(structure.element_types):
                if self.engine.implies(
                        IDForeignKey(element, field, tau2)) or \
                        self.engine.implies(
                            IDSetValuedForeignKey(element, field, tau2)):
                    return tau2
            return None
        for c in self.dtd.constraints:
            if isinstance(c, (UnaryForeignKey, SetValuedForeignKey)) and \
                    c.element == element and c.field == field:
                return c.target
        return None

    def resolve_step(self, current: str, step: PathStep
                     ) -> tuple[PathStep, str]:
        """Resolve one step from ``current``; returns the concretized
        step and the type it leads to (``ATOMIC`` for ``S``)."""
        s = self.dtd.structure
        if current == ATOMIC:
            raise PathSyntaxError(
                f"cannot navigate past atomic content with step {step}")
        is_attr = s.has_attribute(current, step.name)
        is_elem = step.name in s.subelements(current) or \
            (step.name == ATOMIC and s.allows_text(current))
        if step.kind == "attribute" or (step.kind == "auto" and is_attr):
            if not is_attr:
                raise PathSyntaxError(
                    f"{current!r} has no attribute {step.name!r}")
            target = self.deref_target(current, step.name)
            return (PathStep(step.name, "attribute"),
                    target if target is not None else ATOMIC)
        if step.kind == "element" or (step.kind == "auto" and is_elem):
            if not is_elem:
                raise PathSyntaxError(
                    f"{step.name!r} is not a sub-element of {current!r}")
            return PathStep(step.name, "element"), step.name
        raise PathSyntaxError(
            f"{step.name!r} is neither an attribute nor a sub-element "
            f"of {current!r}")

    def type_of(self, element: str, path: Path) -> str:
        """``type(element . path)``; ``"S"`` for atomic results."""
        current = element
        for step in path.steps:
            _resolved, current = self.resolve_step(current, step)
        return current

    def resolve(self, element: str, path: Path) -> Path:
        """The path with every step's kind made concrete."""
        current = element
        out: list[PathStep] = []
        for step in path.steps:
            resolved, current = self.resolve_step(current, step)
            out.append(resolved)
        return Path(tuple(out))


def type_of(dtd: DTDC, element: str, path: "Path | str") -> str:
    """Convenience wrapper: ``type(element . path)`` for one query."""
    if isinstance(path, str):
        path = parse_path(path)
    return PathTyper(dtd).type_of(element, path)
