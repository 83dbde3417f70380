"""DTDs with constraints: ``DTD^C = (S, Σ)`` (Definition 2.3)."""

from __future__ import annotations

from collections.abc import Iterable

from repro.constraints.base import Constraint, Language
from repro.constraints.parser import parse_constraints
from repro.constraints.wellformed import language_of, require_well_formed
from repro.dtd.structure import DTDStructure


class DTDC:
    """A DTD structure together with its set Σ of basic XML constraints.

    The constructor verifies (unless ``check=False``) that Σ is
    well-formed with respect to the structure and that all constraints
    fit in a single language of the paper.
    """

    def __init__(self, structure: DTDStructure,
                 constraints: Iterable[Constraint] = (),
                 check: bool = True):
        self.structure = structure
        self.constraints: tuple[Constraint, ...] = tuple(constraints)
        if check:
            structure.check()
            require_well_formed(self.constraints, structure)

    @property
    def language(self) -> Language:
        """The language(s) that contain every constraint of Σ."""
        if not self.constraints:
            return Language.L | Language.LU | Language.LID
        return language_of(self.constraints)

    def with_constraints(self, extra: Iterable[Constraint]) -> "DTDC":
        """A new ``DTD^C`` with additional constraints (re-checked)."""
        return DTDC(self.structure, self.constraints + tuple(extra))

    def add_constraint_text(self, text: str) -> "DTDC":
        """A new ``DTD^C`` with constraints parsed from ``text``."""
        return self.with_constraints(
            parse_constraints(text, self.structure))

    def describe(self) -> str:
        """Human-readable dump: structure then Σ."""
        lines = [self.structure.describe()]
        if self.constraints:
            lines.append("constraints:")
            lines.extend(f"  {c}" for c in self.constraints)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<DTDC root={self.structure.root!r} "
                f"|Sigma|={len(self.constraints)}>")
