"""General ``L`` constraints: the undecidable regime (§3.3, Theorem 3.6).

Without the primary-key restriction, implication and finite implication
of multi-attribute keys + foreign keys are **undecidable** — the paper
proves this by reduction from implication of functional + inclusion
dependencies (Mitchell; Chandra–Vardi).  An exact decider therefore
cannot exist; :class:`LGeneralEngine` offers the three things that can:

- :meth:`prove` — a **sound but incomplete** saturation prover using the
  rules that remain sound without the restriction (PK-FK, PFK-K,
  PFK-perm, PFK-trans, plus key augmentation ``tau[X] -> tau ⊢
  tau[X ∪ Y] -> tau``, which is semantically sound though absent from
  ``I_p``).  A ``True`` answer is a real proof; ``False`` means "no
  proof found", nothing more.
- :meth:`refute` — bounded finite-model refutation via the relational
  chase: element types become relations with an extra ``#vid`` attribute
  (so that "same values" does not collapse distinct vertices), keys
  become FDs ``X -> #vid``, foreign keys become INDs, and the implicit
  ``#vid -> everything`` FD ties rows to vertices.  A terminating chase
  yields a finite counterexample (valid against both implication
  flavours) or establishes the goal.
- :meth:`decide` — prove, then chase, then honestly report
  ``UNKNOWN`` — the operational content of Theorem 3.6.

:func:`fd_ind_to_l` is the executable face of the reduction *direction*
the paper uses: it embeds an FD+IND implication instance whose FDs are
key-based and whose INDs target keys into ``L`` verbatim, and
:func:`l_to_fd_ind` is the (always applicable) reverse translation used
by the chase.  E7 exhibits a finitely-valid consequence the sound rules
miss — the reason no ``I_p``-style finite axiomatization can exist
outside the primary restriction.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.constraints.base import Constraint, Field
from repro.constraints.lang_l import ForeignKey, Key
from repro.errors import UndecidableProblemError
from repro.implication.l_primary import _compose, _normalize
from repro.implication.result import Derivation, ImplicationResult, given
from repro.obs import NULL_OBS
from repro.relational.chase import ChaseOutcome, ChaseResult, chase
from repro.relational.fd import FD
from repro.relational.ind import IND
from repro.relational.schema import Database, RelationSchema

VID = "#vid"


def l_to_fd_ind(sigma: Iterable[Constraint],
                scope: Iterable[Constraint] = ()
                ) -> tuple[Database, list[FD], list[IND]]:
    """Translate L constraints over element types into FDs + INDs.

    Every element type becomes a relation over its mentioned fields plus
    the reserved ``#vid`` attribute distinguishing vertices; a key
    ``tau[X] -> tau`` becomes ``X -> #vid`` and ``#vid`` determines all
    fields (vertices carry their values).

    ``scope`` contributes extra constraints (typically the query φ) to
    the *schema* — their types and fields get relations/attributes — but
    NOT to the translated dependency set.
    """
    sigma = _normalize(sigma)
    fields: dict[str, set[str]] = {}
    for c in sigma + _normalize(scope):
        if isinstance(c, Key):
            fields.setdefault(c.element, set()).update(
                str(f) for f in c.fields)
        else:
            fields.setdefault(c.element, set()).update(
                str(f) for f in c.fields)
            fields.setdefault(c.target, set()).update(
                str(f) for f in c.target_fields)
    database = Database(
        RelationSchema(t, tuple(sorted(fs)) + (VID,))
        for t, fs in sorted(fields.items()))
    fds: list[FD] = []
    inds: list[IND] = []
    for t, fs in sorted(fields.items()):
        fds.append(FD(t, frozenset((VID,)), frozenset(fs) | {VID}))
    for c in sigma:
        if isinstance(c, Key):
            fds.append(FD(c.element,
                          frozenset(str(f) for f in c.fields),
                          frozenset((VID,))))
        else:
            inds.append(IND(c.element, tuple(str(f) for f in c.fields),
                            c.target,
                            tuple(str(f) for f in c.target_fields)))
    return database, fds, inds


def fd_ind_to_l(fds: Iterable[FD], inds: Iterable[IND],
                relation_attrs: dict[str, tuple[str, ...]]
                ) -> list[Constraint]:
    """Embed a *key-based* FD+IND instance into ``L`` verbatim.

    Supported fragment: every FD's right-hand side covers its relation
    (i.e. it is a key) and every IND targets such a key — exactly the
    shapes ``L`` expresses.  Raises :class:`ValueError` outside it; the
    general reduction of Theorem 3.6 needs auxiliary constructions the
    technical report develops, and the chase covers those cases
    semantically instead.
    """
    constraints: list[Constraint] = []
    key_sets: dict[str, list[frozenset[str]]] = {}
    for fd in fds:
        attrs = frozenset(relation_attrs[fd.relation])
        if not (fd.lhs | fd.rhs) >= attrs:
            raise ValueError(
                f"{fd} is not key-shaped; the verbatim embedding needs "
                "X -> (all attributes)")
        constraints.append(
            Key(fd.relation, tuple(Field(a) for a in sorted(fd.lhs))))
        key_sets.setdefault(fd.relation, []).append(fd.lhs)
    for ind in inds:
        targets = frozenset(ind.target_attrs)
        if targets not in key_sets.get(ind.target, []):
            raise ValueError(
                f"{ind} does not target a key; the verbatim embedding "
                "requires foreign-key-shaped INDs")
        constraints.append(
            ForeignKey(ind.relation, tuple(Field(a) for a in ind.attrs),
                       ind.target,
                       tuple(Field(a) for a in ind.target_attrs)))
    return constraints


class LGeneralEngine:
    """Sound prover + bounded refuter for general ``L`` implication."""

    def __init__(self, sigma: Iterable[Constraint], obs=None):
        self.sigma = _normalize(sigma)
        self.obs = obs or NULL_OBS
        self.keys: dict[tuple[str, frozenset[Field]], Derivation] = {}
        self.fks: dict[ForeignKey, Derivation] = {}
        self._saturate()

    # -- sound saturation ---------------------------------------------------------

    def _count_rule(self, rule: str) -> None:
        self.obs.counter(
            "implication_rule_applications",
            {"engine": "l_general", "rule": rule},
            help="successful inference-rule applications").inc()

    def _saturate(self) -> None:
        obs = self.obs
        counting = obs.enabled
        queue: deque[ForeignKey] = deque()
        if counting:
            c_iters = obs.counter(
                "implication_closure_iterations", {"engine": "l_general"},
                help="worklist iterations of the closure computation")

        def add_key(element: str, fields: frozenset[Field],
                    d: Derivation) -> None:
            k = (element, fields)
            if k not in self.keys:
                self.keys[k] = d
                if counting:
                    self._count_rule(d.rule)

        def add_fk(fk: ForeignKey, d: Derivation) -> None:
            canon = fk.canonical()
            if canon not in self.fks:
                self.fks[canon] = d
                if counting:
                    self._count_rule(d.rule)
                queue.append(canon)

        with obs.span("l_general.saturate", sigma=len(self.sigma)) as span:
            for c in self.sigma:
                if isinstance(c, Key):
                    add_key(c.element, c.field_set, given(c))
                    ordered = tuple(sorted(c.field_set, key=str))
                    refl = ForeignKey(c.element, ordered, c.element, ordered)
                    add_fk(refl, Derivation(str(refl), "PK-FK", (given(c),)))
                else:
                    add_fk(c, given(c))
                    tk = c.implied_target_key()
                    add_key(c.target, frozenset(c.target_fields),
                            Derivation(str(tk), "PFK-K", (given(c),)))
            while queue:
                if counting:
                    c_iters.inc()
                fk = queue.popleft()
                for g in list(self.fks):
                    for left, right in ((fk, g), (g, fk)):
                        composed = _compose(left, right)
                        if composed is not None:
                            add_fk(composed, Derivation(
                                str(composed), "PFK-trans",
                                (self.fks[left], self.fks[right])))
            if counting:
                span.set(keys=len(self.keys), foreign_keys=len(self.fks))

    def prove(self, phi: Constraint) -> ImplicationResult:
        """Sound, incomplete proof search.  ``True`` is a proof;
        ``False`` only means the rules do not reach φ."""
        (phi,) = _normalize((phi,))
        if isinstance(phi, Key):
            d = self.keys.get((phi.element, phi.field_set))
            if d is not None:
                return ImplicationResult(True, derivation=d)
            # Key augmentation (sound; not in I_p): any derivable key
            # whose field set is contained in phi's proves phi.
            for (element, fields), base in self.keys.items():
                if element == phi.element and fields <= phi.field_set:
                    return ImplicationResult(True, derivation=Derivation(
                        str(phi), "K-augment", (base,)))
            return ImplicationResult(
                False, reason="no proof found (the rule system is "
                "incomplete for general L — Theorem 3.6)")
        d = self.fks.get(phi.canonical())
        if d is not None:
            return ImplicationResult(True, derivation=d)
        return ImplicationResult(
            False, reason="no proof found (the rule system is incomplete "
            "for general L — Theorem 3.6)")

    # -- bounded refutation ----------------------------------------------------------

    def _translated(self, phi: Constraint
                    ) -> tuple[Database, list[FD], list[IND], "FD | IND"]:
        database, fds, inds = l_to_fd_ind(self.sigma, scope=(phi,))
        (phi,) = _normalize((phi,))
        if isinstance(phi, Key):
            goal: "FD | IND" = FD(phi.element,
                                  frozenset(str(f) for f in phi.fields),
                                  frozenset((VID,)))
        else:
            goal = IND(phi.element, tuple(str(f) for f in phi.fields),
                       phi.target, tuple(str(f) for f in phi.target_fields))
        return database, fds, inds, goal

    def refute(self, phi: Constraint, max_steps: int = 2_000,
               max_rows: int = 2_000) -> ChaseResult:
        """Bounded chase; ``NOT_IMPLIED`` comes with a finite
        counterexample instance, ``IMPLIED`` with a chase certificate."""
        obs = self.obs
        database, fds, inds, goal = self._translated(phi)
        with obs.span("l_general.chase", query=str(phi)) as span:
            result = chase(database, fds, inds, goal,
                           max_steps=max_steps, max_rows=max_rows)
            if obs.enabled:
                span.set(outcome=result.outcome.value, steps=result.steps)
                if result.model is not None:
                    rows = sum(len(rs) for rs in result.model.rows.values())
                    span.set(counterexample_rows=rows)
                    obs.histogram(
                        "implication_counterexample_rows",
                        {"engine": "l_general"},
                        buckets=(1, 2, 4, 8, 16, 64, 256, 1024),
                        help="rows in chase-produced counterexample models",
                    ).observe(rows)
        return result

    # -- combined -----------------------------------------------------------------------

    def decide(self, phi: Constraint, max_steps: int = 2_000,
               max_rows: int = 2_000,
               strict: bool = False) -> ImplicationResult:
        """Prove, else chase, else report unknown.

        With ``strict=True`` an exhausted budget raises
        :class:`~repro.errors.UndecidableProblemError` instead of
        returning an inconclusive result (``details['outcome'] ==
        'unknown'``).
        """
        proved = self.prove(phi)
        if proved:
            return proved
        result = self.refute(phi, max_steps=max_steps, max_rows=max_rows)
        if result.outcome is ChaseOutcome.IMPLIED:
            return ImplicationResult(
                True, reason="established by the chase",
                details={"steps": result.steps})
        if result.outcome is ChaseOutcome.NOT_IMPLIED:
            return ImplicationResult(
                False, reason=result.reason,
                counterexample=result.model,
                details={"steps": result.steps})
        if strict:
            raise UndecidableProblemError(result.reason)
        return ImplicationResult(
            False, reason=result.reason,
            details={"outcome": "unknown", "steps": result.steps})
