"""Classification of principal G-bundles over connected sums.

Decides which classification clause applies to a pair (G, manifold) and
computes the set of isomorphism classes of principal G-bundles: the free
group Z^r in the three bijective cases, or the stable wedge formula with
a symbolic residual term in the wider stable range.  The seven-dimensional
clause comes first, then the SU and Sp stable clauses read off the family
rows in ``tables``, then the wedge formula; every name of a group, such as
SU(2), Sp(1) and Spin(3), gets one verdict.  Results are immutable.
"""

from __future__ import annotations

import math

from ._record import Record, set_field
from .manifolds import ConnectedSumSpec, _spheres, suspension_rank
from .tables import (
    _NAMES,
    LIE_FAMILIES,
    HomotopyTable,
    LieGroup,
    SpaceId,
    _require_table,
    is_simply_connected_simple_compact,
    pi6_order,
)

SU_STABLE = "SU_stable"  # the bijective clause of a family's stable range: f"{family}_stable"
SP_STABLE = "Sp_stable"
DIM7_PI6_COPRIME = "Dim7_pi6coprime"
STABLE_WEDGE = "Stable_wedge_formula"
UNSUPPORTED = "Unsupported"

_BIJECTIVE = (SU_STABLE, SP_STABLE, DIM7_PI6_COPRIME)


class ClassificationCase(Record):
    __slots__ = ("kind", "reason")

    def __init__(self, kind: str, reason: str = ""):
        set_field(self, "kind", kind)
        set_field(self, "reason", reason)

    @property
    def is_bijective(self) -> bool:
        return self.kind in _BIJECTIVE


def classify_conditions(
    group: SpaceId, spec: ConnectedSumSpec, table: HomotopyTable | None = None
) -> ClassificationCase:
    """Total, deterministic dispatcher over the classification clauses.

    When both the seven-dimensional clause and a stable clause apply, the
    seven-dimensional one is reported: only it supports the gauge-group
    equivalence decision downstream.  The stable clauses are read off the
    family row of every name of the group, so SU(2), Sp(1) and Spin(3) get
    one verdict; a bijective clause comes before the wedge formula.
    """
    if not isinstance(group, LieGroup):
        return ClassificationCase(UNSUPPORTED, "structure group must be a Lie group")
    seven = (spec.n, spec.q) == (4, 3) and is_simply_connected_simple_compact(group)
    if seven:
        d = math.gcd(pi6_order(group, table), *spec.xi)
        if d == 1:
            return ClassificationCase(DIM7_PI6_COPRIME)
    n, q, wedge = spec.n, spec.q, False
    for g in _NAMES.get(group, (group,)):
        if stable := LIE_FAMILIES[g.family][2]:
            p, least, slack = stable
            k, kp = n // p, (q + 1) // p
            if n % p == 0 == (q + 1) % p and least <= kp <= k and k + kp <= g.rank:
                return ClassificationCase(f"{g.family}_stable")
            wedge = wedge or p * g.rank >= n + q - slack
    if wedge:
        return ClassificationCase(STABLE_WEDGE)
    if seven:
        reason = f"gcd(|pi_6({group})|, xi) = {d} != 1 and no stable clause applies"
    else:
        reason = f"no classification clause covers {group} with (n, q)=({n}, {q})"
    return ClassificationCase(UNSUPPORTED, reason)


class BundleFormula(Record):
    """Direct-sum formula with a named symbolic residual, e.g. [Y_F, BG]."""

    __slots__ = ("terms", "residual")

    def __str__(self):
        parts = []
        for g, mult in self.terms:
            text = "?" if g is None else str(g)
            parts.append(text if mult == 1 else f"({text})^{mult}")
        parts.append(self.residual)
        return " (+) ".join(parts)


class BundleClassification(Record):
    __slots__ = ("case", "free_rank", "formula", "note")

    def __init__(self, case: ClassificationCase, free_rank: int | None = None,
                 formula: BundleFormula | None = None, note: str = ""):
        set_field(self, "case", case)
        set_field(self, "free_rank", free_rank)
        set_field(self, "formula", formula)
        set_field(self, "note", note)

    def __str__(self):
        if self.free_rank is not None:
            return f"Z^{self.free_rank}"
        return str(self.formula)


def stable_wedge_formula(
    group: SpaceId, spec: ConnectedSumSpec, table: HomotopyTable | None = None
) -> BundleFormula:
    """The wedge-range formula: pi_{d-1}(G) once per d-sphere of the wedge
    in Sigma M, so r copies of pi_{n-1}(G) and r - rank copies of
    pi_{q-1}(G), plus the symbolic residual [Y_F, BG].

    When no twist-image data fixes the rank, it is taken as 0 if pi_{q-1}(G)
    is trivial (the multiplicity is then irrelevant); a nontrivial group
    without rank data raises.
    """
    table = _require_table(table)
    try:
        tbar = suspension_rank(spec, table)
    except LookupError:
        pi_q1 = table.lookup_pi(group, spec.q - 1)
        if pi_q1 is None or not pi_q1.is_trivial:
            raise
        tbar = 0
    terms = tuple([(table.lookup_pi(group, d - 1), c) for d, c in _spheres(spec, tbar)])
    return BundleFormula(terms, "[Y_F, BG]")


def principal_bundles(
    group: SpaceId, spec: ConnectedSumSpec, table: HomotopyTable | None = None
) -> BundleClassification:
    """Isomorphism classes of principal G-bundles over the connected sum.

    In the bijective cases the classes are Z^r, with the bijection induced
    by the projection onto the wedge of base spheres.
    """
    case = classify_conditions(group, spec, table)
    if case.is_bijective:
        return BundleClassification(
            case,
            free_rank=spec.r,
            note=(
                f"pullback along the bundle projections is a bijection from "
                f"the direct sum of {spec.r} copies of pi_{spec.n - 1}({group})"
            ),
        )
    if case.kind == STABLE_WEDGE:
        return BundleClassification(
            case, formula=stable_wedge_formula(group, spec, table)
        )
    raise ValueError(f"unsupported classification case: {case.reason}")
