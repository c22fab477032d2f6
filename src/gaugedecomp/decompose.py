"""Symbolic homotopy-type decompositions of gauge groups.

Expressions are products, in formula order, of a small factor vocabulary:
a gauge group over a single sphere, iterated loop spaces, and a pointed
mapping space on the cofibre descriptor.  Each function lists the same
factors in the same order, so structural equality of expressions is the
notion of "same decomposition" used throughout; all results are immutable
values.

Equivalence verdicts never claim more than is proved: the only branch
with a complete iff criterion is SU(2) over seven-dimensional sums with
coprime twists, where gauge groups are equivalent exactly when the K-gcds
with 12 agree.  Elsewhere equal levels give Equivalent (the decomposition
depends on K only through its level) and unequal levels give Unknown.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import Record
from .abelian import AbelianGroup, cardinality, direct_sum
from .classify import classify_conditions
from .manifolds import ConnectedSumSpec, _suspended_image, cofibre_space, suspension_rank
from .tables import (
    SU,
    HomotopyTable,
    LieGroup,
    SpaceId,
    _require_table,
    canonical_space,
)


class SphereGauge(Record):
    """Gauge group of the level-l bundle over a single sphere.

    ``level`` is the int gcd(o, K) for a connecting-map order o in the
    tables, or the text ``gcd(o(d_1), gcd K)`` when o is not.
    """

    __slots__ = ("group", "base_dim", "level")

    def __str__(self):
        return f"G^{self.level}(S^{self.base_dim})"


class LoopSpace(Record):
    """Iterated loop space Omega^degree of a space."""

    __slots__ = ("space", "degree")

    def __str__(self):
        prefix = "Omega" if self.degree == 1 else f"Omega^{self.degree}"
        return f"{prefix} {self.space}"


class MapStar(Record):
    """Pointed mapping space from a cofibre descriptor into a group."""

    __slots__ = ("cofibre", "group")

    def __str__(self):
        return f"Map*({self.cofibre.label()}, {self.group})"


Factor = SphereGauge | LoopSpace | MapStar


class ProductExpr(Record):
    """Product of factors in formula order, with multiplicities >= 1."""

    __slots__ = ("factors",)

    @classmethod
    def build(cls, pairs: Sequence[tuple[Factor, int]]) -> "ProductExpr":
        """The factors of positive multiplicity, in the caller's order."""
        return cls(tuple((f, m) for f, m in pairs if m > 0))

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for factor, mult in self.factors:
            parts.append(str(factor) if mult == 1 else f"{factor}^{mult}")
        return " x ".join(parts)

    def to_dict(self) -> dict:
        out = []
        for factor, mult in self.factors:
            entry: dict = {"factor": str(factor), "multiplicity": mult}
            if isinstance(factor, SphereGauge):
                entry["kind"] = "sphere_gauge"
                entry["base_dim"] = factor.base_dim
                entry["level"] = factor.level
            elif isinstance(factor, LoopSpace):
                entry["kind"] = "loop_space"
                entry["degree"] = factor.degree
                entry["space"] = str(factor.space)
            else:
                entry["kind"] = "pointed_maps"
                entry["cofibre_spheres"] = factor.cofibre.sphere_count
                entry["cofibre_resolved"] = factor.cofibre.resolved
            out.append(entry)
        return {"factors": out, "pretty": str(self)}


def _require_decomposable(group, spec, table) -> HomotopyTable:
    """The resolved table, once a bijective classification clause applies."""
    table = _require_table(table)
    case = classify_conditions(group, spec, table)
    if not case.is_bijective:
        raise ValueError(f"no decomposition available: {case.reason}")
    return table


def _check_length(ks: Sequence[int], r: int) -> None:
    if len(ks) != r:
        raise ValueError(f"expected {r} classifying integers, got {len(ks)}")


def _wedge_part(group, n: int, r: int, ks: tuple[int, ...], table: HomotopyTable) -> list:
    """The wedge lemma: G^k(S^n) at the level of ``ks``, times (Omega^n G)^(r-1)."""
    order = table.connecting_order(group, n)
    level = math.gcd(order or 0, *ks)
    if order is None:
        level = f"gcd(o(d_1), {level})"
    return [(SphereGauge(group, n, level), 1), (LoopSpace(group, n), r - 1)]


def _cofibre_part(group, spec: ConnectedSumSpec, table: HomotopyTable) -> list:
    """(Omega^q G)^(r - rank) times Map*(Y_F, G), for a spec past the gate."""
    tbar = suspension_rank(spec, table)
    return [
        (LoopSpace(group, spec.q), spec.r - tbar),
        (MapStar(cofibre_space(spec, table), group), 1),
    ]


def wedge_gauge_decomposition(
    group: SpaceId,
    n: int,
    r: int,
    ks: Sequence[int],
    table: HomotopyTable | None = None,
) -> ProductExpr:
    """Gauge group over a wedge of r n-spheres.

    One sphere gauge factor at the level of the tuple, and r - 1 copies of
    Omega^n G.
    """
    if not isinstance(group, LieGroup):
        raise ValueError(f"structure group must be a Lie group, got {group}")
    if r < 1:
        raise ValueError("need r >= 1 spheres")
    _check_length(ks, r)
    return ProductExpr.build(_wedge_part(group, n, r, tuple(ks), _require_table(table)))


def gauge_decomposition(
    group: SpaceId,
    spec: ConnectedSumSpec,
    ks: Sequence[int],
    table: HomotopyTable | None = None,
) -> ProductExpr:
    """Unpointed gauge group of the bundle classified by ``ks``.

    A sphere gauge factor at level gcd(order, ks), r - 1 copies of
    Omega^n G, r - rank copies of Omega^q G, and the pointed mapping space
    on the cofibre descriptor.  Only a bijective classification clause
    yields a decomposition, for any number of summands.
    """
    ks = tuple(ks)
    _check_length(ks, spec.r)
    table = _require_decomposable(group, spec, table)
    wedge = _wedge_part(group, spec.n, spec.r, ks, table)
    return ProductExpr.build(wedge + _cofibre_part(group, spec, table))


def pointed_gauge_decomposition(
    group: SpaceId,
    spec: ConnectedSumSpec,
    ks: Sequence[int] | None = None,
    table: HomotopyTable | None = None,
) -> ProductExpr:
    """Pointed gauge group; independent of the classifying tuple.

    r copies of Omega^n G, r - rank copies of Omega^q G, and the pointed
    mapping space on the cofibre descriptor.
    """
    if ks is not None:
        _check_length(ks, spec.r)
    table = _require_decomposable(group, spec, table)
    loops = [(LoopSpace(group, spec.n), spec.r)]
    return ProductExpr.build(loops + _cofibre_part(group, spec, table))


class EquivalenceVerdict(Record):
    __slots__ = ("verdict", "reason")  # verdict: "Equivalent", "NotEquivalent" or "Unknown"


def gauge_equivalent(
    group: SpaceId,
    spec: ConnectedSumSpec,
    ks: Sequence[int],
    ks2: Sequence[int],
    table: HomotopyTable | None = None,
) -> EquivalenceVerdict:
    """Decide whether two classifying tuples give equivalent gauge groups.

    NotEquivalent is only ever emitted on the SU(2) branch over
    (n, q) = (4, 3), where the criterion is an iff; other branches return
    Equivalent on equal levels and Unknown otherwise.  A spec whose
    decomposition the tables refuse raises what ``gauge_decomposition``
    raises, found by the same lookups and no echelon.
    """
    ks, ks2 = tuple(ks), tuple(ks2)
    _check_length(ks, spec.r)
    _check_length(ks2, spec.r)
    table = _require_decomposable(group, spec, table)
    if any(spec.xi):  # all-zero twists have rank 0 and need no image data
        _suspended_image(spec, table)
    order = table.connecting_order(group, spec.n)
    g1, g2 = math.gcd(order or 0, *ks), math.gcd(order or 0, *ks2)
    if order is None:
        if g1 == g2:
            return EquivalenceVerdict(
                "Equivalent",
                f"gcd(K) = gcd(K') = {g1}, so the levels agree for every value of "
                f"the (unknown) connecting-map order",
            )
        return EquivalenceVerdict(
            "Unknown",
            f"the connecting-map order for {group} over S^{spec.n} is not in the "
            f"tables and gcd(K) = {g1} != {g2} = gcd(K')",
        )
    if (spec.n, spec.q) == (4, 3) and canonical_space(group) == SU(2):
        if g1 == g2:
            citation = table.connecting_citation(group, 4)
            return EquivalenceVerdict(
                "Equivalent",
                f"gcd({order}, K) = gcd({order}, K') = {g1}; the connecting map "
                f"over S^4 for SU(2) has order {order} ({citation}) and the "
                f"decomposition depends on K only through this gcd",
            )
        return EquivalenceVerdict(
            "NotEquivalent",
            f"gcd({order}, K) = {g1} != {g2} = gcd({order}, K'); the pi_2 of the "
            f"sphere-gauge factor has order equal to that gcd, so the gauge "
            f"groups have non-isomorphic pi_2",
        )
    if g1 == g2:
        return EquivalenceVerdict(
            "Equivalent",
            f"l(K) = l(K') = {g1}; the decomposition depends on K only "
            f"through l(K)",
        )
    return EquivalenceVerdict(
        "Unknown",
        f"l(K) = {g1} and l(K') = {g2} differ; no inequivalence criterion "
        f"is available for {group} over S^{spec.n}",
    )


class SymbolicSum(Record):
    """A direct sum, split into a table-resolved part and symbolic terms."""

    __slots__ = ("known", "symbolic")

    @property
    def is_resolved(self) -> bool:
        return not self.symbolic

    def __str__(self):
        if self.is_resolved:
            return str(self.known)
        parts = [] if self.known.is_trivial else [str(self.known)]
        parts.extend(self.symbolic)
        return " (+) ".join(parts)

    def to_dict(self) -> dict:
        return {
            "known": self.known.to_dict(),
            "symbolic": list(self.symbolic),
            "pretty": str(self),
        }


def _remark_shape(xi: tuple[int, ...], table: HomotopyTable) -> bool:
    """One twist congruent to 1 and all others to 0, modulo |pi_6(S^3)|.

    The order is that of the table's (4, 3) attaching-image target (12 in
    the core table); without a finite target the shape is never claimed.
    It reads xi in the given basis, so it is not GL_r(Z)-invariant: true at
    (-23) and (1, 0), false at (23) and (1, 1).  The strict xfail
    test_pointed_pi_in_degree_zero_is_invariant_under_gl_r pins this until
    the rule is settled: ROADMAP item 10 shows that the groups it resolves
    are unproved.
    """
    image = table.attaching_image(4, 3)
    m = cardinality(image.target) if image else 0
    if not m:
        return False
    residues = sorted(v % m for v in xi)
    return residues[:-1] == [0] * (len(xi) - 1) and residues[-1] == 1


def pointed_gauge_pi(
    group: SpaceId,
    spec: ConnectedSumSpec,
    j: int,
    table: HomotopyTable | None = None,
) -> SymbolicSum:
    """pi_j of the pointed gauge group, assembled from the tables.

    r copies of pi_{j+n}(G), r - rank copies of pi_{j+q}(G), plus the
    pi_j of the residual mapping space.  The residual resolves to zero in
    degree 0 when exactly one twist is 1 mod |pi_6(S^3)| (12 in the core
    table) and the rest vanish modulo it; when the cofibre degenerates to
    a sphere it resolves through the tables; otherwise it stays symbolic.
    Unknown table entries stay symbolic rather than defaulting.  The degree
    0 rule reads xi in the given basis, so it is not GL_r(Z)-invariant (see
    _remark_shape).  A spec the decomposition refuses is refused here too.
    """
    if j < 0:
        raise ValueError("homotopy degree must be non-negative")
    table = _require_decomposable(group, spec, table)
    tbar = suspension_rank(spec, table)
    known: list[AbelianGroup] = []
    symbolic: list[str] = []

    def gather(degree: int, mult: int):
        if mult <= 0:
            return
        got = table.lookup_pi(group, degree)
        if got is None:
            label = f"pi_{degree}({group})"
            symbolic.append(label if mult == 1 else f"{label}^{mult}")
        else:
            known.extend([got] * mult)

    gather(j + spec.n, spec.r)
    gather(j + spec.q, spec.r - tbar)

    if tbar == 0:
        # The cofibre is the sphere S^{n+q}, so the residual is a loop space.
        gather(j + spec.n + spec.q, 1)
    elif (spec.n, spec.q) == (4, 3) and j == 0 and _remark_shape(spec.xi, table):
        pass  # the residual term vanishes
    else:
        symbolic.append(f"pi_{j}(Map*(Y_F, {group}))")
    return SymbolicSum(direct_sum(known), tuple(symbolic))
