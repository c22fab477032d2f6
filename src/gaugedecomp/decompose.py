"""Symbolic homotopy-type decompositions of gauge groups.

Expressions are products, in formula order, of a small factor vocabulary:
a gauge group over a single sphere, iterated loop spaces, and a pointed
mapping space on the cofibre descriptor.  Loop spaces and homotopy groups
come from the spheres of ``manifolds._spheres``: Omega^d G, or pi_{j+d}(G),
per d-sphere.  Each function lists the same factors in the same order, so
structural equality of expressions is the notion of "same decomposition"
used throughout; all results are immutable values.

Equivalence verdicts never claim more than is proved.  The decomposition
depends on K only through its level, so equal levels give Equivalent.
Unequal levels give NotEquivalent only where a ``sphere_gauge_invariants``
table row tells the two sphere-gauge factors apart, and Unknown elsewhere.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import Record
from .abelian import AbelianGroup, cardinality, direct_sum
from .classify import classify_conditions
from .manifolds import ConnectedSumSpec, _spheres, _suspended_image, cofibre_space, suspension_rank
from .tables import HomotopyTable, LieGroup, SpaceId, _require_table


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


def _pointed_part(group, spec: ConnectedSumSpec, table: HomotopyTable) -> list:
    """Omega^d G for each d-sphere of the wedge, times Map*(Y_F, G), for a
    spec past the gate; the first term is always (Omega^n G)^r."""
    loops = [(LoopSpace(group, d), c) for d, c in _spheres(spec, suspension_rank(spec, table))]
    return loops + [(MapStar(cofibre_space(spec, table), group), 1)]


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
    return ProductExpr.build(wedge + _pointed_part(group, spec, table)[1:])


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
    return ProductExpr.build(_pointed_part(group, spec, _require_decomposable(group, spec, table)))


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

    The level is gcd(o, K) for the connecting-map order o, with o = 0 when
    the tables lack it; as gcd(o, K) = gcd(o, gcd K), equal levels give
    Equivalent for every o.  Unequal levels give NotEquivalent when the
    tables' row pi_j(G^k(S^n)) = Z/gcd(m, k) differs at K and K' (the other
    factors agree, and finitely generated abelian groups cancel), and
    Unknown otherwise.  A spec whose decomposition the tables refuse raises
    what ``gauge_decomposition`` raises, found by the same lookups and no
    echelon.
    """
    ks, ks2 = tuple(ks), tuple(ks2)
    _check_length(ks, spec.r)
    _check_length(ks2, spec.r)
    table = _require_decomposable(group, spec, table)
    _suspended_image(spec, table)  # refuses a missing image, as the decomposition does
    n, order = spec.n, table.connecting_order(group, spec.n)
    g1, g2 = math.gcd(order or 0, *ks), math.gcd(order or 0, *ks2)
    o = f"{order}, " if order else ""
    facts = f"the connecting map over S^{n} for {group} has " + (
        f"order {order} ({table.connecting_citation(group, n)})" if order
        else "an order not in the tables"
    )
    if g1 == g2:
        return EquivalenceVerdict(
            "Equivalent",
            f"gcd({o}K) = gcd({o}K') = {g1}; {facts} and the decomposition "
            f"depends on K only through this gcd",
        )
    levels = f"gcd({o}K) = {g1} != {g2} = gcd({o}K'); {facts}"
    j, m, citation = table.sphere_gauge_invariant(group, n) or (0, 1, "")  # no row: m = 1
    h1, h2 = math.gcd(m, *ks), math.gcd(m, *ks2)
    if h1 != h2:
        return EquivalenceVerdict(
            "NotEquivalent",
            f"{levels}; pi_{j}(G^k(S^{n})) = Z/gcd({m}, k) ({citation}) is Z/{h1} at K "
            f"and Z/{h2} at K', so the gauge groups have non-isomorphic pi_{j}",
        )
    return EquivalenceVerdict(
        "Unknown",
        f"{levels}; no table row of a homotopy group of G^k(S^{n}) for {group} "
        f"tells the two levels apart",
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
        got = table.lookup_pi(group, degree)
        if got is None:
            label = f"pi_{degree}({group})"
            symbolic.append(label if mult == 1 else f"{label}^{mult}")
        else:
            known.extend([got] * mult)

    for d, c in _spheres(spec, tbar):
        gather(j + d, c)
    if tbar == 0:
        # The cofibre is the sphere S^{n+q}, so the residual is a loop space.
        gather(j + spec.n + spec.q, 1)
    elif (spec.n, spec.q) == (4, 3) and j == 0 and _remark_shape(spec.xi, table):
        pass  # the residual term vanishes
    else:
        symbolic.append(f"pi_{j}(Map*(Y_F, {group}))")
    return SymbolicSum(direct_sum(known), tuple(symbolic))
