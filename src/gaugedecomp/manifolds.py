"""Connected sums of sphere bundles over spheres.

A manifold here is a connected sum of total spaces of S^q-bundles over
S^n admitting cross sections, each summand given by one integer twist.
Summand i attaches through xi_i c, c the table's image of the twist
generator, and E_Mat(Y^r) = GL_r(Z) carries (xi_1 c, ..., xi_r c) to
(gcd(xi) c, 0, ..., 0).  So the suspension rank is t-bar = [gcd(xi) c != 0],
the head of one reduced twist column: xi mod the order of c.  Then Sigma M ~
v_r S^{n+1} v v_{r - t-bar} S^{q+1} v Sigma Y_F, and every formula reads its
factors off the spheres that ``_spheres`` lists.  The cofibre descriptor
carries the one attaching element (flagged unresolved when the tables lack
it) and survives as an opaque mapping-space factor downstream.

Built-in table data covers (n, q) = (4, 3), where the twist image in
pi_6(S^3) = Z/12 is the twist reduced mod 12.  Other (n, q) work exactly
when a user table declares the corresponding generator images.  Specs
and the descriptors computed from them are immutable.
"""

from __future__ import annotations

from operator import index

from ._record import Record, exact, read_field, read_ints, set_field
from .abelian import GroupElement
from .matrices import MixedMatrix, row_echelon_mixed
from .tables import HomotopyTable, MissingTableError, _require_table


class ConnectedSumSpec(Record):
    """Connected sum of r sphere-bundle summands with integer twists xi."""

    __slots__ = ("n", "q", "xi")

    def __init__(self, n: int, q: int, xi: tuple[int, ...]):
        n, q, xi = index(n), index(q), tuple(map(index, xi))
        if n < 2 or q < 2:
            raise ValueError("sphere dimensions must be >= 2")
        if len(xi) < 1:
            raise ValueError("a connected sum needs at least one summand")
        set_field(self, "n", n)
        set_field(self, "q", q)
        set_field(self, "xi", xi)

    @property
    def r(self) -> int:
        return len(self.xi)

    @classmethod
    def from_dict(cls, data) -> "ConnectedSumSpec":
        """Spec from ``{"n": n, "q": q, "xi": [twists]}``, all exact integers."""
        exact(data, dict, "spec")
        n, q = read_field(data, "n", int, "spec"), read_field(data, "q", int, "spec")
        return cls(n, q, read_ints(data, "xi", "spec"))


def _twist_column(spec: ConnectedSumSpec, image) -> MixedMatrix:
    """The twist matrix xi_i c as one column: xi mod the order o of c, over
    Z/o.  Twists and o are exact ints, so no constructor scans them."""
    modulus, o = image._order
    mat = object.__new__(MixedMatrix)
    set_field(mat, "rows", spec.r)
    set_field(mat, "column_moduli", (modulus,))
    set_field(mat, "entries", tuple([v % o for v in spec.xi]) if o else spec.xi)
    return mat


def _suspended_image(spec: ConnectedSumSpec, table: HomotopyTable | None):
    """The suspended image c, or None for all-zero twists: their image is 0 in any group."""
    if not any(spec.xi):
        return None
    image = _require_table(table).suspended_image(spec.n, spec.q)
    if image is None:
        raise MissingTableError(
            f"pi_{spec.n + spec.q}(S^{spec.q + 1}) suspended twist image "
            f"for (n, q)=({spec.n}, {spec.q})"
        )
    return image


def suspension_rank(
    spec: ConnectedSumSpec, table: HomotopyTable | None = None
) -> int:
    """t-bar = [gcd(xi) c != 0] for the suspended image c: the head of the
    reduced twist column, which the echelon leaves as (d, 0, ..., 0), d = 0
    only if the column is.  A missing image raises MissingTableError."""
    if (image := _suspended_image(spec, table)) is None:
        return 0
    _, reduced = row_echelon_mixed(_twist_column(spec, image))
    return 1 if reduced.entries[0] else 0


def _spheres(spec: ConnectedSumSpec, tbar: int) -> tuple[tuple[int, int], ...]:
    """The spheres of Sigma M one dimension down, as (dimension, count): r
    n-spheres and r - t-bar q-spheres, a zero count dropped."""
    low = spec.r - tbar
    return ((spec.n, spec.r), (spec.q, low)) if low else ((spec.n, spec.r),)


class CofibreDescriptor(Record):
    """The cofibre of a map from S^{n+q-1} into a wedge of q-spheres.

    ``sphere_count`` is how many wedge summands the map hits, t-bar, so at
    most 1; ``attaching`` holds that sphere's attaching element, and
    ``cell_dim`` the dimension of the attached cell.  With sphere_count == 0
    the wedge is empty and the space is just S^{cell_dim}.  The descriptor
    is consumed opaquely downstream, as a pointed mapping-space factor.
    """

    __slots__ = ("sphere_count", "wedge_dim", "cell_dim", "attaching", "resolved")

    @property
    def is_sphere(self) -> bool:
        return self.sphere_count == 0

    def label(self, suspended: bool = False) -> str:
        shift = 1 if suspended else 0
        if self.is_sphere:
            return f"S^{self.cell_dim + shift}"
        return "Sigma Y_F" if suspended else "Y_F"


def cofibre_space(
    spec: ConnectedSumSpec, table: HomotopyTable | None = None
) -> CofibreDescriptor:
    """Descriptor of the cofibre absorbing the twisted part of the sum.

    The attaching element is d' c' for the unsuspended image c', where d'
    is the echelon head of the twist column over c''s order; for (4, 3)
    with gcd(12, xi) = 1 this is a single unit of Z/12.  The table was
    checked when built, so ord(c) divides ord(c') and d' c' is nonzero.
    """
    table = _require_table(table)
    tbar = suspension_rank(spec, table)
    cell_dim = spec.n + spec.q
    if tbar == 0:
        # Empty wedge: the cofibre is the sphere S^{n+q} outright.
        return CofibreDescriptor(0, spec.q, cell_dim, (), True)
    image = table.attaching_image(spec.n, spec.q)
    if image is None:
        return CofibreDescriptor(tbar, spec.q, cell_dim, (), False)
    _, reduced = row_echelon_mixed(_twist_column(spec, image))
    attaching = (reduced.entries[0] * GroupElement(image.target, image.coeffs),)
    return CofibreDescriptor(tbar, spec.q, cell_dim, attaching, True)


class WedgeSplitting(Record):
    """Wedge of spheres plus a suspended cofibre, e.g. the suspension of M."""

    __slots__ = ("spheres", "cofibre")  # spheres: (dimension, count), descending dims

    def __str__(self):
        parts = []
        for dim, count in self.spheres:
            parts.extend([f"S^{dim}"] * count)
        parts.append(self.cofibre.label(suspended=True))
        return " v ".join(parts)

    def to_dict(self) -> dict:
        return {
            "spheres": [{"dim": d, "count": c} for d, c in self.spheres],
            "cofibre": {
                "sphere_count": self.cofibre.sphere_count,
                "wedge_dim": self.cofibre.wedge_dim,
                "cell_dim": self.cofibre.cell_dim,
                "resolved": self.cofibre.resolved,
                "label": self.cofibre.label(suspended=True),
            },
        }


def suspension_splitting(
    spec: ConnectedSumSpec, table: HomotopyTable | None = None
) -> WedgeSplitting:
    """Sigma M as a wedge: S^{d+1} per S^d of ``_spheres``, and the suspended cofibre."""
    cofibre = cofibre_space(spec, table)
    counts: dict[int, int] = {}
    for dim, count in _spheres(spec, cofibre.sphere_count):
        counts[dim + 1] = counts.get(dim + 1, 0) + count
    return WedgeSplitting(tuple(sorted(counts.items(), reverse=True)), cofibre)
