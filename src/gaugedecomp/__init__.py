"""Exact-arithmetic classification of principal bundles over connected
sums of sphere bundles over spheres, with symbolic homotopy
decompositions of their gauge groups."""

from .abelian import (
    AbelianGroup,
    GroupElement,
    TRIVIAL_GROUP,
    Z,
    cardinality,
    cyclic,
    direct_sum,
)
from .classify import (
    BundleClassification,
    BundleFormula,
    ClassificationCase,
    DIM7_PI6_COPRIME,
    SP_STABLE,
    STABLE_WEDGE,
    SU_STABLE,
    UNSUPPORTED,
    classify_conditions,
    principal_bundles,
    stable_wedge_formula,
)
from .decompose import (
    EquivalenceVerdict,
    LoopSpace,
    MapStar,
    ProductExpr,
    SphereGauge,
    SymbolicSum,
    gauge_decomposition,
    gauge_equivalent,
    pointed_gauge_decomposition,
    pointed_gauge_pi,
    wedge_gauge_decomposition,
)
from .manifolds import (
    CofibreDescriptor,
    ConnectedSumSpec,
    WedgeSplitting,
    cofibre_space,
    suspension_rank,
    suspension_splitting,
)
from .matrices import (
    IntMatrix,
    MixedMatrix,
    OrbitCertificate,
    is_echelon,
    matrix_action,
    orbit_reduce,
    row_echelon_int,
    row_echelon_mixed,
    same_orbit,
    smith_invariants,
)
from .residues import INTEGERS, Modulus, Residue, bezout, gcd_mod
from .tables import (
    E6,
    E7,
    E8,
    F4,
    G2,
    HomotopyTable,
    LieGroup,
    MissingTableError,
    Sp,
    SpaceId,
    Sphere,
    Spin,
    SU,
    TableEntry,
    canonical_space,
    default_table,
    is_simply_connected_simple_compact,
    load_table_file,
    load_tables,
    pi6_order,
)

__version__ = "0.1.0"
