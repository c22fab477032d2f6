"""Independent oracles used by the test suite.

Everything here recomputes expected values by a different route than the
package: brute-force closures, prime-factorization recombination, a
Bareiss determinant, and determinantal divisors.  Nothing imports the
implementation paths it checks beyond the basic matrix container.
"""

from __future__ import annotations

import copy
import math
import pickle
from itertools import combinations, product

from gaugedecomp import IntMatrix


def gcd_class(m: int, vec: tuple[int, ...]) -> int:
    return math.gcd(m, *vec)


def diagonal(values: list[int]) -> IntMatrix:
    """Square matrix with ``values`` on the diagonal and zeros elsewhere."""
    n = len(values)
    return IntMatrix.from_rows([[v if i == j else 0 for j in range(n)] for i, v in enumerate(values)])


def unimodular_generators(r: int) -> tuple[IntMatrix, IntMatrix]:
    """The standard generators of GL_r(Z), r >= 2: (shear, signed cycle).

    The shear is the identity plus a 1 in position (2, 1); the signed cycle
    is (-1)**(r-1) times the cyclic permutation matrix with a 1 in the
    top-right corner.
    """
    shear = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    shear[1][0] = 1
    sign = (-1) ** (r - 1)
    cycle = [[sign if j == (i - 1) % r else 0 for j in range(r)] for i in range(r)]
    return IntMatrix.from_rows(shear), IntMatrix.from_rows(cycle)


def _induced_maps(m: int, r: int) -> list[IntMatrix]:
    """The two generators and their closed-form inverses: I - E for the
    shear I + E, and the transpose for the cycle (a signed permutation)."""
    shear, cycle = unimodular_generators(r)
    identity = diagonal([1] * r)
    shear_inv = IntMatrix(r, r, tuple(2 * a - b for a, b in zip(identity.entries, shear.entries)))
    cycle_inv = IntMatrix.from_rows([list(col) for col in zip(*cycle.to_lists())])
    return [shear, cycle, shear_inv, cycle_inv]


def orbit_partition(m: int, r: int) -> dict[tuple[int, ...], frozenset]:
    """Breadth-first closure of Z_m^r under the two generators and inverses.

    Returns a map from each vector to its orbit (as a frozenset).
    """
    maps = _induced_maps(m, r)
    vectors = list(product(range(m), repeat=r))
    seen: dict[tuple[int, ...], frozenset] = {}
    for start in vectors:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for a in maps:
                    image = tuple(x % m for x in a.apply(v))
                    if image not in orbit:
                        orbit.add(image)
                        nxt.append(image)
            frontier = nxt
        frozen = frozenset(orbit)
        for v in orbit:
            seen[v] = frozen
    return seen


def elementary_orbit(m: int, start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Closure of one vector under single elementary row operations."""
    r = len(start)

    def canon(v):
        return tuple(x % m for x in v) if m else tuple(v)

    start = canon(start)
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            images = []
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    w = list(v)
                    w[i], w[j] = w[j], w[i]
                    images.append(tuple(w))
                    plus = list(v)
                    plus[i] += v[j]
                    images.append(tuple(plus))
                    minus = list(v)
                    minus[i] -= v[j]
                    images.append(tuple(minus))
            for i in range(r):
                neg = list(v)
                neg[i] = -neg[i]
                images.append(tuple(neg))
            for w in images:
                w = canon(w)
                if w not in orbit:
                    orbit.add(w)
                    nxt.append(w)
        frontier = nxt
    return orbit


def coordinate_order(s: int, c: int) -> int:
    """Order of c in Z/s (Z when s == 0): the least k >= 1 with k c == 0,
    found by counting, or 0 when there is none."""
    if s == 0:
        return 1 if c == 0 else 0
    k = 1
    while (k * c) % s:
        k += 1
    return k


def twist_rank(xi: list[int], free: int, torsion: list[int], coeffs: list[int]) -> int:
    """[g c != 0] in Z^free (+) Z/torsion, for the image c and g = gcd(xi).

    xi goes to (g, 0, ..., 0) by Euclid on a list: signs dropped, then every
    other entry reduced mod a least nonzero one, until one is left.  Then g c
    is nonzero exactly when some coordinate's order does not divide g.
    """
    v = [abs(x) for x in xi]
    while sum(1 for x in v if x) > 1:
        i = min((k for k in range(len(v)) if v[k]), key=v.__getitem__)
        v = [x if k == i else x % v[i] for k, x in enumerate(v)]
    g = max(v)
    orders = [coordinate_order(s, c) for s, c in zip([0] * free + list(torsion), coeffs)]
    return int(any(g % o if o else g for o in orders))


def rational_degrees(space) -> tuple[int, ...]:
    """Degrees of the rational homotopy of a sphere or a compact simply
    connected simple Lie group, with multiplicity: the free rank of
    pi_k(space) is the number of times k occurs.

    A Lie group is rationally a product of odd spheres, one per generator
    degree (Borel 1953; Mimura-Toda, Topology of Lie Groups, 1991).
    Spin(2l) has 2l - 1 besides 3, 7, ..., 4l - 5, so twice when l is even.
    pi_k(S^m) is rationally Q exactly when k = m, or m is even and
    k = 2m - 1 (Serre 1953).
    """
    family = getattr(space, "family", None)
    if family is None:
        m = space.dim
        return (m,) if m % 2 else (m, 2 * m - 1)
    rank = space.rank
    if family == "SU":
        return tuple(range(3, 2 * rank, 2))
    if family == "Sp":
        return tuple(range(3, 4 * rank, 4))
    if family == "Spin" and rank % 2:  # Spin(2l + 1): 3, 7, ..., 4l - 1
        return tuple(range(3, 2 * rank - 2, 4))
    if family == "Spin":  # Spin(2l): 3, 7, ..., 4l - 5 and 2l - 1
        return tuple(sorted([*range(3, 2 * rank - 4, 4), rank - 1]))
    return {
        "G2": (3, 11),
        "F4": (3, 11, 15, 23),
        "E6": (3, 9, 11, 15, 17, 23),
        "E7": (3, 11, 15, 19, 23, 27, 35),
        "E8": (3, 15, 23, 27, 35, 39, 47, 59),
    }[family]


def echelon_rank(b) -> int:
    """Number of nonzero rows of b, which must be in echelon form: each
    nonzero row leads strictly right of the row above, zero rows at the
    bottom.  Raises ValueError otherwise."""
    rows = b.to_lists()
    cols = len(rows[0])
    leads = [next((j for j, v in enumerate(row) if v), cols) for row in rows]
    if not all(y > x or x == y == cols for x, y in zip(leads, leads[1:])):
        raise ValueError("matrix is not in echelon form")
    return sum(lead < cols for lead in leads)


def smith_by_factorization(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of finite cyclic groups.

    Splits every order into prime powers and regroups the largest powers
    of each prime into the last factor, the next largest into the one
    before, and so on.
    """
    powers: dict[int, list[int]] = {}
    for s in orders:
        n = s
        p = 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                powers.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            powers.setdefault(n, []).append(1)
    depth = max((len(v) for v in powers.values()), default=0)
    factors = []
    for slot in range(depth):
        f = 1
        for p, exps in powers.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                f *= p ** exps_sorted[slot]
        factors.append(f)
    return tuple(sorted(f for f in factors if f > 1))


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square matrix given as rows, by Bareiss
    fraction-free elimination with row pivoting.  The oracle's own copy:
    ``IntMatrix.det`` may instead return a sign it tracked, and a test that
    compared that against itself would prove nothing."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def row_by_row_echelon(
    moduli: list[int], rows: list[list[int]]
) -> tuple[list[list[int]], list[list[int]], int]:
    """(D, B, det D) of the package's echelon reduction, recomputed by the
    oracle's own copy of its pivot rule on plain lists.  Every row operation
    is applied to the whole row of the matrix and to the whole row of D, each
    cell reduced by its column modulus at once; det D is the product of the
    signs of the swaps and negations.

    Per column, rows from the first unplaced one down: over Z, negative
    entries are negated; a single row over Z/m is negated if that gives a
    smaller representative; otherwise the least nonzero entry (the lowest
    row on a tie) subtracts its quotient multiples from the other nonzero
    rows until one row survives, a survivor that is not yet its gcd with
    the modulus is parked one row down and folded with the modulus by a
    Bezout addition, and the pivot is swapped up.  A Hermite pass then
    reduces the entries above each pivot into [0, pivot).
    """
    n = len(rows)
    mat = [[v % m if m else int(v) for v, m in zip(row, moduli)] for row in rows]
    d = [[int(i == j) for j in range(n)] for i in range(n)]
    sign = 1

    def add(dst, src, c):
        mat[dst] = [(a + c * b) % m if m else a + c * b
                    for a, b, m in zip(mat[dst], mat[src], moduli)]
        d[dst] = [a + c * b for a, b in zip(d[dst], d[src])]

    def swap(i, j):
        nonlocal sign
        if i != j:
            mat[i], mat[j], d[i], d[j] = mat[j], mat[i], d[j], d[i]
            sign = -sign

    def negate(i):
        nonlocal sign
        mat[i] = [-v % m if m else -v for v, m in zip(mat[i], moduli)]
        d[i] = [-v for v in d[i]]
        sign = -sign

    def inverse_mod(x, m):  # u with u * x == gcd(x, m) (mod m), by extended Euclid
        r0, r1, u0, u1 = x, m, 1, 0
        while r1:
            q = r0 // r1
            r0, r1, u0, u1 = r1, r0 - q * r1, u1, u0 - q * u1
        return u0

    pivots, top = [], 0
    for col, m in enumerate(moduli):
        if top == n:
            break
        if m == 0:
            for i in range(top, n):
                if mat[i][col] < 0:
                    negate(i)
        live = [i for i in range(top, n) if mat[i][col]]
        if not live:
            continue
        if top == n - 1:
            if m and m - mat[top][col] < mat[top][col]:
                negate(top)
        else:
            while len(live) > 1:
                low = min(live, key=lambda k: (mat[k][col], k))
                x = mat[low][col]
                for j in live:
                    if j != low:
                        add(j, low, -(mat[j][col] // x))
                live = [i for i in range(top, n) if mat[i][col]]
            i, x = live[0], mat[live[0]][col]
            g = math.gcd(x, m)
            if m and g < x:
                swap(i, top + 1)
                add(top, top + 1, inverse_mod(x, m))
                add(top + 1, top, -(x // g))
            else:
                swap(i, top)
        pivots.append((top, col))
        top += 1
    for p, col in pivots:
        for i in range(p):
            add(i, p, -(mat[i][col] // mat[p][col]))
    return d, mat, sign


def determinantal_invariants(mat: IntMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k-by-k minors (determinantal divisors)."""
    nrows, ncols = mat.rows, mat.cols
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                g = math.gcd(g, bareiss_det([[mat.entry(i, j) for j in cols] for i in rows]))
        divisors.append(g)
        if g == 0:
            break
    out = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            break
        out.append(divisors[k] // divisors[k - 1])
    return tuple(out)


def random_unimodular(rng, r: int, ops: int = 12) -> IntMatrix:
    """Random product of elementary, swap and sign matrices; determinant is
    +-1.  For r = 1 only signs are drawn: GL_1(Z) is {1, -1}."""
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(ops):
        kind = rng.randrange(3) if r > 1 else 2
        i = rng.randrange(r)
        j = rng.randrange(r - 1) if r > 1 else 0
        j = j + 1 if j >= i else j
        if kind == 0:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def unread(d: IntMatrix) -> bool:
    """Whether D's dense entries are still unbuilt, asked of the slot itself
    so that asking does not build them."""
    try:
        IntMatrix.entries.__get__(d)
    except AttributeError:
        return True
    return False


def check_reads_as_eager(d: IntMatrix) -> None:
    """Assert that D reads exactly as the IntMatrix built eagerly from its
    entries: equality both ways, hash, repr, pickle bytes, the pickle, copy
    and deepcopy round trips, and det equal to the oracle's determinant of
    the entries, +-1.  The first read builds the entries once and keeps
    them."""
    entries = d.entries
    assert not unread(d) and d.entries is entries
    assert getattr(d, "_sparse", None) is None  # the sparse rows go once the entries exist
    check_same_record(d, IntMatrix(d.rows, d.cols, entries))
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert not unread(twin)
    assert d.det() == bareiss_det(d.to_lists()) in (1, -1)


def check_same_record(built, twin) -> None:
    """Assert that a record built without its constructor reads exactly as
    ``twin``, built by it: equality both ways, hash, repr, pickle bytes, and
    the pickle, copy and deepcopy round trips."""
    assert type(built) is type(twin)
    assert built == twin and twin == built
    assert hash(built) == hash(twin)
    assert repr(built) == repr(twin)
    assert pickle.dumps(built) == pickle.dumps(twin)
    for copied in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert copied == twin and repr(copied) == repr(twin)
