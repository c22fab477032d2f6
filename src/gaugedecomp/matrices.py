"""Exact dense integer matrices and unimodular reductions.

Provides row echelon forms over columns that mix Z with residue rings
Z/m, the gcd-orbit reduction of residue vectors with an invertibility
certificate, the induced action of integer matrices on tuples of
abelian-group elements, and the Smith invariant factors of an integer
matrix, read off alternating echelons of it and its transpose.  All is
exact; there is no floating point.  Matrices and certificates are immutable.

An echelon reduces each column on its own values.  The Euclid steps that
place a column's pivot run on a one-column reducer, which records them as a
transform U; U is then applied once to the rows' cells right of the column
and to the rows of the unimodular transform D, instead of each step being
applied to whole rows.  A column whose entries all lie below 2^30, where U
saves less than it costs, is reduced on the whole rows.  The last column,
and so every one-column matrix and every one-column reducer, has one cell
per row to reduce: each Euclid round there is one pass over the live rows
that updates the cell and the row of D and collects the next live rows.  D is
kept as sparse rows, so combining its rows costs their support, and is
returned as an ``IntMatrix`` whose dense r x r entries are built from
those rows on first read, a row at a time: r^2 cells filled at C level,
and none by a caller that only wants the rank.

Entries are made exact ints by ``operator.index`` and reduced per column,
once on the way in: by the ``IntMatrix`` and ``MixedMatrix`` constructors,
and by ``manifolds._twist_column``, which builds the twist column from
exact ints.  Row operations keep them that way, so D and B are
built from the reducer's rows without a second pass through a constructor.

D's determinant is tracked, not computed: a row swap or negation flips
its sign and a row addition keeps it.  ``D.det()`` returns that sign in
O(1); a constructor-built matrix still goes through Bareiss elimination.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain, compress, cycle
from operator import index

from ._record import Record, set_field
from .residues import INTEGERS, Modulus, Residue, bezout, gcd_mod, invariant_factors


class _OnDemand(Record):
    __slots__ = ("_sparse", "_sign")  # D's sparse rows until built and its det: not fields

    def __getattr__(self, name):  # runs only when normal lookup fails, as for an unset slot
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = self._sparse
        if rows is None:  # another thread built the entries since this lookup failed
            return object.__getattribute__(self, "entries")
        n = len(rows)
        def dense(row: dict[int, int]) -> list[int]:
            cells = [0] * n
            for j, v in row.items():
                cells[j] = v
            return cells
        entries = tuple(chain.from_iterable(map(dense, rows)))
        set_field(self, "entries", entries)
        set_field(self, "_sparse", None)  # after the entries, so a racing reader finds them
        return entries


class IntMatrix(_OnDemand):
    """Dense row-major integer matrix of arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", tuple(map(index, entries)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        if nrows == 0:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(chain.from_iterable(rows)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entry(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector, over Z."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum(self.entry(i, k) * vector[k] for k in range(self.cols))
            for i in range(self.rows)
        )

    def det(self) -> int:
        """Exact determinant: a reduction's tracked sign, or else Bareiss."""
        sign = getattr(self, "_sign", None)
        if sign is not None:
            return sign
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def matrix_action(a: IntMatrix, elements: Sequence) -> tuple:
    """Left action of an integer matrix on a tuple of group elements.

    ``elements`` must be addable and int-scalable values in one common
    group (GroupElement works); entry (i, j) of the matrix multiplies the
    j-th element in the i-th output slot.
    """
    if a.rows != a.cols:
        raise ValueError("action needs a square matrix")
    if a.rows != len(elements):
        raise ValueError(
            f"matrix size {a.rows} does not match element count {len(elements)}"
        )
    groups = {getattr(x, "group", None) for x in elements}
    if len(groups) > 1:
        raise ValueError("elements do not share a common group")
    out = []
    for i in range(a.rows):
        acc = 0 * elements[0]
        for j in range(a.cols):
            acc = acc + a.entry(i, j) * elements[j]
        out.append(acc)
    return tuple(out)


class MixedMatrix(Record):
    """Matrix whose columns carry individual moduli (0 meaning a Z column).

    Entries are stored as canonical integer representatives per column.
    """

    __slots__ = ("rows", "column_moduli", "entries")

    def __init__(self, rows: int, column_moduli: tuple[Modulus, ...], entries: tuple[int, ...]):
        if rows < 1:
            raise ValueError("matrix needs at least one row")
        moduli = [mod.m for mod in column_moduli]
        if not moduli:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * len(moduli):
            raise ValueError("entry count does not match dimensions")
        # One pass to exact ints: a bool in a Z column is stored as 0 or 1.
        canon = tuple(v % m if m else v for v, m in zip(map(index, entries), cycle(moduli)))
        set_field(self, "rows", rows)
        set_field(self, "column_moduli", tuple(column_moduli))
        set_field(self, "entries", canon)

    @property
    def cols(self) -> int:
        return len(self.column_moduli)

    @classmethod
    def from_rows(
        cls, column_moduli: Sequence[Modulus], rows: Sequence[Sequence[int]]
    ) -> "MixedMatrix":
        if any(len(r) != len(column_moduli) for r in rows):
            raise ValueError("row length does not match the moduli list")
        return cls(len(rows), column_moduli, tuple(chain.from_iterable(rows)))

    entry, row, to_lists = IntMatrix.entry, IntMatrix.row, IntMatrix.to_lists  # same layout


class OrbitCertificate(Record):
    """Witness that a unimodular transform carries a vector to (d, 0, ..., 0).

    ``transform`` has determinant +-1 and transform @ input is congruent,
    coordinate-wise mod m, to ``canonical`` = (d, 0, ..., 0) where d is the
    gcd of the input representatives together with m.
    """

    __slots__ = ("modulus", "transform", "canonical")

    def __init__(self, modulus: Modulus, transform: IntMatrix, canonical: tuple[Residue, ...]):
        if transform.det() not in (1, -1):
            raise ValueError("certificate transform is not unimodular")
        if any(x.value != 0 for x in canonical[1:]):
            raise ValueError("canonical form must vanish past the first slot")
        head = canonical[0].value
        m = modulus.m
        if m == 0:
            if head < 0:
                raise ValueError("canonical head must be non-negative over Z")
        elif head != 0 and m % head != 0:
            raise ValueError("canonical head must divide the modulus")
        set_field(self, "modulus", modulus)
        set_field(self, "transform", transform)
        set_field(self, "canonical", canonical)

    @property
    def det(self) -> int:
        """The transform's determinant, +-1; O(1) for a transform a reduction built."""
        return self.transform.det()

    @property
    def divisor(self) -> int:
        """The orbit invariant: gcd of the input together with the modulus."""
        return gcd_mod(self.modulus, [x.value for x in self.canonical])

    def verify(self, x: Sequence[int]) -> bool:
        """Check transform @ x == canonical coordinate-wise (mod m), x given as ints."""
        image = self.transform.apply(x)
        return all(
            self.modulus.reduce(v) == c.value for v, c in zip(image, self.canonical)
        )


class _Reducer:
    """Row-operation workspace of the echelon forms.

    Holds the working matrix, whose rows arrive as lists of exact ints
    reduced per column modulus and stay so (the reducer owns those lists and
    changes them in place), and the accumulated integer transform;
    every operation is elementary, so the transform's determinant is
    ``sign``: a swap of two rows or a negation flips it, an addition keeps
    it.  The column moduli are plain ints (0 for a Z column).  Each
    transform row is a dict {column: coefficient} starting at {i: 1}, so a
    row addition walks only the source row's support.  A row addition
    starts at the column ``col`` being reduced, as its source row (a pivot
    row, or one below the pivots) is zero left of ``col``.

    ``_echelon`` uses two: one over the whole matrix, whose transform is D,
    and, for each column it defers, a one-column reducer over the rows not
    yet holding a pivot, whose transform U ``_apply_segment`` then applies
    to the first.  On a reducer's last column ``_place_pivot`` runs each
    Euclid round as one pass that does what ``add`` would, without calling
    it; ``add`` serves the columns with cells to their right, the Bezout
    fold and the Hermite pass.
    """

    def __init__(self, rows: list[list[int]], moduli: tuple[int, ...]):
        self.moduli = moduli
        self.mat = rows
        self.transform = [{i: 1} for i in range(len(self.mat))]
        self.sign = 1

    def add(self, dst: int, src: int, c: int, col: int) -> None:
        if c == 0 or dst == src:
            return
        row_d, row_s = self.mat[dst], self.mat[src]
        # A plain counter: on rows of 8-bit entries, enumerate costs a few
        # per cent more, and rebuilding the slice from a zip 6-30 % more.
        j = col
        for m in self.moduli[col:]:
            v = row_d[j] + c * row_s[j]
            row_d[j] = v % m if m else v
            j += 1
        t_d = self.transform[dst]
        for j, v in self.transform[src].items():
            t_d[j] = t_d.get(j, 0) + c * v

    def swap(self, i: int, j: int) -> None:
        self.mat[i], self.mat[j] = self.mat[j], self.mat[i]
        self.transform[i], self.transform[j] = self.transform[j], self.transform[i]
        self.sign = -self.sign

    def negate(self, i: int) -> None:
        self.mat[i] = [-v % m if m else -v for m, v in zip(self.moduli, self.mat[i])]
        self.transform[i] = {j: -v for j, v in self.transform[i].items()}
        self.sign = -self.sign


def _place_pivot(red: _Reducer, col: int, top: int, bottom: int) -> bool:
    """Reduce rows top..bottom-1 in one column to (d, 0, ..., 0) at ``top``.

    For segments of at least two rows this realizes d = gcd of the segment
    together with the column modulus, folding the modulus in with a Bezout
    row addition when needed.  A single-row segment only admits scaling by
    -1, so it is just sign-normalized deterministically.
    Returns True iff a nonzero pivot was placed.
    """
    m = red.moduli[col]
    if m == 0:
        for i in range(top, bottom):
            if red.mat[i][col] < 0:
                red.negate(i)

    live = [i for i in range(top, bottom) if red.mat[i][col] != 0]
    if not live:
        return False

    if bottom - top == 1:
        x = red.mat[top][col]
        if m and (m - x) < x:
            red.negate(top)
        return True

    # Euclid across rows: subtract quotient multiples of the smallest
    # entry until at most one coordinate survives.
    mat, transform = red.mat, red.transform
    one_cell = col == len(red.moduli) - 1
    while len(live) >= 2:
        vals = [mat[k][col] for k in live]
        x_i = min(vals)
        i = live[vals.index(x_i)]  # live ascends, so a tie goes to the lowest row
        if one_cell:
            # The round as one pass, making the operations ``add`` would.
            # Values lie in [0, m), or over Z are non-negative after the
            # negation pass, so v - q * x_i = v mod x_i lies in [0, x_i),
            # inside [0, m), and needs no reduction.  Rows off ``live`` are
            # zero and stay so.
            t_i = transform[i].items()
            nxt = []
            for j, v in zip(live, vals):
                if j != i:
                    q = v // x_i
                    v -= q * x_i
                    mat[j][col] = v
                    t_j = transform[j]
                    for k, c in t_i:
                        t_j[k] = t_j.get(k, 0) - q * c
                    if not v:
                        continue
                nxt.append(j)
            live = nxt
        else:
            for j in live:
                if j != i:
                    red.add(j, i, -(mat[j][col] // x_i), col)
            live = [k for k in range(top, bottom) if mat[k][col] != 0]

    i = live[0]
    x = red.mat[i][col]
    if m:
        d = math.gcd(x, m)
        if d < x:
            # One surviving coordinate whose value is not yet the gcd with
            # the modulus: park it in row top+1, fold the modulus into row
            # top by a Bezout addition, then clear row top+1.
            if i != top + 1:
                red.swap(i, top + 1)
            _, a, _ = bezout(x, m)
            red.add(top, top + 1, a, col)
            red.add(top + 1, top, -(x // d), col)
            return True
    if i != top:
        red.swap(i, top)
    return True


# A column whose entries all lie below this (one CPython digit) is reduced
# on the whole rows, like the last: its Euclid takes few rounds, so U has
# about as many coefficients as there are row operations to defer, and
# building and applying U costs more than it saves.
_DEFER_FROM = 1 << 30


def _apply_segment(red: _Reducer, seg: _Reducer, col: int, top: int) -> None:
    """Replace rows top.. of ``red`` by U times them, U being the transform
    that ``seg`` built on their column ``col``: that column is ``seg``'s own,
    each cell right of it and each row of D is the combination U names,
    reduced by its column modulus once.  A row that U only moves or leaves
    alone is kept as it is."""
    rows, drows = red.mat[top:], red.transform[top:]
    tail = red.moduli[col + 1 :]
    lead = [0] * col  # rows top.. are zero left of ``col``
    for i, u in enumerate(seg.transform):
        if len(u) == 1:
            ((k, c),) = u.items()
            if c == 1:  # row k moved here, or row i left alone
                red.mat[top + i], red.transform[top + i] = rows[k], drows[k]
                continue
        acc = [0] * len(tail)
        d_row: dict[int, int] = {}
        for k, c in u.items():
            if c:
                acc = [s + c * v for s, v in zip(acc, rows[k][col + 1 :])]
                for j, v in drows[k].items():
                    d_row[j] = d_row.get(j, 0) + c * v
        red.mat[top + i] = lead + seg.mat[i] + [v % m if m else v for v, m in zip(acc, tail)]
        red.transform[top + i] = d_row
    red.sign *= seg.sign


def _echelon(
    entries: tuple[int, ...], moduli: Sequence[Modulus]
) -> tuple[IntMatrix, tuple[int, ...]]:
    rows = list(map(list, zip(*[iter(entries)] * len(moduli))))
    red = _Reducer(rows, tuple([mod.m for mod in moduli]))
    nrows, last = len(red.mat), len(moduli) - 1
    top = 0
    pivots = []
    for col, m in enumerate(red.moduli):
        if top == nrows:
            break
        if col == last or max(abs(row[col]) for row in red.mat[top:]) < _DEFER_FROM:
            placed = _place_pivot(red, col, top, nrows)
        else:
            seg = _Reducer([[row[col]] for row in red.mat[top:]], (m,))
            placed = _place_pivot(seg, 0, 0, nrows - top)
            _apply_segment(red, seg, col, top)
        if placed:
            pivots.append((top, col))
            top += 1
    # Hermite-style pass: reduce entries above each pivot into [0, pivot).
    for p, col in pivots:
        d = red.mat[p][col]
        for i in range(p):
            q = red.mat[i][col] // d
            red.add(i, p, -q, col)
    # D: the reducer's sparse rows and sign, its dense entries built on first
    # read.  D and B hold the reducer's exact ints, so no constructor scans them.
    d = object.__new__(IntMatrix)
    set_field(d, "rows", len(red.transform))
    set_field(d, "cols", d.rows)  # entries left unset
    set_field(d, "_sparse", red.transform)
    set_field(d, "_sign", red.sign)
    return d, tuple(chain.from_iterable(red.mat))


def orbit_reduce(modulus: Modulus, x: Sequence[int]) -> OrbitCertificate:
    """Carry a residue vector, given by int representatives, to its orbit
    canonical form (d, 0, ..., 0).

    d is the gcd of the representatives together with the modulus, and the
    returned certificate's unimodular transform realizes the reduction by
    elementary row operations: repeated signed subtractions while two or
    more coordinates are nonzero, then one Bezout row addition to fold the
    modulus into the surviving coordinate.
    """
    r = len(x)
    if r < 2:
        raise ValueError("orbit reduction needs a vector of length >= 2")
    # A one-column echelon: its single pivot sits in row 0, so the Hermite pass is empty.
    transform, reduced = row_echelon_mixed(MixedMatrix(r, (modulus,), x))
    canonical = tuple(Residue(modulus, v) for v in reduced.entries)
    return OrbitCertificate(modulus, transform, canonical)


def same_orbit(modulus: Modulus, x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether two residue vectors, given by int representatives, lie in one
    orbit of the unimodular action.

    The complete invariant is the gcd of the coordinates together with the
    modulus, so this is a pure gcd comparison.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("orbits are defined for vectors of length >= 2")
    return gcd_mod(modulus, x) == gcd_mod(modulus, y)


def row_echelon_int(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Unimodular row reduction of an integer matrix to echelon form.

    Returns (D, B) with det(D) in {+1, -1}, D @ a == B, pivots positive and
    entries above each pivot reduced into [0, pivot).
    """
    d, entries = _echelon(a.entries, (INTEGERS,) * a.cols)
    b = object.__new__(IntMatrix)
    set_field(b, "rows", a.rows)
    set_field(b, "cols", a.cols)
    set_field(b, "entries", entries)
    return d, b


def row_echelon_mixed(a: MixedMatrix) -> tuple[IntMatrix, MixedMatrix]:
    """Unimodular row reduction of a mixed-column matrix to echelon form.

    Returns (D, B) with det(D) in {+1, -1} and D @ a congruent to B in each
    column's residue ring.  Pivots of multi-row segments equal the gcd of
    the remaining column segment together with the column modulus.
    """
    d, entries = _echelon(a.entries, a.column_moduli)
    b = object.__new__(MixedMatrix)
    set_field(b, "rows", a.rows)
    set_field(b, "column_moduli", a.column_moduli)
    set_field(b, "entries", entries)
    return d, b


def is_echelon(b: IntMatrix | MixedMatrix) -> bool:
    """Decide the two-clause echelon predicate.

    Leading entries of nonzero rows sit strictly to the right of the
    leading entries of the rows above them, and zero rows are at the
    bottom.
    """
    cols, entries = b.cols, b.entries
    # A zero row leads at ``cols``, so only zero rows may follow it.
    starts = range(0, len(entries), cols)
    leads = [next(compress(range(cols), entries[i : i + cols]), cols) for i in starts]
    return all(y > x or y == cols for x, y in zip(leads, leads[1:]))


def smith_invariants(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix, units included.

    Row Hermite forms of the matrix and its transpose alternate, each an
    ``_echelon`` over Z less zero rows, until each row holds only its pivot,
    which ``invariant_factors`` folds (Kannan-Bachem 1979; Cohen, 2.4.4).

    The rounds end: from the second on, the (1, 1) pivot is the gcd of the
    last round's row 0, a divisor of its pivot d.  If it is d, Euclid took
    that round's column 0, (d, 0, ..., 0), as pivot row (ties go to the
    lowest row): row and column 0 stay so.  Else d falls.  Induct on the rest.

    >>> smith_invariants(IntMatrix.from_rows([[2, 1], [0, 2]]))  # three rounds
    (1, 4)
    """
    entries, cols = a.entries, a.cols
    while True:
        _, entries = _echelon(entries, (INTEGERS,) * cols)
        rows = [row for row in zip(*[iter(entries)] * cols) if any(row)]
        if all(row.count(0) == cols - 1 for row in rows):
            return invariant_factors(map(sum, rows))
        entries, cols = tuple(chain.from_iterable(zip(*rows))), len(rows)
