"""Exact linear algebra over any field-like scalar type.

Works for both :class:`fractions.Fraction` and :class:`engelkit.symexpr.Expr`
entries (the latter giving generic-point results over the rational-function
field).  Matrices are plain lists of lists; all routines are pure.

Over Q -- every entry an ``int`` or a ``Fraction`` -- elimination runs in
integers.  Each row is scaled by the lcm of its denominators; Gauss-Jordan
then replaces a row by ``(p/g)*row - (f/g)*pivot``, with ``p`` the pivot,
``f`` the row's entry in the pivot column and ``g = gcd(p, f)``, and divides
the row by its content.  Row scaling and row operations do not change the
row space, and the reduced row echelon form of a row space, with its pivot
list, is unique; so dividing each pivot row by its pivot at the end gives
exactly the reduced form of Gauss-Jordan over ``Fraction``, and every result
entry is built once, as ``Fraction(x, pivot)``.  ``rank`` stops at echelon
form.  ``det`` over Q is Bareiss's fraction-free elimination ("Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968) on the cleared rows, divided by the product of the row
scales.  ``int`` entries are rationals here: results over Q are
``Fraction``s, never floats.

The matrices met here are mostly zeros, so every routine does its
arithmetic on nonzero entries only: products and dot products skip a
term with a zero factor, and Gauss-Jordan elimination divides and
subtracts the pivot row on its nonzero support only.  A skipped step
would have added ``0`` or subtracted ``f*0``, so every result is the
same value as that of the dense computation; ``Fraction`` results are
equal, and ``Expr`` results have the same canonical pair (an entry that
no step touches keeps the type it came in with, which matters only when
``Fraction`` and ``Expr`` entries are mixed).  Zero is
tested by truthiness: ``Fraction`` and ``int`` are falsy exactly at 0,
and ``Expr.__bool__`` is ``not is_zero``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

Matrix = list[list]

_RATIONAL_TYPES = frozenset((int, Fraction))
_ZERO = Fraction(0)
_ONE = Fraction(1)


def copy_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [list(r) for r in rows]


def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    if not a:
        return []
    b_support = [[(j, y) for j, y in enumerate(b_row) if y] for b_row in b]
    product = a[0][0] * b[0][0]
    zero = product - product
    out = []
    for a_row in a:
        row = [zero] * len(b[0])
        for x, support in zip(a_row, b_support):
            if not x:
                continue
            for j, y in support:
                acc = row[j]
                row[j] = acc + x * y if acc else x * y
        out.append(row)
    return out


def commutator(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    """The matrix commutator ab - ba."""
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [_dot(row, v) for row in a]


def _dot(row: Sequence, v: Sequence):
    acc = None
    for x, y in zip(row, v):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    # with no nonzero term, row[0] * v[0] is a zero of the product's type
    return row[0] * v[0] if acc is None else acc


def transpose(rows: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*rows)]


def _rational(rows: Sequence[Sequence]) -> bool:
    """Whether every entry is an ``int`` or a ``Fraction``: the Q path."""
    return all(_RATIONAL_TYPES.issuperset(map(type, row)) for row in rows)


def _cleared(row: Sequence) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, as ints, and that lcm."""
    pairs = [x.as_integer_ratio() for x in row]
    scale = lcm(*[d for _, d in pairs])
    if scale == 1:
        return [n for n, _ in pairs], 1
    return [n * (scale // d) for n, d in pairs], scale


def _integer_echelon(rows: Sequence[Sequence], reduced: bool) -> tuple[list[list[int]], list[int]]:
    """Integer rows with the row space of the rational ``rows``, in echelon
    form (reduced: zero above every pivot as well), and the pivot columns.

    Row ``r`` has its pivot, positive, in column ``pivots[r]``; dividing it by
    that pivot gives row ``r`` of the reduced row echelon form.
    """
    m = [_cleared(row)[0] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        for i in range(r, n_rows):
            if m[i][c]:
                break
        else:
            continue
        pivot = m[i]
        m[i] = m[r]
        g = gcd(*pivot)
        if pivot[c] < 0:
            g = -g
        if g != 1:
            pivot = [x // g for x in pivot]
        m[r] = pivot
        p = pivot[c]
        # columns before c are zero in every row from r on
        support = [(j, x) for j in range(c + 1, n_cols) if (x := pivot[j])]
        for i in range(0 if reduced else r + 1, n_rows):
            row = m[i]
            f = row[c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            if g != p:
                scale = p // g
                row = [scale * x for x in row]
            f //= g
            row[c] = 0
            for j, x in support:
                row[j] -= f * x
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            m[i] = row
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def _over_pivot(row: Sequence[int], pivot: int) -> list[Fraction]:
    return [Fraction(x, pivot) if x else _ZERO for x in row]


def row_echelon(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    if not rows:
        return [], []
    if _rational(rows):
        m, pivots = _integer_echelon(rows, reduced=True)
        ech = [_over_pivot(row, row[c]) for row, c in zip(m, pivots)]
        # the rows past the rank are zero
        ech.extend([_ZERO] * len(m[0]) for _ in range(len(m) - len(pivots)))
        return ech, pivots
    m = copy_matrix(rows)
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r]
        inv = pivot[c]
        # columns before c are zero in every row from r on
        support = [j for j in range(c, n_cols) if pivot[j]]
        for j in support:
            pivot[j] = pivot[j] / inv
        for i in range(n_rows):
            row = m[i]
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] = row[j] - f * pivot[j]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    if _rational(rows):
        return len(_integer_echelon(rows, reduced=False)[1])
    _, pivots = row_echelon(rows)
    return len(pivots)


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over the prime field F_p of a matrix of integers."""
    work = [[x % p for x in row] for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        inverse = pow(top[col], -1, p)
        for i in range(r + 1, len(work)):
            f = work[i][col] * inverse % p
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], top)]
        r += 1
    return r


def nullspace(rows: Sequence[Sequence], n_cols: int | None = None) -> list[list]:
    """Basis of the right kernel (solutions of A x = 0)."""
    if not rows:
        if n_cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n_cols)]
                for i in range(n_cols)]
    n_cols = len(rows[0])
    if _rational(rows):
        m, pivots = _integer_echelon(rows, reduced=True)
        basis = []
        for fc in (c for c in range(n_cols) if c not in pivots):
            vec = [_ZERO] * n_cols
            vec[fc] = _ONE
            for row, pc in zip(m, pivots):
                if row[fc]:
                    vec[pc] = Fraction(-row[fc], row[pc])
            basis.append(vec)
        return basis
    ech, pivots = row_echelon(rows)
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [zero] * n_cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list | None:
    """One solution of A x = b, or None if the system is inconsistent.

    When the solution is not unique the free variables are set to zero.
    """
    if not rows:
        return None
    n_cols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if _rational(aug):
        m, pivots = _integer_echelon(aug, reduced=True)
        if n_cols in pivots:
            return None
        sol = [_ZERO] * n_cols
        for row, pc in zip(m, pivots):
            if row[n_cols]:
                sol[pc] = Fraction(row[n_cols], row[pc])
        return sol
    ech, pivots = row_echelon(aug)
    zero = rhs[0] - rhs[0]
    if n_cols in pivots:
        return None
    sol = [zero] * n_cols
    for r, pc in enumerate(pivots):
        sol[pc] = ech[r][n_cols]
    return sol


def inverse(rows: Sequence[Sequence]) -> Matrix:
    n = len(rows)
    if not n:
        return []
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    rational = _rational(aug)
    ech, pivots = _integer_echelon(aug, reduced=True) if rational else row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is not invertible")
    if rational:
        return [_over_pivot(row[n:], row[i]) for i, row in enumerate(ech)]
    return [row[n:] for row in ech]


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, eliminated in place without
    fractions: each step's entries are minors, so the division is exact."""
    n = len(m)
    sign, previous = 1, 1
    for k in range(n - 1):
        for i in range(k, n):
            if m[i][k]:
                break
        else:
            return 0
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        pivot = m[k]
        p = pivot[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                x, y = row[j], pivot[j]
                if x or (f and y):
                    row[j] = (p * x - f * y) // previous
        previous = p
    return sign * m[-1][-1] if n else 1


def det(rows: Sequence[Sequence]):
    if _rational(rows):
        cleared = [_cleared(row) for row in rows]
        return Fraction(_bareiss([ints for ints, _ in cleared]),
                        prod(scale for _, scale in cleared))
    n = len(rows)
    m = copy_matrix(rows)
    zero = rows[0][0] - rows[0][0]
    result = zero + 1
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return zero
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        pivot = m[c]
        inv = pivot[c]
        result = result * inv
        # rows below c are left unreduced in column c: no later step reads it
        support = [j for j in range(c + 1, n) if pivot[j]]
        for i in range(c + 1, n):
            row = m[i]
            if row[c]:
                f = row[c] / inv
                for j in support:
                    row[j] = row[j] - f * pivot[j]
    return result


def in_span(basis_rows: Sequence[Sequence], vector: Sequence) -> bool:
    if not basis_rows:
        return not any(vector)
    return rank(list(basis_rows) + [list(vector)]) == rank(basis_rows)


def span_equal(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence]) -> bool:
    ra, rb = rank(rows_a), rank(rows_b)
    return ra == rb == rank(list(rows_a) + list(rows_b))


def coordinates_in_basis(basis_rows: Sequence[Sequence], vector: Sequence) -> list | None:
    """Coordinates of vector in the given (independent) row basis, or None."""
    cols = transpose(list(basis_rows))
    return solve(cols, list(vector))


def intersect(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence]) -> list[list]:
    """Basis of the intersection of two row-span subspaces."""
    if not rows_a or not rows_b:
        return []
    stacked = transpose(list(rows_a) + [[-x for x in row] for row in rows_b])
    combos = nullspace(stacked)
    result = []
    for combo in combos:
        vec = None
        for coeff, row in zip(combo[: len(rows_a)], rows_a):
            if not coeff:
                continue
            term = [coeff * x for x in row]
            vec = term if vec is None else [a + b for a, b in zip(vec, term)]
        if vec is not None and any(vec):
            result.append(vec)
    ech, pivots = row_echelon(result) if result else ([], [])
    return [ech[i] for i in range(len(pivots))]


def signature_symmetric(rows: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """Signature (positives, negatives, zeros) of a symmetric rational matrix.

    Uses congruence diagonalization, which is exact over the rationals.
    """
    n = len(rows)
    m = copy_matrix(rows)
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = zero = 0
    k = 0
    while k < n:
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if off is None:
                    zero += 1
                    k += 1
                    continue
                # congruence by (row_k += row_off) makes the diagonal nonzero
                for j in range(n):
                    m[k][j] += m[off][j]
                for i in range(n):
                    m[i][k] += m[i][off]
        d = Fraction(m[k][k])  # an int pivot would divide into floats
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = m[i][k] / d
            if f != 0:
                for j in range(n):
                    m[i][j] -= f * m[k][j]
                for j in range(n):
                    m[j][i] -= f * m[j][k]
        k += 1
    return pos, neg, zero
