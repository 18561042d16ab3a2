"""Exact dense linear algebra over any field-like scalar type.

Works for both :class:`fractions.Fraction` and :class:`engelkit.symexpr.Expr`
entries (the latter giving generic-point results over the rational-function
field).  Matrices are plain lists of lists; all routines are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

Matrix = list[list]


def _is_zero(value) -> bool:
    zero = getattr(value, "is_zero", None)
    if zero is not None:
        return zero
    return value == 0


def copy_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [list(r) for r in rows]


def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for l in range(1, k):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
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
    acc = row[0] * v[0]
    for x, y in zip(row[1:], v[1:]):
        acc = acc + x * y
    return acc


def transpose(rows: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*rows)]


def row_echelon(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = copy_matrix(rows)
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if not _is_zero(m[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(n_rows):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    _, pivots = row_echelon(rows)
    return len(pivots)


def nullspace(rows: Sequence[Sequence], n_cols: int | None = None) -> list[list]:
    """Basis of the right kernel (solutions of A x = 0)."""
    if not rows:
        if n_cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n_cols)]
                for i in range(n_cols)]
    n_cols = len(rows[0])
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
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    ech, pivots = row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in ech]


def det(rows: Sequence[Sequence]):
    n = len(rows)
    m = copy_matrix(rows)
    zero = rows[0][0] - rows[0][0]
    result = zero + 1
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not _is_zero(m[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            return zero
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result = result * m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if not _is_zero(m[i][c]):
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def in_span(basis_rows: Sequence[Sequence], vector: Sequence) -> bool:
    if not basis_rows:
        return all(_is_zero(x) for x in vector)
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
            term = [coeff * x for x in row]
            vec = term if vec is None else [a + b for a, b in zip(vec, term)]
        if vec is not None and not all(_is_zero(x) for x in vec):
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
        d = m[k][k]
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
