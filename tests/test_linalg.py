"""Zero-skipping linear algebra against the dense definitions.

The dense routines below do the arithmetic on every entry, zeros included;
they stay here as the reference.  ``linalg`` must return exactly the same
entries: equal ``Fraction``s of the same type, and ``Expr``s with the same
``str`` and ``_key``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelkit import linalg
from engelkit.symexpr import Expr, parse

# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------


def _zero(value) -> bool:
    return value.is_zero if isinstance(value, Expr) else value == 0


def dense_mat_mul(a, b):
    return [[sum((a[i][l] * b[l][j] for l in range(1, len(b))), a[i][0] * b[0][j])
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_mat_vec(a, v):
    return [sum((x * y for x, y in zip(row[1:], v[1:])), row[0] * v[0]) for row in a]


def dense_row_echelon(rows):
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if not _zero(m[i][c])), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(n_rows):
            if i != r and not _zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def dense_nullspace(rows):
    n_cols = len(rows[0])
    ech, pivots = dense_row_echelon(rows)
    zero = rows[0][0] - rows[0][0]
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [zero] * n_cols
        vec[fc] = zero + 1
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis


def dense_solve(rows, rhs):
    n_cols = len(rows[0])
    ech, pivots = dense_row_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if n_cols in pivots:
        return None
    sol = [rhs[0] - rhs[0]] * n_cols
    for r, pc in enumerate(pivots):
        sol[pc] = ech[r][n_cols]
    return sol


def dense_inverse(rows):
    n = len(rows)
    zero = rows[0][0] - rows[0][0]
    aug = [list(r) + [zero + 1 if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    ech, pivots = dense_row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in ech]


def dense_det(rows):
    n = len(rows)
    m = [list(r) for r in rows]
    result = rows[0][0] - rows[0][0] + 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not _zero(m[i][c])), None)
        if pivot_row is None:
            return rows[0][0] - rows[0][0]
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result = result * m[c][c]
        for i in range(c + 1, n):
            if not _zero(m[i][c]):
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def exact(value):
    """What an entry is, down to its type and canonical form."""
    if isinstance(value, list):
        return [exact(x) for x in value]
    if isinstance(value, tuple):
        return tuple(exact(x) for x in value)
    if isinstance(value, Expr):
        return ("Expr", str(value), value._key())
    return (type(value).__name__, value)


def assert_same(got, want):
    assert exact(got) == exact(want)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_VALUES = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    """Fraction matrices at 5-30% density with zero rows, zero columns and
    duplicate rows mixed in."""
    n = rows if rows is not None else draw(st.integers(1, 7))
    m = cols if cols is not None else draw(st.integers(1, 7))
    density = draw(st.integers(5, 30))
    mat = [[draw(_VALUES) if draw(st.integers(0, 99)) < density else Fraction(0)
            for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        mat[draw(st.integers(0, n - 1))] = [Fraction(0)] * m
    if draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in mat:
            row[col] = Fraction(0)
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mat[dst] = list(mat[src])
    return mat


_EXPRS = [parse(text) for text in
          ("1", "-2", "1/3", "x1", "x2", "x1 + x2", "x1*x2 - 1", "1/(x1 + 1)",
           "x2/(x1 - x2)", "(x1^2 + 1)/x2")]


@st.composite
def expr_matrices(draw, rows=None, cols=None):
    """Small matrices over Q(x1, x2), about half of the entries zero."""
    n = rows if rows is not None else draw(st.integers(1, 3))
    m = cols if cols is not None else draw(st.integers(1, 3))
    zero = parse("0")
    return [[draw(st.sampled_from(_EXPRS)) if draw(st.booleans()) else zero
             for _ in range(m)] for _ in range(n)]


@st.composite
def square(draw, matrices, values, largest):
    """Square matrices; half of them get a nonzero permuted diagonal, which
    makes most of those invertible."""
    n = draw(st.integers(1, largest))
    mat = draw(matrices(rows=n, cols=n))
    if draw(st.booleans()):
        for i, j in enumerate(draw(st.permutations(range(n)))):
            mat[i][j] = draw(values)
    return mat


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fraction_products_match_dense(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(rows=len(a[0])))
    v = data.draw(sparse_matrices(rows=1, cols=len(a[0])))[0]
    assert_same(linalg.mat_mul(a, b), dense_mat_mul(a, b))
    assert_same(linalg.mat_vec(a, v), dense_mat_vec(a, v))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fraction_elimination_matches_dense(data):
    a = data.draw(sparse_matrices())
    rhs = data.draw(sparse_matrices(rows=1, cols=len(a)))[0]
    assert_same(linalg.row_echelon(a), dense_row_echelon(a))
    assert linalg.rank(a) == len(dense_row_echelon(a)[1])
    assert_same(linalg.nullspace(a), dense_nullspace(a))
    assert_same(linalg.solve(a, rhs), dense_solve(a, rhs))


@settings(max_examples=200, deadline=None)
@given(square(sparse_matrices, _VALUES, 6))
def test_fraction_inverse_and_det_match_dense(a):
    assert_same(linalg.det(a), dense_det(a))
    try:
        want = dense_inverse(a)
    except ValueError:
        with pytest.raises(ValueError):
            linalg.inverse(a)
    else:
        assert_same(linalg.inverse(a), want)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_expr_routines_match_dense(data):
    a = data.draw(expr_matrices())
    b = data.draw(expr_matrices(rows=len(a[0])))
    v = data.draw(expr_matrices(rows=1, cols=len(a[0])))[0]
    rhs = data.draw(expr_matrices(rows=1, cols=len(a)))[0]
    assert_same(linalg.mat_mul(a, b), dense_mat_mul(a, b))
    assert_same(linalg.mat_vec(a, v), dense_mat_vec(a, v))
    assert_same(linalg.row_echelon(a), dense_row_echelon(a))
    assert linalg.rank(a) == len(dense_row_echelon(a)[1])
    assert_same(linalg.nullspace(a), dense_nullspace(a))
    assert_same(linalg.solve(a, rhs), dense_solve(a, rhs))


@settings(max_examples=40, deadline=None)
@given(square(expr_matrices, st.sampled_from(_EXPRS), 3))
def test_expr_inverse_and_det_match_dense(a):
    assert_same(linalg.det(a), dense_det(a))
    try:
        want = dense_inverse(a)
    except ValueError:
        with pytest.raises(ValueError):
            linalg.inverse(a)
    else:
        assert_same(linalg.inverse(a), want)

