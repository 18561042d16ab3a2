"""Zero-skipping linear algebra against the dense definitions.

The dense routines below do the arithmetic on every entry, zeros included;
they stay here as the reference.  ``linalg`` must return exactly the same
entries: equal ``Fraction``s of the same type, and ``Expr``s with the same
``str`` and ``_key``.
"""

from __future__ import annotations

import math
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



# ---------------------------------------------------------------------------
# the Q path: integer elimination against the dense Fraction references
# ---------------------------------------------------------------------------

_BIG = 2 ** 64


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rational(rnd, kind, big):
    """A nonzero ``int`` or ``Fraction``; ``big`` allows numerators and
    denominators up to 2^64."""
    bound = _BIG if big else 9
    num = rnd.choice([-1, 1]) * rnd.randint(1, bound)
    if kind == "int" or (kind == "mixed" and rnd.random() < 0.5):
        return num
    return Fraction(num, rnd.randint(1, bound))


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """``int``-only, ``Fraction``-only or mixed matrices at 5-40% density,
    mostly up to 8 x 12 and at times up to 30 x 40 (tall ones too, as in
    ``invariant_forms``), with zero rows, zero columns and duplicated rows
    mixed in.  The entries come from a seeded generator, which is much
    faster to draw than one strategy per entry."""
    largest = (30, 40) if draw(st.integers(0, 4)) == 0 else (8, 12)
    n = rows if rows is not None else draw(st.integers(1, largest[0]))
    m = cols if cols is not None else draw(st.integers(1, largest[1]))
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    big = draw(st.booleans())
    density = draw(st.integers(5, 40))
    rnd = draw(st.randoms(use_true_random=False))
    zero = 0 if kind == "int" or (kind == "mixed" and draw(st.booleans())) else Fraction(0)
    mat = [[rational(rnd, kind, big) if rnd.randrange(100) < density else zero
            for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        mat[draw(st.integers(0, n - 1))] = [zero] * m
    if draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in mat:
            row[col] = zero
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mat[dst] = list(mat[src])
    return mat


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rational_elimination_matches_dense(a):
    want_ech, want_pivots = dense_row_echelon(as_fractions(a))
    assert_same(linalg.row_echelon(a), (want_ech, want_pivots))
    assert linalg.rank(a) == len(want_pivots)
    assert_same(linalg.nullspace(a), dense_nullspace(as_fractions(a)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rational_solve_matches_dense(data):
    a = data.draw(rational_matrices())
    x = data.draw(rational_matrices(rows=1, cols=len(a[0])))[0]
    consistent = linalg.mat_vec(a, x)
    sol = linalg.solve(a, consistent)
    assert_same(sol, dense_solve(as_fractions(a), as_fractions([consistent])[0]))
    assert sol is not None and linalg.mat_vec(a, sol) == consistent
    rhs = data.draw(rational_matrices(rows=1, cols=len(a)))[0]
    assert_same(linalg.solve(a, rhs), dense_solve(as_fractions(a), as_fractions([rhs])[0]))
    # a repeated equation with another right-hand side has no solution
    assert linalg.solve(a + [a[0]], consistent + [consistent[0] + 1]) is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rational_inverse_and_det_match_dense(data):
    n = data.draw(st.integers(1, 12))
    a = data.draw(rational_matrices(rows=n, cols=n))
    rnd, big = data.draw(st.randoms(use_true_random=False)), data.draw(st.booleans())
    if data.draw(st.booleans()):
        for i, j in enumerate(data.draw(st.permutations(range(n)))):
            a[i][j] = rational(rnd, "mixed", big)
    assert_same(linalg.det(a), dense_det(as_fractions(a)))
    try:
        want = dense_inverse(as_fractions(a))
    except ValueError:
        with pytest.raises(ValueError):
            linalg.inverse(a)
    else:
        assert_same(linalg.inverse(a), want)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_integer_echelon_rows_are_primitive(a):
    """Every row the integer elimination leaves is primitive, each pivot
    positive; the content division is what keeps the entries small."""
    for reduced in (False, True):
        m, pivots = linalg._integer_echelon(a, reduced=reduced)
        assert all(m[r][c] > 0 for r, c in enumerate(pivots))
        for row in m:
            assert math.gcd(*row) in (0, 1)


class TestIntegerInputIsExact:
    """``int`` entries are rationals: the results are ``Fraction``s, never
    floats, also where a float would round."""

    def test_nullspace(self):
        assert_same(linalg.nullspace([[1, 2], [2, 4]]), [[Fraction(-2), Fraction(1)]])

    def test_det(self):
        assert_same(linalg.det([[1, 2], [3, 4]]), Fraction(-2))
        big = 10 ** 17
        assert_same(linalg.det([[big + 1, big], [big, big - 1]]), Fraction(-1))

    def test_solve(self):
        assert_same(linalg.solve([[2, 0], [0, 3]], [1, 1]), [Fraction(1, 2), Fraction(1, 3)])

    def test_signature(self):
        big = 10 ** 17
        # the exact determinant is 1, so both eigenvalues are positive
        assert linalg.signature_symmetric([[1, big], [big, big ** 2 + 1]]) == (2, 0, 0)
        assert linalg.signature_symmetric([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_empty(self):
        assert linalg.det([]) == 1
        assert linalg.inverse([]) == []
