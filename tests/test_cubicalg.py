"""Tests for the twisted-cubic pointwise algebra."""

from __future__ import annotations

import random
from fractions import Fraction

from engelkit import linalg
from engelkit.cubicalg import (
    irrep_rho,
    legendrian_symplectic,
    quadric_values,
    rho_prime,
    stabilizer_is_closed_under_commutator,
    stabilizer_matches_representation,
    stabilizer_subalgebra,
    veronese,
)
from engelkit.symexpr import integer, symbol


def random_int_matrix(rng, n=2, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# reference: the systems built from Expr polynomials, coefficients read off
# by differentiation (a row per monomial, times its factorials)
# ---------------------------------------------------------------------------

_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_QUADRICS = [
    [[0, 0, Fraction(1, 2), 0], [0, -1, 0, 0], [Fraction(1, 2), 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, Fraction(1, 2)], [0, 0, -1, 0], [0, Fraction(1, 2), 0, 0]],
    [[0, 0, 0, Fraction(-1, 2)], [0, 0, Fraction(1, 2), 0],
     [0, Fraction(1, 2), 0, 0], [Fraction(-1, 2), 0, 0, 0]],
]


def as_fraction(e) -> Fraction:
    """The rational constant e; a variable left in it raises."""
    return e.evaluate({})


def _monomial_rows(value, degree, unknowns):
    rows = []
    for deg_s in range(degree + 1):
        coeff = value
        for _ in range(deg_s):
            coeff = coeff.partial("s")
        for _ in range(degree - deg_s):
            coeff = coeff.partial("u")
        rows.append([as_fraction(coeff.partial(name)) for name in unknowns])
    return rows


def expr_rho_prime(m):
    eps = symbol("eps")
    perturbed = [[integer(1) + eps * Fraction(m[0][0]), eps * Fraction(m[0][1])],
                 [eps * Fraction(m[1][0]), integer(1) + eps * Fraction(m[1][1])]]
    return [[as_fraction(entry.partial("eps").substitute({"eps": 0})) for entry in row]
            for row in irrep_rho(perturbed)]


def expr_symplectic_basis():
    s, u = symbol("s"), symbol("u")
    X = [3 * s ** 2, 2 * s * u, u ** 2, integer(0)]
    Y = [integer(0), s ** 2, 2 * s * u, 3 * u ** 2]
    value = integer(0)
    for i, j in _PAIRS:
        value = value + symbol(f"w{i}{j}") * (X[i] * Y[j] - X[j] * Y[i])
    rows = _monomial_rows(value, 4, [f"w{i}{j}" for i, j in _PAIRS])
    return [dict(zip(_PAIRS, vec)) for vec in linalg.nullspace(rows)]


def expr_stabilizer(quadrics=_QUADRICS):
    s, u = symbol("s"), symbol("u")
    v = veronese(s, u)
    unknowns = [[symbol(f"m{i}{j}") for j in range(4)] for i in range(4)]
    rows = []
    for Q in quadrics:
        value = integer(0)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    value = value + v[i] * Fraction(Q[i][j]) * unknowns[j][k] * v[k] * 2
        rows.extend(_monomial_rows(value, 6, [f"m{i}{j}" for i in range(4) for j in range(4)]))
    return [[vec[4 * i: 4 * i + 4] for i in range(4)] for vec in linalg.nullspace(rows)]


def typed(value):
    if isinstance(value, (list, tuple)):
        return [typed(x) for x in value]
    if isinstance(value, dict):
        return {k: typed(x) for k, x in value.items()}
    return (type(value).__name__, value)


class TestAgainstExprReference:
    def test_rho_prime(self):
        rng = random.Random(5)
        for _ in range(20):
            m = [[rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                  for _ in range(2)] for _ in range(2)]
            assert typed(rho_prime(m)) == typed(expr_rho_prime(m))

    def test_symplectic(self):
        assert typed(legendrian_symplectic().basis) == typed(expr_symplectic_basis())

    def test_stabilizer(self):
        assert typed(stabilizer_subalgebra()) == typed(expr_stabilizer())

    def test_stabilizer_of_a_corrupted_quadric(self, monkeypatch):
        import copy

        from engelkit import cubicalg

        quadrics = copy.deepcopy(_QUADRICS)
        quadrics[2][0][3] = quadrics[2][3][0] = Fraction(1, 2)
        monkeypatch.setattr(cubicalg, "_QUADRICS", quadrics)
        assert typed(stabilizer_subalgebra()) == typed(expr_stabilizer(quadrics))


class TestVeronese:
    def test_highest_weight_point(self):
        p = veronese(Fraction(1), Fraction(0))
        assert p == [1, 0, 0, 0]
        assert quadric_values(p) == (0, 0, 0)

    def test_generic_point_on_cubic(self):
        p = veronese(Fraction(1), Fraction(2))
        assert p == [1, 2, 4, 8]
        assert quadric_values(p) == (0, 0, 0)

    def test_point_off_the_cubic(self):
        vals = quadric_values([Fraction(0), Fraction(1), Fraction(0), Fraction(0)])
        assert vals == (-1, 0, 0)
        assert vals != (0, 0, 0)


class TestRepresentation:
    def test_identity(self):
        rho_id = irrep_rho([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        assert rho_id == linalg.identity(4)

    def test_diagonal(self):
        al, de = Fraction(2), Fraction(3)
        image = irrep_rho([[al, Fraction(0)], [Fraction(0), de]])
        expected = [al ** 3, al ** 2 * de, al * de ** 2, de ** 3]
        for i in range(4):
            for j in range(4):
                assert image[i][j] == (expected[i] if i == j else 0)

    def test_homomorphism_on_random_matrices(self):
        rng = random.Random(1234)
        for _ in range(20):
            a = random_int_matrix(rng)
            b = random_int_matrix(rng)
            lhs = linalg.mat_mul(irrep_rho(a), irrep_rho(b))
            rhs = irrep_rho(linalg.mat_mul(a, b))
            assert lhs == rhs

    def test_veronese_equivariance(self):
        rng = random.Random(99)
        for _ in range(20):
            a = random_int_matrix(rng)
            s, u = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            w = [a[0][0] * s + a[0][1] * u, a[1][0] * s + a[1][1] * u]
            lhs = linalg.mat_vec(irrep_rho(a), veronese(s, u))
            assert lhs == veronese(w[0], w[1])


class TestSymplectic:
    def test_solution_space_is_a_line(self):
        assert legendrian_symplectic().dimension == 1

    def test_component_relations(self):
        rep = legendrian_symplectic().basis[0]
        assert rep[(0, 3)] == -Fraction(1, 3) * rep[(1, 2)]
        for pair in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert rep[pair] == 0

    def test_normalized_representative(self):
        rep = legendrian_symplectic().normalized()
        assert rep[(0, 3)] == 1
        assert rep[(1, 2)] == -3
        assert rep[(0, 1)] == rep[(0, 2)] == rep[(1, 3)] == rep[(2, 3)] == 0

    def test_pullback_scales_by_determinant_cubed(self):
        rng = random.Random(7)
        omega = legendrian_symplectic().normalized_matrix()
        for _ in range(20):
            a = random_int_matrix(rng)
            det_a = a[0][0] * a[1][1] - a[0][1] * a[1][0]
            rho_a = irrep_rho(a)
            pulled = linalg.mat_mul(linalg.transpose(rho_a),
                                    linalg.mat_mul(omega, rho_a))
            expected = [[det_a ** 3 * x for x in row] for row in omega]
            assert pulled == expected


class TestStabilizer:
    def test_dimension_four(self):
        assert len(stabilizer_subalgebra()) == 4

    def test_contains_nilpotent_generator(self):
        nil = rho_prime([[0, 1], [0, 0]])
        flat = [sum(m, []) for m in stabilizer_subalgebra()]
        assert linalg.in_span(flat, sum(nil, []))

    def test_contains_identity(self):
        flat = [sum(m, []) for m in stabilizer_subalgebra()]
        assert linalg.in_span(flat, sum(linalg.identity(4), []))

    def test_span_equals_representation_image(self):
        assert stabilizer_matches_representation(stabilizer_subalgebra())

    def test_proper_subspace_does_not_match(self):
        assert not stabilizer_matches_representation(stabilizer_subalgebra()[:3])

    def test_closed_under_commutator(self):
        assert stabilizer_is_closed_under_commutator()

    def test_rho_prime_of_diagonals(self):
        d1 = rho_prime([[1, 0], [0, 0]])
        d2 = rho_prime([[0, 0], [0, 1]])
        assert [d1[i][i] for i in range(4)] == [3, 2, 1, 0]
        assert [d2[i][i] for i in range(4)] == [0, 1, 2, 3]
