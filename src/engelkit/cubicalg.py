"""Pointwise linear algebra of the Legendrian twisted cubic.

The cubic is the image of the degree-three Veronese map in projective
3-space, cut out by three quadrics.  This module builds the associated
4-dimensional irreducible representation of GL(2), the conformal symplectic
form singled out by the Legendrian condition, and the stabilizer subalgebra
of the cubic cone -- all over exact rationals.

Both linear systems are read off as integer convolutions of Veronese
monomials, with no polynomial arithmetic.  The stabilizer's row ``(Q, d)``
holds the coefficient of ``s^(6-d) u^d`` in ``v^T (Q m + m^T Q) v`` for
``v = (s^3, s^2 u, s u^2, u^3)``: since ``v_i v_k = s^(6-i-k) u^(i+k)``, the
entry at the unknown ``m_jk`` is ``2 Q[d-k][j]`` (zero unless
``0 <= d-k <= 3``).  The symplectic row ``e`` holds the coefficient of
``s^(4-e) u^e`` in ``w(X, Y)`` for the tangent vectors ``X = (3s^2, 2su, u^2,
0)`` and ``Y = (0, s^2, 2su, 3u^2)``; ``X_i`` has ``u``-degree ``i`` and
``Y_j`` has ``j - 1``, so the pair ``(i, j)`` enters row ``i + j - 1`` only.
Rows differing by nonzero factors and order span the same space, so the
kernels are those of the coefficient extraction by differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg

__all__ = [
    "veronese",
    "quadric_values",
    "irrep_rho",
    "rho_prime",
    "gl2_basis",
    "legendrian_symplectic",
    "stabilizer_subalgebra",
    "SymplecticSolution",
]

Mat = list[list[Fraction]]

#: Symmetric matrices of the three quadrics cutting out the cubic:
#: q1 = p1 p3 - p2^2,  q2 = p2 p4 - p3^2,  q3 = p2 p3 - p1 p4.
_QUADRICS = [
    [[0, 0, Fraction(1, 2), 0], [0, -1, 0, 0], [Fraction(1, 2), 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, Fraction(1, 2)], [0, 0, -1, 0], [0, Fraction(1, 2), 0, 0]],
    [[0, 0, 0, Fraction(-1, 2)], [0, 0, Fraction(1, 2), 0],
     [0, Fraction(1, 2), 0, 0], [Fraction(-1, 2), 0, 0, 0]],
]


def veronese(s, u) -> list:
    """The degree-three Veronese image (s^3, s^2 u, s u^2, u^3)."""
    return [s ** 3, s ** 2 * u, s * u ** 2, u ** 3]


def quadric_values(p: Sequence) -> tuple:
    """Values of the three quadrics at a 4-vector."""
    return (p[0] * p[2] - p[1] ** 2,
            p[1] * p[3] - p[2] ** 2,
            p[1] * p[2] - p[0] * p[3])


def irrep_rho(m: Sequence[Sequence]) -> list[list]:
    """The 4x4 matrix of a 2x2 matrix in the cubic representation.

    Works for arbitrary (also singular) entries of any exact scalar type.
    """
    al, be = m[0][0], m[0][1]
    ga, de = m[1][0], m[1][1]
    return [
        [al ** 3, 3 * al ** 2 * be, 3 * al * be ** 2, be ** 3],
        [al ** 2 * ga, al ** 2 * de + 2 * al * be * ga,
         2 * al * be * de + be ** 2 * ga, be ** 2 * de],
        [al * ga ** 2, 2 * al * de * ga + be * ga ** 2,
         al * de ** 2 + 2 * be * de * ga, be * de ** 2],
        [ga ** 3, 3 * de * ga ** 2, 3 * de ** 2 * ga, de ** 3],
    ]


def rho_prime(m: Sequence[Sequence[Fraction]]) -> Mat:
    """Derivative of the representation at the identity, applied to a 2x2 matrix.

    The closed-form derivative of :func:`irrep_rho` along ``1 + eps*m``.
    """
    a, b = Fraction(m[0][0]), Fraction(m[0][1])
    g, d = Fraction(m[1][0]), Fraction(m[1][1])
    zero = Fraction(0)
    return [
        [3 * a, 3 * b, zero, zero],
        [g, 2 * a + d, 2 * b, zero],
        [zero, 2 * g, a + 2 * d, b],
        [zero, zero, 3 * g, 3 * d],
    ]


def gl2_basis() -> list[Mat]:
    """The images of the four elementary 2x2 matrices under rho_prime."""
    return [rho_prime([[1, 0], [0, 0]]), rho_prime([[0, 1], [0, 0]]),
            rho_prime([[0, 0], [1, 0]]), rho_prime([[0, 0], [0, 1]])]


@dataclass
class SymplecticSolution:
    """Solution space of the Legendrian condition on skew forms."""

    basis: list[dict[tuple[int, int], Fraction]]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def normalized(self) -> dict[tuple[int, int], Fraction]:
        """The representative scaled so the (1,4)-entry is 1 (0-indexed (0,3))."""
        if self.dimension != 1:
            raise ValueError("solution space is not a line")
        rep = self.basis[0]
        scale = rep[(0, 3)]
        if scale == 0:
            raise ValueError("cannot normalize: vanishing (1,4) component")
        return {k: v / scale for k, v in rep.items()}

    def normalized_matrix(self) -> Mat:
        rep = self.normalized()
        out = [[Fraction(0)] * 4 for _ in range(4)]
        for (i, j), v in rep.items():
            out[i][j] = v
            out[j][i] = -v
        return out


_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

#: coefficients of X = (3s^2, 2su, u^2, 0) and Y = (0, s^2, 2su, 3u^2)
_X = (3, 2, 1, 0)
_Y = (0, 1, 2, 3)


def legendrian_symplectic() -> SymplecticSolution:
    """Skew forms vanishing on the tangent planes of the cubic cone.

    Evaluates the form on the two tangent vectors of the cone at the generic
    parameter point and solves the linear system given by the coefficients
    of the parameter monomials.
    """
    rows = [[0] * len(_PAIRS) for _ in range(5)]
    for col, (i, j) in enumerate(_PAIRS):
        rows[i + j - 1][col] = _X[i] * _Y[j] - _X[j] * _Y[i]
    basis = linalg.nullspace(rows)
    return SymplecticSolution([dict(zip(_PAIRS, vec)) for vec in basis])


def stabilizer_subalgebra() -> list[Mat]:
    """Basis of the 4x4 matrices whose flow preserves the cubic cone.

    Requires that the derivative of each quadric along the linear action
    vanish on the cone, i.e. v(s,u)^T (Q m + m^T Q) v(s,u) = 0 identically in
    the parameters for each quadric Q.
    """
    rows = []
    for Q in _QUADRICS:
        for d in range(7):
            row = []
            for j in range(4):
                for k in range(4):
                    row.append(2 * Q[d - k][j] if 0 <= d - k <= 3 else 0)
            rows.append(row)
    basis_vectors = linalg.nullspace(rows)
    return [[vec[4 * i: 4 * i + 4] for i in range(4)] for vec in basis_vectors]


def stabilizer_matches_representation(stabilizer: Sequence[Mat]) -> bool:
    """The span of ``stabilizer``, the basis that :func:`stabilizer_subalgebra`
    returns, coincides with the image of the 2x2 matrix algebra."""
    stab = [sum(m, []) for m in stabilizer]
    rep = [sum(m, []) for m in gl2_basis()]
    return linalg.span_equal(stab, rep)


def stabilizer_is_closed_under_commutator() -> bool:
    basis = stabilizer_subalgebra()
    flat = [sum(m, []) for m in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not linalg.in_span(flat, sum(linalg.commutator(basis[i], basis[j]), [])):
                return False
    return True
