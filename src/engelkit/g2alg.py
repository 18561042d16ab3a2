"""The exceptional 14-dimensional Lie algebra in its split 7x7 matrix model.

Three parametric 7x7 matrices carry the negative, middle and positive parts
of the algebra; differentiating them by their parameters yields the 14 basis
matrices adapted to the contact grading (grades -2, -1, 0, +1, +2 with
dimensions 1, 4, 4, 4, 1).  All structure constants are exact rationals; the
left-invariant-coframe convention used throughout is

    dtheta^k = -(1/2) c^k_ij theta^i ^ theta^j,   [E_i, E_j] = c^k_ij E_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import linalg

__all__ = [
    "build_basis",
    "commutator_table",
    "LieAlgebraSC",
    "verify_maurer_cartan",
    "grading_and_parabolics",
    "GradedSubalgebra",
    "invariant_forms",
    "MAURER_CARTAN",
    "MAURER_CARTAN_REDUCED",
    "GRADES",
    "structure_constants_table",
]

Mat7 = list[list[Fraction]]

#: grades of the basis elements under the contact grading
GRADES = (-2, -1, -1, -1, -1, 0, 0, 0, 0, 1, 1, 1, 1, 2)


def _parametric_matrices():
    """Entries are linear forms in the parameters, as {parameter: coefficient}."""
    a = [f"pa{i}" for i in range(5)]
    b = [None] + [f"pb{i}" for i in range(1, 5)]
    g = [f"pg{i}" for i in range(5)]
    F = Fraction

    def lc(*pairs) -> dict[str, Fraction]:
        return {var: coeff for coeff, var in pairs}

    A = [
        [lc(), lc((F(4, 3), a[2])), lc((F(4, 3), a[0])), lc((F(4, 9), a[1]), (F(-1), a[3])),
         lc((F(-4, 9), a[1]), (F(-1), a[3])), lc((F(-4, 3), a[0])), lc()],
        [lc((F(-4, 3), a[2])), lc(), lc((F(2), a[3])), lc(), lc(), lc((F(-2), a[3])),
         lc((F(-4, 3), a[2]))],
        [lc((F(-4, 3), a[0])), lc((F(-2), a[3])), lc(), lc((F(-2, 3), a[2]), (F(3, 2), a[4])),
         lc((F(2, 3), a[2]), (F(3, 2), a[4])), lc(), lc((F(-4, 3), a[0]))],
        [lc((F(-4, 9), a[1]), (F(1), a[3])), lc(), lc((F(2, 3), a[2]), (F(-3, 2), a[4])),
         lc(), lc(), lc((F(-2, 3), a[2]), (F(3, 2), a[4])),
         lc((F(-4, 9), a[1]), (F(1), a[3]))],
        [lc((F(-4, 9), a[1]), (F(-1), a[3])), lc(), lc((F(2, 3), a[2]), (F(3, 2), a[4])),
         lc(), lc(), lc((F(-2, 3), a[2]), (F(-3, 2), a[4])),
         lc((F(-4, 9), a[1]), (F(-1), a[3]))],
        [lc((F(-4, 3), a[0])), lc((F(-2), a[3])), lc(), lc((F(-2, 3), a[2]), (F(3, 2), a[4])),
         lc((F(2, 3), a[2]), (F(3, 2), a[4])), lc(), lc((F(-4, 3), a[0]))],
        [lc(), lc((F(-4, 3), a[2])), lc((F(-4, 3), a[0])), lc((F(-4, 9), a[1]), (F(1), a[3])),
         lc((F(4, 9), a[1]), (F(1), a[3])), lc((F(4, 3), a[0])), lc()],
    ]
    B = [
        [lc(), lc(), lc((F(3, 4), b[2]), (F(-1, 3), b[3])), lc(), lc(),
         lc((F(-3, 4), b[2]), (F(-1, 3), b[3])), lc((F(3), b[1]), (F(1), b[4]))],
        [lc(), lc(), lc(), lc((F(3, 2), b[2]), (F(-2, 3), b[3])),
         lc((F(3, 2), b[2]), (F(2, 3), b[3])), lc(), lc()],
        [lc((F(-3, 4), b[2]), (F(1, 3), b[3])), lc(), lc(), lc(), lc(),
         lc((F(-3), b[1]), (F(1), b[4])), lc((F(3, 4), b[2]), (F(1, 3), b[3]))],
        [lc(), lc((F(-3, 2), b[2]), (F(2, 3), b[3])), lc(), lc(), lc((F(-2), b[4])),
         lc(), lc()],
        [lc(), lc((F(3, 2), b[2]), (F(2, 3), b[3])), lc(), lc((F(-2), b[4])), lc(),
         lc(), lc()],
        [lc((F(-3, 4), b[2]), (F(-1, 3), b[3])), lc(), lc((F(-3), b[1]), (F(1), b[4])),
         lc(), lc(), lc(), lc((F(3, 4), b[2]), (F(-1, 3), b[3]))],
        [lc((F(3), b[1]), (F(1), b[4])), lc(), lc((F(3, 4), b[2]), (F(1, 3), b[3])),
         lc(), lc(), lc((F(-3, 4), b[2]), (F(1, 3), b[3])), lc()],
    ]
    C = [
        [lc(), lc((F(-3, 2), g[3])), lc((F(-9, 8), g[0])),
         lc((F(-1, 2), g[2]), (F(27, 8), g[4])), lc((F(1, 2), g[2]), (F(27, 8), g[4])),
         lc((F(-9, 8), g[0])), lc()],
        [lc((F(3, 2), g[3])), lc(), lc((F(1), g[2])), lc(), lc(), lc((F(1), g[2])),
         lc((F(-3, 2), g[3]))],
        [lc((F(9, 8), g[0])), lc((F(-1), g[2])), lc(), lc((F(-1), g[1]), (F(3, 4), g[3])),
         lc((F(1), g[1]), (F(3, 4), g[3])), lc(), lc((F(-9, 8), g[0]))],
        [lc((F(1, 2), g[2]), (F(-27, 8), g[4])), lc(), lc((F(1), g[1]), (F(-3, 4), g[3])),
         lc(), lc(), lc((F(1), g[1]), (F(-3, 4), g[3])),
         lc((F(-1, 2), g[2]), (F(27, 8), g[4]))],
        [lc((F(1, 2), g[2]), (F(27, 8), g[4])), lc(), lc((F(1), g[1]), (F(3, 4), g[3])),
         lc(), lc(), lc((F(1), g[1]), (F(3, 4), g[3])),
         lc((F(-1, 2), g[2]), (F(-27, 8), g[4]))],
        [lc((F(-9, 8), g[0])), lc((F(1), g[2])), lc(), lc((F(1), g[1]), (F(-3, 4), g[3])),
         lc((F(-1), g[1]), (F(-3, 4), g[3])), lc(), lc((F(9, 8), g[0]))],
        [lc(), lc((F(-3, 2), g[3])), lc((F(-9, 8), g[0])),
         lc((F(-1, 2), g[2]), (F(27, 8), g[4])), lc((F(1, 2), g[2]), (F(27, 8), g[4])),
         lc((F(-9, 8), g[0])), lc()],
    ]
    return A, B, C


def _coefficient_matrix(M: list[list[dict[str, Fraction]]], param: str) -> Mat7:
    return [[entry.get(param, Fraction(0)) for entry in row] for row in M]


@lru_cache(maxsize=1)
def build_basis() -> tuple[Mat7, ...]:
    """The 14 basis matrices, read off as parameter coefficients."""
    A, B, C = _parametric_matrices()
    basis = [_coefficient_matrix(A, "pa0")]
    basis += [_coefficient_matrix(A, f"pa{i}") for i in range(1, 5)]
    basis += [_coefficient_matrix(B, f"pb{i}") for i in range(1, 5)]
    basis += [_coefficient_matrix(C, f"pg{i}") for i in range(1, 5)]
    basis.append(_coefficient_matrix(C, "pg0"))
    return tuple(basis)


def _flatten(m: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    return [x for row in m for x in row]


class ClosureError(Exception):
    """A commutator left the span of the declared basis."""


@dataclass
class LieAlgebraSC:
    """A Lie algebra given by exact structure constants on a named basis."""

    dim: int
    names: tuple[str, ...]
    constants: dict[tuple[int, int], dict[int, Fraction]]  # (i<j) -> {k: c^k_ij}

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        if i == j:
            return {}
        if i < j:
            return self.constants.get((i, j), {})
        return {k: -v for k, v in self.constants.get((j, i), {}).items()}

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        v_support = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if not x:
                continue
            for j, y in v_support:
                xy = x * y
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += xy * c
        return out

    def ad(self, i: int) -> list[list[Fraction]]:
        m = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.bracket_basis(i, j).items():
                m[k][j] = c
        return m

    def killing_form(self) -> list[list[Fraction]]:
        """The Killing form, contracted from the structure constants.

        kappa_ij = tr(ad E_i ad E_j)
                 = sum_l sum_{k in supp [E_i, E_l]} c^k_il c^l_jk,

        read from the sparse brackets, with no ``ad`` matrix built.
        """
        n = self.dim
        table = [[self.bracket_basis(i, l) for l in range(n)] for i in range(n)]
        kappa = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                total = Fraction(0)
                for l in range(n):
                    for k, c in table[i][l].items():
                        d = table[j][k].get(l)
                        if d:
                            total += c * d
                kappa[i][j] = kappa[j][i] = total
        return kappa

    def jacobi_violations(self) -> list[tuple[int, int, int]]:
        bad = []
        for i, j, k in combinations(range(self.dim), 3):
            # [E_a, [E_b, E_c]] summed over the cyclic permutations
            total: dict[int, Fraction] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for l, x in self.bracket_basis(b, c).items():
                    for m, y in self.bracket_basis(a, l).items():
                        total[m] = total.get(m, 0) + x * y
            if any(total.values()):
                bad.append((i, j, k))
        return bad

    def is_closed_subspace(self, indices: Sequence[int]) -> bool:
        index_set = set(indices)
        for i in indices:
            for j in indices:
                if i < j:
                    if any(k not in index_set and c != 0
                           for k, c in self.bracket_basis(i, j).items()):
                        return False
        return True


@lru_cache(maxsize=1)
def commutator_table() -> LieAlgebraSC:
    """Structure constants of the 14 basis matrices; fails on closure loss."""
    basis = build_basis()
    rows = [_flatten(m) for m in basis]  # 14 x 49
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    cols = linalg.transpose(rows)
    for i in range(14):
        for j in range(i + 1, 14):
            comm = _flatten(linalg.commutator(basis[i], basis[j]))
            sol = linalg.solve(cols, comm)
            if sol is None:
                raise ClosureError(f"[E{i}, E{j}] is not in the span of the basis")
            entry = {k: c for k, c in enumerate(sol) if c != 0}
            if entry:
                constants[(i, j)] = entry
    return LieAlgebraSC(14, tuple(f"E{i}" for i in range(14)), constants)


#: The 14 left-invariant structure equations: k -> {(i, j): coefficient}.
MAURER_CARTAN: dict[int, dict[tuple[int, int], Fraction]] = {
    0: {(0, 5): Fraction(-6), (1, 4): Fraction(1), (2, 3): Fraction(-3)},
    1: {(0, 9): Fraction(6), (1, 5): Fraction(-3), (1, 8): Fraction(-3),
        (2, 7): Fraction(3)},
    2: {(0, 10): Fraction(2), (1, 6): Fraction(1), (2, 5): Fraction(-3),
        (2, 8): Fraction(-1), (3, 7): Fraction(2)},
    3: {(0, 11): Fraction(2), (2, 6): Fraction(2), (3, 5): Fraction(-3),
        (3, 8): Fraction(1), (4, 7): Fraction(1)},
    4: {(0, 12): Fraction(6), (3, 6): Fraction(3), (4, 5): Fraction(-3),
        (4, 8): Fraction(3)},
    5: {(0, 13): Fraction(2), (1, 12): Fraction(-1), (2, 11): Fraction(1),
        (3, 10): Fraction(-1), (4, 9): Fraction(1)},
    6: {(2, 12): Fraction(6), (3, 11): Fraction(-4), (4, 10): Fraction(2),
        (6, 8): Fraction(2)},
    7: {(1, 11): Fraction(-2), (2, 10): Fraction(4), (3, 9): Fraction(-6),
        (7, 8): Fraction(-2)},
    8: {(1, 12): Fraction(-3), (2, 11): Fraction(1), (3, 10): Fraction(1),
        (4, 9): Fraction(-3), (6, 7): Fraction(-1)},
    9: {(1, 13): Fraction(-1), (5, 9): Fraction(-3), (7, 10): Fraction(-1),
        (8, 9): Fraction(3)},
    10: {(2, 13): Fraction(-3), (5, 10): Fraction(-3), (6, 9): Fraction(-3),
         (7, 11): Fraction(-2), (8, 10): Fraction(1)},
    11: {(3, 13): Fraction(-3), (5, 11): Fraction(-3), (6, 10): Fraction(-2),
         (7, 12): Fraction(-3), (8, 11): Fraction(-1)},
    12: {(4, 13): Fraction(-1), (5, 12): Fraction(-3), (6, 11): Fraction(-1),
         (8, 12): Fraction(-3)},
    13: {(5, 13): Fraction(-6), (9, 12): Fraction(-6), (10, 11): Fraction(2)},
}

#: The nine-equation reduction obtained by annihilating forms 7, 9, 10, 11, 13.
MAURER_CARTAN_REDUCED: dict[int, dict[tuple[int, int], Fraction]] = {
    0: {(0, 5): Fraction(-6), (1, 4): Fraction(1), (2, 3): Fraction(-3)},
    1: {(1, 5): Fraction(-3), (1, 8): Fraction(-3)},
    2: {(1, 6): Fraction(1), (2, 5): Fraction(-3), (2, 8): Fraction(-1)},
    3: {(2, 6): Fraction(2), (3, 5): Fraction(-3), (3, 8): Fraction(1)},
    4: {(0, 12): Fraction(6), (3, 6): Fraction(3), (4, 5): Fraction(-3),
        (4, 8): Fraction(3)},
    5: {(1, 12): Fraction(-1)},
    6: {(2, 12): Fraction(6), (6, 8): Fraction(2)},
    8: {(1, 12): Fraction(-3)},
    12: {(5, 12): Fraction(-3), (8, 12): Fraction(-3)},
}


def _mc_from_constants(alg: LieAlgebraSC, sign: int) -> dict[int, dict[tuple[int, int], Fraction]]:
    out: dict[int, dict[tuple[int, int], Fraction]] = {k: {} for k in range(alg.dim)}
    for (i, j), entry in alg.constants.items():
        for k, c in entry.items():
            out[k][(i, j)] = sign * c
    return {k: v for k, v in out.items()}


@dataclass
class MaurerCartanReport:
    convention_sign: int  # -1 means dtheta(X, Y) = -theta([X, Y]) matched
    mismatches: dict[int, str]

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def verify_maurer_cartan() -> MaurerCartanReport:
    """Compare the computed structure constants with the 14 stated equations.

    Primary convention: coefficient of theta^i ^ theta^j in dtheta^k equals
    -c^k_ij.  If all 14 equations match only after a global sign flip, the
    flipped convention is reported instead.
    """
    alg = commutator_table()
    primary = None
    for sign in (-1, 1):
        candidate = _mc_from_constants(alg, sign)
        mismatches = {}
        for k in range(14):
            got = {ij: c for ij, c in candidate.get(k, {}).items() if c != 0}
            want = MAURER_CARTAN[k]
            if got != want:
                mismatches[k] = f"got {got}, expected {want}"
        if not mismatches:
            return MaurerCartanReport(sign, {})
        if primary is None:
            primary = MaurerCartanReport(sign, mismatches)
    return primary


@dataclass
class GradedSubalgebra:
    name: str
    indices: tuple[int, ...]
    grades: tuple[int, ...]
    closed: bool


@dataclass
class GradingReport:
    grading_element: list[Fraction]  # coordinates in the basis
    grading_holds: bool
    additivity_holds: bool
    parabolic_p2: GradedSubalgebra
    parabolic_p1: GradedSubalgebra
    borel: GradedSubalgebra
    reduction_matches: bool


def _solve_grading_element(alg: LieAlgebraSC) -> list[Fraction] | None:
    """Z = z5 E5 + z8 E8 with ad(Z) E_i = grade(i) E_i, from eight constraints."""
    rows, rhs = [], []
    ad5, ad8 = alg.ad(5), alg.ad(8)
    for i in list(range(1, 5)) + list(range(9, 13)):
        for k in range(alg.dim):
            rows.append([ad5[k][i], ad8[k][i]])
            rhs.append(Fraction(GRADES[i]) if k == i else Fraction(0))
    sol = linalg.solve(rows, rhs)
    return sol


def grading_and_parabolics() -> GradingReport:
    alg = commutator_table()
    z = _solve_grading_element(alg)
    grading_ok = False
    if z is not None:
        grading_ok = True
        adz = [[z[0] * a + z[1] * b for a, b in zip(r5, r8)]
               for r5, r8 in zip(alg.ad(5), alg.ad(8))]
        for i in range(14):
            for k in range(14):
                expected = Fraction(GRADES[i]) if k == i else Fraction(0)
                if adz[k][i] != expected:
                    grading_ok = False
    additivity = True
    for (i, j), entry in alg.constants.items():
        target = GRADES[i] + GRADES[j]
        for k, c in entry.items():
            if c != 0 and GRADES[k] != target:
                additivity = False

    def subalgebra(name, indices):
        return GradedSubalgebra(name, tuple(indices),
                                tuple(GRADES[i] for i in indices),
                                alg.is_closed_subspace(indices))

    p2 = subalgebra("nonnegative parabolic", range(5, 14))
    p1 = subalgebra("marked parabolic", [0, 1, 2, 3, 4, 5, 6, 8, 12])
    borel = subalgebra("borel", [5, 6, 8, 9, 10, 11, 12, 13])

    killed = {7, 9, 10, 11, 13}
    reduced = {}
    for k in range(14):
        if k in killed:
            continue
        kept = {ij: c for ij, c in MAURER_CARTAN[k].items()
                if ij[0] not in killed and ij[1] not in killed}
        reduced[k] = kept
    matches = reduced == MAURER_CARTAN_REDUCED

    grading_element = z if z is not None else []
    return GradingReport(grading_element, grading_ok, additivity, p2, p1, borel, matches)


@dataclass
class InvariantFormsReport:
    bilinear_dimension: int
    bilinear_signature: tuple[int, int, int]
    killing_signature: tuple[int, int, int]
    killing_nondegenerate: bool
    killing_grading_pairing: bool


def invariant_forms() -> InvariantFormsReport:
    """The invariant symmetric bilinear form on 7-space and the Killing form."""
    basis = build_basis()
    # unknown symmetric 7x7 H: E^T H + H E = 0 for every basis matrix
    pairs = [(i, j) for i in range(7) for j in range(i, 7)]
    index = {p: n for n, p in enumerate(pairs)}
    rows = []
    for E in basis:
        for r in range(7):
            for c in range(7):
                row = [Fraction(0)] * len(pairs)
                # (E^T H + H E)[r][c] = sum_k E[k][r] H[k][c] + H[r][k] E[k][c]
                for k in range(7):
                    if E[k][r] != 0:
                        p = (min(k, c), max(k, c))
                        row[index[p]] += E[k][r]
                    if E[k][c] != 0:
                        p = (min(r, k), max(r, k))
                        row[index[p]] += E[k][c]
                if any(x != 0 for x in row):
                    rows.append(row)
    basis_h = linalg.nullspace(rows)
    dim_h = len(basis_h)
    signature = (0, 0, 0)
    if dim_h == 1:
        H = [[Fraction(0)] * 7 for _ in range(7)]
        for p, n in index.items():
            H[p[0]][p[1]] = basis_h[0][n]
            H[p[1]][p[0]] = basis_h[0][n]
        signature = linalg.signature_symmetric(H)

    alg = commutator_table()
    kappa = alg.killing_form()
    ks = linalg.signature_symmetric(kappa)
    nondeg = linalg.det(kappa) != 0
    pairing = all(kappa[i][j] == 0
                  for i in range(14) for j in range(14)
                  if GRADES[i] + GRADES[j] != 0)
    return InvariantFormsReport(dim_h, signature, ks, nondeg, pairing)


def structure_constants_table() -> str:
    """Exact-rational table, one line per nonzero structure constant."""
    alg = commutator_table()
    lines = []
    for (i, j) in sorted(alg.constants):
        for k in sorted(alg.constants[(i, j)]):
            lines.append(f"c[{k}][{i},{j}] = {alg.constants[(i, j)][k]}")
    return "\n".join(lines)
