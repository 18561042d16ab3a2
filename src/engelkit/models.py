"""Constant-coefficient structure systems of the homogeneous models.

Each system lists the exterior derivatives of a coframe of left-invariant
forms with exact rational constants.  Closure (vanishing of the second
exterior derivative) is equivalent to the Jacobi identity for the dual
bracket; the catalogued systems are the symmetry algebras of the
homogeneous marked structures with symmetry dimension at least 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from . import linalg
from .g2alg import LieAlgebraSC, MAURER_CARTAN_REDUCED

__all__ = [
    "ConstantStructureSystem",
    "jacobi_check",
    "identify",
    "IdentificationReport",
    "catalogue",
    "flat_symmetry_system",
]

F = Fraction


@dataclass(frozen=True)
class ConstantStructureSystem:
    """dtheta^k = sum of coefficients[k][(i, j)] theta^i ^ theta^j, i < j."""

    name: str
    dim: int
    coefficients: Mapping[int, Mapping[tuple[int, int], Fraction]]

    def dual_algebra(self) -> LieAlgebraSC:
        """Structure constants under dtheta(X, Y) = -theta([X, Y])."""
        constants: dict[tuple[int, int], dict[int, Fraction]] = {}
        for k, eq in self.coefficients.items():
            for (i, j), c in eq.items():
                if c != 0:
                    constants.setdefault((i, j), {})[k] = -c
        return LieAlgebraSC(self.dim, tuple(f"e{i}" for i in range(self.dim)),
                            constants)

    def second_derivative(self, k: int) -> dict[tuple[int, int, int], Fraction]:
        """Coefficients of the 3-form d(dtheta^k)."""
        out: dict[tuple[int, int, int], Fraction] = {}
        for (i, j), c in self.coefficients.get(k, {}).items():
            # d(theta^i ^ theta^j) = dtheta^i ^ theta^j - theta^i ^ dtheta^j
            for (a, b), c2 in self.coefficients.get(i, {}).items():
                _add_triple(out, (a, b, j), c * c2)
            for (a, b), c2 in self.coefficients.get(j, {}).items():
                _add_triple(out, (i, a, b), -c * c2)
        return {k3: v for k3, v in out.items() if v != 0}

    def to_table(self) -> str:
        lines = [f"# {self.name} (dimension {self.dim})"]
        for k in sorted(self.coefficients):
            for (i, j), c in sorted(self.coefficients[k].items()):
                if c != 0:
                    lines.append(f"d[{k}][{i},{j}] = {c}")
        return "\n".join(lines)


def _add_triple(store: dict, triple: tuple[int, int, int], value: Fraction):
    idx = tuple(sorted(triple))
    if len(set(idx)) != 3:
        return
    # parity of the sorting permutation
    perm = [idx.index(x) for x in triple]
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                     if perm[i] > perm[j])
    sign = -1 if inversions % 2 else 1
    store[idx] = store.get(idx, F(0)) + sign * value


def jacobi_check(system: ConstantStructureSystem) -> bool:
    """d(dtheta^k) = 0 for every k, checked symbolically on the constants."""
    return all(not system.second_derivative(k) for k in system.coefficients)


@dataclass
class IdentificationReport:
    name: str
    dim: int
    jacobi: bool
    killing_signature: tuple[int, int, int]
    semisimple: bool
    center_dim: int
    ideal_split: tuple[tuple[int, bool], ...] = ()  # (dimension, simple?)

    def summary(self) -> str:
        parts = [f"{self.name}: dim {self.dim}",
                 f"closed={self.jacobi}",
                 f"killing signature {self.killing_signature}",
                 f"semisimple={self.semisimple}",
                 f"center dim {self.center_dim}"]
        if self.ideal_split:
            split = " + ".join(f"{d}{'(simple)' if s else ''}"
                               for d, s in self.ideal_split)
            parts.append(f"ideals: {split}")
        return ", ".join(parts)


def _center_dim(alg: LieAlgebraSC) -> int:
    # x central iff ad(x) = 0 iff for all j, bracket(e_j, x) = 0
    stacked = []
    for j in range(alg.dim):
        adj = alg.ad(j)
        for r in adj:
            stacked.append(r)
    return len(linalg.nullspace(stacked, n_cols=alg.dim))


def _centroid(alg: LieAlgebraSC) -> list[list[list[Fraction]]]:
    """Matrices commuting with the bracket: phi[x,y] = [phi x, y] = [x, phi y]."""
    n = alg.dim
    rows = []
    basis = linalg.identity(n)
    # bracket[a][b] = [e_a, e_b], each ordered pair bracketed once
    bracket = [[alg.bracket(basis[a], basis[b]) for b in range(n)] for a in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bij = bracket[i][j]
            for target in range(n):
                row1 = [F(0)] * (n * n)
                row2 = [F(0)] * (n * n)
                # phi([e_i, e_j]) - [phi e_i, e_j]  and  ... - [e_i, phi e_j]
                for s in range(n):
                    row1[target * n + s] += bij[s]
                    row2[target * n + s] += bij[s]
                for m in range(n):
                    row1[m * n + i] -= bracket[m][j][target]
                    row2[m * n + j] -= bracket[i][m][target]
                rows.append(row1)
                rows.append(row2)
    sols = linalg.nullspace(rows, n_cols=alg.dim ** 2)
    return [[vec[r * n:(r + 1) * n] for r in range(n)] for vec in sols]


def _split_ideals(alg: LieAlgebraSC) -> tuple[tuple[int, bool], ...]:
    """Split a semisimple algebra into ideals via a centroid idempotent."""
    n = alg.dim
    centroid = _centroid(alg)
    if len(centroid) <= 1:
        kappa = alg.killing_form()
        return ((n, linalg.det(kappa) != 0),)
    # find a non-scalar element and a rational idempotent in the span
    identity = linalg.identity(n)
    phi = None
    for cand in centroid:
        if not linalg.in_span([sum(identity, [])], sum(cand, [])):
            phi = cand
            break
    if phi is None:
        return ((n, True),)
    # phi satisfies a quadratic over the 2-dim centroid: phi^2 = a phi + b
    phi2 = linalg.mat_mul(phi, phi)
    coords = linalg.coordinates_in_basis(
        [sum(phi, []), sum(identity, [])], sum(phi2, []))
    if coords is None:
        return ((n, True),)
    a, b = coords
    disc = a * a + 4 * b
    root = _rational_sqrt(disc)
    if root is None:
        return ((n, True),)
    lam = (a + root) / 2  # eigenvalue of phi; projector = (phi - mu)/(lam - mu)
    mu = (a - root) / 2
    if lam == mu:
        return ((n, True),)
    proj = [[(phi[i][j] - (mu if i == j else 0)) / (lam - mu) for j in range(n)]
            for i in range(n)]
    image = [r for r in linalg.row_echelon(linalg.transpose(proj))[0]
             if any(x != 0 for x in r)]
    complement = [r for r in linalg.row_echelon(
        linalg.transpose([[identity[i][j] - proj[i][j] for j in range(n)]
                          for i in range(n)]))[0] if any(x != 0 for x in r)]
    out = []
    for part in (image, complement):
        sub = _restrict(alg, part)
        kappa = sub.killing_form()
        out.append((len(part), linalg.det(kappa) != 0 and _centroid_dim_one(sub)))
    return tuple(out)


def _centroid_dim_one(alg: LieAlgebraSC) -> bool:
    return len(_centroid(alg)) == 1


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = int(num ** 0.5 + 0.5)
    rd = int(den ** 0.5 + 0.5)
    # adjust for floating error on large ints
    while rn * rn > num:
        rn -= 1
    while (rn + 1) * (rn + 1) <= num:
        rn += 1
    while rd * rd > den:
        rd -= 1
    while (rd + 1) * (rd + 1) <= den:
        rd += 1
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _restrict(alg: LieAlgebraSC, basis_rows: Sequence[Sequence[Fraction]]) -> LieAlgebraSC:
    """The bracket restricted to an ideal, in the given basis."""
    k = len(basis_rows)
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(k):
        for j in range(i + 1, k):
            vec = alg.bracket(list(basis_rows[i]), list(basis_rows[j]))
            coords = linalg.coordinates_in_basis(list(basis_rows), vec)
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            entry = {m: c for m, c in enumerate(coords) if c != 0}
            if entry:
                constants[(i, j)] = entry
    return LieAlgebraSC(k, tuple(f"v{i}" for i in range(k)), constants)


def identify(system: ConstantStructureSystem, split_ideals: bool = False) -> IdentificationReport:
    """Killing signature, semisimplicity, center, optional ideal decomposition."""
    alg = system.dual_algebra()
    kappa = alg.killing_form()
    signature = linalg.signature_symmetric(kappa)
    semisimple = linalg.det(kappa) != 0
    report = IdentificationReport(
        name=system.name,
        dim=system.dim,
        jacobi=jacobi_check(system),
        killing_signature=signature,
        semisimple=semisimple,
        center_dim=_center_dim(alg),
    )
    if split_ideals and semisimple:
        report.ideal_split = _split_ideals(alg)
    return report


# ---------------------------------------------------------------------------
# the catalogue
# ---------------------------------------------------------------------------


def _sys(name: str, dim: int, eqs: dict[int, dict[tuple[int, int], Fraction]]):
    return ConstantStructureSystem(name, dim, eqs)


def catalogue() -> list[ConstantStructureSystem]:
    """All seven catalogued constant-coefficient systems (sign variants counted)."""
    systems = []

    # branch with nonvanishing first invariant: unique 6-dimensional model
    systems.append(_sys("six-dim-nonintegrable", 6, {
        0: {(0, 5): F(-6), (1, 4): F(1), (2, 3): F(-3)},
        1: {(1, 5): F(-24, 5), (2, 4): F(3)},
        2: {(2, 5): F(-18, 5), (3, 4): F(2)},
        3: {(3, 5): F(-12, 5)},
        4: {(4, 5): F(-6, 5)},
        5: {},
    }))

    # integrable, second invariant nonvanishing: 5-dimensional model
    systems.append(_sys("five-dim-L", 5, {
        0: {(0, 3): F(-5, 6), (0, 4): F(-24), (1, 4): F(1), (2, 3): F(-3)},
        1: {(0, 3): F(1), (1, 3): F(-2, 3), (1, 4): F(-30)},
        2: {(2, 3): F(-1, 2), (2, 4): F(-18)},
        3: {(3, 4): F(-6)},
        4: {(3, 4): F(1, 6)},
    }))

    # integrable, L = 0, M and P nonvanishing: two 5-dimensional models
    for eps_name, eps in (("plus", F(1)), ("minus", F(-1))):
        systems.append(_sys(f"five-dim-MP-{eps_name}", 5, {
            0: {(0, 2): F(-15, 2), (0, 4): F(-1, 6) * eps, (1, 4): F(1),
                (2, 3): F(-3)},
            1: {(0, 2): eps, (1, 2): F(-3), (1, 4): F(-1, 3) * eps},
            2: {(0, 1): F(1, 4), (0, 3): F(-1, 12) * eps, (1, 3): F(-1, 2),
                (2, 4): F(-1, 6) * eps},
            3: {(0, 2): F(9, 2), (0, 4): F(1, 6) * eps, (1, 2): F(9) * eps,
                (2, 3): F(3)},
            4: {(0, 1): F(-27, 4) * eps, (0, 3): F(9, 4), (1, 3): F(27, 2) * eps,
                (2, 4): F(9, 2)},
        }))

    # submaximal models: 8-dimensional, forms indexed 0..4, 5, 6, 12
    for eps_name, eps in (("plus", F(1)), ("minus", F(-1))):
        systems.append(_sys(f"submax-{eps_name}", 8, {
            # basis order: theta0..theta4, theta5, theta6, theta12
            0: {(0, 5): F(-6), (1, 4): F(1), (2, 3): F(-3)},
            1: {(0, 2): eps, (1, 5): F(-12)},
            2: {(0, 3): F(3, 4) * eps, (1, 6): F(1), (2, 5): F(-6)},
            3: {(0, 4): F(1, 2) * eps, (2, 6): F(2)},
            4: {(0, 7): F(6), (3, 6): F(3), (4, 5): F(6)},
            5: {(0, 6): F(-1, 12) * eps, (1, 7): F(-1), (2, 4): F(1, 12) * eps},
            6: {(2, 7): F(6), (3, 4): F(-3, 4) * eps, (5, 6): F(-6)},
            7: {(4, 6): F(1, 6) * eps, (5, 7): F(-12)},
        }))

    # all of J, L, M, P zero, Q nonvanishing: 6-dimensional split model
    systems.append(_sys("six-dim-split", 6, {
        # basis order: theta0..theta4, theta8
        0: {(1, 4): F(1), (2, 3): F(-3)},
        1: {(0, 1): F(1, 2), (1, 5): F(-3)},
        2: {(0, 2): F(1, 2), (2, 5): F(-1)},
        3: {(0, 3): F(-1, 2), (3, 5): F(1)},
        4: {(0, 4): F(-1, 2), (4, 5): F(3)},
        5: {(1, 4): F(-1, 2), (2, 3): F(1, 2)},
    }))

    return systems


def flat_symmetry_system() -> ConstantStructureSystem:
    """The 9-dimensional symmetry algebra of the flat model as a coframe system."""
    order = [0, 1, 2, 3, 4, 5, 6, 8, 12]
    pos = {v: n for n, v in enumerate(order)}
    eqs: dict[int, dict[tuple[int, int], Fraction]] = {}
    for k, entry in MAURER_CARTAN_REDUCED.items():
        eqs[pos[k]] = {(pos[i], pos[j]): c for (i, j), c in entry.items()}
    return ConstantStructureSystem("flat-symmetry", 9, eqs)


@dataclass
class FlatIdealReport:
    first_five_duals_subalgebra: bool
    first_five_duals_ideal: bool
    nilradical_dim: int
    nilradical_is_nilpotent: bool
    nilradical_basis_indices: tuple[int, ...]


def flat_ideal_report() -> FlatIdealReport:
    """Ideal structure of the flat symmetry algebra.

    The duals of the first five coframe forms span a Heisenberg subalgebra
    but not an ideal (the dual of the marked-line form pairs with the
    positive generator into the Levi part); the actual nilradical is
    5-dimensional and spanned by a different subset of duals.
    """
    alg = flat_symmetry_system().dual_algebra()
    n = alg.dim
    basis = linalg.identity(n)
    subalgebra_first_five = alg.is_closed_subspace(range(5))
    span5 = basis[:5]
    ideal_first_five = all(
        linalg.in_span(span5, alg.bracket(basis[i], basis[j]))
        for i in range(n) for j in range(5))

    kappa = alg.killing_form()
    derived = []
    for i in range(n):
        for j in range(i + 1, n):
            v = alg.bracket(basis[i], basis[j])
            if any(x != 0 for x in v):
                derived.append(v)
    derived = [r for r in linalg.row_echelon(derived)[0] if any(x != 0 for x in r)]
    radical = linalg.nullspace([linalg.mat_vec(kappa, d) for d in derived], n_cols=n)
    # nilradical = derived ideal of the (solvable) radical here
    nil = []
    for u in radical:
        for v in radical:
            w = alg.bracket(list(u), list(v))
            if any(x != 0 for x in w):
                nil.append(w)
    nil = [r for r in linalg.row_echelon(nil)[0] if any(x != 0 for x in r)]

    def is_nilpotent(span_rows) -> bool:
        cur = list(span_rows)
        for _ in range(len(span_rows) + 1):
            nxt = []
            for u in cur:
                for v in span_rows:
                    w = alg.bracket(list(u), list(v))
                    if any(x != 0 for x in w):
                        nxt.append(w)
            if not nxt:
                return True
            cur = [r for r in linalg.row_echelon(nxt)[0] if any(x != 0 for x in r)]
        return False

    members = tuple(i for i in range(n) if linalg.in_span(nil, basis[i]))
    return FlatIdealReport(
        first_five_duals_subalgebra=subalgebra_first_five,
        first_five_duals_ideal=ideal_first_five,
        nilradical_dim=len(nil),
        nilradical_is_nilpotent=is_nilpotent(nil),
        nilradical_basis_indices=members,
    )
