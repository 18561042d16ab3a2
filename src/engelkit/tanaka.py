"""Tanaka prolongation and Lie-algebra cohomology for the contact gradation.

The graded nilpotent part is the 5-dimensional Heisenberg algebra extracted
from the 14-dimensional matrix model (grades -2 and -1).  Prolongations of a
subalgebra of its grading-preserving derivations are computed degree by
degree as exact nullspaces; cohomology dimensions come from exact ranks of
the standard complex with adjoint coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .g2alg import GRADES, LieAlgebraSC, commutator_table

__all__ = [
    "heisenberg_from_table",
    "GradedNilpotent",
    "DerivationPair",
    "graded_derivations",
    "extend_to_derivation",
    "ProlongationTable",
    "tanaka_prolong",
    "cohomology_dim",
    "cochain_dims",
    "BrokenComplexError",
    "normalization_obstruction",
    "NormalizationReport",
    "prolongation_matches_parabolic",
]

Vec = list[Fraction]
Mat = list[list[Fraction]]


@dataclass(frozen=True)
class GradedNilpotent:
    """The Heisenberg algebra: dim-1 center in grade -2, dim-4 grade -1 part.

    ``pairing[i][j]`` is the center component of the bracket of the i-th and
    j-th grade -1 basis vectors.
    """

    pairing: tuple[tuple[Fraction, ...], ...]

    def bracket_minus1(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for i in range(4):
            if x[i] == 0:
                continue
            for j in range(4):
                if y[j] != 0:
                    total += x[i] * y[j] * self.pairing[i][j]
        return total

    def nondegenerate(self) -> bool:
        return linalg.det([list(r) for r in self.pairing]) != 0


def heisenberg_from_table(alg: LieAlgebraSC | None = None) -> GradedNilpotent:
    """Extract the nilpotent part from the 14-dimensional structure constants."""
    if alg is None:
        alg = commutator_table()
    pairing = tuple(
        tuple(alg.bracket_basis(i, j).get(0, Fraction(0)) for j in range(1, 5))
        for i in range(1, 5))
    return GradedNilpotent(pairing)


@dataclass(frozen=True)
class DerivationPair:
    """A grading-preserving derivation: 4x4 block on grade -1, scalar on grade -2."""

    matrix: tuple[tuple[Fraction, ...], ...]
    scalar: Fraction

    def flat(self) -> Vec:
        return [x for row in self.matrix for x in row] + [self.scalar]


def extend_to_derivation(m: GradedNilpotent, matrix: Sequence[Sequence[Fraction]]) -> DerivationPair:
    """Extend a grade -1 action to a derivation; raises if impossible."""
    e = linalg.identity(4)
    images = [[row[i] for row in matrix] for i in range(4)]  # matrix e_i
    scalar = None
    for i in range(4):
        for j in range(i + 1, 4):
            w = m.pairing[i][j]
            mixed = m.bracket_minus1(images[i], e[j]) + m.bracket_minus1(e[i], images[j])
            if w != 0:
                candidate = mixed / w
                if scalar is None:
                    scalar = candidate
                elif scalar != candidate:
                    raise ValueError("matrix does not extend to a graded derivation")
            elif mixed != 0:
                raise ValueError("matrix does not extend to a graded derivation")
    if scalar is None:
        raise ValueError("degenerate bracket")
    return DerivationPair(tuple(tuple(Fraction(x) for x in row) for row in matrix), scalar)


def graded_derivations(m: GradedNilpotent) -> list[DerivationPair]:
    """Basis of all grading-preserving derivations (conformal symplectic algebra)."""
    rows = []
    e = linalg.identity(4)
    for i in range(4):
        for j in range(i + 1, 4):
            row = [Fraction(0)] * 17
            for k in range(4):
                for l in range(4):
                    # d/dD_kl of [D e_i, e_j] + [e_i, D e_j]
                    coeff = Fraction(0)
                    if l == i:
                        coeff += m.pairing[k][j]
                    if l == j:
                        coeff += m.pairing[i][k]
                    row[4 * k + l] = coeff
            row[16] = -m.pairing[i][j]
            rows.append(row)
    basis = linalg.nullspace(rows)
    out = []
    for vec in basis:
        matrix = tuple(tuple(vec[4 * k + l] for l in range(4)) for k in range(4))
        out.append(DerivationPair(matrix, vec[16]))
    return out


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------


class _Prolongation:
    """Degree-by-degree prolongation data for (m, g0).

    Level k >= 1 elements are pairs of maps (grade -1 -> level k-1,
    grade -2 -> level k-2) stored as stacked coordinate vectors with respect
    to the previously computed level bases.
    """

    def __init__(self, m: GradedNilpotent, g0: Sequence[DerivationPair]):
        self.m = m
        self.g0 = list(g0)
        self.level_dims: dict[int, int] = {-2: 1, -1: 4, 0: len(self.g0)}
        self.bases: dict[int, list[Vec]] = {}
        self._brackets: dict[tuple[int, int | None], list[Vec]] = {}

    def dim(self, level: int) -> int:
        return self.level_dims[level]

    def element_size(self, level: int) -> int:
        # an element of level k >= 1: 4 columns into level k-1, 1 into level k-2
        return 4 * self.dim(level - 1) + self.dim(level - 2)

    def apply(self, level: int, coords: Vec, arg_level: int, arg: Vec) -> Vec:
        """Bracket of a level >= 0 element (basis coordinates) with a nilpotent element."""
        if level == 0:
            terms = [(c, p) for c, p in zip(coords, self.g0) if c]
            if arg_level == -1:
                D = [[Fraction(0)] * 4 for _ in range(4)]
                for c, p in terms:
                    for D_row, p_row in zip(D, p.matrix):
                        for s, x in enumerate(p_row):
                            if x:
                                D_row[s] += c * x
                return linalg.mat_vec(D, arg)
            scalar = sum((c * p.scalar for c, p in terms), Fraction(0))
            return [scalar * arg[0]]
        raw = self.raw_element(level, coords)
        dim = self.dim(level - 1)
        if arg_level == -1:
            out = [Fraction(0)] * dim
            for col in range(4):
                a = arg[col]
                if not a:
                    continue
                for r, b in enumerate(raw[col * dim:(col + 1) * dim]):
                    if b:
                        out[r] += a * b
            return out
        return [arg[0] * x for x in raw[4 * dim:]]

    def basis_brackets(self, level: int, j: int | None) -> list[Vec]:
        """The bracket of each basis element of ``level`` >= 0 with the grade
        -1 basis vector ``e_j``, or with the center when ``j`` is None;
        computed once per level and argument."""
        out = self._brackets.get((level, j))
        if out is None:
            arg_level, arg = (-2, [Fraction(1)]) if j is None else \
                (-1, [Fraction(r == j) for r in range(4)])
            dim = self.dim(level)
            out = self._brackets[level, j] = [
                self.apply(level, [Fraction(r == b) for r in range(dim)], arg_level, arg)
                for b in range(dim)]
        return out

    def raw_element(self, level: int, coords: Vec) -> Vec:
        """Stacked (f, g) data of a level >= 1 element given in basis coordinates."""
        basis = self.bases[level]
        out = [Fraction(0)] * len(basis[0])
        for c, vec in zip(coords, basis):
            if not c:
                continue
            for n, y in enumerate(vec):
                if y:
                    out[n] += c * y
        return out

    def compute_level(self, k: int) -> list[Vec]:
        """Nullspace of the derivation-compatibility constraints at degree k."""
        size = self.element_size(k)
        rows: list[Vec] = []
        dim_km1 = self.dim(k - 1)
        size_f = 4 * dim_km1
        # [f(e_b), e_j] and [f(e_b), z] for each basis element e_b of level k-1
        with_grade1 = [self.basis_brackets(k - 1, j) for j in range(4)]
        with_center = self.basis_brackets(k - 1, None)
        # condition on pairs in grade -1:  g([x,y]) = [f(x), y] + [x, f(y)]
        for i in range(4):
            for j in range(i + 1, 4):
                w = self.m.pairing[i][j]
                # rows indexed by the target space: level k-2
                for target in range(self.dim(k - 2)):
                    row = [Fraction(0)] * size
                    # -g(w * center)
                    row[size_f + target] -= w
                    # +[f(e_i), e_j] - [f(e_j), e_i]
                    for basis_idx in range(dim_km1):
                        row[i * dim_km1 + basis_idx] += with_grade1[j][basis_idx][target]
                        row[j * dim_km1 + basis_idx] -= with_grade1[i][basis_idx][target]
                    rows.append(row)
        # condition mixing grade -1 and the center:  [f(x), z] + [x, g(z)] = 0
        for i in range(4):
            # [e_i, g(z)] = -[g(z), e_i] for g(z) in level k-2 >= 0
            lower = self.basis_brackets(k - 2, i) if k >= 2 else None
            for target in range(self.dim(k - 3)):
                row = [Fraction(0)] * size
                for basis_idx in range(dim_km1):
                    row[i * dim_km1 + basis_idx] += with_center[basis_idx][target]
                if k == 1:
                    # g(z) in grade -1; [e_i, g(z)] lands in the center
                    for s in range(4):
                        row[size_f + s] += self.m.pairing[i][s]
                else:
                    for s, v in enumerate(lower):
                        row[size_f + s] -= v[target]
                rows.append(row)
        return linalg.nullspace(rows, n_cols=size)


@dataclass
class ProlongationTable:
    g0_dim: int
    degree_dims: tuple[int, ...]
    total_dimension: int
    prolongation: _Prolongation

    @property
    def terminated(self) -> bool:
        """Whether a zero degree was reached, so that the total is final.

        Otherwise ``max_degree`` cut the prolongation short and
        ``total_dimension`` counts only the degrees computed.
        """
        return bool(self.degree_dims) and self.degree_dims[-1] == 0

    def __str__(self) -> str:
        degs = ", ".join(f"k={k + 1}: {d}" for k, d in enumerate(self.degree_dims))
        return (f"prolongation: 1 + 4 + {self.g0_dim} + "
                f"({degs}) = {self.total_dimension}")

    def to_table(self) -> str:
        """Dimensions and basis vectors per degree as a text table."""
        lines = [f"degree -2: dim 1", f"degree -1: dim 4",
                 f"degree  0: dim {self.g0_dim}"]
        for k, dim in enumerate(self.degree_dims, start=1):
            lines.append(f"degree {k:2d}: dim {dim}")
            for n, vec in enumerate(self.prolongation.bases.get(k, [])):
                entries = ", ".join(str(x) for x in vec)
                lines.append(f"  basis[{n}] = ({entries})")
        lines.append(f"total: {self.total_dimension}")
        return "\n".join(lines)


def tanaka_prolong(g0_matrices: Sequence[Sequence[Sequence[Fraction]]],
                   max_degree: int = 6,
                   m: GradedNilpotent | None = None) -> ProlongationTable:
    """Prolong (m, g0) degree by degree, stopping at the first zero component.

    ``g0_matrices`` act on the grade -1 part; each must extend to a graded
    derivation and the span must be closed under commutators.
    """
    if m is None:
        m = heisenberg_from_table()
    pairs = [extend_to_derivation(m, mat) for mat in g0_matrices]
    flat = [p.flat() for p in pairs]
    if linalg.rank(flat) != len(pairs):
        raise ValueError("g0 matrices are linearly dependent")
    for a in g0_matrices:
        for b in g0_matrices:
            comm_pair = extend_to_derivation(m, linalg.commutator(a, b))
            if not linalg.in_span(flat, comm_pair.flat()):
                raise ValueError("g0 is not closed under commutators")

    prol = _Prolongation(m, pairs)
    dims = []
    for k in range(1, max_degree + 1):
        basis = prol.compute_level(k)
        prol.bases[k] = basis
        prol.level_dims[k] = len(basis)
        dims.append(len(basis))
        if not basis:
            break
    total = 5 + len(pairs) + sum(dims)
    return ProlongationTable(len(pairs), tuple(dims), total, prol)


# ---------------------------------------------------------------------------
# cohomology of the nilpotent part with adjoint coefficients
# ---------------------------------------------------------------------------

_Q_INDICES = (0, 1, 2, 3, 4, 5, 6, 8, 12)


def _coefficient_data(coefficients: str):
    """Basis indices and grades of the coefficient module ('g' or 'q')."""
    alg = commutator_table()
    if coefficients == "g":
        idx = tuple(range(14))
    elif coefficients == "q":
        idx = _Q_INDICES
    else:
        raise ValueError("coefficients must be 'g' or 'q'")
    return alg, idx, tuple(GRADES[i] for i in idx)


def _m_basis_grades():
    return (0, 1, 2, 3, 4), (-2, -1, -1, -1, -1)


def _cochain_basis(idx, grades, q: int, homogeneity: int):
    m_idx, m_grades = _m_basis_grades()
    basis = []
    for subset in combinations(range(5), q):
        wt = sum(m_grades[s] for s in subset)
        for pos, grade in enumerate(grades):
            if grade - wt == homogeneity:
                basis.append((subset, pos))
    return basis


def _apply_cochain(subset: tuple[int, ...], args: tuple[int, ...]) -> int:
    """Sign of evaluating the dual basis q-form on the given argument tuple."""
    if len(set(args)) != len(args) or set(args) != set(subset):
        return 0
    perm = [subset.index(a) for a in args]
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _boundary_matrix(coefficients: str, q: int, homogeneity: int):
    """Matrix of the standard differential C^q_l -> C^{q+1}_l, plus both bases."""
    alg, idx, grades = _coefficient_data(coefficients)
    pos_of = {v: n for n, v in enumerate(idx)}
    src = _cochain_basis(idx, grades, q, homogeneity)
    dst = _cochain_basis(idx, grades, q + 1, homogeneity)
    dst_pos = {b: n for n, b in enumerate(dst)}
    # ad of the m-basis elements on the coefficient module
    ad = {i: alg.ad(i) for i in range(5)}
    columns = []
    for subset, vpos in src:
        image = [Fraction(0)] * len(dst)
        v_index = idx[vpos]
        for args in combinations(range(5), q + 1):
            total_per_target: dict[int, Fraction] = {}
            # sum_i (-1)^i [x_i, phi(args without i)]
            for i, xi in enumerate(args):
                rest = args[:i] + args[i + 1:]
                s = _apply_cochain(subset, rest)
                if s == 0:
                    continue
                col = ad[xi]
                for target in range(14):
                    c = col[target][v_index]
                    if c != 0 and target in pos_of:
                        total_per_target[pos_of[target]] = \
                            total_per_target.get(pos_of[target], Fraction(0)) \
                            + ((-1) ** i) * s * c
                    elif c != 0:
                        raise AssertionError("coefficient module is not invariant")
            # sum_{i<j} (-1)^{i+j} phi([x_i, x_j], rest)
            for i in range(q + 1):
                for j in range(i + 1, q + 1):
                    bracket = alg.bracket_basis(args[i], args[j])
                    if not bracket:
                        continue
                    rest = tuple(a for n, a in enumerate(args) if n not in (i, j))
                    for b_index, c in bracket.items():
                        s = _apply_cochain(subset, (b_index,) + rest)
                        if s == 0:
                            continue
                        total_per_target[vpos] = total_per_target.get(vpos, Fraction(0)) \
                            + ((-1) ** (i + j)) * s * c
            for target_pos, value in total_per_target.items():
                if value != 0:
                    image[dst_pos[(args, target_pos)]] += value
        columns.append(image)
    matrix = linalg.transpose(columns) if columns else []
    return matrix, src, dst


def cochain_dims(coefficients: str, q: int, homogeneity: int) -> int:
    _, idx, grades = _coefficient_data(coefficients)
    return len(_cochain_basis(idx, grades, q, homogeneity))


def _boundary(coefficients: str, q: int, homogeneity: int,
              boundaries: dict) -> tuple[Mat, int, int]:
    """``(matrix of C^q_l -> C^{q+1}_l, dim C^q_l, its rank)``, read from
    ``boundaries`` when it holds them and stored there otherwise."""
    key = (coefficients, q, homogeneity)
    if key not in boundaries:
        matrix, src, _ = _boundary_matrix(coefficients, q, homogeneity)
        boundaries[key] = (matrix, len(src), linalg.rank(matrix) if matrix and src else 0)
    return boundaries[key]


class BrokenComplexError(Exception):
    """The boundary maps of a cochain complex do not compose to zero."""


def cohomology_dim(coefficients: str, q: int, homogeneity: int,
                   boundaries: dict | None = None) -> int:
    """dim H^q(m, V)_l with V the full algebra ('g') or the parabolic ('q').

    Callers that ask for several dimensions pass one ``boundaries`` dict to
    all of them, so that each boundary matrix is built and ranked once.  When
    the product of the maps into and out of C^q_l is not zero, d o d is not
    zero and BrokenComplexError is raised.
    """
    boundaries = {} if boundaries is None else boundaries
    d_out, dim, rank_out = _boundary(coefficients, q, homogeneity, boundaries)
    if not dim:
        return 0
    if q == 0:
        return dim - rank_out
    d_in, _, rank_in = _boundary(coefficients, q - 1, homogeneity, boundaries)
    if d_out and d_in and any(any(row) for row in linalg.mat_mul(d_out, d_in)):
        raise BrokenComplexError(
            f"d o d != 0 at C^{q}_{homogeneity} with coefficients in {coefficients!r}")
    return dim - rank_out - rank_in


# ---------------------------------------------------------------------------
# the normalization-condition obstruction
# ---------------------------------------------------------------------------


@dataclass
class NormalizationReport:
    two_cochain_dim: int
    image_full_dim: int
    image_parabolic_dim: int
    kernel_dim: int
    invariant_line_weights: list[Fraction]
    all_invariant_lines_in_parabolic_image: bool

    def summary(self) -> str:
        return (f"dim C2_1 = {self.two_cochain_dim}, dim Im(full) = {self.image_full_dim}, "
                f"dim Im(parabolic) = {self.image_parabolic_dim}, "
                f"invariant lines at weights {self.invariant_line_weights} "
                f"all inside the parabolic image: "
                f"{self.all_invariant_lines_in_parabolic_image}")


def _cochain_action_matrix(actor: int, basis, idx) -> Mat:
    """Tensorial action of a grade-0 basis element on 2-cochains.

    (X.phi)(x, y) = [X, phi(x, y)] - phi([X, x], y) - phi(x, [X, y]),
    evaluated directly on all argument pairs.
    """
    alg = commutator_table()
    pos_of = {v: n for n, v in enumerate(idx)}
    basis_pos = {b: n for n, b in enumerate(basis)}
    n = len(basis)
    out = [[Fraction(0)] * n for _ in range(n)]
    ad_actor = alg.ad(actor)
    for col, (subset, vpos) in enumerate(basis):
        v_index = idx[vpos]
        for a in range(5):
            for b in range(a + 1, 5):
                # [X, phi(e_a, e_b)]
                s = _apply_cochain(subset, (a, b))
                if s != 0:
                    for target in range(14):
                        c = ad_actor[target][v_index]
                        if c != 0:
                            key = ((a, b), pos_of[target])
                            if key in basis_pos:
                                out[basis_pos[key]][col] += s * c
                # -phi([X, e_a], e_b) - phi(e_a, [X, e_b])
                for m, c in alg.bracket_basis(actor, a).items():
                    s2 = _apply_cochain(subset, (m, b))
                    if s2 != 0:
                        key = ((a, b), vpos)
                        out[basis_pos[key]][col] -= s2 * c
                for m, c in alg.bracket_basis(actor, b).items():
                    s2 = _apply_cochain(subset, (a, m))
                    if s2 != 0:
                        key = ((a, b), vpos)
                        out[basis_pos[key]][col] -= s2 * c
    return out


def normalization_obstruction() -> NormalizationReport:
    """Check that no invariant complement to the parabolic image exists.

    Enumerates the lines of the full image that are invariant under the
    grade-0 part of the parabolic (two diagonal generators and one nilpotent
    generator) and verifies each lies inside the parabolic image, which is of
    codimension one.
    """
    alg, idx_g, grades_g = _coefficient_data("g")
    basis2 = _cochain_basis(idx_g, grades_g, 2, 1)
    n2 = len(basis2)

    mat_g, src_g, _ = _boundary_matrix("g", 1, 1)
    mat_q, src_q, dst_q = _boundary_matrix("q", 1, 1)
    # embed the parabolic-coefficient image into the full 2-cochain basis
    q_idx = _Q_INDICES
    dst_embed = []
    _, _, grades_q = _coefficient_data("q")
    basis2_q = _cochain_basis(q_idx, grades_q, 2, 1)
    pos_full = {b: n for n, b in enumerate(basis2)}
    for subset, vpos in basis2_q:
        dst_embed.append(pos_full[(subset, idx_g.index(q_idx[vpos]))])

    image_g = [linalg.mat_vec(mat_g, unit)
               for unit in linalg.identity(len(src_g))]
    image_q_small = [linalg.mat_vec(mat_q, unit)
                     for unit in linalg.identity(len(src_q))]
    image_q = []
    for vec in image_q_small:
        big = [Fraction(0)] * n2
        for small_pos, value in enumerate(vec):
            big[dst_embed[small_pos]] = value
        image_q.append(big)

    img_g_basis = [row for row in linalg.row_echelon(image_g)[0]
                   if any(x != 0 for x in row)]
    img_q_basis = [row for row in linalg.row_echelon(image_q)[0]
                   if any(x != 0 for x in row)]

    mat2, src2, _ = _boundary_matrix("g", 2, 1)
    kernel_dim = len(src2) - linalg.rank(mat2)

    act5 = _cochain_action_matrix(5, basis2, idx_g)
    act8 = _cochain_action_matrix(8, basis2, idx_g)
    act6 = _cochain_action_matrix(6, basis2, idx_g)
    for name, act in (("5", act5), ("8", act8)):
        for i in range(n2):
            for j in range(n2):
                if i != j and act[i][j] != 0:
                    raise AssertionError(f"action of generator {name} is not diagonal")

    weights = {}
    for col in range(n2):
        weights.setdefault((act5[col][col], act8[col][col]), []).append(col)

    ok = True
    line_weights = []
    for (w5, w8), cols in weights.items():
        # intersection of this weight space with the full image
        weight_rows = []
        for col in cols:
            unit = [Fraction(0)] * n2
            unit[col] = Fraction(1)
            weight_rows.append(unit)
        inter = linalg.intersect(img_g_basis, weight_rows)
        if not inter:
            continue
        # invariant lines additionally lie in the kernel of the nilpotent action
        images = [linalg.mat_vec(act6, v) for v in inter]
        combos = linalg.nullspace(linalg.transpose(images), n_cols=len(inter))
        for combo in combos:
            vec = [Fraction(0)] * n2
            for c, base in zip(combo, inter):
                vec = [x + c * y for x, y in zip(vec, base)]
            if all(x == 0 for x in vec):
                continue
            line_weights.append(w8)
            if not linalg.in_span(img_q_basis, vec):
                ok = False
    return NormalizationReport(
        two_cochain_dim=n2,
        image_full_dim=len(img_g_basis),
        image_parabolic_dim=len(img_q_basis),
        kernel_dim=kernel_dim,
        invariant_line_weights=line_weights,
        all_invariant_lines_in_parabolic_image=ok,
    )


# ---------------------------------------------------------------------------
# comparison with the parabolic inside the full algebra
# ---------------------------------------------------------------------------


def _ad_on_minus1(alg: LieAlgebraSC, i: int) -> Mat:
    """The grade -1 block of the adjoint action of basis element i."""
    out = [[Fraction(0)] * 4 for _ in range(4)]
    for j in range(4):
        for k, c in alg.bracket_basis(i, j + 1).items():
            if 1 <= k <= 4:
                out[k - 1][j] = c
    return out


def prolongation_matches_parabolic() -> bool:
    """The prolongation of the grade-0 Borel reproduces the 9-dim parabolic.

    Builds the prolongation of (m, span of the three grade-0 parabolic
    generators acting on m), embeds the remaining positive generator as a
    degree-1 element and verifies every graded bracket against the structure
    constants of the matrix model.
    """
    alg = commutator_table()
    m = heisenberg_from_table(alg)
    gen_ids = (5, 6, 8)
    q0 = [_ad_on_minus1(alg, i) for i in gen_ids]
    table = tanaka_prolong(q0, max_degree=3, m=m)
    if table.degree_dims != (1, 0):
        return False
    prol = table.prolongation
    pos = {g: n for n, g in enumerate(gen_ids)}

    def grade0_coords(entry: dict) -> Vec | None:
        vec = [Fraction(0)] * 3
        for k, c in entry.items():
            if k in pos:
                vec[pos[k]] += c
            elif c != 0:
                return None
        return vec

    # candidate degree-1 element from the positive parabolic generator
    candidate: Vec = []
    for j in range(4):
        col = grade0_coords(alg.bracket_basis(12, j + 1))
        if col is None:
            return False
        candidate.extend(col)
    candidate.extend(alg.bracket_basis(12, 0).get(k, Fraction(0))
                     for k in range(1, 5))
    if linalg.coordinates_in_basis(prol.bases[1], candidate) is None:
        return False

    # application of the degree-1 element reproduces [E12, m] by construction;
    # the real compatibility checks are the grade-0 brackets
    for a in gen_ids:
        for b in gen_ids:
            if a >= b:
                continue
            comm = linalg.commutator(_ad_on_minus1(alg, a), _ad_on_minus1(alg, b))
            want = grade0_coords(alg.bracket_basis(a, b))
            if want is None:
                return False
            expected = [[sum(w * _ad_on_minus1(alg, g)[r][s]
                             for w, g in zip(want, gen_ids)) for s in range(4)]
                        for r in range(4)]
            if comm != expected:
                return False

    # [grade0, degree1] computed through the prolongation must match the table
    for a in gen_ids:
        Da = _ad_on_minus1(alg, a)
        scalar_a = extend_to_derivation(m, Da).scalar
        # f'(e_j) = [v, f(e_j)] - f(Dv e_j)
        new_f: list[Vec] = []
        for j in range(4):
            f_ej = candidate[3 * j: 3 * j + 3]
            # [v, f(e_j)]: commutator of grade-0 elements, in coordinates
            Mf = [[sum(c * _ad_on_minus1(alg, g)[r][s]
                       for c, g in zip(f_ej, gen_ids)) for s in range(4)]
                  for r in range(4)]
            comm_coords = _grade0_coordinates(alg, gen_ids, linalg.commutator(Da, Mf))
            if comm_coords is None:
                return False
            column_j = list(comm_coords)
            for jj in range(4):
                if Da[jj][j] != 0:
                    f_ejj = candidate[3 * jj: 3 * jj + 3]
                    column_j = [x - Da[jj][j] * y for x, y in zip(column_j, f_ejj)]
            new_f.append(column_j)
        g_part = candidate[12:]
        new_g = [sum(Da[r][s] * g_part[s] for s in range(4)) - scalar_a * g_part[r]
                 for r in range(4)]
        got: Vec = []
        for col in new_f:
            got.extend(col)
        got.extend(new_g)
        entry = alg.bracket_basis(a, 12)
        factor = entry.get(12, Fraction(0))
        if set(entry) - {12}:
            return False
        want_vec = [factor * x for x in candidate]
        if got != want_vec:
            return False
    return True


def _grade0_coordinates(alg: LieAlgebraSC, gen_ids, matrix: Mat) -> Vec | None:
    rows = [[x for row in _ad_on_minus1(alg, g) for x in row] for g in gen_ids]
    return linalg.coordinates_in_basis(rows, [x for row in matrix for x in row])
