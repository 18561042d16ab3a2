"""Tests for the split exceptional Lie algebra matrix model."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from engelkit import linalg
from engelkit.g2alg import (
    GRADES,
    MAURER_CARTAN,
    MAURER_CARTAN_REDUCED,
    build_basis,
    commutator_table,
    grading_and_parabolics,
    invariant_forms,
    structure_constants_table,
    verify_maurer_cartan,
)


class TestBasis:
    def test_first_basis_matrix_entry(self):
        assert build_basis()[0][0][2] == Fraction(4, 3)

    def test_fourteen_independent_matrices(self):
        rows = [[x for r in m for x in r] for m in build_basis()]
        assert len(rows) == 14
        assert linalg.rank(rows) == 14

    def test_antisymmetry_structure(self):
        # every basis matrix has zero diagonal in this presentation
        for m in build_basis():
            assert all(m[i][i] == 0 for i in range(7))


class TestCommutators:
    def test_low_commutators(self):
        alg = commutator_table()
        assert alg.bracket_basis(1, 4) == {0: Fraction(-1)}
        assert alg.bracket_basis(2, 3) == {0: Fraction(3)}

    def test_bracket_antisymmetry(self):
        alg = commutator_table()
        e1 = [Fraction(i == 3) for i in range(14)]
        assert all(x == 0 for x in alg.bracket(e1, e1))

    def test_closure(self):
        # commutator_table raises if any bracket leaves the span
        alg = commutator_table()
        assert alg.dim == 14

    def test_jacobi_all_364_triples(self):
        assert commutator_table().jacobi_violations() == []


class TestMaurerCartan:
    def test_all_fourteen_equations_match(self):
        rep = verify_maurer_cartan()
        assert rep.all_match, rep.mismatches
        assert rep.convention_sign == -1  # dtheta(X,Y) = -theta([X,Y])

    def test_first_equation_coefficients(self):
        eq = MAURER_CARTAN[0]
        assert eq == {(0, 5): -6, (1, 4): 1, (2, 3): -3}

    def test_last_equation_coefficients(self):
        eq = MAURER_CARTAN[13]
        assert eq == {(5, 13): -6, (9, 12): -6, (10, 11): 2}


class TestGrading:
    def test_grading_element_found_and_diagonal(self):
        rep = grading_and_parabolics()
        assert rep.grading_holds
        assert rep.grading_element == [Fraction(1, 3), Fraction(0)]

    def test_additivity(self):
        assert grading_and_parabolics().additivity_holds

    def test_parabolics_closed(self):
        rep = grading_and_parabolics()
        assert rep.parabolic_p2.closed
        assert rep.parabolic_p1.closed
        assert rep.borel.closed
        assert rep.parabolic_p1.indices == (0, 1, 2, 3, 4, 5, 6, 8, 12)
        assert len(rep.parabolic_p2.indices) == 9
        assert len(rep.borel.indices) == 8

    def test_reduction_reproduces_nine_equations(self):
        assert grading_and_parabolics().reduction_matches
        assert MAURER_CARTAN_REDUCED[5] == {(1, 12): -1}

    def test_negative_part_is_heisenberg(self):
        alg = commutator_table()
        # [g-1, g-1] spans g-2 with a nondegenerate skew pairing
        pairing = [[alg.bracket_basis(i, j).get(0, Fraction(0))
                    for j in range(1, 5)] for i in range(1, 5)]
        assert linalg.det(pairing) != 0
        # the center of the negative part contains the grade -2 line
        for j in range(5):
            assert alg.bracket_basis(0, j) == {}


def dense_killing_form(alg):
    """The definition tr(ad E_i ad E_j), from dense ad matrices."""
    n = alg.dim
    ads = [alg.ad(i) for i in range(n)]
    return [[sum(ads[i][k][l] * ads[j][l][k] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


class TestInvariantForms:
    def test_killing_form_is_the_trace_of_ad_products(self):
        alg = commutator_table()
        kappa = alg.killing_form()
        assert kappa == dense_killing_form(alg)
        assert all(isinstance(x, Fraction) for row in kappa for x in row)


    def test_unique_bilinear_form_with_split_signature(self):
        rep = invariant_forms()
        assert rep.bilinear_dimension == 1
        assert set(rep.bilinear_signature[:2]) == {3, 4}
        assert rep.bilinear_signature[2] == 0

    def test_killing_form(self):
        rep = invariant_forms()
        assert rep.killing_nondegenerate
        assert rep.killing_signature == (8, 6, 0)

    def test_killing_pairs_opposite_grades(self):
        assert invariant_forms().killing_grading_pairing

    def test_kappa_of_grading_element_nonzero(self):
        alg = commutator_table()
        kappa = alg.killing_form()
        z = [Fraction(0)] * 14
        z[5] = Fraction(1, 3)
        val = sum(z[i] * kappa[i][j] * z[j] for i in range(14) for j in range(14))
        assert val != 0


class TestExport:
    def test_table_round_trip(self):
        table = structure_constants_table()
        lines = [l for l in table.splitlines() if l]
        alg = commutator_table()
        expected = sum(len(v) for v in alg.constants.values())
        assert len(lines) == expected
        assert "c[0][1,4] = -1" in table
