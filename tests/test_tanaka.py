"""Tests for prolongation and cohomology linear algebra."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from engelkit import linalg
from engelkit.cubicalg import rho_prime
from engelkit.tanaka import (
    _boundary_matrix,
    _Prolongation,
    cochain_dims,
    cohomology_dim,
    extend_to_derivation,
    graded_derivations,
    heisenberg_from_table,
    normalization_obstruction,
    prolongation_matches_parabolic,
    tanaka_prolong,
)

GL2 = [rho_prime([[1, 0], [0, 0]]), rho_prime([[0, 1], [0, 0]]),
       rho_prime([[0, 0], [1, 0]]), rho_prime([[0, 0], [0, 1]])]
BOREL = [rho_prime([[1, 0], [0, 0]]), rho_prime([[0, 1], [0, 0]]),
         rho_prime([[0, 0], [0, 1]])]


class TestNilpotentPart:
    def test_pairing_nondegenerate(self):
        assert heisenberg_from_table().nondegenerate()

    def test_derivation_extension_scalar(self):
        m = heisenberg_from_table()
        # the grading element direction: -3 id on degree -1, -6 on the center
        minus3 = [[Fraction(-3) if i == j else Fraction(0) for j in range(4)]
                  for i in range(4)]
        assert extend_to_derivation(m, minus3).scalar == -6

    def test_non_derivation_rejected(self):
        m = heisenberg_from_table()
        bad = [[Fraction(1), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(ValueError):
            extend_to_derivation(m, bad)

    def test_graded_derivations_dimension(self):
        assert len(graded_derivations(heisenberg_from_table())) == 11

    def test_extension_recovers_each_derivation_scalar(self):
        m = heisenberg_from_table()
        for pair in graded_derivations(m):
            assert extend_to_derivation(m, pair.matrix) == pair


class TestProlongation:
    def test_irreducible_gl2_reproduces_full_algebra_dims(self):
        table = tanaka_prolong(GL2)
        assert table.degree_dims == (4, 1, 0)
        assert table.total_dimension == 14
        assert table.terminated
        # grading component dims 1, 4, 4, 4, 1 of the full algebra
        assert (1, 4, table.g0_dim) + table.degree_dims[:2] == (1, 4, 4, 4, 1)

    @pytest.mark.parametrize("g0", [GL2, BOREL], ids=["gl2", "borel"])
    def test_each_bracket_is_computed_once(self, g0, monkeypatch):
        calls = []
        apply = _Prolongation.apply

        def counting(self, level, coords, arg_level, arg):
            calls.append((level, tuple(coords), arg_level, tuple(arg)))
            return apply(self, level, coords, arg_level, arg)

        monkeypatch.setattr(_Prolongation, "apply", counting)
        tanaka_prolong(g0)
        assert calls and len(calls) == len(set(calls))

    def test_borel_reproduces_parabolic_dims(self):
        table = tanaka_prolong(BOREL)
        assert table.degree_dims == (1, 0)
        assert table.total_dimension == 9

    def test_full_derivations_give_contact_algebra_dims(self):
        # independent oracle: graded component k of the contact algebra has
        # dimension = #monomials of weighted degree k+2 in four weight-1
        # variables and one weight-2 variable
        def weighted_dim(degree):
            return sum(comb(b + 3, 3)
                       for a in range(degree // 2 + 1) for b in [degree - 2 * a])

        assert weighted_dim(2) == 11  # sanity: the grade-0 part itself
        ders = graded_derivations(heisenberg_from_table())
        mats = [[list(r) for r in d.matrix] for d in ders]
        table = tanaka_prolong(mats, max_degree=2)
        assert table.degree_dims == (weighted_dim(3), weighted_dim(4)) == (24, 46)
        assert not table.terminated  # the contact algebra is infinite-dimensional

    def test_non_closed_input_rejected(self):
        pair = [rho_prime([[0, 1], [0, 0]]), rho_prime([[0, 0], [1, 0]])]
        with pytest.raises(ValueError):
            tanaka_prolong(pair)


class TestCohomology:
    def test_first_cohomology_vanishes_in_positive_homogeneity(self):
        for l in (1, 2, 3, 4):
            assert cohomology_dim("g", 1, l) == 0

    def test_second_cohomology_full_coefficients(self):
        assert cohomology_dim("g", 2, 1) == 8

    def test_second_cohomology_parabolic_coefficients(self):
        assert cohomology_dim("q", 2, 1) == 9

    def test_two_cochain_dimensions(self):
        assert cochain_dims("g", 2, 1) == 28
        assert cochain_dims("q", 2, 1) == 28
        assert cochain_dims("g", 1, 1) == 20
        assert cochain_dims("q", 1, 1) == 16

    def test_battery_ranks_each_boundary_matrix_once(self, monkeypatch):
        from engelkit import tanaka
        from engelkit.cli import run

        built = []
        boundary = tanaka._boundary_matrix

        def counting(coefficients, q, homogeneity):
            built.append((coefficients, q, homogeneity))
            return boundary(coefficients, q, homogeneity)

        monkeypatch.setattr(tanaka, "_boundary_matrix", counting)
        code, report = run(["tanaka", "cohomology"])
        assert code == 0 and report.results["pass"] is True
        assert len(built) == len(set(built)) == 11

    def test_boundary_squares_to_zero(self):
        for coeffs in ("g", "q"):
            for l in (1, 2):
                m1, src1, _ = _boundary_matrix(coeffs, 1, l)
                m2, src2, _ = _boundary_matrix(coeffs, 2, l)
                if not src1 or not src2:
                    continue
                prod = linalg.mat_mul(m2, m1)
                assert all(x == 0 for row in prod for x in row)


class TestNormalization:
    def test_image_dimensions(self):
        rep = normalization_obstruction()
        assert rep.two_cochain_dim == 28
        assert rep.image_full_dim == 16
        assert rep.image_parabolic_dim == 15
        assert rep.kernel_dim == 24

    def test_every_invariant_line_is_inside_the_parabolic_image(self):
        rep = normalization_obstruction()
        # one line per irreducible summand of the full image
        assert len(rep.invariant_line_weights) == 4
        assert rep.all_invariant_lines_in_parabolic_image


class TestParabolicComparison:
    def test_prolongation_matches_parabolic_subalgebra(self):
        assert prolongation_matches_parabolic()
