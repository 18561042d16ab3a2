"""Tests for the Kerr correspondence and the double fibration."""

from __future__ import annotations

import random

import pytest

from engelkit import kerr
from engelkit.engel import _j_coefficients, adapted_coframe, invariants_closed_form
from engelkit.kerr import (
    Hypersurface,
    KerrFunction,
    KerrSolveError,
    TransversalityError,
    coordinate_change_check,
    coordinate_map,
    inverse_coordinate_map,
    section_from_hypersurface,
    solve_kerr_numeric,
    verify_kerr_pair,
    y_of,
)
from engelkit.symexpr import integer, parse, symbol

POINT = {"x0": 1, "x1": 3, "x2": 1, "x3": 1, "x4": 1}


class TestBaseExpressions:
    def test_flat_marking(self):
        y = y_of(integer(0))
        x = [symbol(f"x{i}") for i in range(5)]
        assert y[0] == x[0] + x[1] * x[4]
        assert y[1] == x[1]
        assert y[2] == x[2]
        assert y[3] == x[3]

    def test_restriction_to_zero_section(self):
        # every marking-dependent term carries the last coordinate
        y = y_of(parse("x0 + x2^2"))
        restricted = [e.substitute({"x4": 0}) for e in y]
        x = [symbol(f"x{i}") for i in range(5)]
        assert restricted == [x[0], x[1], x[2], x[3]]

    def test_symbolic_marking_slot(self):
        y = y_of()
        t, x2, x4 = symbol("t"), symbol("x2"), symbol("x4")
        assert y[2] == x2 - t ** 2 * x4


class TestIntegrabilityIdentity:
    """D = (x1 + 3t x2) d0 + t^3 d1 - t^2 d2 + t d3 - d4, with t held fixed,
    annihilates every base expression, so D(F o y) = 0 for every F."""

    @staticmethod
    def D(e):
        coefficients = _j_coefficients(symbol("t"), symbol("x1"), symbol("x2"))
        return sum((c * e.partial(f"x{i}") for i, c in enumerate(coefficients)),
                   integer(0))

    def test_base_expressions_are_annihilated(self):
        assert [self.D(y) for y in y_of()] == [integer(0)] * 4

    def test_composed_function_is_annihilated(self):
        g = kerr._compose(parse("t*y2 - (s*y3 - y1)/(y0 + t^2)"))
        assert self.D(g) == integer(0)

    def test_bent_base_expression_breaks_the_identity(self):
        y0, y1, y2, y3 = y_of()
        bent = y3 + symbol("t") * symbol("x4")
        assert self.D(bent) == -symbol("t")


class TestVerifyPair:
    def test_family_with_free_parameter(self):
        rep = verify_kerr_pair(parse("t - (s*y3 - y1)/y2"),
                               parse("(x1 - s*x3)/(-x2 + s*x4)"))
        assert rep.passed

    def test_constant_section(self):
        rep = verify_kerr_pair(parse("t - c"), parse("c"))
        assert rep.passed

    def test_noninteg_marking_fails(self):
        rep = verify_kerr_pair(parse("t"), parse("x4"))
        assert not rep.passed
        assert rep.composition_residual == symbol("x4")  # t itself
        assert rep.integrability_function == integer(-1)

    def test_pass_implies_volume_identity(self):
        # equivalent formulation of integrability on the chart
        t = parse("(x1 - 2*x3)/(-x2 + 2*x4)")
        rep = verify_kerr_pair(parse("t - (2*y3 - y1)/y2"), t)
        assert rep.passed
        acf = adapted_coframe(t)
        w = acf.omega
        assert w[2].d().wedge(w[0]).wedge(w[1]).wedge(w[2]).is_zero

    def test_kerr_function_validation(self):
        with pytest.raises(ValueError):
            KerrFunction(parse("x1 + t"))


class TestNumericSolve:
    def test_cleared_family_exact_root(self):
        root = solve_kerr_numeric(parse("y2*t - (2*y3 - y1)"), POINT, guess=0.0)
        assert abs(root.t_value - 1.0) < 1e-12
        assert abs(root.f_residual) < 1e-10
        assert abs(root.j_residual) < 1e-7

    def test_uncleared_family_at_nondegenerate_point(self):
        point = {"x0": 1, "x1": 3, "x2": 1, "x3": 1, "x4": 2}
        root = solve_kerr_numeric(parse("t - (2*y3 - y1)/y2"), point, guess=0.0)
        assert abs(root.t_value - 1 / 3) < 1e-10
        assert abs(root.j_residual) < 1e-7

    def test_degenerate_point_is_detected(self):
        # at this point the root of the cleared equation collides with the
        # pole of the uncleared one, so no numeric root exists
        with pytest.raises(KerrSolveError):
            solve_kerr_numeric(parse("t - (2*y3 - y1)/y2"), POINT, guess=0.0)

    def test_constant_function_one_newton_step(self):
        root = solve_kerr_numeric(parse("t - c"),
                                  {**POINT, "c": 7}, guess=3.0)
        assert root.t_value == 7.0
        assert root.j_residual == 0.0

    def test_seeded_random_points(self):
        rng = random.Random(2025)
        F = parse("y2*t - (2*y3 - y1)")
        count = 0
        while count < 20:
            point = {f"x{i}": rng.uniform(-2, 2) for i in range(5)}
            if abs(point["x2"] - 2 * point["x4"]) <= 0.1:
                continue
            count += 1
            root = solve_kerr_numeric(F, point, guess=0.0)
            closed = (point["x1"] - 2 * point["x3"]) / (-point["x2"] + 2 * point["x4"])
            assert abs(root.f_residual) < 1e-10
            assert abs(root.j_residual) < 1e-7
            assert abs(root.t_value - closed) <= 1e-10 * max(1.0, abs(closed))

    def test_exact_derivative_matches_finite_difference(self):
        # independent cross-check oracle for the symbolic derivative
        F = parse("t - (2*y3 - y1)/y2")
        from engelkit.kerr import _compose

        g = _compose(F)
        values = {"x0": 1.0, "x1": 3.0, "x2": 1.0, "x3": 1.0, "x4": 2.0, "t": 0.2}
        h = 1e-6
        plus = dict(values, t=values["t"] + h)
        minus = dict(values, t=values["t"] - h)
        fd = (float(g.evaluate(plus)) - float(g.evaluate(minus))) / (2 * h)
        exact = float(g.partial("t").evaluate(values))
        assert abs(fd - exact) < 1e-6


class TestCoordinateChange:
    def test_all_six_forms_match(self):
        rep = coordinate_change_check()
        assert rep.forms_match == (True,) * 6

    def test_vertical_fields(self):
        rep = coordinate_change_check()
        assert rep.vertical_field_first_projection
        assert rep.vertical_field_second_projection

    def test_round_trip_identity(self):
        assert coordinate_change_check().round_trip_identity
        fwd = coordinate_map()
        bwd = inverse_coordinate_map()
        assert fwd["y5"] == symbol("x4")
        assert bwd["x5"] == symbol("y4")

    def test_overall(self):
        assert coordinate_change_check().passed


class TestSections:
    def test_constant_hypersurface(self):
        rep = section_from_hypersurface(parse("y4 - 3"),
                                        {"x0": 0, "x1": 1, "x2": 1, "x3": 1, "x4": 1},
                                        guess=2.0)
        assert all(abs(s.t_value - 3.0) < 1e-12 for s in rep.samples)
        assert rep.max_j_residual < 1e-12

    def test_cleared_family_recovered(self):
        rep = section_from_hypersurface(parse("y2*y4 - (2*y3 - y1)"), POINT,
                                        guess=0.5, seed=11)
        assert len(rep.samples) == 11
        assert rep.max_j_residual < 1e-7
        for s in rep.samples:
            closed = (s.point["x1"] - 2 * s.point["x3"]) / \
                (-s.point["x2"] + 2 * s.point["x4"])
            assert abs(s.t_value - closed) < 1e-9

    def test_free_parameter_is_carried_to_every_sample(self):
        rep = section_from_hypersurface(parse("c*y4 - 3"),
                                        {"x0": 0, "x1": 1, "x2": 1, "x3": 1, "x4": 1,
                                         "c": 3}, guess=2.0)
        assert [s.t_value for s in rep.samples] == [1.0] * 11
        assert all(s.point["c"] == 3.0 for s in rep.samples)
        assert len({s.point["x0"] for s in rep.samples}) == 11

    def test_transversality_failure(self):
        with pytest.raises(TransversalityError):
            section_from_hypersurface(parse("y1"), POINT, guess=0.0)

    def test_hypersurface_validation(self):
        with pytest.raises(ValueError):
            Hypersurface(parse("x1 - y4"))
        with pytest.raises(ValueError):
            Hypersurface(parse("7"))


class TestRoundTripWithInvariants:
    def test_family_markings_are_integrable(self):
        # marking recovered from the hypersurface has vanishing first invariant
        t = parse("(x1 - 2*x3)/(-x2 + 2*x4)")
        assert invariants_closed_form(t).J.is_zero
