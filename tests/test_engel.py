"""Tests for adapted coframes, invariants, classification and bundle checks."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelkit import engel
from engelkit.cli import run
from engelkit.engel import (
    AdaptedCoframe,
    BranchNotConstantError,
    InvariantJet,
    MarkedStructure,
    StructureShapeError,
    adapted_coframe,
    classify,
    classify_at,
    geometric_checks,
    invariants_closed_form,
    invariants_from_structure_equations,
    J_coordinate,
    tautological_forms,
    verify_flat_reduction,
)
from engelkit.forms import VectorField, generic_rank
from engelkit.linalg import det
from engelkit.symexpr import Expr, VarKind, integer, jet_order, parse, symbol


def random_quadratic(rng: random.Random) -> Expr:
    """Random polynomial marking of degree at most two, small coefficients."""
    names = [f"x{i}" for i in range(5)]
    e = integer(rng.randint(-2, 2))
    for _ in range(rng.randint(1, 5)):
        term = integer(rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(1, 2)):
            term = term * symbol(rng.choice(names))
        e = e + term
    return e


KERR_FAMILY = "(x1 - s*x3)/(-x2 + s*x4)"


class TestAdaptedCoframe:
    def test_flat_marking_gives_flat_coframe(self):
        acf = adapted_coframe(integer(0))
        w = acf.omega
        chart = acf.coframe.chart
        from engelkit.forms import DifferentialForm

        def dx(i):
            return DifferentialForm.differential(chart, i)

        assert w[0] == dx(0) + dx(4) * symbol("x1") - dx(3) * (3 * symbol("x2"))
        for i in range(1, 5):
            assert w[i] == dx(i)

    def test_determinant_always_one(self):
        rng = random.Random(101)
        for _ in range(5):
            acf = adapted_coframe(random_quadratic(rng))
            assert det(acf.coframe.matrix) == integer(1)

    @pytest.mark.parametrize("t", ["0", "x4", KERR_FAMILY, "x0*x1 - x2*x4"])
    def test_volume_is_the_wedge_of_the_coframe(self, t):
        acf = adapted_coframe(parse(t))
        wedge = acf.omega[0]
        for w in acf.omega[1:]:
            wedge = wedge.wedge(w)
        assert acf.volume() == wedge

    def test_marked_line_is_dual_to_last_form(self):
        t = parse("x0 - 2*x3*x4")
        acf = adapted_coframe(t)
        xi4 = acf.frame[4]
        for i in range(4):
            assert xi4.pair(acf.omega[i]).is_zero
        assert xi4.pair(acf.omega[4]) == integer(1)

    def test_one_analysis_per_coframe(self):
        acf = adapted_coframe(parse("x0 - 2*x3*x4"))
        assert adapted_coframe(acf) is acf
        assert acf.frame is acf.frame
        jet = invariants_closed_form(acf)
        assert invariants_closed_form(acf) is jet
        fresh = invariants_closed_form(acf.t)
        assert fresh is not jet
        assert all(v == fresh.main_fields()[k] for k, v in jet.main_fields().items())

    def test_contact_condition(self):
        acf = adapted_coframe(parse("x1*x4"))
        w0 = acf.omega[0]
        assert not w0.d().wedge(w0.d()).wedge(w0).is_zero

    def test_marking_validation(self):
        with pytest.raises(ValueError):
            MarkedStructure(symbol("x5"))
        with pytest.raises(ValueError):
            MarkedStructure(symbol("t_x1"))
        with pytest.raises(ValueError):
            MarkedStructure(symbol("s4"))


class TestClosedFormInvariants:
    def test_flat(self):
        inv = invariants_closed_form(integer(0))
        assert all(v.is_zero for v in inv.main_fields().values())

    def test_jet_is_the_ten_structure_functions(self):
        names = [f.name for f in dataclasses.fields(InvariantJet)]
        assert names == ["a", "b", "c", "J", "L", "M", "P", "Q", "R", "S"]
        assert list(invariants_closed_form(parse("x4")).main_fields()) == names

    def test_six_frame_derivatives_per_jet(self, monkeypatch):
        # df for t and for each of its five frame derivatives, nothing else
        from engelkit import engel

        calls = []
        frame_derivatives = engel._frame_derivatives

        def counting(cof, f):
            calls.append(f)
            return frame_derivatives(cof, f)

        monkeypatch.setattr(engel, "_frame_derivatives", counting)
        acf = adapted_coframe(parse("x1*x4 + x3^2"))
        invariants_closed_form(acf)
        invariants_closed_form(acf)
        assert len(calls) == 6

    def test_kerr_family_is_integrable(self):
        inv = invariants_closed_form(parse(KERR_FAMILY))
        assert inv.J.is_zero

    def test_linear_marking(self):
        inv = invariants_closed_form(parse("x4"))
        assert inv.J == integer(-1)

    def test_m_minus_p_identity(self):
        # M - P = 4 t_w0 - (t_w2)^2 + 4 t_w1 t_w3 for every marking
        rng = random.Random(55)
        for _ in range(6):
            t = random_quadratic(rng)
            acf = adapted_coframe(t)
            from engelkit.engel import _frame_derivatives

            tw = _frame_derivatives(acf.coframe, acf.t)
            inv = invariants_closed_form(t)
            assert inv.M - inv.P == 4 * tw[0] - tw[2] ** 2 + 4 * tw[1] * tw[3]

    def test_j_is_minus_frame_derivative(self):
        rng = random.Random(56)
        for _ in range(6):
            t = random_quadratic(rng)
            acf = adapted_coframe(t)
            inv = invariants_closed_form(t)
            assert inv.J == -acf.frame[4].apply(acf.t)


_quadratic_terms = st.lists(
    st.tuples(st.sampled_from([-2, -1, 1, 2]), st.integers(0, 4),
              st.none() | st.integers(0, 4)),
    min_size=1, max_size=4)


@st.composite
def markings(draw):
    """A polynomial marking of degree at most two, or a Kerr-family marking."""
    if draw(st.booleans()):
        s = draw(st.integers(-4, 4).filter(bool))
        return parse(KERR_FAMILY).substitute({"s": s})
    t = integer(draw(st.integers(-2, 2)))
    for coeff, i, j in draw(_quadratic_terms):
        term = coeff * symbol(f"x{i}")
        t = t + (term if j is None else term * symbol(f"x{j}"))
    return t


@settings(max_examples=6, deadline=None)
@given(markings(), st.sampled_from(["x0", "x3", "x4"]),
       st.integers(-3, 3).filter(bool))
def test_invariants_commute_with_translations(t, coordinate, shift):
    # the adapted coframe only sees x1, x2 and t, so translating x0, x3 or x4
    # in the marking translates every invariant alike
    move = {coordinate: symbol(coordinate) + shift}
    moved = invariants_closed_form(t.substitute(move)).main_fields()
    for name, value in invariants_closed_form(t).main_fields().items():
        assert moved[name] == value.substitute(move), name


class TestJCoordinate:
    def test_x3_marking(self):
        assert J_coordinate(parse("x3")) == symbol("x3")

    def test_x4_marking(self):
        assert J_coordinate(parse("x4")) == integer(-1)

    def test_agrees_with_closed_form(self):
        rng = random.Random(77)
        for _ in range(8):
            t = random_quadratic(rng)
            assert J_coordinate(t) == invariants_closed_form(t).J


class TestStructureEquationRoute:
    def test_flat(self):
        inv = invariants_from_structure_equations(integer(0))
        assert all(v.is_zero for v in inv.main_fields().values())

    def test_agrees_with_closed_form_on_seeded_markings(self):
        rng = random.Random(4242)
        for _ in range(6):
            t = random_quadratic(rng)
            a = invariants_closed_form(t)
            b = invariants_from_structure_equations(t)
            for name, value in a.main_fields().items():
                assert value == getattr(b, name), name

    def test_agrees_on_rational_marking(self):
        t = parse(KERR_FAMILY)
        a = invariants_closed_form(t)
        b = invariants_from_structure_equations(t)
        for name, value in a.main_fields().items():
            assert value == getattr(b, name), name

    def test_b2_coefficient_combination(self):
        # coefficient of w0^w4 in dw3 is (b^2 - 4ac + M - P)/4
        rng = random.Random(4343)
        t = random_quadratic(rng)
        acf = adapted_coframe(t)
        inv = invariants_closed_form(t)
        coeffs = acf.coframe.expand_two_form(acf.omega[3].d())
        expected = (inv.b ** 2 - 4 * inv.a * inv.c + inv.M - inv.P) / 4
        assert coeffs.get((0, 4), integer(0)) == expected


class TestClassify:
    def test_flat(self):
        label = classify(integer(0))
        assert label.leaf == "flat"
        assert label.symmetry_dimension == 9

    def test_linear_marking_lands_in_first_branch(self):
        label = classify(parse("x4"))
        assert label.leaf == "J-nonzero"
        assert label.symmetry_dimension == 6
        assert "6-dimensional" in label.annotation

    def test_branch_not_constant(self):
        with pytest.raises(BranchNotConstantError):
            classify(parse("x3"))

    def test_pointwise_classification(self):
        label = classify_at(parse("x3"), {"x0": 0, "x1": 0, "x2": 0, "x3": 2, "x4": 0})
        assert label.path[0] == ("J", "nonzero")

    def test_kerr_family_is_integrable_branch(self):
        label = classify(parse(KERR_FAMILY))
        assert label.path[0] == ("J", "zero")

    def test_constant_marking_is_flat(self):
        label = classify(parse("5"))
        assert label.leaf == "flat"


class TestGeometricChecks:
    def test_flat(self):
        rep = geometric_checks(integer(0))
        assert rep.j_is_zero and rep.tangent_plane_integrable
        assert rep.m_minus_p_is_zero and rep.null_plane_integrable
        assert rep.all_consistent()

    def test_linear_marking(self):
        rep = geometric_checks(parse("x4"))
        assert not rep.j_is_zero
        assert rep.growth == (2, 3, 5)
        assert rep.osculating_derived_rank == 5
        assert rep.marked_line_type in (3, 4)
        assert rep.all_consistent()

    def test_kerr_family(self):
        rep = geometric_checks(parse(KERR_FAMILY))
        assert rep.j_is_zero and rep.tangent_plane_integrable
        assert rep.osculating_derived_rank == 4
        assert rep.marked_line_type == 2
        assert rep.all_consistent()

    @pytest.mark.parametrize("marking", [
        parse(KERR_FAMILY).substitute({"s": Fraction(3, 2)}),
        parse(KERR_FAMILY).substitute({"s": Fraction(11, 3)}),
        parse(KERR_FAMILY).substitute({"s": -5}),
        parse("-7/2"),
    ], ids=["kerr-3/2", "kerr-11/3", "kerr-minus-5", "constant"])
    def test_integrable_seeds(self, marking):
        rep = geometric_checks(marking)
        assert rep.j_is_zero
        assert rep.growth == (2, 2, 2)
        assert rep.osculating_derived_rank == 4
        assert rep.marked_line_type == 2
        assert rep.all_consistent()

    def test_seeded_markings_consistent(self):
        rng = random.Random(987)
        for _ in range(5):
            rep = geometric_checks(random_quadratic(rng))
            assert rep.all_consistent()

    def test_volume_identity_is_exact(self):
        t = parse("x0*x1 - x2*x4")
        rep = geometric_checks(t)
        assert rep.volume_identity_holds
        # the generic theorem, specialised: it holds on the marking's own forms
        acf = adapted_coframe(t)
        lhs, rhs = engel._volume_sides(acf, acf.J)
        assert lhs == rhs and not lhs.is_zero

    def test_weyl_identity(self):
        rng = random.Random(988)
        t = random_quadratic(rng)
        rep = geometric_checks(t)
        assert rep.weyl_identity_holds
        acf = adapted_coframe(t)
        assert engel._weyl_identity_holds(acf, acf.J)
        assert not engel._weyl_identity_holds(acf, acf.J + 1)


class TestGenericProof:
    """The generic proof, its hypotheses, and that it can fail."""

    @pytest.fixture(autouse=True)
    def fresh_proof(self):
        engel._generic_identities.cache_clear()
        yield
        engel._generic_identities.cache_clear()

    @staticmethod
    def jet_free(e: Expr) -> bool:
        return all(v.kind is not VarKind.JET for v in e.occurring_vars())

    @staticmethod
    def failed_geometry(t: str) -> dict:
        code, report = run(["geometry", "--t", t])
        assert code == 1 and report.status == "verification-failed"
        assert report.results["consistent"] is False
        return report.results

    def test_the_proof_holds(self):
        assert engel._generic_identities() == (True, True)

    def test_a_bent_connection_identity_fails(self, monkeypatch):
        # xi4 = -t^3 X1 + t^2 X2 - 2t X3 + X4: the recombination misses xi4
        monkeypatch.setattr(engel, "_line_in_flat_frame",
                            lambda t: [integer(0), -t ** 3, t ** 2, -2 * t, integer(1)])
        results = self.failed_geometry("x3")
        assert results["connection_identity"] is False
        assert results["volume_identity"] is True

    def test_a_bent_volume_identity_fails(self, monkeypatch):
        # the right-hand side becomes 3 J vol
        volume = AdaptedCoframe.volume
        monkeypatch.setattr(AdaptedCoframe, "volume",
                            lambda acf: volume(acf) * Fraction(3, 2))
        results = self.failed_geometry("x3")
        assert results["volume_identity"] is False
        assert results["connection_identity"] is True

    def test_generic_marking_is_the_jet_symbol(self):
        acf = AdaptedCoframe.generic()
        assert acf.t == symbol("t") and acf.t.occurring_vars()[0].kind is VarKind.JET

    def test_determinant_is_one(self):
        assert AdaptedCoframe.generic().coframe.det == 1

    def test_no_denominator_holds_a_jet_symbol(self):
        acf = AdaptedCoframe.generic()
        J = acf.J
        exprs = [c for X in acf.frame for c in X.comps] + [J]
        lhs, rhs = engel._volume_sides(acf, J)
        exprs += list(lhs.comps.values()) + list(rhs.comps.values())
        for left, right in engel._weyl_sides(acf, J):
            exprs += list(left.comps) + list(right.comps)
        assert all(self.jet_free(e.denominator()) for e in exprs)
        # only first-order jets enter, and J holds them
        assert {jet_order(v.name) for e in exprs for v in e.occurring_vars()
                if v.kind is VarKind.JET} == {0, 1}
        assert not self.jet_free(J)

    def test_markings_still_reject_jet_symbols(self):
        with pytest.raises(ValueError):
            MarkedStructure(symbol("t"))
        with pytest.raises(ValueError):
            adapted_coframe(symbol("t"))


class TestTautologicalForms:
    def test_flat(self):
        rep = tautological_forms(integer(0))
        assert rep.all_hold()

    def test_linear_marking(self):
        rep = tautological_forms(parse("x4"))
        assert rep.all_hold()

    def test_seeded_quadratic(self):
        rng = random.Random(321)
        rep = tautological_forms(random_quadratic(rng))
        assert rep.all_hold()

    @pytest.mark.parametrize("t", ["2*x1*x2 + x3", "(x1 - 3*x3)/(-x2 + 3*x4)"],
                             ids=["J != 0", "Kerr J = 0"])
    def test_each_form_is_homogeneous(self, t):
        # delta -> l delta, s5 -> m s5, s7 -> (l/m) s7, s4 -> (l/m)^3 s4
        # scales theta0..theta4 by l^3, m^3, l m, l^2/m, l^3/m^3
        l, m = symbol("l"), symbol("m")
        delta, s4, s5, s7 = (symbol(n) for n in ("delta", "s4", "s5", "s7"))
        scale = {"delta": l * delta, "s5": m * s5, "s7": l / m * s7,
                 "s4": (l / m) ** 3 * s4}
        factors = [l ** 3, m ** 3, l * m, l ** 2 / m, l ** 3 / m ** 3]
        for form, factor in zip(tautological_forms(parse(t)).theta, factors):
            assert form.comps
            for c in form.comps.values():
                assert c.substitute(scale) == factor * c


class TestFlatReduction:
    def test_all_nine_equations_close(self):
        rep = verify_flat_reduction()
        assert rep.all_zero(), rep.failures()

    def test_solved_u3_vanishes_at_flat_marking(self):
        rep = verify_flat_reduction()
        assert rep.u3_solved.is_zero

    def test_printed_u3_formula_disagrees(self):
        # the published closed form for u3 keeps a pure s4^2 term that fails
        # its own defining equation; the solver exposes the disagreement
        rep = verify_flat_reduction()
        assert not rep.u3_matches_printed_formula
        s4, s5, delta = symbol("s4"), symbol("s5"), symbol("delta")
        assert rep.u3_printed == -(s4 ** 2) * s5 ** 3 / delta ** 9
