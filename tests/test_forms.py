"""Tests for exterior calculus on coordinate charts."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelkit import jets, linalg
from engelkit.forms import (
    Chart,
    CoframeChart,
    DifferentialForm,
    FormError,
    VectorField,
    certified_rank,
    distribution_growth,
    generic_rank,
    interior_product,
    lie_bracket,
    lie_derivative,
    type_of,
)
from engelkit.symexpr import Expr, integer, parse, symbol

X5 = Chart(("x0", "x1", "x2", "x3", "x4"))


def d_(i):
    return DifferentialForm.differential(X5, i)


def sym(name):
    return symbol(name)


def contact_form():
    # dx0 + x1 dx4 - 3 x2 dx3
    return d_(0) + d_(4) * sym("x1") - d_(3) * (3 * sym("x2"))


def coframe_forms(t: Expr) -> list[DifferentialForm]:
    """The adapted coframe attached to a marking function."""
    w0 = contact_form()
    w1 = d_(1) + d_(2) * (3 * t) + d_(3) * (3 * t * t) + d_(4) * t ** 3
    w2 = d_(2) + d_(3) * (2 * t) + d_(4) * t ** 2
    w3 = d_(3) + d_(4) * t
    w4 = d_(4)
    return [w0, w1, w2, w3, w4]


def reconstruct_one_form(cof: CoframeChart, coeffs) -> DifferentialForm:
    """sum_i coeffs[i] w_i, the inverse of ``expand_one_form``."""
    result = DifferentialForm.zero(cof.chart, 1)
    for c, f in zip(coeffs, cof.forms):
        result = result + f * c
    return result


def reconstruct_two_form(cof: CoframeChart, coeffs) -> DifferentialForm:
    """sum_{i<j} coeffs[i, j] w_i ^ w_j, the inverse of ``expand_two_form``."""
    result = DifferentialForm.zero(cof.chart, 2)
    for (i, j), c in coeffs.items():
        result = result + cof.forms[i].wedge(cof.forms[j]) * c
    return result


def dt_form(t: Expr) -> DifferentialForm:
    out = DifferentialForm.zero(X5, 1)
    for i in range(5):
        out = out + d_(i) * t.diff(f"x{i}")
    return out


def random_poly(rng, names, max_terms=4, max_deg=2):
    e = integer(0)
    for _ in range(rng.randint(1, max_terms)):
        term = integer(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            term = term * sym(rng.choice(names))
        e = e + term
    return e


def random_one_form(rng, names):
    return sum((d_(i) * random_poly(rng, names) for i in range(5)),
               DifferentialForm.zero(X5, 1))


def random_field(rng, names):
    return VectorField(X5, [random_poly(rng, names) for _ in range(5)])


class TestExteriorDerivative:
    def test_contact_form_differential(self):
        dw0 = contact_form().d()
        expected = d_(1).wedge(d_(4)) - d_(2).wedge(d_(3)) * 3
        assert dw0 == expected

    def test_d_squared_zero_on_scalar(self):
        f = sym("x0") * sym("x1") ** 2
        df = DifferentialForm.scalar(X5, f).d()
        assert df.d().is_zero

    def test_coframe_two_differential(self):
        # the middle coframe form differentiates to 2 dt ∧ w3
        t = parse("x0*x4 + x2^2")
        w = coframe_forms(t)
        assert w[2].d() == dt_form(t).wedge(w[3]) * 2
        assert w[1].d() == dt_form(t).wedge(w[2]) * 3
        assert w[3].d() == dt_form(t).wedge(w[4])

    def test_d_squared_zero_property(self):
        rng = random.Random(31)
        names = ["x0", "x1", "x2", "x3", "x4"]
        for _ in range(8):
            alpha = random_one_form(rng, names)
            assert alpha.d().d().is_zero

    def test_leibniz_over_wedge(self):
        rng = random.Random(13)
        names = ["x0", "x1", "x2", "x3", "x4"]
        for _ in range(5):
            a = random_one_form(rng, names)
            b = random_one_form(rng, names)
            lhs = a.wedge(b).d()
            rhs = a.d().wedge(b) - a.wedge(b.d())
            assert lhs == rhs


class TestWedge:
    def test_graded_anticommutativity(self):
        rng = random.Random(3)
        names = ["x0", "x1", "x2"]
        for _ in range(5):
            a = random_one_form(rng, names)
            b = random_one_form(rng, names)
            assert a.wedge(b) == -(b.wedge(a))
            two = a.wedge(b)
            c = random_one_form(rng, names)
            assert two.wedge(c) == c.wedge(two)  # even*odd commutes

    def test_repeated_factor_vanishes(self):
        a = d_(0) + d_(1) * sym("x2")
        assert a.wedge(a).is_zero


class TestBrackets:
    def test_frame_commutators(self):
        X1 = VectorField.coordinate(X5, 1)
        X4 = VectorField(X5, [-sym("x1"), 0, 0, 0, 1])
        assert lie_bracket(X1, X4) == -VectorField.coordinate(X5, 0)
        X2 = VectorField.coordinate(X5, 2)
        X3 = VectorField(X5, [3 * sym("x2"), 0, 0, 1, 0])
        assert lie_bracket(X2, X3) == VectorField.coordinate(X5, 0) * 3

    def test_antisymmetry(self):
        rng = random.Random(17)
        X = random_field(rng, ["x0", "x1", "x4"])
        assert lie_bracket(X, X).is_zero

    def test_jacobi_identity(self):
        rng = random.Random(19)
        names = ["x0", "x1", "x2", "x3", "x4"]
        for _ in range(4):
            X, Y, Z = (random_field(rng, names) for _ in range(3))
            total = (lie_bracket(X, lie_bracket(Y, Z))
                     + lie_bracket(Y, lie_bracket(Z, X))
                     + lie_bracket(Z, lie_bracket(X, Y)))
            assert total.is_zero

    def test_pairing_df_x(self):
        rng = random.Random(23)
        f = random_poly(rng, ["x0", "x1", "x3"])
        X = random_field(rng, ["x0", "x2", "x4"])
        df = DifferentialForm.scalar(X5, f).d()
        assert X.pair(df) == X.apply(f)

    def test_dtheta_structure_identity(self):
        # dθ(X,Y) = X·θ(Y) − Y·θ(X) − θ([X,Y]) fixes the sign convention
        rng = random.Random(29)
        names = ["x0", "x1", "x2", "x3", "x4"]
        for _ in range(4):
            theta = random_one_form(rng, names)
            X = random_field(rng, names)
            Y = random_field(rng, names)
            dtheta = theta.d()
            lhs = Y.pair(dtheta.interior(X))
            rhs = X.apply(Y.pair(theta)) - Y.apply(X.pair(theta)) \
                - lie_bracket(X, Y).pair(theta)
            assert lhs == rhs


class TestCoframe:
    def test_expansion_reconstruction_degree_one(self):
        t = parse("x3")
        cof = CoframeChart(X5, coframe_forms(t))
        alpha = dt_form(t)
        coeffs = cof.expand_one_form(alpha)
        assert reconstruct_one_form(cof, coeffs) == alpha

    def test_expand_contact_differential(self):
        t = parse("x0 + x1*x4")
        cof = CoframeChart(X5, coframe_forms(t))
        coeffs = cof.expand_two_form(cof.forms[0].d())
        assert coeffs == {(1, 4): integer(1), (2, 3): integer(-3)}

    def test_expand_dx4(self):
        t = parse("x1^2 - x3")
        cof = CoframeChart(X5, coframe_forms(t))
        coeffs = cof.expand_one_form(d_(4))
        assert coeffs[4] == integer(1)
        assert all(c.is_zero for c in coeffs[:4])

    def test_expansion_reconstruction_degree_two(self):
        rng = random.Random(37)
        t = random_poly(rng, ["x0", "x1", "x2", "x3", "x4"])
        cof = CoframeChart(X5, coframe_forms(t))
        alpha = random_one_form(rng, ["x0", "x2", "x4"]).wedge(
            random_one_form(rng, ["x1", "x3"]))
        coeffs = cof.expand_two_form(alpha)
        assert reconstruct_two_form(cof, coeffs) == alpha

    def test_duality(self):
        t = parse("x0*x2 - 2*x4")
        cof = CoframeChart(X5, coframe_forms(t))
        frame = cof.dual_frame()
        for i, w in enumerate(cof.forms):
            for j, xi in enumerate(frame):
                assert xi.pair(w) == integer(1 if i == j else 0)

    def test_singular_coframe_rejected(self):
        forms = [d_(0), d_(1), d_(2), d_(3), d_(3)]
        with pytest.raises(FormError):
            CoframeChart(X5, forms)


class TestRankAndGrowth:
    def test_proportional_fields(self):
        X = VectorField.coordinate(X5, 0)
        Y = X * sym("x1")
        assert generic_rank([X, Y]) == 1

    def test_growth_235_for_linear_marking(self):
        t = parse("x4")
        cof = CoframeChart(X5, coframe_forms(t))
        frame = cof.dual_frame()
        assert distribution_growth([frame[3], frame[4]]) == (2, 3, 5)

    def test_growth_integrable_for_flat_marking(self):
        t = integer(0)
        cof = CoframeChart(X5, coframe_forms(t))
        frame = cof.dual_frame()
        assert distribution_growth([frame[3], frame[4]]) == (2, 2, 2)


def unpruned_growth(fields, depth=3):
    """Growth by bracketing every generator with every field of the last step."""
    current = list(fields)
    growth = [linalg.rank([list(X.comps) for X in current])]
    for _ in range(depth - 1):
        current = current + [lie_bracket(X, Y) for X in fields for Y in current]
        growth.append(linalg.rank([list(X.comps) for X in current]))
    return tuple(growth)


class TestPrunedGrowth:
    def engel_fields(self):
        # the Engel distribution: growth (2, 3, 4)
        X = VectorField.coordinate(X5, 3)
        Y = VectorField(X5, [sym("x1"), sym("x3"), 1, 0, 0])
        return [X, Y]

    def test_engel_distribution(self):
        fields = self.engel_fields()
        assert distribution_growth(fields) == (2, 3, 4) == unpruned_growth(fields)

    def test_commuting_fields_stay_put(self):
        fields = [VectorField.coordinate(X5, 0), VectorField.coordinate(X5, 1)]
        assert distribution_growth(fields) == (2, 2, 2) == unpruned_growth(fields)

    def test_stalls_after_the_first_bracket(self):
        # [X, Y] = d/dx2 commutes with both generators
        fields = [VectorField.coordinate(X5, 0),
                  VectorField(X5, [0, 1, sym("x0"), 0, 0])]
        assert distribution_growth(fields) == (2, 3, 3) == unpruned_growth(fields)

    def test_linear_marking_frame(self):
        frame = CoframeChart(X5, coframe_forms(parse("x4"))).dual_frame()
        fields = [frame[3], frame[4]]
        assert distribution_growth(fields) == unpruned_growth(fields)

    def test_depths(self):
        fields = self.engel_fields()
        assert distribution_growth(fields, depth=1) == (2,)
        assert distribution_growth(fields, depth=2) == (2, 3)
        flat = [VectorField.coordinate(X5, 0), VectorField.coordinate(X5, 1)]
        assert distribution_growth(flat, depth=2) == (2, 2)


class TestCertifiedRank:
    @pytest.fixture
    def symbolic_calls(self, monkeypatch):
        """Records each call of linalg.rank on a matrix of expressions."""
        calls = []
        rank = linalg.rank

        def spy(rows):
            if rows and isinstance(rows[0][0], Expr):
                calls.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(linalg, "rank", spy)
        return calls

    def test_full_rank_is_certified_at_a_point(self, symbolic_calls):
        rows = [[sym("x1"), sym("x2") ** 2, integer(1)],
                [integer(1) / (sym("x1") + sym("x2")), sym("x1") * sym("x2"), sym("x2")]]
        assert certified_rank(rows) == 2
        assert symbolic_calls == []

    def test_rank_deficient_falls_back_to_elimination(self, symbolic_calls):
        x1 = sym("x1")
        rows = [[x1, x1 ** 2], [integer(1), x1]]
        assert certified_rank(rows) == 1
        assert symbolic_calls == [2]

    def test_free_parameters_get_values(self, symbolic_calls):
        rows = [[sym("s"), sym("x1")], [integer(1), sym("s") * sym("x4")]]
        assert certified_rank(rows) == 2
        assert symbolic_calls == []

    def test_pole_at_the_point_falls_back(self, symbolic_calls):
        x1 = sym("x1")
        pole = integer(1) / (x1 - jets.point_value("x1"))
        rows = [[pole, pole * x1], [integer(1), x1]]
        assert certified_rank(rows) == 1
        assert symbolic_calls == [2]

    @pytest.mark.parametrize("build,rank", [
        (lambda x1, x2, v: [[x1, x2 ** 2, integer(1)],
                            [integer(1) / (x1 + x2), x1 * x2, x2]], 2),
        (lambda x1, x2, v: [[x1, x1 ** 2], [integer(1), x1]], 1),
        # full over Q(x), but x1 - v vanishes at the point
        (lambda x1, x2, v: [[x1 - v, integer(0)], [integer(0), integer(1)]], 2),
    ], ids=["full", "deficient", "full-off-the-point"])
    def test_expressions_and_their_jets_get_the_same_point_decision(
            self, symbolic_calls, build, rank):
        rows = build(sym("x1"), sym("x2"), jets.point_value("x1"))
        point = {name: jets.point_value(name) for name in X5.names}
        jet_rows = [[jets.Jet.from_expr(e, X5.names, point) for e in row] for row in rows]
        assert certified_rank(rows) == rank
        decided_at_the_point = symbolic_calls == []
        assert certified_rank(jet_rows) == (rank if decided_at_the_point else None)

    def test_empty_matrix(self):
        assert certified_rank([]) == 0


def _low_degree(coeffs):
    """Polynomial in x1, x2 of degree at most two from six coefficients."""
    x1, x2 = sym("x1"), sym("x2")
    monomials = [integer(1), x1, x2, x1 * x1, x1 * x2, x2 * x2]
    return sum((integer(c) * m for c, m in zip(coeffs, monomials)), integer(0))


_coefficients = st.lists(st.integers(-3, 3), min_size=6, max_size=6)


@st.composite
def rational_entries(draw):
    num = _low_degree(draw(_coefficients))
    den = _low_degree(draw(_coefficients)[:3])  # degree at most one
    return num / den if not den.is_zero else num


@st.composite
def rational_matrices(draw):
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 3))
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.booleans()):
            # a combination of earlier rows with rational-function coefficients
            row = [integer(0)] * n_cols
            for earlier in rows:
                coeff = draw(rational_entries())
                row = [a + coeff * b for a, b in zip(row, earlier)]
        else:
            row = [draw(rational_entries()) for _ in range(n_cols)]
        rows.append(row)
    return rows


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_certified_rank_matches_elimination(rows):
    assert certified_rank(rows) == linalg.rank(rows)


class TestLieDerivativeAndType:
    def test_cartan_formula_against_component_oracle(self):
        # oracle: (L_X α)_k = Σ_j X^j ∂_j α_k + α_j ∂_k X^j
        rng = random.Random(41)
        names = ["x0", "x1", "x2", "x3", "x4"]
        for _ in range(4):
            alpha = random_one_form(rng, names)
            X = random_field(rng, names)
            lie = lie_derivative(X, alpha)
            for k in range(5):
                expected = X.apply(alpha.coefficient((k,)))
                for j in range(5):
                    expected = expected + alpha.coefficient((j,)) * X5.derive(X.comps[j], k)
                assert lie.coefficient((k,)) == expected

    def test_one_form_lie_derivative_matches_cartan_formula(self):
        # the componentwise formula against L_X = d∘ι_X + ι_X∘d
        rng = random.Random(43)
        names = ["x0", "x1", "x2", "x3", "x4"]
        for _ in range(4):
            alpha = random_one_form(rng, names)
            X = random_field(rng, names)
            assert lie_derivative(X, alpha) == alpha.interior(X).d() + alpha.d().interior(X)
        assert lie_derivative(X, DifferentialForm.zero(X5, 1)).is_zero

    def test_type_two_for_integrable_marking(self):
        t = parse("(x1 - 2*x3)/(-x2 + 2*x4)")
        cof = CoframeChart(X5, coframe_forms(t))
        xi4 = cof.dual_frame()[4]
        assert type_of(xi4, cof.forms[0]) == 2

    def test_type_not_two_for_linear_marking(self):
        t = parse("x4")
        cof = CoframeChart(X5, coframe_forms(t))
        xi4 = cof.dual_frame()[4]
        assert type_of(xi4, cof.forms[0]) in (3, 4)

    def test_type_requires_kernel_field(self):
        X = VectorField.coordinate(X5, 0)
        with pytest.raises(FormError):
            type_of(X, contact_form())

    def test_interior_product_two_form(self):
        a = d_(0).wedge(d_(1))
        X = VectorField(X5, [sym("x2"), 1, 0, 0, 0])
        got = interior_product(X, a)
        assert got == d_(1) * sym("x2") - d_(0)
