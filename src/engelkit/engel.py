"""Adapted coframes and relative invariants of marked contact Engel structures.

A marking is a scalar function t of the five chart coordinates.  From it we
build the adapted coframe

    w0 = dx0 + x1 dx4 - 3 x2 dx3
    w1 = dx1 + 3t dx2 + 3t^2 dx3 + t^3 dx4
    w2 = dx2 + 2t dx3 + t^2 dx4
    w3 = dx3 + t dx4
    w4 = dx4

whose dual frame (xi0..xi4) is obtained by exact matrix inversion, and the
ten structure functions a, b, c, J, L, M, P, Q, R, S.  They are computed two
independent ways -- closed-form expressions in the frame derivatives of t,
and extraction from the structure equations -- which the test-suite compares
field by field.

One :class:`AdaptedCoframe` is the whole per-marking analysis: it holds the
coframe, its dual frame (built once), the first frame derivatives of t with
J = -X4(t), and the closed-form jet, the ten structure functions (each
computed on first use).  A reader that needs a frame
derivative of one of them takes it from the coframe itself: the bundle
torsions read those of J, the flat reduction xi1(a).  Every entry point
accepts a marking as an expression, a :class:`MarkedStructure` or an
:class:`AdaptedCoframe`; callers that run several of them on one marking
build the coframe once with :func:`adapted_coframe` and pass it to each, so
they share its frame and closed-form jet.  The structure-equation route
shares only the coframe and extracts its own invariants, so the cross-check
stays independent.

The filtration attached to the marking is

    line = span(xi4)  <  tangent = span(xi4, xi3)
         <  osculating = span(xi4, xi3, xi2)  <  contact = ker(w0).

Vanishing of J is integrability of the rank-2 part; the further invariants
refine the classification down to the flat model (all zero), which has a
9-dimensional symmetry algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Mapping, Sequence

from . import jets, linalg
from .forms import (
    Chart,
    CoframeChart,
    DifferentialForm,
    VectorField,
    certified_rank,
    distribution_growth,
    generic_rank,
    lie_bracket,
    type_of,
)
from .symexpr import Expr, Number, VarKind, integer, symbol

__all__ = [
    "X_CHART",
    "BUNDLE_CHART",
    "MarkedStructure",
    "AdaptedCoframe",
    "InvariantJet",
    "BranchLabel",
    "GeometryReport",
    "TautologicalReport",
    "FlatReductionReport",
    "StructureShapeError",
    "BranchNotConstantError",
    "adapted_coframe",
    "invariants_closed_form",
    "invariants_from_structure_equations",
    "J_coordinate",
    "J_polynomial",
    "classify",
    "classify_at",
    "geometric_checks",
    "tautological_forms",
    "verify_flat_reduction",
]

X_CHART = Chart(("x0", "x1", "x2", "x3", "x4"))
BUNDLE_CHART = Chart(("x0", "x1", "x2", "x3", "x4", "s4", "s5", "s7", "delta"))


class StructureShapeError(Exception):
    """The structure equations failed to match their announced shape."""


class BranchNotConstantError(Exception):
    """A tested invariant is neither identically zero nor provably nonvanishing."""


def _d(chart: Chart, i: int) -> DifferentialForm:
    return DifferentialForm.differential(chart, i)


def _adapted_forms(chart: Chart, t: Expr) -> list[DifferentialForm]:
    """w0..w4 of the marking t, written in the first five coordinates of chart."""
    d0, d1, d2, d3, d4 = (_d(chart, i) for i in range(5))
    return [
        d0 + d4 * symbol("x1") - d3 * (3 * symbol("x2")),
        d1 + d2 * (3 * t) + d3 * (3 * t ** 2) + d4 * t ** 3,
        d2 + d3 * (2 * t) + d4 * t ** 2,
        d3 + d4 * t,
        d4,
    ]


@dataclass(frozen=True)
class MarkedStructure:
    """A marking function t(x0..x4), possibly with free parameters."""

    t: Expr

    def __post_init__(self):
        for var in self.t.occurring_vars():
            if var.kind is VarKind.FREE:
                continue
            if var.kind is VarKind.COORDINATE and var.name in X_CHART.names:
                continue
            raise ValueError(
                f"marking functions may depend on x0..x4 and free parameters only, "
                f"found {var.name!r} ({var.kind.value})"
            )


@dataclass
class AdaptedCoframe:
    """The five adapted 1-forms, their exact dual frame and the closed-form jet
    of the ten structure functions.

    The frame, its Taylor jets at the seeded point of F_P and the first frame
    derivatives of t (with J = -X4(t)) are built at most once per object;
    the jet is memoised on it by :func:`invariants_closed_form`.  All die
    with the object.
    """

    t: Expr
    coframe: CoframeChart
    _jet: InvariantJet | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @classmethod
    def generic(cls) -> AdaptedCoframe:
        """The coframe of the generic marking, the jet symbol ``t`` itself.

        Its frame derivatives are polynomials in x, t and the jet symbols
        t_xi.  This is the only coframe whose marking is a jet symbol;
        :class:`MarkedStructure` rejects them.
        """
        t = symbol("t")
        return cls(t, CoframeChart(X_CHART, _adapted_forms(X_CHART, t)))

    @property
    def omega(self) -> list[DifferentialForm]:
        return self.coframe.forms

    @cached_property
    def frame(self) -> list[VectorField]:
        return self.coframe.dual_frame()

    @cached_property
    def t_frame(self) -> list[Expr]:
        """The first frame derivatives X0(t)..X4(t) of the marking."""
        return _frame_derivatives(self.coframe, self.t)

    @cached_property
    def J(self) -> Expr:
        """The first invariant J = -X4(t); it vanishes exactly when the
        tangent plane is integrable."""
        return -self.t_frame[4]

    @cached_property
    def frame_jets(self) -> tuple[list[VectorField], DifferentialForm] | None:
        """The dual frame and w0 as order-3 jets at the seeded point of F_P.

        Free parameters take seeded values too.  None when a denominator
        vanishes there mod P.
        """
        chart = self.coframe.chart
        free = tuple(v.name for v in self.t.occurring_vars() if v.kind is VarKind.FREE)
        values = {name: jets.point_value(name) for name in chart.names + free}

        def jet(e: Expr) -> jets.Jet:
            return jets.Jet.from_expr(e, chart.names, values)

        try:
            frame = [VectorField(chart, [jet(c) for c in X.comps]) for X in self.frame]
            theta = DifferentialForm(chart, 1, {idx: jet(c)
                                                for idx, c in self.omega[0].comps.items()})
        except ZeroDivisionError:
            return None
        return frame, theta

    def volume(self) -> DifferentialForm:
        """w0 ^ ... ^ w4, which is det(coframe) dx0 ^ ... ^ dx4."""
        chart = self.coframe.chart
        return DifferentialForm(chart, chart.dim,
                                {tuple(range(chart.dim)): self.coframe.det})


def adapted_coframe(t: Expr | MarkedStructure | AdaptedCoframe) -> AdaptedCoframe:
    """Build the adapted coframe of a marking function.

    An :class:`AdaptedCoframe` is returned unchanged, so that every entry
    point can coerce its argument here and share one analysis per marking.
    """
    if isinstance(t, AdaptedCoframe):
        return t
    if isinstance(t, MarkedStructure):
        t = t.t
    else:
        MarkedStructure(t)
    return AdaptedCoframe(t, CoframeChart(X_CHART, _adapted_forms(X_CHART, t)))


def _frame_derivatives(cof: CoframeChart, f: Expr) -> list[Expr]:
    """Coefficients of df in the coframe (the frame derivatives of f)."""
    return cof.expand_one_form(DifferentialForm.scalar(cof.chart, f).d())


@dataclass
class InvariantJet:
    """The ten structure functions a, b, c, J, L, M, P, Q, R, S of a marking."""

    a: Expr
    b: Expr
    c: Expr
    J: Expr
    L: Expr
    M: Expr
    P: Expr
    Q: Expr
    R: Expr
    S: Expr

    def main_fields(self) -> dict[str, Expr]:
        return {name: getattr(self, name) for name in
                ("a", "b", "c", "J", "L", "M", "P", "Q", "R", "S")}


def invariants_closed_form(t: Expr | MarkedStructure | AdaptedCoframe) -> InvariantJet:
    """Structure functions from the closed-form frame-derivative expressions.

    Mixed second derivatives follow the left-to-right convention: t_wiwj is
    the coefficient of wj in d(t_wi).  The jet is computed once per
    :class:`AdaptedCoframe`; later calls on it return the same object.
    """
    acf = adapted_coframe(t)
    if acf._jet is not None:
        return acf._jet
    cof = acf.coframe
    tw = acf.t_frame
    tww = [_frame_derivatives(cof, tw_i) for tw_i in tw]

    a = tw[3]
    b = -tw[2]
    c = tw[1]
    J = acf.J
    L = tww[3][3]
    M = 6 * tw[0] - 2 * tw[2] ** 2 + 6 * tw[3] * tw[1] + tww[2][3]
    P = 2 * tw[0] - tw[2] ** 2 + 2 * tw[3] * tw[1] + tww[2][3]
    Q = 2 * tww[3][1] + tww[2][2] + 3 * tw[2] * tw[1]
    R = -tww[2][1] - 2 * tw[1] ** 2
    S = tww[1][1]
    acf._jet = InvariantJet(a=a, b=b, c=c, J=J, L=L, M=M, P=P, Q=Q, R=R, S=S)
    return acf._jet


def _j_coefficients(t, x1, x2) -> tuple:
    """The coefficients of t_x0..t_x4 in J, for Exprs or floats."""
    return (x1 + 3 * t * x2, t ** 3, -t ** 2, t, -1)


def J_polynomial(t, t_x: Sequence, x1, x2):
    """(x1 + 3t x2) t_x0 + t^3 t_x1 - t^2 t_x2 + t t_x3 - t_x4, for Exprs or floats."""
    c = _j_coefficients(t, x1, x2)
    return c[0] * t_x[0] + c[1] * t_x[1] + c[2] * t_x[2] + c[3] * t_x[3] + c[4] * t_x[4]


def J_coordinate(t: Expr | MarkedStructure) -> Expr:
    """The integrability function as a coordinate polynomial in t and its partials."""
    if isinstance(t, MarkedStructure):
        t = t.t
    else:
        MarkedStructure(t)
    return J_polynomial(t, [t.partial(f"x{i}") for i in range(5)],
                        symbol("x1"), symbol("x2"))


def _expect(condition: bool, what: str):
    if not condition:
        raise StructureShapeError(f"structure equations deviate from the expected shape: {what}")


def invariants_from_structure_equations(
        t: Expr | MarkedStructure | AdaptedCoframe) -> InvariantJet:
    """Extract the structure functions from the differentiated coframe.

    Reads a, b, c, J and the combination b^2 - 4ac + M - P off the expansions
    of dw1..dw3, then L, M + 3P, Q, R, S off the expansions of da, db, dc and
    dJ, and solves for M and P.  Every remaining displayed coefficient is
    verified; a mismatch raises StructureShapeError.  Only the ten functions
    are returned: the expansions serve the checks.
    """
    acf = adapted_coframe(t)
    cof = acf.coframe
    dexp = [cof.expand_two_form(w.d()) for w in cof.forms]
    zero = integer(0)

    def coeff(k: int, i: int, j: int) -> Expr:
        return dexp[k].get((i, j), zero)

    _expect(coeff(0, 1, 4) == 1 and coeff(0, 2, 3) == -3 and len(dexp[0]) == 2,
            "dw0")
    _expect(not dexp[4], "dw4 must vanish")

    a = coeff(3, 3, 4)
    b = -coeff(3, 2, 4)
    c = coeff(3, 1, 4)
    K = 4 * coeff(3, 0, 4)  # b^2 - 4ac + M - P
    J = coeff(1, 2, 4) / 3

    allowed = {1: {(0, 2), (1, 2), (2, 3), (2, 4)},
               2: {(0, 3), (1, 3), (2, 3), (3, 4)},
               3: {(0, 4), (1, 4), (2, 4), (3, 4)}}
    for k in (1, 2, 3):
        extra = set(dexp[k]) - allowed[k]
        _expect(not extra, f"dw{k} has unexpected terms at {sorted(extra)}")
    _expect(coeff(1, 0, 2) == 3 * K / 4, "dw1 w0^w2 coefficient")
    _expect(coeff(1, 1, 2) == 3 * c, "dw1 w1^w2 coefficient")
    _expect(coeff(1, 2, 3) == -3 * a, "dw1 w2^w3 coefficient")
    _expect(coeff(2, 0, 3) == K / 2, "dw2 w0^w3 coefficient")
    _expect(coeff(2, 1, 3) == 2 * c, "dw2 w1^w3 coefficient")
    _expect(coeff(2, 2, 3) == -2 * b, "dw2 w2^w3 coefficient")
    _expect(coeff(2, 3, 4) == 2 * J, "dw2 w3^w4 coefficient")

    da = _frame_derivatives(cof, a)
    db = _frame_derivatives(cof, b)
    dc = _frame_derivatives(cof, c)
    dJ = _frame_derivatives(cof, J)

    L = da[3]
    m_plus_3p = 4 * da[2] + 3 * b ** 2
    m_minus_p = K - b ** 2 + 4 * a * c
    M = (m_plus_3p + 3 * m_minus_p) / 4
    P = (m_plus_3p - m_minus_p) / 4
    R = db[1] - 2 * c ** 2
    Q = 2 * da[1] - 3 * b * c - db[2]
    S = dc[1]

    _expect(da[4] == a ** 2 - 2 * b * J - dJ[3], "da w4 coefficient")
    _expect(db[3] == (-b ** 2 + M - 3 * P) / 2, "db w3 coefficient")
    _expect(db[4] == a * b - 3 * c * J + dJ[2], "db w4 coefficient")
    _expect(dc[2] == c ** 2 - R, "dc w2 coefficient")
    _expect(dc[3] == da[1] - 2 * b * c, "dc w3 coefficient")
    _expect(dc[4] == (b ** 2 - 4 * dJ[1] + M - P) / 4, "dc w4 coefficient")
    dM = _frame_derivatives(cof, M)
    dP = _frame_derivatives(cof, P)
    _expect(db[0] == (-4 * da[1] * b + 6 * b ** 2 * c - 8 * a * c ** 2 + 4 * c * M
                      - dM[2] + dP[2] + 2 * b * Q - 4 * a * R) / 4,
            "db w0 coefficient")

    return InvariantJet(a=a, b=b, c=c, J=J, L=L, M=M, P=P, Q=Q, R=R, S=S)


# ---------------------------------------------------------------------------
# branch classification
# ---------------------------------------------------------------------------


def _vanishing_state(e: Expr) -> str:
    """'zero', 'nonzero', or 'indeterminate' for a rational invariant.

    A rational function is identically nonzero on its domain exactly when its
    canonical numerator never vanishes; that is decidable here when the
    numerator is free of chart coordinates (free parameters count as
    transcendental constants).
    """
    if e.is_zero:
        return "zero"
    if all(v.kind is VarKind.FREE for v in e.numerator().occurring_vars()):
        return "nonzero"
    return "indeterminate"


@dataclass(frozen=True)
class BranchLabel:
    """A leaf of the classification tree with its homogeneous-model annotation."""

    path: tuple[tuple[str, str], ...]
    leaf: str
    symmetry_dimension: int | None
    annotation: str
    models: tuple[str, ...] = ()

    def __str__(self) -> str:
        trail = ", ".join(f"{n} {'= 0' if s == 'zero' else '!= 0'}" for n, s in self.path)
        return f"{self.leaf} [{trail}]: {self.annotation}"


_LEAVES = {
    "J-nonzero": (6, "unique homogeneous model with 6-dimensional symmetry algebra "
                     "in this branch", ("six-dim-nonintegrable",)),
    "L-nonzero": (5, "unique homogeneous model with 5-dimensional symmetry algebra "
                     "in this branch", ("five-dim-L",)),
    "M-nonzero-P-nonzero": (5, "two homogeneous models with 5-dimensional symmetry "
                               "algebras in this branch", ("five-dim-MP-plus",
                                                           "five-dim-MP-minus")),
    "M-nonzero-P-zero-Q-nonzero": (None, "no homogeneous model in this branch", ()),
    "submaximal": (8, "submaximally symmetric: two models with 8-dimensional "
                      "symmetry algebras", ("submax-plus", "submax-minus")),
    "M-zero-P-nonzero": (None, "no homogeneous model with symmetry dimension 6 or "
                               "more in this branch", ()),
    "Q-nonzero": (6, "unique homogeneous model with 6-dimensional symmetry algebra "
                     "in this branch", ("six-dim-split",)),
    "R-nonzero": (None, "no homogeneous model in this branch", ()),
    "S-nonzero": (None, "no homogeneous model in this branch", ()),
    "flat": (9, "flat: 9-dimensional symmetry algebra", ()),
}


def _label(path: list[tuple[str, str]], leaf: str) -> BranchLabel:
    dim, annotation, models = _LEAVES[leaf]
    return BranchLabel(tuple(path), leaf, dim, annotation, models)


def _classify_states(state) -> BranchLabel:
    """Walk the classification tree given a state oracle name -> zero/nonzero."""
    path: list[tuple[str, str]] = []

    def test(name: str) -> bool:
        s = state(name)
        path.append((name, s))
        return s == "zero"

    if not test("J"):
        return _label(path, "J-nonzero")
    if not test("L"):
        return _label(path, "L-nonzero")
    if not test("M"):
        if not test("P"):
            return _label(path, "M-nonzero-P-nonzero")
        if not test("Q"):
            return _label(path, "M-nonzero-P-zero-Q-nonzero")
        return _label(path, "submaximal")
    if not test("P"):
        return _label(path, "M-zero-P-nonzero")
    if not test("Q"):
        return _label(path, "Q-nonzero")
    if not test("R"):
        return _label(path, "R-nonzero")
    if not test("S"):
        return _label(path, "S-nonzero")
    return _label(path, "flat")


def classify(t: Expr | MarkedStructure | AdaptedCoframe) -> BranchLabel:
    """Classify by identical vanishing of the invariants, as expressions.

    Each tested invariant must be identically zero or a nonzero constant in
    the coordinates (free parameters count as transcendental constants);
    otherwise the branch is not constant over the chart and
    BranchNotConstantError is raised.
    """
    acf = adapted_coframe(t)
    inv = invariants_closed_form(acf)

    def state(name: str) -> str:
        s = _vanishing_state(getattr(inv, name))
        if s == "indeterminate":
            raise BranchNotConstantError(
                f"invariant {name} = {getattr(inv, name)} vanishes on a proper "
                f"subvariety; the branch is not constant")
        return s

    return _classify_states(state)


def classify_at(t: Expr | MarkedStructure | AdaptedCoframe,
                point: Mapping[str, Number]) -> BranchLabel:
    """Pointwise classification at a specific chart point (secondary query)."""
    acf = adapted_coframe(t)
    inv = invariants_closed_form(acf)

    def state(name: str) -> str:
        return "zero" if getattr(inv, name).evaluate(point) == 0 else "nonzero"

    return _classify_states(state)


# ---------------------------------------------------------------------------
# geometric characterizations
# ---------------------------------------------------------------------------


def _brackets_stay_in_span(fields: Sequence[VectorField],
                           brackets: Sequence[VectorField]) -> bool:
    """Whether ``brackets``, formed among ``fields``, add nothing to their span."""
    base = [list(X.comps) for X in fields]
    extended = base + [list(B.comps) for B in brackets]
    return certified_rank(extended) == certified_rank(base)


def _derived(osculating: Sequence[VectorField]) -> list[VectorField]:
    """The osculating fields and their pairwise brackets."""
    return list(osculating) + [lie_bracket(osculating[i], osculating[j])
                               for i in range(3) for j in range(i + 1, 3)]


@dataclass
class GeometryReport:
    """Cross-checked geometric characterizations of the invariant branches.

    ``volume_identity_holds`` and ``weyl_identity_holds`` are the generic
    theorem of :func:`_generic_identities`, proved once per process on the
    generic marking; every other field is decided on the marking itself.
    """

    j_is_zero: bool
    tangent_plane_integrable: bool
    growth: tuple[int, ...]
    osculating_derived_rank: int
    marked_line_type: int
    volume_identity_holds: bool
    weyl_identity_holds: bool
    l_is_zero: bool | None = None
    tangent_symmetry_of_derived: bool | None = None
    m_is_zero: bool | None = None
    derived_integrable: bool | None = None
    m_minus_p_is_zero: bool | None = None
    null_plane_integrable: bool | None = None
    null_plane_wedge_identities: tuple[bool, bool, bool] | None = None

    def all_consistent(self) -> bool:
        ok = self.tangent_plane_integrable == self.j_is_zero
        ok = ok and (self.growth == (2, 3, 5) if not self.j_is_zero
                     else self.growth[0] == self.growth[2] == 2)
        ok = ok and self.osculating_derived_rank == (4 if self.j_is_zero else 5)
        ok = ok and (self.marked_line_type == 2) == self.j_is_zero
        ok = ok and self.volume_identity_holds and self.weyl_identity_holds
        if self.l_is_zero is not None:
            ok = ok and self.tangent_symmetry_of_derived == self.l_is_zero
        if self.m_is_zero is not None:
            ok = ok and self.derived_integrable == self.m_is_zero
        if self.m_minus_p_is_zero is not None:
            ok = ok and self.null_plane_integrable == self.m_minus_p_is_zero
            ok = ok and self.null_plane_wedge_identities[0] \
                and self.null_plane_wedge_identities[1] \
                and self.null_plane_wedge_identities[2]
        return ok


def geometric_checks(t: Expr | MarkedStructure | AdaptedCoframe) -> GeometryReport:
    """Run the geometric battery attached to the osculating filtration.

    The branch is decided by J = -X4(t), which needs only the first frame
    derivatives of t.  A marking with J != 0 builds no second frame
    derivatives: the ten-function jet is built only when J = 0, whose checks
    read L, M and P.

    The growth, the derived rank and the line type are ranked at the seeded
    point of F_P first, on the frame's jets, when J is not zero: then every
    one of them is full, and the point proves it without symbolic brackets.
    When J = 0 none of them is full, so the jets are not built.  Any rank the
    jets leave open is taken of the symbolic rows, which
    :func:`~engelkit.forms.certified_rank` ranks at the same point before it
    eliminates.

    The volume identity dw2 ^ w0 ^ w1 ^ w2 = 2 J vol and the connection
    identity nabla_xi4 xi4 = J xi3 are not recomputed per marking: they are
    read from :func:`_generic_identities`, which proves them once per process
    on the generic marking, and that proof covers every marking.
    """
    acf = adapted_coframe(t)
    frame = acf.frame
    xi2, xi3, xi4 = frame[2], frame[3], frame[4]

    j_zero = acf.J.is_zero
    growth = derived_rank = line_type = None
    point = None if j_zero else acf.frame_jets
    if point is not None:
        jet_frame, jet_theta = point
        growth = distribution_growth(jet_frame[3:5])
        derived_rank = generic_rank(_derived(jet_frame[2:5]))
        line_type = type_of(jet_frame[4], jet_theta)
    if growth is None:
        growth = distribution_growth([xi3, xi4])
    if derived_rank is None:
        # [xi2, xi3], [xi2, xi4], [xi3, xi4]; when J = 0 the checks below reuse them
        derived = _derived([xi2, xi3, xi4])
        derived_rank = generic_rank(derived)
    if line_type is None:
        line_type = type_of(xi4, acf.omega[0])
    # the plane is integrable exactly when its bracket adds nothing
    tangent_integrable = growth[1] == growth[0]

    volume_ok, weyl_ok = _generic_identities()
    report = GeometryReport(
        j_is_zero=j_zero,
        tangent_plane_integrable=tangent_integrable,
        growth=growth,
        osculating_derived_rank=derived_rank,
        marked_line_type=line_type,
        volume_identity_holds=volume_ok,
        weyl_identity_holds=weyl_ok,
    )

    if j_zero:
        inv = invariants_closed_form(acf)
        report.l_is_zero = inv.L.is_zero
        # a row's sign does not change a rank, so [xi2, xi3] serves for [xi3, xi2]
        b23, b24, b34 = derived[3:]
        derived_basis = [xi2, xi3, xi4, b23]
        candidate = lie_bracket(xi3, b23)
        report.tangent_symmetry_of_derived = _brackets_stay_in_span(derived_basis, [candidate])
        if inv.L.is_zero:
            report.m_is_zero = inv.M.is_zero
            report.derived_integrable = _brackets_stay_in_span(
                derived_basis,
                [b23, b24, b34, lie_bracket(xi2, b23), candidate, lie_bracket(xi4, b23)])
        report.m_minus_p_is_zero = (inv.M - inv.P).is_zero
        report.null_plane_integrable, report.null_plane_wedge_identities = \
            _null_plane_checks(acf, inv)

    return report


@cache
def _generic_identities() -> tuple[bool, bool]:
    """The volume and the connection identity, proved on the generic marking.

    Both are identities of the adapted coframe of the jet symbol ``t``
    (:meth:`AdaptedCoframe.generic`), whose entries lie in Q[x, t].  Its
    determinant is 1, so its dual frame is polynomial; J = -X4(t) is a
    polynomial in x, t and the first jet symbols t_xi, and neither identity
    divides by anything.  Both sides of each identity are therefore
    polynomials in x, t and t_xi.  Putting a marking's partial derivatives
    in place of the jet symbols is a ring homomorphism from that polynomial
    ring into Q(x, parameters) that commutes with d (the total derivative is
    the chain rule), so an identity that holds at the generic marking holds
    for every marking, free parameters included.  Only first-order jets
    enter: the proof needs J, not the ten-function jet.

    Computed once per process; the result is (volume, connection).
    """
    acf = AdaptedCoframe.generic()
    volume, volume_rhs = _volume_sides(acf, acf.J)
    return volume == volume_rhs, _weyl_identity_holds(acf, acf.J)


def _volume_sides(acf: AdaptedCoframe,
                  J: Expr) -> tuple[DifferentialForm, DifferentialForm]:
    """dw2 ^ w0 ^ w1 ^ w2 and 2 J vol, which the volume identity equates."""
    w = acf.omega
    return w[2].d().wedge(w[0]).wedge(w[1]).wedge(w[2]), acf.volume() * (2 * J)


def _line_in_flat_frame(t: Expr) -> list[Expr]:
    """The coefficients of xi4 = -t^3 X1 + t^2 X2 - t X3 + X4 in the flat frame."""
    return [integer(0), -t ** 3, t ** 2, -t, integer(1)]


def _weyl_sides(acf: AdaptedCoframe,
                J: Expr) -> list[tuple[VectorField, VectorField]]:
    """The pairs that the connection identity equates.

    The flat-frame recombination of xi4 against xi4, then the derivative of
    xi4 along itself (the connection makes the flat frame parallel in
    horizontal directions) against J xi3.
    """
    chart = acf.coframe.chart
    x1, x2 = symbol("x1"), symbol("x2")
    flat_frame = [
        VectorField.coordinate(chart, 0),
        VectorField.coordinate(chart, 1),
        VectorField.coordinate(chart, 2),
        VectorField(chart, [3 * x2, 0, 0, 1, 0]),
        VectorField(chart, [-x1, 0, 0, 0, 1]),
    ]
    coeffs = _line_in_flat_frame(acf.t)
    xi4 = acf.frame[4]
    recombined = VectorField(chart, [integer(0)] * 5)
    nabla = VectorField(chart, [integer(0)] * 5)
    for coeff, X in zip(coeffs, flat_frame):
        recombined = recombined + X * coeff
        nabla = nabla + X * xi4.apply(coeff)
    return [(recombined, xi4), (nabla, acf.frame[3] * J)]


def _weyl_identity_holds(acf: AdaptedCoframe, J: Expr) -> bool:
    """The parallel transport of the marked line direction bends by J."""
    return all((lhs - rhs).is_zero for lhs, rhs in _weyl_sides(acf, J))


def _null_plane_checks(acf: AdaptedCoframe, inv: InvariantJet):
    """Integrability of the invariant null-plane field ker(phi), phi decomposable.

    The third wedge identity carries the factor -(M-P)/2 on the base section;
    the equivalence 'integrable iff M-P vanishes' is checked independently
    through brackets of an exact kernel basis.
    """
    w = acf.omega
    phi1 = w[1] - w[0] * inv.a
    phi2 = w[2] - w[0] * (inv.b / 2)
    phi3 = w[3] - w[0] * inv.c
    vol = acf.volume()
    phi123 = phi1.wedge(phi2).wedge(phi3)
    id1 = phi1.d().wedge(phi123).is_zero
    id2 = phi2.d().wedge(phi123).is_zero
    id3 = phi3.d().wedge(phi123) == vol * (-(inv.M - inv.P) / 2)
    rows = [
        [phi.coefficient((k,)) for k in range(5)] for phi in (phi1, phi2, phi3)
    ]
    kernel = [VectorField(acf.coframe.chart, vec) for vec in linalg.nullspace(rows)]
    integrable = len(kernel) == 2 and _brackets_stay_in_span(
        kernel, [lie_bracket(kernel[0], kernel[1])])
    return integrable, (id1, id2, id3)


# ---------------------------------------------------------------------------
# tautological forms on the 9-dimensional bundle
# ---------------------------------------------------------------------------


@dataclass
class TautologicalReport:
    theta: list[DifferentialForm]
    contact_structure_equation: bool
    torsion_124: bool
    torsion_234: bool
    torsion_102: bool

    def all_hold(self) -> bool:
        return (self.contact_structure_equation and self.torsion_124
                and self.torsion_234 and self.torsion_102)


def _lift_omega(acf: AdaptedCoframe) -> list[DifferentialForm]:
    """The adapted coframe viewed on the 9-dimensional bundle chart."""
    lifted = []
    for w in acf.omega:
        lifted.append(DifferentialForm(BUNDLE_CHART, 1,
                                       {idx: c for idx, c in w.comps.items()}))
    return lifted


def _tautological_lift(w: list[DifferentialForm], inv):
    """The tautological forms theta0..theta4 on the bundle, from the lifted
    coframe ``w`` and the closed-form invariants ``inv``, with the omega0
    coefficients s1, s2, s3 of theta1..theta3.

    Under delta -> l delta, s5 -> m s5, s7 -> (l/m) s7, s4 -> (l/m)^3 s4,
    each theta_i scales by one factor: l^3, m^3, l m, l^2/m, l^3/m^3.
    """
    s4, s5, s7, delta = (symbol(n) for n in ("s4", "s5", "s7", "delta"))
    a, b, c, J = inv.a, inv.b, inv.c, inv.J
    s1 = s5 ** 3 * (3 * J * s5 * s7 - a * delta) / delta
    s2 = s5 * (b * delta ** 2 - 2 * a * delta * s5 * s7
               + 3 * J * s5 ** 2 * s7 ** 2) / (2 * delta)
    s3 = (-c * delta ** 2 + b * delta * s5 * s7 - a * s5 ** 2 * s7 ** 2
          + J * s5 ** 3 * s7 ** 3 / delta) / s5
    theta = [
        w[0] * (-delta ** 3),
        w[0] * s1 + w[1] * s5 ** 3,
        w[0] * s2 + w[1] * (s5 ** 2 * s7) - w[2] * (delta * s5),
        w[0] * s3 + w[1] * (s5 * s7 ** 2) - w[2] * (2 * delta * s7)
        + w[3] * (delta ** 2 / s5),
        w[0] * s4 + w[1] * s7 ** 3 - w[2] * (3 * delta * s7 ** 2 / s5)
        + w[3] * (3 * delta ** 2 * s7 / s5 ** 2) - w[4] * (delta ** 3 / s5 ** 3),
    ]
    return theta, (s1, s2, s3)


def tautological_forms(t: Expr | MarkedStructure | AdaptedCoframe) -> TautologicalReport:
    """Build the five tautological forms on the bundle and verify the torsions.

    The identities checked isolate the torsion coefficients that only involve
    the five tautological forms; the unknown connection forms are removed by
    wedging, with the structure equation for the last form eliminating the
    single surviving connection term.
    """
    acf = adapted_coframe(t)
    inv = invariants_closed_form(acf)
    s4, s5, s7, delta = (symbol(n) for n in ("s4", "s5", "s7", "delta"))
    a, b, c, J = inv.a, inv.b, inv.c, inv.J
    dJ = _frame_derivatives(acf.coframe, J)
    theta, _ = _tautological_lift(_lift_omega(acf), inv)
    theta0, theta1, theta2, theta3, theta4 = theta

    check0 = theta0.d().wedge(theta0) == \
        theta1.wedge(theta4).wedge(theta0) - theta2.wedge(theta3).wedge(theta0) * 3

    T124 = 3 * J * s5 ** 5 / delta ** 4
    check124 = theta1.d().wedge(theta0).wedge(theta1) == \
        theta2.wedge(theta4).wedge(theta0).wedge(theta1) * T124

    T234 = 2 * J * s5 ** 5 / delta ** 4
    check234 = theta2.d().wedge(theta0).wedge(theta1).wedge(theta2) == \
        theta3.wedge(theta4).wedge(theta0).wedge(theta1).wedge(theta2) * T234

    T106 = -T124
    T102 = (s5 ** 2 * (delta ** 4 * inv.M
                       - 6 * delta * J * s4 * s5 ** 3
                       - 9 * c * delta ** 3 * J * s5 * s7
                       - 3 * delta ** 3 * dJ[2] * s5 * s7
                       + 2 * delta ** 3 * inv.L * s5 * s7
                       - 9 * b * delta ** 2 * J * s5 ** 2 * s7 ** 2
                       - 9 * delta ** 2 * dJ[3] * s5 ** 2 * s7 ** 2
                       + 21 * a * delta * J * s5 ** 3 * s7 ** 3
                       - 9 * delta * dJ[4] * s5 ** 3 * s7 ** 3
                       - 27 * J ** 2 * s5 ** 4 * s7 ** 4) / delta ** 8)
    lhs = theta1.d().wedge(theta1).wedge(theta3).wedge(theta4) \
        - theta4.d().wedge(theta0).wedge(theta1).wedge(theta4) * (T106 / 3)
    rhs = theta0.wedge(theta2).wedge(theta1).wedge(theta3).wedge(theta4) * T102
    check102 = lhs == rhs

    return TautologicalReport(theta, check0, check124, check234, check102)


# ---------------------------------------------------------------------------
# flat reduction
# ---------------------------------------------------------------------------


@dataclass
class FlatReductionReport:
    residuals: dict[str, DifferentialForm]
    u3_solved: Expr = None  # type: ignore[assignment]
    u3_printed: Expr = None  # type: ignore[assignment]

    def all_zero(self) -> bool:
        return all(r.is_zero for r in self.residuals.values())

    @property
    def u3_matches_printed_formula(self) -> bool:
        return (self.u3_solved - self.u3_printed).is_zero

    def failures(self) -> dict[str, str]:
        out = {}
        for name, r in self.residuals.items():
            if not r.is_zero:
                idx = sorted(r.comps)[0]
                labels = "^".join(BUNDLE_CHART.labels[i] for i in idx)
                out[name] = f"nonzero at {labels}: {r.comps[idx]}"
        return out


def verify_flat_reduction() -> FlatReductionReport:
    """Verify the nine structure-bundle equations of the flat model.

    Specializes the marking to zero, substitutes the closed-form connection
    forms on the 9-dimensional bundle chart and checks that every structure
    equation holds identically.

    The final scalar u3 is defined by solving the fifth structure equation;
    the report also carries the separately-published closed form for u3,
    whose pure s4^2 term disagrees with the solved value (the disagreement
    is exposed as ``u3_matches_printed_formula``).
    """
    acf = adapted_coframe(integer(0))
    inv = invariants_closed_form(acf)
    w = _lift_omega(acf)
    ch = BUNDLE_CHART
    s4, s5, s7, delta = (symbol(n) for n in ("s4", "s5", "s7", "delta"))
    d_s4 = _d(ch, 5)
    d_s5 = _d(ch, 6)
    d_s7 = _d(ch, 7)
    d_delta = _d(ch, 8)

    a, b, c = inv.a, inv.b, inv.c
    a1 = _frame_derivatives(acf.coframe, a)[1]
    Q, R = inv.Q, inv.R

    (theta0, theta1, theta2, theta3, theta4), (s1, s2, s3) = \
        _tautological_lift(w, inv)

    u0 = ((4 * a1 - 6 * b * c - 3 * Q) * delta ** 3
          + 3 * b ** 2 * s5 * s7 * delta ** 2
          - 3 * (s3 + 2 * a * s7 ** 2 * s5) * b * s5 * delta
          + 2 * a * s5 ** 2 * (-s4 * s5 + 3 * s3 * s7 + 2 * a * s5 * s7 ** 3)) \
        / (2 * delta ** 6)
    theta5 = d_delta * (1 / (2 * delta)) + theta1 * (s4 / (6 * delta ** 3)) \
        - theta2 * (s3 / (2 * delta ** 3)) + theta3 * (s2 / (2 * delta ** 3)) \
        - theta4 * (s1 / (6 * delta ** 3)) - theta0 * (u0 / 6)

    u1 = -3 * (2 * c * s7 * delta ** 2 - 2 * b * s5 * s7 ** 2 * delta
               + s4 * s5 ** 2 + 2 * a * s5 ** 2 * s7 ** 3) / (2 * s5 ** 2 * delta ** 3)
    theta8_theta0_coeff = -(
        -6 * c * s2 * delta ** 2 + 2 * a1 * s5 * delta ** 3 + 2 * a * s4 * s5 ** 4
        - 6 * a * c * s5 ** 2 * s7 * delta ** 2 - 6 * a * s3 * s5 ** 3 * s7
        + 6 * a * s2 * s5 ** 2 * s7 ** 2 + 2 * a ** 2 * s5 ** 4 * s7 ** 3
        - s5 * u0 * delta ** 6) / (6 * s5 * delta ** 6)
    theta8 = -d_delta * (1 / (2 * delta)) + d_s5 * (1 / s5) \
        + theta0 * theta8_theta0_coeff \
        + theta2 * ((2 * c * delta ** 2 + s3 * s5 - 2 * a * s5 ** 2 * s7 ** 2)
                    / (2 * s5 * delta ** 3)) \
        - theta3 * ((s2 - 2 * a * s5 ** 2 * s7) / (2 * delta ** 3)) \
        - theta4 * (a * s5 ** 3 / (2 * delta ** 3)) \
        - theta1 * (u1 / 3)

    u2 = -s7 ** 2 * (c * delta ** 2 - b * s5 * s7 * delta + a * s5 ** 2 * s7 ** 2) \
        / (s5 ** 3 * delta ** 3)
    theta6_theta0_coeff = -(
        2 * (2 * c ** 2 + R) * delta ** 4
        - 2 * (4 * b * c + Q) * s5 * s7 * delta ** 3
        + (8 * c * s3 + 5 * b ** 2 * s5 * s7 ** 2
           + 8 * a * c * s5 * s7 ** 2) * s5 * delta ** 2
        + 2 * (s4 * s5 - 4 * s3 * s7 - 6 * a * s5 * s7 ** 3) * b * s5 ** 2 * delta
        - 4 * (s4 * s5 - 3 * s3 * s7 - 2 * a * s5 * s7 ** 3) * a * s5 ** 3 * s7) \
        / (4 * s5 ** 2 * delta ** 6)
    theta6 = d_delta * (s7 / (s5 * delta)) - d_s5 * (s7 / s5 ** 2) - d_s7 * (1 / s5) \
        + theta0 * theta6_theta0_coeff \
        + theta2 * ((2 * s5 ** 2 * u1 * delta ** 3 + 6 * c * s7 * delta ** 2
                     - 12 * b * s5 * s7 ** 2 * delta - 3 * s4 * s5 ** 2
                     + 18 * a * s5 ** 2 * s7 ** 3) / (6 * s5 ** 2 * delta ** 3)) \
        - theta3 * ((2 * c * delta ** 2 - 2 * b * s5 * s7 * delta
                     + 3 * a * s5 ** 2 * s7 ** 2) / (s5 * delta ** 3)) \
        - theta4 * (s5 * (b * delta - 2 * a * s5 * s7) / (2 * delta ** 3)) \
        + theta1 * u2

    u3_printed = ((-8 * c ** 3 * delta ** 6 + 24 * b * c ** 2 * s5 * s7 * delta ** 5
                   - (21 * b ** 2 * c * s5 ** 2 * s7 ** 2
                      + 36 * a * c ** 2 * s5 ** 2 * s7 ** 2) * delta ** 4
                   + (6 * b * c * s4 * s5 ** 3 + 5 * b ** 3 * s5 ** 3 * s7 ** 3
                      + 60 * a * b * c * s5 ** 3 * s7 ** 3) * delta ** 3)
                  - ((3 * b ** 2 * s4 * s5 ** 4 * s7 + 24 * a * c * s4 * s5 ** 4 * s7
                      + 21 * a * b ** 2 * s5 ** 4 * s7 ** 4
                      + 36 * a ** 2 * c * s5 ** 4 * s7 ** 4) * delta ** 2
                     - (18 * a * b * s4 * s5 ** 5 * s7 ** 2
                        + 24 * a ** 2 * b * s5 ** 5 * s7 ** 5) * delta
                     + 4 * s4 ** 2 * s5 ** 6 + 12 * a ** 2 * s4 * s5 ** 6 * s7 ** 3
                     + 8 * a ** 3 * s5 ** 6 * s7 ** 6)) / (4 * s5 ** 3 * delta ** 9)
    theta12_base = -d_delta * ((c * s7 * delta ** 2 - b * s5 * s7 ** 2 * delta
                           + s4 * s5 ** 2 + a * s5 ** 2 * s7 ** 3)
                          / (2 * s5 ** 2 * delta ** 4)) \
        + d_s4 * (1 / (6 * delta ** 3)) \
        + d_s5 * ((c * s7 * delta ** 2 - b * s5 * s7 ** 2 * delta + s4 * s5 ** 2
                   + a * s5 ** 2 * s7 ** 3) / (2 * s5 ** 3 * delta ** 3)) \
        + d_s7 * ((c * delta ** 2 - b * s5 * s7 * delta + a * s5 ** 2 * s7 ** 2)
                  / (2 * s5 ** 2 * delta ** 3)) \
        + theta1 * ((3 * c ** 2 * s7 ** 2 * delta ** 4
                     - 6 * b * c * s5 * s7 ** 3 * delta ** 3
                     + 3 * (c * s4 * s5 ** 2 * s7 + b ** 2 * s5 ** 2 * s7 ** 4
                            + 2 * a * c * s5 ** 2 * s7 ** 4) * delta ** 2
                     - 3 * (b * s4 * s5 ** 3 * s7 ** 2
                            + 2 * a * b * s5 ** 3 * s7 ** 5) * delta
                     + s4 ** 2 * s5 ** 4 + 3 * a * s4 * s5 ** 4 * s7 ** 3
                     + 3 * a ** 2 * s5 ** 4 * s7 ** 6) / (6 * s5 ** 4 * delta ** 6)) \
        + theta2 * ((b * c * s7 ** 2 * delta ** 3
                     + (c * s4 * s5 - b ** 2 * s5 * s7 ** 3
                        - 2 * a * c * s5 * s7 ** 3) * delta ** 2
                     + 3 * a * b * s5 ** 2 * s7 ** 4 * delta
                     - a * s4 * s5 ** 3 * s7 ** 2 - 2 * a ** 2 * s5 ** 3 * s7 ** 5)
                    / (2 * s5 ** 2 * delta ** 6)) \
        + theta3 * ((c ** 2 * delta ** 4 - 2 * b * c * s5 * s7 * delta ** 3
                     + (b ** 2 * s5 ** 2 * s7 ** 2
                        + 3 * a * c * s5 ** 2 * s7 ** 2) * delta ** 2
                     - 3 * a * b * s5 ** 3 * s7 ** 3 * delta
                     + a * s4 * s5 ** 4 * s7 + 2 * a ** 2 * s5 ** 4 * s7 ** 4)
                    / (2 * s5 ** 2 * delta ** 6)) \
        + theta4 * ((4 * a1 * delta ** 3
                     - (3 * b ** 2 * s5 * s7 + 12 * a * c * s5 * s7) * delta ** 2
                     + 12 * a * b * s5 ** 2 * s7 ** 2 * delta
                     - 4 * a * s4 * s5 ** 3 - 8 * a ** 2 * s5 ** 3 * s7 ** 3)
                    / (24 * delta ** 6))

    # e5 = d(theta5) + theta1 ^ theta12 is linear in u3; solve it exactly
    e5_base = theta5.d() + theta1.wedge(theta12_base)
    coupling = theta1.wedge(theta0) * Fraction(1, 6)
    pivot = next(iter(coupling.comps))
    u3 = -e5_base.coefficient(pivot) / coupling.coefficient(pivot)
    if not (e5_base + coupling * u3).is_zero:
        raise StructureShapeError("the fifth structure equation is not solvable "
                                  "by a scalar multiple of the contact lift")
    theta12 = theta12_base + theta0 * (u3 / 6)

    def wedge2(x, y):
        return x.wedge(y)

    residuals = {
        "e0": theta0.d() - (-6 * wedge2(theta0, theta5) + wedge2(theta1, theta4)
                            - 3 * wedge2(theta2, theta3)),
        "e1": theta1.d() - (-3 * wedge2(theta1, theta5) - 3 * wedge2(theta1, theta8)),
        "e2": theta2.d() - (wedge2(theta1, theta6) - 3 * wedge2(theta2, theta5)
                            - wedge2(theta2, theta8)),
        "e3": theta3.d() - (2 * wedge2(theta2, theta6) - 3 * wedge2(theta3, theta5)
                            + wedge2(theta3, theta8)),
        "e4": theta4.d() - (6 * wedge2(theta0, theta12) + 3 * wedge2(theta3, theta6)
                            - 3 * wedge2(theta4, theta5) + 3 * wedge2(theta4, theta8)),
        "e5": theta5.d() - (-wedge2(theta1, theta12)),
        "e6": theta6.d() - (6 * wedge2(theta2, theta12) + 2 * wedge2(theta6, theta8)),
        "e8": theta8.d() - (-3 * wedge2(theta1, theta12)),
        "e12": theta12.d() - (-3 * wedge2(theta5, theta12)
                              - 3 * wedge2(theta8, theta12)),
    }
    return FlatReductionReport(residuals, u3_solved=u3, u3_printed=u3_printed)
