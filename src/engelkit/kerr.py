"""The Kerr correspondence: integrable markings from one free function.

Every integrable marking arises, locally, by solving

    F(y0, y1, y2, y3, t) = 0

for t, where the base expressions are

    y0 = x0 + x1 x4 + 3 t x2 x4 - t^3 x4^2
    y1 = x1 + t^3 x4
    y2 = x2 - t^2 x4
    y3 = x3 + t x4.

The module verifies such pairs exactly, solves the implicit equation
numerically with Newton iteration on exact symbolic derivatives, checks the
coordinate change between the two natural charts of the correspondence
space, and produces integrable sections from hypersurfaces in the twistor
chart.

The solver differentiates one composed function g = F(y(x, t), t): Newton
steps on g_t, and the marking's partials come from implicit differentiation,
t_xi = -g_xi / g_t.  With t held fixed, (x1 + 3t x2) d0 + t^3 d1 - t^2 d2
+ t d3 - d4 annihilates every y_j, so the integrability residual at a root
is rounding only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .engel import J_coordinate, J_polynomial, MarkedStructure, _adapted_forms, _d, _j_coefficients
from .forms import Chart, DifferentialForm, VectorField, pullback
from .symexpr import Expr, ExprError, Number, VarKind, symbol

__all__ = [
    "KerrFunction",
    "Hypersurface",
    "y_of",
    "verify_kerr_pair",
    "KerrPairReport",
    "solve_kerr_numeric",
    "KerrRoot",
    "section_from_hypersurface",
    "SectionReport",
    "coordinate_change_check",
    "FibrationReport",
    "KerrSolveError",
    "TransversalityError",
]

F_TOL_DEFAULT = 1e-10
J_TOL_FACTOR = 1e3
MAX_ITERATIONS = 60


class KerrSolveError(Exception):
    pass


class TransversalityError(KerrSolveError):
    pass


_Y_NAMES = ("y0", "y1", "y2", "y3")


def _check_vars(e: Expr, allowed: set[str], what: str):
    for var in e.occurring_vars():
        if var.kind is VarKind.FREE:
            continue
        if var.name in allowed:
            continue
        raise ValueError(f"{what} may depend on {sorted(allowed)} and free "
                         f"parameters only, found {var.name!r}")


@dataclass(frozen=True)
class KerrFunction:
    """A function of the four base expressions and the marking slot."""

    F: Expr

    def __post_init__(self):
        _check_vars(self.F, set(_Y_NAMES) | {"t"}, "a Kerr function")


@dataclass(frozen=True)
class Hypersurface:
    """A hypersurface cut out in the 5-dimensional twistor chart."""

    H: Expr

    def __post_init__(self):
        _check_vars(self.H, set(_Y_NAMES) | {"y4"}, "a hypersurface")
        if all(self.H.partial(n).is_zero for n in list(_Y_NAMES) + ["y4"]):
            raise ValueError("hypersurface gradient vanishes identically")


def y_of(t: Expr | None = None) -> tuple[Expr, Expr, Expr, Expr]:
    """The four base expressions, with the marking substituted when given."""
    x0, x1, x2, x3, x4 = (symbol(f"x{i}") for i in range(5))
    tt = symbol("t") if t is None else t
    return (
        x0 + x1 * x4 + 3 * tt * x2 * x4 - tt ** 3 * x4 ** 2,
        x1 + tt ** 3 * x4,
        x2 - tt ** 2 * x4,
        x3 + tt * x4,
    )


@dataclass
class KerrPairReport:
    composition_residual: Expr
    integrability_function: Expr

    @property
    def passed(self) -> bool:
        return self.composition_residual.is_zero and self.integrability_function.is_zero


def verify_kerr_pair(F: KerrFunction | Expr, t: Expr | MarkedStructure) -> KerrPairReport:
    """Exact check that t solves F = 0 composed with the base expressions."""
    if isinstance(F, Expr):
        F = KerrFunction(F)
    if isinstance(t, MarkedStructure):
        t = t.t
    residual = F.F.substitute({**dict(zip(_Y_NAMES, y_of(t))), "t": t})
    return KerrPairReport(residual, J_coordinate(t))


def _compose(F: Expr) -> Expr:
    """F with the base expressions substituted, as a function of x and t."""
    return F.substitute(dict(zip(_Y_NAMES, y_of())))


def _newton(g: Expr, dg: Expr, point: Mapping[str, Number], guess: float,
            tol: float) -> tuple[float, float, int]:
    tau = float(guess)
    for iteration in range(1, MAX_ITERATIONS + 1):
        values = {**point, "t": tau}
        try:
            val = float(g.evaluate(values))
            der = float(dg.evaluate(values))
        except (ExprError, OverflowError) as exc:
            raise KerrSolveError(f"evaluation failed near t = {tau}: {exc}") from exc
        if abs(val) < tol:
            return tau, val, iteration
        if der == 0.0 or abs(der) < 1e-14 * max(1.0, abs(val)):
            raise KerrSolveError(f"derivative vanishes near t = {tau} (non-simple root)")
        tau = tau - val / der
    raise KerrSolveError(f"no convergence after {MAX_ITERATIONS} iterations")


@dataclass
class KerrRoot:
    t_value: float
    f_residual: float
    j_residual: float
    iterations: int


def _implicit(F: Expr, point: Mapping[str, Number], guess: float,
              tol: float) -> tuple[Expr, Expr, list[Expr]]:
    """Check the solver's inputs; return g = F(y(x, t), t), g_t and g_x0..g_x4."""
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tolerance must be a positive finite number, not {tol}")
    if not math.isfinite(guess):
        raise ValueError(f"initial guess must be a finite number, not {guess}")
    for i in range(5):
        if f"x{i}" not in point:
            raise ValueError(f"point must assign x{i}")
    for var in F.occurring_vars():
        if var.kind is VarKind.FREE and var.name not in point:
            raise ValueError(f"point must assign the free parameter {var.name}")
    g = _compose(F)
    return g, g.partial("t"), [g.partial(f"x{i}") for i in range(5)]


def _root(g: Expr, g_t: Expr, g_x: Sequence[Expr], point: Mapping[str, Number],
          guess: float, tol: float) -> KerrRoot:
    tau, f_res, iterations = _newton(g, g_t, point, guess, tol)
    values = {**point, "t": tau}
    denominator = float(g_t.evaluate(values))
    if denominator == 0.0:
        raise KerrSolveError("implicit-function denominator vanishes at the root")
    t_partials = [-float(gi.evaluate(values)) / denominator for gi in g_x]
    j_res = J_polynomial(tau, t_partials, float(point["x1"]), float(point["x2"]))
    bound = J_TOL_FACTOR * tol
    if abs(j_res) > bound:
        raise KerrSolveError(f"integrability residual {j_res} exceeds {bound:g}")
    return KerrRoot(tau, f_res, j_res, iterations)


def solve_kerr_numeric(F: KerrFunction | Expr, point: Mapping[str, Number],
                       guess: float = 0.0,
                       tol: float = F_TOL_DEFAULT) -> KerrRoot:
    """Newton-solve F = 0 for the marking value at one chart point.

    The point assigns x0..x4 and every free parameter of F.  Derivatives are
    exact symbolic expressions evaluated at points.  After convergence the
    five partial derivatives of the marking are solved by implicit
    differentiation and substituted into the integrability polynomial; its
    residual is required to be below 1000 * tol.
    """
    if isinstance(F, Expr):
        F = KerrFunction(F)
    g, g_t, g_x = _implicit(F.F, point, guess, tol)
    if g_t.is_zero:
        raise ValueError("F composed with the base expressions is free of t; "
                         "there is nothing to solve for")
    return _root(g, g_t, g_x, point, guess, tol)


# ---------------------------------------------------------------------------
# the double-fibration coordinate change
# ---------------------------------------------------------------------------

X6 = Chart(tuple(f"x{i}" for i in range(6)))
Y6 = Chart(tuple(f"y{i}" for i in range(6)))


def _x_chart_forms() -> list[DifferentialForm]:
    """The adapted coframe with the fibre coordinate x5 as marking, and -dx5."""
    return _adapted_forms(X6, symbol("x5")) + [-_d(X6, 5)]


def _y_chart_forms() -> list[DifferentialForm]:
    y2, y4, y5 = symbol("y2"), symbol("y4"), symbol("y5")
    return [
        _d(Y6, 0) - _d(Y6, 1) * y5 - _d(Y6, 2) * (3 * y4 * y5)
        - _d(Y6, 3) * (3 * (y2 + y5 * y4 ** 2)),
        _d(Y6, 1) + _d(Y6, 2) * (3 * y4) + _d(Y6, 3) * (3 * y4 ** 2),
        _d(Y6, 2) + _d(Y6, 3) * (2 * y4),
        _d(Y6, 3) - _d(Y6, 4) * y5,
        _d(Y6, 5),
        -_d(Y6, 4),
    ]


def coordinate_map() -> dict[str, Expr]:
    """The y-coordinates as functions on the x-chart."""
    x4, x5 = symbol("x4"), symbol("x5")
    return {**dict(zip(_Y_NAMES, y_of(x5))), "y4": x5, "y5": x4}


def inverse_coordinate_map() -> dict[str, Expr]:
    """The x-coordinates as functions on the y-chart."""
    y0, y1, y2, y3, y4, y5 = (symbol(f"y{i}") for i in range(6))
    x4 = y5
    x5 = y4
    x3 = y3 - x5 * x4
    x2 = y2 + x5 ** 2 * x4
    x1 = y1 - x5 ** 3 * x4
    x0 = y0 - x1 * x4 - 3 * x5 * x2 * x4 + x5 ** 3 * x4 ** 2
    return {"x0": x0, "x1": x1, "x2": x2, "x3": x3, "x4": x4, "x5": x5}


@dataclass
class FibrationReport:
    forms_match: tuple[bool, ...]
    vertical_field_first_projection: bool
    vertical_field_second_projection: bool
    round_trip_identity: bool

    @property
    def passed(self) -> bool:
        return (all(self.forms_match) and self.vertical_field_first_projection
                and self.vertical_field_second_projection and self.round_trip_identity)


def coordinate_change_check() -> FibrationReport:
    """Pull the y-chart coframe back through the coordinate change.

    All six 1-forms must agree with the x-chart coframe; the two projection
    directions must be rectified in their respective charts; composing the
    coordinate change with its inverse must give the identity.
    """
    mapping = coordinate_map()
    x_forms = _x_chart_forms()
    y_forms = _y_chart_forms()
    matches = tuple((pullback(yf, mapping, X6) - xf).is_zero
                    for yf, xf in zip(y_forms, x_forms))

    # the vertical field of the first projection, written in the x-chart,
    # pushes to the fifth y-coordinate direction
    xi4 = VectorField(X6, [-c for c in _j_coefficients(
        symbol("x5"), symbol("x1"), symbol("x2"))] + [0])
    push4 = [xi4.apply(mapping[f"y{k}"]) for k in range(6)]
    ok4 = all(push4[k].is_zero for k in range(5)) and push4[5] == Expr.from_int(1)

    # the vertical field of the second projection is the x5-direction;
    # its push-forward must match the displayed field on the y-chart
    xi7 = VectorField(X6, [0, 0, 0, 0, 0, -1])
    push7 = [xi7.apply(mapping[f"y{k}"]) for k in range(6)]
    y2s, y4s, y5s = symbol("y2"), symbol("y4"), symbol("y5")
    expected = [-3 * y5s * y2s, -3 * y4s ** 2 * y5s, 2 * y4s * y5s, -y5s,
                -Expr.from_int(1), Expr.from_int(0)]
    ok7 = True
    for k in range(6):
        # expected components are in y-coordinates; compare on the x-chart
        rhs = expected[k].substitute({name: mapping[name]
                                      for name in ("y2", "y4", "y5")})
        if not (push7[k] - rhs).is_zero:
            ok7 = False

    round_trip = True
    for name, expr in inverse_coordinate_map().items():
        composed = expr.substitute(mapping)
        if not (composed - symbol(name)).is_zero:
            round_trip = False
    for name, expr in mapping.items():
        composed = expr.substitute(inverse_coordinate_map())
        if not (composed - symbol(name)).is_zero:
            round_trip = False

    return FibrationReport(matches, ok4, ok7, round_trip)


# ---------------------------------------------------------------------------
# sections from hypersurfaces
# ---------------------------------------------------------------------------


@dataclass
class SectionSample:
    point: dict[str, float]
    t_value: float
    f_residual: float
    j_residual: float


@dataclass
class SectionReport:
    samples: list[SectionSample]

    @property
    def max_j_residual(self) -> float:
        return max(abs(s.j_residual) for s in self.samples)


def section_from_hypersurface(H: Hypersurface | Expr, point: Mapping[str, Number],
                              guess: float = 0.0, tol: float = F_TOL_DEFAULT,
                              n_samples: int = 10, step: float = 0.05,
                              seed: int = 0) -> SectionReport:
    """Solve the hypersurface equation for the fibre coordinate on a sample grid.

    The hypersurface lives in the twistor chart; composed with the base
    expressions (the fifth slot being the fibre coordinate) it defines the
    marking implicitly.  Transversality means a nonvanishing derivative with
    respect to the fibre coordinate at the working point.  The samples
    perturb x0..x4 only; free parameters of H keep their values in the point.
    """
    if isinstance(H, Expr):
        H = Hypersurface(H)
    g, g_t, g_x = _implicit(H.H.substitute({"y4": symbol("t")}), point, guess, tol)
    base = {name: float(value) for name, value in point.items()}
    try:
        slope = float(g_t.evaluate({**base, "t": float(guess)}))
    except Exception as exc:
        raise KerrSolveError(f"cannot evaluate transversality slope: {exc}") from exc
    if abs(slope) < 1e-12:
        raise TransversalityError(
            "the hypersurface is tangent to the fibre direction at the point")

    rng = random.Random(seed)
    samples = []
    for n in range(n_samples + 1):
        p = dict(base)
        if n > 0:
            for i in range(5):
                p[f"x{i}"] += step * rng.uniform(-1.0, 1.0)
        root = _root(g, g_t, g_x, p, guess, tol)
        samples.append(SectionSample(p, root.t_value, root.f_residual, root.j_residual))
    return SectionReport(samples)
