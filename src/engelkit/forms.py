"""Exterior calculus on a single coordinate chart.

Differential forms and vector fields with :class:`~engelkit.symexpr.Expr`
coefficients, on charts of any small dimension (5, 6 and 9 are the ones used
elsewhere).  Forms are stored sparsely: only strictly increasing index tuples
with nonzero coefficients are kept.

Sign conventions: for 1-forms ``(α∧β)(X, Y) = α(X)β(Y) − α(Y)β(X)``, and the
exterior derivative satisfies ``dθ(X, Y) = X·θ(Y) − Y·θ(X) − θ([X, Y])``.

Ranks over the rational-function field are certified (:func:`certified_rank`)
at one seeded point q of F_P^n, P = 2^61 - 1.  Let R be the rational
functions n/d with n and d integer polynomials and d(q) nonzero mod P.  R is
a ring, closed under every partial derivative, and n/d -> n(q)/d(q) mod P is
a ring homomorphism from R to F_P.  So an r x r minor with entries in R that
is nonzero mod P at q is a nonzero rational function (Schwartz 1980; Zippel
1979), and the rank is >= r.  When that bound meets the structural upper
bound min(rows, columns) it is the answer; otherwise the rank comes from
symbolic elimination.  The point never proves a dependency, so every
rank-deficient answer is symbolic, and so is every rank of a matrix with an
entry whose canonical denominator vanishes at q mod P.

The rows need not be built symbolically at all.  The Taylor coefficients
(∂^a f)(q)/a! of f in R map to F_P as well (a! < P), and those of f + g, f*g
and ∂_i f follow from those of f and g by the Leibniz rule, which the
homomorphism respects.  So the values at q of the entries of brackets and
Lie derivatives built from the frame are read off
:class:`~engelkit.jets.Jet` arithmetic on the frame's truncated expansions
(Griewank & Walther, *Evaluating Derivatives*, ch. 13), with one order used
up per derivative.  Over jets run, unchanged: :meth:`VectorField.apply`,
:meth:`VectorField.pair`, :func:`lie_bracket`, :func:`lie_derivative` of a
1-form, :func:`certified_rank`, :func:`generic_rank`,
:func:`distribution_growth` and :func:`type_of`.  The rest of this module
(scalar multiples of fields, sums, wedges, exterior derivatives and interior
products of forms) takes :class:`~engelkit.symexpr.Expr` coefficients only.
Over jets :func:`certified_rank` answers only when the rank mod P is full,
and returns None otherwise, so that the caller computes symbolically; a point
where a canonical denominator vanishes mod P yields no jets at all
(ZeroDivisionError from ``Jet.from_expr``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import jets, linalg
from .jets import P, Jet
from .symexpr import Expr, VarKind, make_var, symbol

__all__ = [
    "Chart",
    "DifferentialForm",
    "VectorField",
    "CoframeChart",
    "FormError",
    "lie_bracket",
    "lie_derivative",
    "interior_product",
    "certified_rank",
    "generic_rank",
    "distribution_growth",
    "type_of",
    "pullback",
]


class FormError(Exception):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of chart variable names.

    Chart variables of coordinate kind are differentiated with the total
    derivative (jet chain rule); group-parameter chart variables (the fibre
    coordinates s4, s5, s7, delta of the 9-dimensional bundle) with the plain
    partial derivative.
    """

    names: tuple[str, ...]
    labels: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(f"d{n}" for n in self.names))
        if len(set(self.names)) != len(self.names):
            raise FormError("chart variables must be distinct")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def var(self, i: int) -> Expr:
        return symbol(self.names[i])

    def derive(self, f: Expr | Jet, i: int) -> Expr | Jet:
        if isinstance(f, Jet):  # a jet's variables are the chart's, in order
            return f.partial(i)
        name = self.names[i]
        if make_var(name).kind is VarKind.COORDINATE:
            return f.diff(name)
        return f.partial(name)


def _coerce_scalar(value) -> Expr | Jet:
    if isinstance(value, (Expr, Jet)):
        return value
    return Expr._coerce(value)


def _zero_like(value: Expr | Jet) -> Expr | Jet:
    """The zero of ``value``'s scalar type."""
    return value.zero() if isinstance(value, Jet) else Expr.from_int(0)


def _merge_indices(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign and sorted tuple for the concatenation, or sign 0 on repeats."""
    combined = list(left + right)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(combined)):
        j = i
        while j > 0 and combined[j - 1] > combined[j]:
            combined[j - 1], combined[j] = combined[j], combined[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(combined, combined[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(combined)


class DifferentialForm:
    """Graded exterior form with exact rational-function coefficients."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int,
                 comps: Mapping[tuple[int, ...], Expr] | None = None):
        if not 0 <= degree <= chart.dim:
            raise FormError(f"degree {degree} out of range for a {chart.dim}-chart")
        self.chart = chart
        self.degree = degree
        self.comps: dict[tuple[int, ...], Expr] = {}
        for idx, coeff in (comps or {}).items():
            coeff = _coerce_scalar(coeff)
            if coeff.is_zero:
                continue
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise FormError(f"bad index tuple {idx} for degree {degree}")
            self.comps[tuple(idx)] = coeff

    @staticmethod
    def zero(chart: Chart, degree: int) -> "DifferentialForm":
        return DifferentialForm(chart, degree)

    @staticmethod
    def scalar(chart: Chart, value) -> "DifferentialForm":
        return DifferentialForm(chart, 0, {(): _coerce_scalar(value)})

    @staticmethod
    def differential(chart: Chart, i: int) -> "DifferentialForm":
        return DifferentialForm(chart, 1, {(i,): Expr.from_int(1)})

    def coefficient(self, idx: Sequence[int]) -> Expr:
        return self.comps.get(tuple(idx), Expr.from_int(0))

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def _check_compatible(self, other: "DifferentialForm"):
        if self.chart != other.chart:
            raise FormError("chart mismatch")
        if self.degree != other.degree:
            raise FormError("degree mismatch")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compatible(other)
        comps = dict(self.comps)
        for idx, coeff in other.comps.items():
            comps[idx] = comps.get(idx, Expr.from_int(0)) + coeff
        return DifferentialForm(self.chart, self.degree, comps)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.chart, self.degree,
                                {i: -c for i, c in self.comps.items()})

    def __mul__(self, scalar) -> "DifferentialForm":
        s = _coerce_scalar(scalar)
        return DifferentialForm(self.chart, self.degree,
                                {i: c * s for i, c in self.comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("forms are unhashable")

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.chart != other.chart:
            raise FormError("chart mismatch")
        degree = self.degree + other.degree
        if degree > self.chart.dim:
            raise FormError("wedge degree exceeds the chart dimension")
        comps: dict[tuple[int, ...], Expr] = {}
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                sign, idx = _merge_indices(i1, i2)
                if sign == 0:
                    continue
                term = c1 * c2 if sign > 0 else -(c1 * c2)
                comps[idx] = comps.get(idx, Expr.from_int(0)) + term
        return DifferentialForm(self.chart, degree, comps)

    def d(self) -> "DifferentialForm":
        """Exterior derivative in the coordinate-differential basis."""
        if self.degree == self.chart.dim:
            raise FormError("cannot raise degree past the chart dimension")
        comps: dict[tuple[int, ...], Expr] = {}
        for idx, coeff in self.comps.items():
            for k in range(self.chart.dim):
                dk = self.chart.derive(coeff, k)
                if dk.is_zero:
                    continue
                sign, new_idx = _merge_indices((k,), idx)
                if sign == 0:
                    continue
                term = dk if sign > 0 else -dk
                comps[new_idx] = comps.get(new_idx, Expr.from_int(0)) + term
        return DifferentialForm(self.chart, self.degree + 1, comps)

    def interior(self, X: "VectorField") -> "DifferentialForm":
        """Interior product (contraction in the first slot)."""
        if self.chart != X.chart:
            raise FormError("chart mismatch")
        if self.degree == 0:
            raise FormError("cannot contract a 0-form")
        comps: dict[tuple[int, ...], Expr] = {}
        for idx, coeff in self.comps.items():
            for pos, k in enumerate(idx):
                comp = X.comps[k]
                if comp.is_zero:
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                term = coeff * comp
                if pos % 2:
                    term = -term
                comps[rest] = comps.get(rest, Expr.from_int(0)) + term
        return DifferentialForm(self.chart, self.degree - 1, comps)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for idx in sorted(self.comps):
            coeff = self.comps[idx]
            basis = "^".join(self.chart.labels[i] for i in idx) or "1"
            pieces.append(f"({coeff})*{basis}")
        return " + ".join(pieces)

    __repr__ = __str__


class VectorField:
    """Derivation on a chart, stored by its coordinate components."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps: Sequence):
        if len(comps) != chart.dim:
            raise FormError("component count must match the chart dimension")
        self.chart = chart
        self.comps = tuple(_coerce_scalar(c) for c in comps)

    @staticmethod
    def coordinate(chart: Chart, i: int) -> "VectorField":
        comps = [Expr.from_int(0)] * chart.dim
        comps[i] = Expr.from_int(1)
        return VectorField(chart, comps)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.chart != other.chart:
            raise FormError("chart mismatch")
        return VectorField(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-c for c in self.comps])

    def __mul__(self, scalar) -> "VectorField":
        s = _coerce_scalar(scalar)
        return VectorField(self.chart, [c * s for c in self.comps])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("vector fields are unhashable")

    def apply(self, f: Expr | Jet) -> Expr | Jet:
        """Directional derivative X(f)."""
        result = _zero_like(f)
        for i, comp in enumerate(self.comps):
            if not comp.is_zero:
                result = result + comp * self.chart.derive(f, i)
        return result

    def pair(self, alpha: DifferentialForm) -> Expr | Jet:
        """Pairing ⟨α, X⟩ for a 1-form α."""
        if alpha.degree != 1:
            raise FormError("pairing needs a 1-form")
        result = _zero_like(self.comps[0])
        for (i,), coeff in alpha.comps.items():
            result = result + coeff * self.comps[i]
        return result

    def __str__(self) -> str:
        pieces = [f"({c})*@{n}" for c, n in zip(self.comps, self.chart.names)
                  if not c.is_zero]
        return " + ".join(pieces) if pieces else "0"

    __repr__ = __str__


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator of derivations, [X, Y]f = X(Yf) − Y(Xf)."""
    if X.chart != Y.chart:
        raise FormError("chart mismatch")
    comps = [X.apply(Y.comps[k]) - Y.apply(X.comps[k]) for k in range(X.chart.dim)]
    return VectorField(X.chart, comps)


def interior_product(X: VectorField, alpha: DifferentialForm) -> DifferentialForm:
    return alpha.interior(X)


def lie_derivative(X: VectorField, alpha: DifferentialForm) -> DifferentialForm:
    """Lie derivative L_X α.

    For a 1-form, componentwise: (L_X α)_k = X(α_k) + Σ_i α_i ∂_k X^i, which
    needs no exterior derivative and runs over jets as well as over
    expressions.  Other degrees use Cartan's formula L_X = d∘ι_X + ι_X∘d.
    """
    if alpha.degree == 1:
        chart = alpha.chart
        comps = {}
        for k in range(chart.dim):
            total = X.apply(alpha.comps[(k,)]) if (k,) in alpha.comps else None
            for (i,), a_i in alpha.comps.items():
                if X.comps[i].is_zero:
                    continue
                dX = chart.derive(X.comps[i], k)
                if not dX.is_zero:
                    total = a_i * dX if total is None else total + a_i * dX
            if total is not None:
                comps[(k,)] = total
        return DifferentialForm(chart, 1, comps)
    if alpha.degree == 0:
        return DifferentialForm.scalar(alpha.chart, X.apply(alpha.coefficient(())))
    term1 = alpha.interior(X).d()
    if alpha.degree == alpha.chart.dim:
        return term1  # dα vanishes in top degree
    return term1 + alpha.d().interior(X)


class CoframeChart:
    """An invertible frame of 1-forms on a chart, with its exact dual frame."""

    def __init__(self, chart: Chart, forms: Sequence[DifferentialForm],
                 labels: Sequence[str] | None = None):
        if len(forms) != chart.dim:
            raise FormError("a coframe needs exactly dim forms")
        for f in forms:
            if f.degree != 1 or f.chart != chart:
                raise FormError("coframe entries must be 1-forms on the chart")
        self.chart = chart
        self.forms = list(forms)
        self.labels = list(labels) if labels else [f"w{i}" for i in range(chart.dim)]
        self.matrix = [[f.coefficient((k,)) for k in range(chart.dim)] for f in forms]
        d = linalg.det(self.matrix)
        if d.is_zero:
            raise FormError("coframe coefficient matrix is singular")
        self.det = d
        self.inverse = linalg.inverse(self.matrix)

    def dual_frame(self) -> list[VectorField]:
        n = self.chart.dim
        return [VectorField(self.chart, [self.inverse[k][j] for k in range(n)])
                for j in range(n)]

    def expand_one_form(self, alpha: DifferentialForm) -> list[Expr]:
        if alpha.degree != 1:
            raise FormError("expected a 1-form")
        n = self.chart.dim
        a = [alpha.coefficient((k,)) for k in range(n)]
        return [sum((a[k] * self.inverse[k][i] for k in range(n)), Expr.from_int(0))
                for i in range(n)]

    def expand_two_form(self, alpha: DifferentialForm) -> dict[tuple[int, int], Expr]:
        if alpha.degree != 2:
            raise FormError("expected a 2-form")
        n = self.chart.dim
        out: dict[tuple[int, int], Expr] = {}
        for i in range(n):
            for j in range(i + 1, n):
                value = Expr.from_int(0)
                for (k, l), coeff in alpha.comps.items():
                    value = value + coeff * (
                        self.inverse[k][i] * self.inverse[l][j]
                        - self.inverse[k][j] * self.inverse[l][i])
                if not value.is_zero:
                    out[(i, j)] = value
        return out


def certified_rank(rows: Sequence[Sequence[Expr | Jet]]) -> int | None:
    """Rank of a matrix of expressions over the rational-function field.

    The matrix is ranked mod P at the seeded point of F_P
    (:func:`engelkit.jets.point_value`).  That rank proves the answer when
    it is min(rows, columns).  Otherwise a matrix of expressions is ranked
    by symbolic elimination, and a matrix of jets gets None, so that the
    caller ranks the symbolic rows instead.
    """
    if not rows:
        return 0
    full = min(len(rows), len(rows[0]))
    if isinstance(rows[0][0], Jet):
        values = [[e.value for e in row] for row in rows]
        return full if linalg.rank_mod(values, P) == full else None
    names = {v.name for row in rows for e in row for v in e.occurring_vars()}
    point = {name: jets.point_value(name) for name in names}
    try:
        values = [[Jet.from_expr(e, (), point).value for e in row] for row in rows]
    except ZeroDivisionError:  # an entry has a pole at the point
        return linalg.rank(rows)
    return full if linalg.rank_mod(values, P) == full else linalg.rank(rows)


def generic_rank(fields: Sequence[VectorField]) -> int | None:
    """Rank of the component matrix over the rational-function field
    (None over jets unless full: see :func:`certified_rank`)."""
    if not fields:
        raise FormError("need at least one vector field")
    return certified_rank([list(X.comps) for X in fields])


def distribution_growth(fields: Sequence[VectorField], depth: int = 3) -> tuple[int, ...] | None:
    """Growth vector of the distribution spanned by the given fields.

    Entry k is the generic rank of the span after k rounds of bracketing the
    original distribution into the previous step.  Only brackets that can
    add to the span are formed: [X, X] = 0 and [Y, X] = -[X, Y] leave one
    bracket per pair in the first round, and each later round brackets the
    generators with the fields the previous round added.  Once a round adds
    nothing, the span is closed under bracketing with the generators and the
    growth stays put.  Over jets the growth is None as soon as a rank is not
    full (:func:`certified_rank`).
    """
    if depth > 3:
        raise FormError("growth depth is capped at 3")
    fields = list(fields)
    rows = [list(X.comps) for X in fields]
    growth = [certified_rank(rows)]
    added: list[VectorField] = []
    for step in range(1, depth):
        if growth[-1] is None:
            return None
        if step == 1:
            added = [lie_bracket(fields[i], fields[j])
                     for i in range(len(fields)) for j in range(i + 1, len(fields))]
        else:
            added = [lie_bracket(X, Y) for X in fields for Y in added]
        rows += [list(X.comps) for X in added]
        growth.append(certified_rank(rows))
        if growth[-1] == growth[-2]:
            return tuple(growth + [growth[-1]] * (depth - 1 - step))
    return None if growth[-1] is None else tuple(growth)


def type_of(X: VectorField, theta: DifferentialForm) -> int | None:
    """Generic rank of (θ, L_Xθ, L_X²θ, L_X³θ) for X inside ker θ
    (None over jets unless full: see :func:`certified_rank`)."""
    if theta.degree != 1:
        raise FormError("the contact form must be a 1-form")
    if not X.pair(theta).is_zero:
        raise FormError("the field does not lie in the kernel of the contact form")
    zero = _zero_like(X.comps[0])
    rows = []
    current = theta
    for step in range(4):
        rows.append([current.comps.get((k,), zero) for k in range(X.chart.dim)])
        if step < 3:
            current = lie_derivative(X, current)
    return certified_rank(rows)


def pullback(alpha: DifferentialForm, mapping: Mapping[str, Expr],
             target: Chart) -> DifferentialForm:
    """Pull back a form through the map target-chart -> source-chart.

    ``mapping`` sends each source chart variable name to its expression in
    the target chart variables.
    """
    source = alpha.chart
    images = {name: mapping[name] for name in source.names}
    differentials = {name: DifferentialForm.scalar(target, image).d()
                     for name, image in images.items()}
    subs_map = {name: images[name] for name in source.names}
    result = DifferentialForm.zero(target, alpha.degree)
    for idx, coeff in alpha.comps.items():
        new_coeff = coeff.substitute(subs_map)
        term = DifferentialForm.scalar(target, new_coeff)
        piece: DifferentialForm | None = None
        for i in idx:
            dfi = differentials[source.names[i]]
            piece = dfi if piece is None else piece.wedge(dfi)
        if piece is None:  # degree 0
            result = result + term
        else:
            result = result + piece * new_coeff
    return result
