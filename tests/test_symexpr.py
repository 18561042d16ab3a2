"""Tests for the exact rational-function layer."""

from __future__ import annotations

import contextvars
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from engelkit import cli, engel, symexpr
from engelkit.symexpr import (
    DivisionByZeroError,
    Expr,
    PoleError,
    SyntaxExprError,
    UnassignedVariableError,
    VariableKindError,
    VarKind,
    _cofactors,
    _current_base,
    _field_for,
    _merge_vars,
    _proved_irreducible,
    diff,
    evaluate,
    factor_base,
    integer,
    make_var,
    parse,
    partial,
    rational,
    substitute,
    symbol,
)


def sym(name):
    return symbol(name)


class TestParse:
    def test_polynomial(self):
        e = parse("x1 + 3*t*x2")
        assert e == sym("x1") + 3 * sym("t") * sym("x2")

    def test_rational_with_free_parameter(self):
        e = parse("(x1 - s*x3)/(-x2 + s*x4)")
        expected = (sym("x1") - sym("s") * sym("x3")) / (-sym("x2") + sym("s") * sym("x4"))
        assert e == expected
        assert {v.kind for v in e.occurring_vars() if v.name == "s"} == {VarKind.FREE}

    def test_cancellation(self):
        assert parse("x1/x1") == integer(1)

    def test_power_and_unary_minus(self):
        assert parse("-x1^2") == -(sym("x1") ** 2)
        assert parse("(-x1)^2") == sym("x1") ** 2

    def test_rational_literals(self):
        assert parse("1/3 + 1/6") == rational(1, 2)

    def test_roundtrip_is_fixed_point(self):
        rng = random.Random(7)
        names = ["x0", "x1", "x2", "s", "t", "delta"]
        for _ in range(25):
            e = _random_expr(rng, names)
            text = str(e)
            again = parse(text)
            assert again == e
            assert str(again) == text

    def test_syntax_error_position(self):
        with pytest.raises(SyntaxExprError) as err:
            parse("x1 + @")
        assert err.value.pos == 5

    def test_unbalanced_parens(self):
        with pytest.raises(SyntaxExprError):
            parse("(x1 + x2")

    @pytest.mark.parametrize("text", ["(" * 1000 + "x3" + ")" * 1000, "-" * 5000 + "x3"],
                             ids=["parentheses", "minus-signs"])
    def test_deep_nesting_is_a_syntax_error(self, text):
        with pytest.raises(SyntaxExprError, match="nested more than 100 deep") as err:
            parse(text)
        assert err.value.pos == 100

    def test_nesting_up_to_the_limit_parses(self):
        assert parse("(" * 100 + "x3" + ")" * 100) == symbol("x3")
        assert parse("-" * 100 + "x3") == symbol("x3")
        assert parse("-(" * 50 + "x3" + ")" * 50) == symbol("x3")

    def test_literal_zero_denominator(self):
        with pytest.raises(SyntaxExprError):
            parse("x1/(x2 - x2)")

    def test_context_overrides_kind(self):
        e = parse("u0 + x1", {"u0": VarKind.COORDINATE})
        kinds = {v.name: v.kind for v in e.occurring_vars()}
        assert kinds["u0"] == VarKind.COORDINATE

    def test_reserved_kind_cannot_be_overridden(self):
        with pytest.raises(SyntaxExprError):
            parse("x1", {"x1": VarKind.FREE})


class TestArith:
    def test_inverse_pair(self):
        assert (sym("x1") / sym("x2")) * (sym("x2") / sym("x1")) == integer(1)

    def test_binomial_identity(self):
        x1, x2 = sym("x1"), sym("x2")
        assert (x1 + x2) ** 2 - (x1 ** 2 + 2 * x1 * x2 + x2 ** 2) == integer(0)

    def test_exact_rationals(self):
        assert rational(1, 3) + rational(1, 6) == rational(1, 2)

    def test_division_by_zero_expr(self):
        with pytest.raises(DivisionByZeroError):
            sym("x1") / (sym("x2") - sym("x2"))

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(2024)
        names = ["x0", "x1", "x2", "s"]
        for _ in range(20):
            a = _random_expr(rng, names)
            b = _random_expr(rng, names)
            c = _random_expr(rng, names)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_canonical_idempotence(self):
        # re-normalizing (printing and re-parsing) is the identity
        rng = random.Random(11)
        for _ in range(15):
            e = _random_expr(rng, ["x1", "x2", "s"])
            assert parse(str(e)) == e

    def test_denominator_leading_coefficient_positive(self):
        e = sym("x1") / (-sym("x2") + sym("s") * sym("x4"))
        den_text = str(e.denominator())
        assert not den_text.startswith("-")

    def test_negative_power_keeps_the_denominator_sign(self):
        e = parse("(-x1)^-1")
        assert str(e) == str(-1 / sym("x1")) == "(-1)/x1"
        assert e._key() == (-1 / sym("x1"))._key()
        assert hash(e) == hash(-1 / sym("x1"))

    def test_kind_conflict_detected(self):
        a = symbol("w", VarKind.FREE)
        b = symbol("w", VarKind.COORDINATE)
        with pytest.raises(VariableKindError):
            a + b


class TestDiff:
    def test_product_of_independents(self):
        assert diff(sym("x1") * sym("x4"), "x4") == sym("x1")

    def test_chain_rule_on_jet(self):
        t = sym("t")
        assert diff(t ** 3, "x1") == 3 * t ** 2 * sym("t_x1")

    def test_quotient_rule_against_cleared_denominator_oracle(self):
        # independent oracle: for e = N/D, verify e' * D^2 == N'D - ND'
        x1, x2, x3, x4, s = (sym(n) for n in ["x1", "x2", "x3", "x4", "s"])
        num = x1 - s * x3
        den = -x2 + s * x4
        e = num / den
        de = diff(e, "x4")
        lhs = de * den ** 2
        rhs = diff(num, "x4") * den - num * diff(den, "x4")
        assert lhs == rhs
        assert de == -s * (x1 - s * x3) / (-x2 + s * x4) ** 2

    def test_second_order_jets_are_symmetric(self):
        e = diff(diff(sym("t"), "x3"), "x1")
        assert e == sym("t_x1x3")
        assert diff(diff(sym("t"), "x1"), "x3") == e

    def test_third_order_jets_are_symmetric(self):
        orders = [("x2", "x0", "x2"), ("x0", "x2", "x2"), ("x2", "x2", "x0")]
        results = []
        for order in orders:
            e = sym("t") ** 2
            for name in order:
                e = diff(e, name)
            results.append(e)
        assert results[0] == results[1] == results[2]
        t = sym("t")
        assert results[0] == 4 * sym("t_x0x2") * sym("t_x2") \
            + 2 * sym("t_x0") * sym("t_x2x2") + 2 * t * sym("t_x0x2x2")
        assert make_var("t_x2x0x2").kind is VarKind.JET
        assert sym("t_x2x0x2") == sym("t_x0x2x2")
        assert diff(sym("t_x2x0"), "x2") == sym("t_x0x2x2")

    def test_mixed_partials_commute_without_jets(self):
        rng = random.Random(5)
        for _ in range(10):
            e = _random_expr(rng, ["x0", "x1", "x2", "x3"])
            assert diff(diff(e, "x1"), "x3") == diff(diff(e, "x3"), "x1")

    def test_free_parameters_have_zero_derivative(self):
        assert diff(sym("s") * sym("x1"), "x1") == sym("s")
        assert partial(sym("s"), "s") == integer(1)

    def test_diff_by_non_coordinate_rejected(self):
        with pytest.raises(VariableKindError):
            diff(sym("x1"), "s")


class TestEvaluate:
    def test_exact_rational_point(self):
        assert evaluate(sym("x1") / sym("x2"), {"x1": 1, "x2": 2}) == Fraction(1, 2)

    def test_all_ones(self):
        e = sym("x1") * sym("x4") - 3 * sym("x2") * sym("x3")
        assert evaluate(e, {"x1": 1, "x2": 1, "x3": 1, "x4": 1}) == -2

    def test_hand_substitution(self):
        e = (sym("x1") - 2 * sym("x3")) / (-sym("x2") + 2 * sym("x4"))
        assert evaluate(e, {"x1": 3, "x2": 1, "x3": 1, "x4": 1}) == 1

    def test_float_point_gives_float(self):
        v = evaluate(sym("x1") / sym("x2"), {"x1": 1.0, "x2": 3})
        assert isinstance(v, float)
        assert abs(v - 1 / 3) < 1e-15

    def test_pole(self):
        with pytest.raises(PoleError):
            evaluate(sym("x1") / sym("x2"), {"x1": 1, "x2": 0})

    def test_unassigned_variable(self):
        with pytest.raises(UnassignedVariableError):
            evaluate(sym("x1") + sym("x2"), {"x1": 1})


class TestSubstitute:
    def test_simple(self):
        e = sym("x1") ** 2 + sym("x2")
        assert substitute(e, {"x1": sym("x2")}) == sym("x2") ** 2 + sym("x2")

    def test_substitution_hitting_pole_is_an_error(self):
        e = sym("x1") / (sym("x1") - sym("x2"))
        with pytest.raises(DivisionByZeroError):
            substitute(e, {"x1": sym("x2")})

    def test_numbers_allowed(self):
        e = sym("x1") + sym("x2")
        assert substitute(e, {"x1": 2, "x2": Fraction(1, 2)}) == rational(5, 2)


def _random_expr(rng, names, depth=0):
    """Random small rational function; denominators kept provably nonzero."""
    choice = rng.random()
    if depth > 2 or choice < 0.4:
        kind = rng.random()
        if kind < 0.4:
            return integer(rng.randint(-4, 4))
        return sym(rng.choice(names)) ** rng.randint(1, 2)
    a = _random_expr(rng, names, depth + 1)
    b = _random_expr(rng, names, depth + 1)
    op = rng.choice("+-*/" if not b.is_zero else "+-*")
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / (b * b + 1)  # strictly positive denominator


# -- re-embedding between variable sets ----------------------------------------

# coordinates, jets, group parameters and free parameters, mixed
_EMBED_NAMES = ("c", "delta", "k", "s0", "s7", "t", "t_x0x2", "t_x1", "x0", "x3", "y2")


@st.composite
def rational_functions(draw):
    """A canonical low-degree rational function over a random subset of names,
    built in its own sympy field, so that only sympy does the arithmetic."""
    names = tuple(sorted(draw(st.lists(st.sampled_from(_EMBED_NAMES),
                                       unique=True, max_size=4))))
    fld, gens = _field_for(names)

    def poly(max_terms):
        total = fld.zero
        for _ in range(draw(st.integers(0, max_terms))):
            term = fld(draw(st.integers(-3, 3)))
            for gen in gens.values():
                term *= gen ** draw(st.integers(0, 2))
            total += term
        return total

    numer, denom = poly(3), poly(2)
    return Expr(numer / denom if denom else numer, tuple(make_var(n) for n in names))


def _set_field_in(e, variables):
    """The element of ``e`` over ``variables`` by sympy's name-based
    ``set_field``, which cancels again: the reference for re-embedding."""
    if variables == e._vars:
        return e._elem
    return e._elem.set_field(_field_for(tuple(v.name for v in variables))[0])


def _set_field_key(e):
    occ = e.occurring_vars()
    t = Expr(_set_field_in(e, occ), occ)
    num = tuple(sorted((mon, int(c)) for mon, c in t._elem.numer.terms()))
    den = tuple(sorted((mon, int(c)) for mon, c in t._elem.denom.terms()))
    return (tuple(v.name for v in occ), num, den)


def _exact(elem):
    return elem.field, dict(elem.numer), dict(elem.denom)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(max_examples=80, deadline=None)
@given(rational_functions(), rational_functions())
@example(integer(0), parse("x0/(1 - s0)"))
@example(rational(-3, 2), parse("c/(-t_x1 + y2)"))
@example(parse("(x3 - k)/(-2*delta*x3 + t)"), integer(7))
def test_reembedding_matches_set_field(a, b):
    variables = _merge_vars(a._vars, b._vars)
    for e in (a, b):
        assert _exact(e._in_field(variables)) == _exact(_set_field_in(e, variables))
    for op, apply in _OPS.items():
        if op == "/" and b.is_zero:
            continue
        x, y = _set_field_in(a, variables), _set_field_in(b, variables)
        reference = Expr(apply(x, y), variables)
        result = apply(a, b)
        assert str(result) == str(reference)
        assert result._key() == _set_field_key(reference)
        assert hash(result) == hash(_set_field_key(reference))


@settings(max_examples=40, deadline=None)
@given(rational_functions(), rational_functions())
def test_trim_is_idempotent(a, b):
    trimmed = a._trim()
    assert trimmed._trim() is trimmed
    assert _exact(trimmed._elem) == _exact(_set_field_in(a, a.occurring_vars()))
    variables = _merge_vars(a._vars, b._vars)
    padded = Expr(a._in_field(variables), variables)
    assert padded._trim()._key() == trimmed._key()
    assert str(padded) == str(a)


# -- cancellation on cofactors against sympy's field operations ----------------

_ARITH_NAMES = ("c", "t", "x1", "x2", "x3", "x4")
_ARITH_VARS = tuple(make_var(n) for n in _ARITH_NAMES)
_ARITH_FIELD, _ARITH_GENS = _field_for(_ARITH_NAMES)
# irreducibles shared between denominators, as on the Kerr markings
_SHARED_FACTORS = (
    lambda g: 3 * g["x2"] - 11 * g["x4"],
    lambda g: g["x1"] - 2 * g["x3"],
    lambda g: g["x3"] + 1,
    lambda g: g["c"] * g["x2"] + 1,
    lambda g: 2 * g["t"] - g["x4"],
)


@st.composite
def shared_factor_functions(draw):
    """A canonical n/d over one field, built by sympy's own arithmetic: d is
    a product of powers of shared irreducibles, an integer of either sign
    and sometimes a random polynomial; n is a polynomial, sometimes with a
    shared factor.  A quarter of the draws are polynomials."""
    gens = _ARITH_GENS

    def poly(max_terms):
        total = _ARITH_FIELD.zero
        for _ in range(draw(st.integers(0, max_terms))):
            term = _ARITH_FIELD(draw(st.integers(-3, 3)))
            for name in draw(st.lists(st.sampled_from(_ARITH_NAMES), max_size=3)):
                term *= gens[name]
            total += term
        return total

    factors = st.sampled_from(_SHARED_FACTORS)
    numer = poly(3)
    if draw(st.booleans()):
        numer *= draw(factors)(gens)
    if draw(st.integers(0, 3)) == 0:
        return Expr(numer, _ARITH_VARS)
    denom = _ARITH_FIELD(draw(st.sampled_from([1, -1, 2, -6])))
    for factor in draw(st.lists(factors, max_size=3)):
        denom *= factor(gens) ** draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        denom *= poly(2) or 1
    return Expr(numer / denom, _ARITH_VARS)


def _assert_same(result, reference):
    assert str(result) == str(reference)
    assert result._key() == reference._key()
    assert _exact(result._elem) == _exact(reference._elem)


@settings(max_examples=150, deadline=None)
@given(shared_factor_functions(), shared_factor_functions())
@example(parse("(x1*x2 + 1)/x2"), integer(3))
@example(parse("x1/(3*x2 - 11*x4)^2"), parse("(3*x2 - 11*x4)/(x1 - 2*x3)"))
@example(parse("1/(-2*x3 - 2)"), parse("x3/(x3 + 1)^2"))
@example(parse("1/(x1*x3 + x1)"), parse("-1/((x3 + 1)*(x1 + x3 + 1))"))  # x3 + 1 cancels
def test_cofactor_arithmetic_matches_sympy(a, b):
    a, b = (Expr(e._in_field(_ARITH_VARS), _ARITH_VARS) for e in (a, b))
    for op, apply in _OPS.items():
        if op == "/" and b.is_zero:
            continue
        _assert_same(apply(a, b), Expr(apply(a._elem, b._elem), _ARITH_VARS))
    for name, gen in _ARITH_GENS.items():
        _assert_same(a.partial(name), Expr(a._elem.diff(gen), _ARITH_VARS))


class TestCofactorRules:
    def _polys(self, *texts):
        return [parse(text)._in_field(_ARITH_VARS).numer for text in texts]

    def test_coprimality_test_answers_without_a_polynomial_gcd(self, monkeypatch):
        f, g = self._polys("2*x1*x2 + 4", "6*x2 - 4*x4")
        monkeypatch.setattr(type(f), "cofactors", None)  # must not be reached
        h, cf, cg = _cofactors(f, g)
        assert h == 2 and cf * 2 == f and cg * 2 == g
        f, g = self._polys("x1 + 1", "x3 - 2")  # disjoint supports
        assert _cofactors(f, g) == (1, f, g)

    def test_coprimality_test_falls_back_to_the_gcd(self):
        # in x1, x1*x2 + x2 has coefficients x2, x2; in x4, x2*x4 - 3*x2
        # has x2, -3*x2: no integer coefficient, so the GCD x2 is found
        f, g = self._polys("x1*x2 + x2", "x2*x4 - 3*x2")
        h, cf, cg = _cofactors(f, g)
        x1p1, x4m3, x2 = self._polys("x1 + 1", "x4 - 3", "x2")
        assert {h, -h} == {x2, -x2} and h * cf == f and h * cg == g
        assert {cf, -cf} == {x1p1, -x1p1} and {cg, -cg} == {x4m3, -x4m3}

    @pytest.mark.parametrize("text, name, expected", [
        ("(x1*x2 + 1)/x2", "x1", "1"),                  # denominator free of x1
        ("x1/(x1*x2 + x2)", "x1", "1/(x1^2*x2 + 2*x1*x2 + x2)"),  # x2 in gcd(d, d_x)
        ("(x1*x2 + x1 + 1)/(x1*x2 + x2)", "x1", "1/(x1^2 + 2*x1 + 1)"),  # x2 cancels
        ("(3*x1 + 1)/(2*x1 + 2)", "x1", "1/(x1^2 + 2*x1 + 1)"),  # content 2 cancels
        ("x1/(3*x2 - 11*x4)^2", "x2", "(-6*x1)/(27*x2^3 - 297*x2^2*x4 "
                                      "+ 1089*x2*x4^2 - 1331*x4^3)"),
    ])
    def test_partial_cancels_only_x_free_factors(self, text, name, expected):
        e = parse(text)
        assert str(e.partial(name)) == expected
        assert e.partial(name)._key() == parse(expected)._key()


# -- exact evaluation -----------------------------------------------------------


def _evaluate_reference(e, point):
    """The exact value written out independently: one ``Fraction`` per term."""
    values = dict(point)
    missing = [v.name for v in e.occurring_vars() if v.name not in values]
    if missing:
        raise UnassignedVariableError(f"unassigned variables: {', '.join(missing)}")

    def eval_poly(poly):
        total = Fraction(0)
        for mon, coeff in poly.terms():
            term = Fraction(int(coeff))
            for var, exp in zip(e._vars, mon):
                if exp:
                    term *= Fraction(values[var.name]) ** exp
            total += term
        return total

    den = eval_poly(e._elem.denom)
    if den == 0:
        raise PoleError("denominator vanishes at the evaluation point")
    return eval_poly(e._elem.numer) / den


_EVAL_VALUES = st.one_of(st.integers(-2, 2),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def evaluation_cases(draw):
    """A rational function whose denominator has small linear factors, and
    a small rational point, which often hits a pole and sometimes leaves a
    variable unassigned; names that do not occur may carry a float, which
    must not leave the exact branch."""
    e = draw(shared_factor_functions())._trim()
    point = {name: draw(_EVAL_VALUES) for name in _ARITH_NAMES
             if draw(st.integers(0, 9))}
    occurring = {v.name for v in e.occurring_vars()}
    for name in _ARITH_NAMES:
        if name not in occurring and draw(st.booleans()):
            point[name] = float("inf")
    return e, point


@settings(max_examples=200, deadline=None)
@given(evaluation_cases())
@example((parse("x1/(x2 - 1/2)"), {"x1": 3, "x2": Fraction(1, 2)}))  # pole
@example((parse("x1/(2*x2)"), {"x1": Fraction(-3, 4), "x2": Fraction(5, 6)}))
@example((parse("(x1 - x2)/x3"), {"x1": 1, "x2": 1, "x3": 7}))  # zero value
@example((parse("x1 + c"), {"x1": 1}))  # unassigned
@example((integer(5), {"x1": float("inf")}))  # constant: exact, no variables
def test_exact_evaluation_matches_fraction_loop(case):
    e, point = case
    try:
        expected = _evaluate_reference(e, point)
    except (PoleError, UnassignedVariableError) as exc:
        with pytest.raises(type(exc)):
            e.evaluate(point)
        return
    result = e.evaluate(point)
    assert type(result) is type(expected) is Fraction
    assert result == expected


# -- the factor base (rule 5) ----------------------------------------------------

_RING = _ARITH_FIELD.ring
_RING_GENS = {name: gen.numer for name, gen in _ARITH_GENS.items()}
# irreducibles beyond the shared ones: a quadric, a linear form with a
# negative leading coefficient, and a linear form met as a square below
_MORE_FACTORS = (
    lambda g: g["x1"] * g["x4"] - g["x2"] * g["x3"],
    lambda g: -g["x2"] + 3 * g["x4"],
    lambda g: g["x1"] - 7 * g["x3"],
    lambda g: g["x1"] ** 2 + g["c"] * g["x3"] + 1,
)


@st.composite
def factored_polynomials(draw):
    """A nonzero polynomial: an integer of either sign times powers of
    known irreducibles, and sometimes a random polynomial."""
    p = _RING(draw(st.sampled_from([1, -1, 2, -6, 9, -15])))
    for factor in draw(st.lists(st.sampled_from(_SHARED_FACTORS + _MORE_FACTORS),
                                max_size=3)):
        p *= factor(_RING_GENS) ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        extra = _RING.zero
        for _ in range(draw(st.integers(1, 3))):
            term = _RING(draw(st.integers(-3, 3)))
            for name in draw(st.lists(st.sampled_from(_ARITH_NAMES), max_size=3)):
                term *= _RING_GENS[name]
            extra += term
        p *= extra or 1
    return p


def _seed_base():
    """Split polynomials over the current base, so that it holds primes
    and a record of splits before the checked arithmetic starts."""
    g = _RING_GENS
    for poly in ((3 * g["x2"] - 11 * g["x4"]) ** 2 * (g["x1"] - 2 * g["x3"]),
                 -6 * (g["x1"] * g["x4"] - g["x2"] * g["x3"]) * (g["x3"] + 1) ** 3,
                 (g["c"] * g["x2"] + 1) * (2 * g["t"] - g["x4"])):
        _current_base().split(poly)


def _assert_cofactors(f, g):
    h, cf, cg = _cofactors(f, g)
    H, CF, CG = f.cofactors(g)
    assert (h, cf, cg) in ((H, CF, CG), (-H, -CF, -CG))


@pytest.mark.parametrize("seeded", [False, True], ids=["empty", "seeded"])
@settings(max_examples=80, deadline=None)
@given(factored_polynomials(), factored_polynomials(), st.sampled_from([-1, 3]))
def test_factor_base_cofactors_match_sympy(seeded, f, g, unit):
    with factor_base():
        if seeded:
            _seed_base()
        _assert_cofactors(f, g)
        # again, now that the base has recorded the splits
        _assert_cofactors(g * unit, f)


@pytest.mark.parametrize("seeded", [False, True], ids=["empty", "seeded"])
@settings(max_examples=60, deadline=None)
@given(shared_factor_functions(), shared_factor_functions())
def test_factor_base_arithmetic_matches_sympy(seeded, a, b):
    with factor_base():
        if seeded:
            _seed_base()
        test_cofactor_arithmetic_matches_sympy.hypothesis.inner_test(a, b)


def _prime_count(base):
    return sum(map(len, base.primes.values()))


class TestFactorBase:
    def _poly(self, text):
        return parse(text)._in_field(_ARITH_VARS).numer

    @pytest.mark.parametrize("f, g", [
        ("(3*x2 - 11*x4)^3", "(3*x2 - 11*x4)^2*(x1 + 1)"),
        ("(3*x2 - 11*x4)^2*(x1 - 2*x3)", "(3*x2 - 11*x4)^5*(x1 - 2*x3)^2"),
        ("(x1*x4 - x2*x3)*(x1 - 7*x3)^2", "(x1 - 7*x3)^3*(x1*x4 - x2*x3 + 1)"),
        ("(x1*x4 - x2*x3)*(x1 - 7*x3)^2", "(x1*x4 - x2*x3)^2*(x1 - 7*x3)"),
        ("6*(x1 - 7*x3)^2", "-4*(x1 - 7*x3)*(x2 + 1)"),           # contents 6, 4
        ("-(3*x2 - 11*x4)*(x1 + x3)", "(-3*x2 + 11*x4)^2*x1"),     # negative leading
        ("-15*(x1 + x3 + 1)", "-25*(x1 + x3 + 1)^2*(x2 - x4)"),
        ("(x1^2 - x3^2)*(x2 + x4)", "(x1 + x3)^2*(x1*x2 - 1)"),   # factor_list
    ])
    def test_known_splits(self, f, g):
        f, g = self._poly(f), self._poly(g)
        with factor_base():
            for _ in range(2):  # the second round reads the record
                _assert_cofactors(f, g)
                _assert_cofactors(g, f)

    def test_split_is_a_factorisation_into_base_primes(self):
        f = self._poly("-12*(x1*x4 - x2*x3)*(x1 - 7*x3)^2*(3*x2 - 11*x4)^3")
        with factor_base():
            unit, factors = _current_base().split(f)
            product = _RING(unit)
            for p, e in factors:
                assert p.LC > 0 and p.content() == 1
                product *= p ** e
            assert product == f and unit == -12
            assert sorted(e for _, e in factors) == [1, 2, 3]

    def test_each_command_starts_with_an_empty_base(self, monkeypatch):
        seen = []
        original = engel.geometric_checks

        def spy(acf):
            base = _current_base()
            seen.append((base, _prime_count(base), len(base.splits)))
            result = original(acf)
            seen.append((base, _prime_count(base), len(base.splits)))
            return result

        monkeypatch.setattr(engel, "geometric_checks", spy)
        outer = _current_base()
        before = (_prime_count(outer), len(outer.splits))
        for _ in range(2):
            code, _ = cli.run(["geometry", "--t=(x1 - 3*x3)/(-x2 + 3*x4)"])
            assert code == 0
        (b1, p1, s1), (a1, q1, t1), (b2, p2, s2), (a2, q2, t2) = seen
        assert b1 is a1 and b2 is a2 and b1 is not b2 and outer not in (b1, b2)
        assert (p1, s1) == (p2, s2) == (0, 0)
        assert q1 == q2 > 0 and t1 == t2 > 0  # the command used its base
        assert _current_base() is outer and (_prime_count(outer), len(outer.splits)) == before

    def test_default_base_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(symexpr, "_BASE_LIMIT", 8)
        g = _RING_GENS
        line = 3 * g["x2"] - 11 * g["x4"]

        def work():
            sizes = []
            for k in range(1, 30):
                f = line ** (k % 3 + 1) * (g["x1"] + k * g["x3"])
                _assert_cofactors(f, line ** 2 * (g["x1"] + k))
                sizes.append(len(_current_base().splits))
            return sizes

        sizes = contextvars.Context().run(work)  # a fresh default base
        assert max(sizes) <= 8 and min(sizes) < max(sizes)


@st.composite
def small_polynomials(draw):
    """A primitive non-monomial polynomial of total degree at most 3: random,
    or a product of two random linear or quadratic ones."""
    def poly(degree):
        total = _RING.zero
        for _ in range(draw(st.integers(1, 5))):
            term = _RING(draw(st.integers(-4, 4)))
            for name in draw(st.lists(st.sampled_from(_ARITH_NAMES[2:]), max_size=degree)):
                term *= _RING_GENS[name]
            total += term
        return total

    p = poly(3) if draw(st.booleans()) else poly(1) * poly(draw(st.integers(1, 2)))
    assume(len(p) > 1)
    return p.primitive()[1]


@settings(max_examples=300, deadline=None)
@given(small_polynomials())
@example(parse("x1^2 - 14*x1*x3 - 7*x2^2 + 98*x2*x4 + 49*x3^2 - 343*x4^2")
         ._in_field(_ARITH_VARS).numer)  # rank 2, -7 not a square
@example(parse("(x1 + x2)^2 - 9*(x3 - x4)^2")._in_field(_ARITH_VARS).numer)
@example(parse("x1*x2 + x1 + x2 + 1")._in_field(_ARITH_VARS).numer)
def test_irreducibility_certificates_agree_with_factor_list(p):
    if _proved_irreducible(p):
        _, factors = p.factor_list()
        assert len(factors) == 1 and factors[0][1] == 1
