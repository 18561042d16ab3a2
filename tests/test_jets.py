"""Tests for Taylor jets mod P and the point certificate of the geometry ranks."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from engelkit import engel, forms, jets, linalg
from engelkit.cli import run
from engelkit.forms import distribution_growth, generic_rank, type_of
from engelkit.jets import ORDER, P, Jet
from engelkit.symexpr import Expr, integer, parse, symbol

from test_acceptance import seeded_markings

COORDS = ("x0", "x1", "x2", "x3", "x4")
NAMES = COORDS + ("s",)


def mod_p(value) -> int:
    return value.numerator * pow(value.denominator, -1, P) % P


@st.composite
def polynomials(draw, max_terms=4):
    total = integer(draw(st.integers(-3, 3)))
    for _ in range(draw(st.integers(1, max_terms))):
        term = integer(draw(st.sampled_from([-5, -2, -1, 1, 2, 7])))
        for name in draw(st.lists(st.sampled_from(NAMES), max_size=3)):
            term = term * symbol(name)
        total = total + term
    return total


@st.composite
def rational_functions(draw):
    numer = draw(polynomials())
    if draw(st.booleans()):
        return numer
    denom = draw(polynomials(max_terms=3))
    assume(not denom.is_zero)
    return numer / denom


@settings(max_examples=60, deadline=None)
@given(rational_functions(),
       st.lists(st.integers(0, P - 1), min_size=len(NAMES), max_size=len(NAMES)),
       st.lists(st.sampled_from(range(5)), max_size=ORDER))
def test_jet_derivatives_match_expr_diff(e, values, path):
    point = dict(zip(NAMES, values))
    assume(e.denominator().evaluate(point) % P != 0)
    jet = Jet.from_expr(e, COORDS, point)
    assert jet.order == ORDER
    assert jet.value == mod_p(e.evaluate(point))
    for v in path:
        jet = jet.partial(v)
        e = e.diff(COORDS[v])
        assert jet.value == mod_p(e.evaluate(point))
    assert jet.order == ORDER - len(path)


@settings(max_examples=30, deadline=None)
@given(rational_functions(), rational_functions(),
       st.lists(st.integers(0, P - 1), min_size=len(NAMES), max_size=len(NAMES)),
       st.integers(0, 4))
def test_jet_arithmetic_matches_expr_arithmetic(a, b, values, v):
    point = dict(zip(NAMES, values))
    assume(a.denominator().evaluate(point) % P != 0)
    assume(b.denominator().evaluate(point) % P != 0)
    ja, jb = Jet.from_expr(a, COORDS, point), Jet.from_expr(b, COORDS, point)
    for got, want in ((ja + jb, a + b), (ja - jb, a - b), (ja * jb, a * b),
                      (3 - ja, 3 - a), (ja * -2, a * -2)):
        assert got.partial(v).value == mod_p(want.diff(COORDS[v]).evaluate(point))


@settings(max_examples=60, deadline=None)
@given(rational_functions(),
       st.lists(st.sampled_from([0, 1, 2, P - 1, P - 2]), min_size=len(NAMES),
                max_size=len(NAMES)))
@example(parse("1/(x4 - x3)"), [7] * len(NAMES))
@example(parse("x1/(x0 + x1)"), [P - 1, 1, 0, 0, 0, 0])
def test_jet_without_coordinates_is_the_value_mod_p(e, values):
    # small values and their negatives mod P make denominators vanish often
    point = dict(zip(NAMES, values))
    if e.denominator().evaluate(point) % P == 0:
        with pytest.raises(ZeroDivisionError):
            Jet.from_expr(e, (), point)
    else:
        assert Jet.from_expr(e, (), point).value == mod_p(e.evaluate(point))


def test_order_zero_jet_has_no_derivative():
    jet = Jet.from_expr(parse("x1^2"), COORDS, dict.fromkeys(NAMES, 5))
    for v in range(ORDER):
        jet = jet.partial(1)
    assert jet.order == 0 and jet.value == 0
    with pytest.raises(ValueError):
        jet.partial(1)


def test_vanishing_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        Jet.from_expr(parse("1/(x4 - x3)"), COORDS, dict.fromkeys(NAMES, 7))
    # a pole mod P that is no pole over Q is still refused
    with pytest.raises(ZeroDivisionError):
        Jet.from_expr(parse("x1/(x2 - 5)"), COORDS, {**dict.fromkeys(NAMES, 1), "x2": P + 5})


def test_rank_mod():
    assert linalg.rank_mod([[1, 2], [2, 4]], P) == 1
    assert linalg.rank_mod([[P, 0], [0, 1]], P) == 1
    assert linalg.rank_mod([[2, 1], [1, 3]], 5) == 1
    assert linalg.rank_mod([[2, 1], [1, 3]], 7) == 2
    assert linalg.rank_mod([], P) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=5),
       st.sampled_from([2, 3, 5, P]))
def test_rank_mod_never_exceeds_the_rational_rank(rows, p):
    assert linalg.rank_mod(rows, p) <= linalg.rank(rows)


def test_jet_module_uses_integers_only():
    tree = ast.parse(Path(jets.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
        assert not (isinstance(node, ast.Name) and node.id == "float")
    assert imported <= {"__future__", "random", "functools", "itertools", "math", "typing"}


# ---------------------------------------------------------------------------
# the point certificate in the geometry battery
# ---------------------------------------------------------------------------

KERR = ["(x1 - 2*x3)/(-x2 + 2*x4)", "(x1 - s*x3)/(-x2 + s*x4)", "(x1 + 5*x3)/(-x2 - 5*x4)"]


def point_answers(acf):
    frame, theta = acf.frame_jets
    return (distribution_growth(frame[3:5]),
            generic_rank(engel._derived(frame[2:5])),
            type_of(frame[4], theta))


def symbolic_answers(acf):
    frame = acf.frame
    return (distribution_growth(frame[3:5]),
            generic_rank(engel._derived(frame[2:5])),
            type_of(frame[4], acf.omega[0]))


@pytest.mark.parametrize("t", [*map(str, seeded_markings()), "x4", "3*x1*x3", "1/x4"])
def test_point_answer_equals_symbolic_answer(t):
    acf = engel.adapted_coframe(parse(t))
    point, symbolic = point_answers(acf), symbolic_answers(acf)
    if engel.invariants_closed_form(acf).J.is_zero:
        assert point == (None, None, None)
    else:
        assert point == symbolic == ((2, 3, 5), 5, 4)


@pytest.mark.parametrize("t", KERR)
def test_point_leaves_kerr_ranks_to_the_symbolic_path(t):
    acf = engel.adapted_coframe(parse(t))
    assert point_answers(acf) == (None, None, None)
    assert symbolic_answers(acf) == ((2, 2, 2), 4, 2)


@pytest.fixture
def expr_calls(monkeypatch):
    """Count lie_bracket and lie_derivative calls by scalar type."""
    calls = {"expr": 0, "jet": 0}

    def counting(fn):
        def wrapped(X, other):
            calls["expr" if isinstance(X.comps[0], Expr) else "jet"] += 1
            return fn(X, other)
        return wrapped

    for module in (forms, engel):
        monkeypatch.setattr(module, "lie_bracket", counting(forms.lie_bracket))
    monkeypatch.setattr(forms, "lie_derivative", counting(forms.lie_derivative))
    return calls


@pytest.mark.parametrize("t", ["-x1*x4 + x1 + x2 - x3 + 1", "3*x1*x3", "-2*x4^2", "x4"])
def test_nonintegrable_geometry_builds_no_symbolic_brackets(t, expr_calls):
    code, report = run(["geometry", "--t", t])
    assert code == 0 and report.results["growth"] == [2, 3, 5]
    assert expr_calls["expr"] == 0
    assert expr_calls["jet"] > 0


def test_integrable_geometry_brackets_symbolically(expr_calls):
    code, report = run(["geometry", "--t", KERR[0]])
    assert code == 0 and report.results["growth"] == [2, 2, 2]
    assert expr_calls["expr"] > 0 and expr_calls["jet"] == 0


def test_non_full_point_rank_falls_back_to_symbolic(monkeypatch):
    # at the origin J vanishes for 3*x1*x3, so every rank there drops
    monkeypatch.setattr(jets, "point_value", lambda name: 0)
    acf = engel.adapted_coframe(parse("3*x1*x3"))
    assert point_answers(acf) == (None, None, None)
    rep = engel.geometric_checks(acf)
    assert (rep.growth, rep.osculating_derived_rank, rep.marked_line_type) == ((2, 3, 5), 5, 4)
    assert rep.all_consistent()


def test_point_on_a_pole_is_skipped(monkeypatch, expr_calls):
    # every coordinate takes the same value, so x4 - x3 vanishes at the point
    monkeypatch.setattr(jets, "point_value", lambda name: 7)
    acf = engel.adapted_coframe(parse("1/(x4 - x3)"))
    assert acf.frame_jets is None
    rep = engel.geometric_checks(acf)
    assert (rep.growth, rep.osculating_derived_rank, rep.marked_line_type) == ((2, 3, 5), 5, 4)
    assert rep.all_consistent()
    assert expr_calls["expr"] > 0 and expr_calls["jet"] == 0
