"""Tests of the benchmark's own machinery: every independent check accepts a
right answer and rejects a deliberately wrong one, the inputs follow the
seed, and the tracer attributes every second of an item.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, X  # noqa: E402
from workloads import Item  # noqa: E402


def _cli(results: dict, code: int = 0, status: str = "ok") -> dict:
    return {"code": code, "report": {"status": status, "results": results}}


def _engelkit(e) -> str:
    return str(e).replace("**", "^")


def _invariants_outcome(marking: str) -> dict:
    table = {name: "0" for name in checks.INVARIANT_NAMES}
    table["J"] = _engelkit(checks.reference_J(marking))
    table["a"] = _engelkit(checks.to_sympy(marking) * X[1])
    return _cli({"invariants": table, "routes_agree": True})


def _rejects(check, item, outcome, *extra):
    with pytest.raises(CheckError):
        check(item, outcome, *extra)


# -- invariants ------------------------------------------------------------


def test_reference_J_of_a_linear_marking():
    # t = x3: only t_x3 = 1 survives, so J = t * t_x3 = x3.
    assert checks.reference_J("x3") == X[3]


def test_invariants_check():
    item = Item("invariants", marking="2*x1*x3 + x0")
    good = _invariants_outcome(item.marking)
    checks.check_invariants(item, good)

    wrong_j = copy.deepcopy(good)
    wrong_j["report"]["results"]["invariants"]["J"] += " + 1"
    _rejects(checks.check_invariants, item, wrong_j)

    disagree = copy.deepcopy(good)
    disagree["report"]["results"]["routes_agree"] = False
    _rejects(checks.check_invariants, item, disagree)

    failed = copy.deepcopy(good)
    failed["report"]["status"] = "verification-failed"
    _rejects(checks.check_invariants, item, failed)


def test_kerr_family_must_have_zero_J():
    item = Item("invariants", marking=workloads.kerr_marking(3), meta={"kerr_s": "3"})
    good = _invariants_outcome(item.marking)
    assert good["report"]["results"]["invariants"]["J"] == "0"
    checks.check_invariants(item, good)

    # A non-Kerr marking passed off as a Kerr item: its J is right but not 0.
    fake = Item("invariants", marking="x3", meta={"kerr_s": "3"})
    _rejects(checks.check_invariants, fake, _invariants_outcome("x3"))


def test_translation_check():
    base_item = Item("invariants", marking="x1*x4 + x0")
    base = _invariants_outcome(base_item.marking)
    moved_marking = workloads.translate(base_item.marking, "x4", 2)
    item = Item("invariants", marking=moved_marking,
                meta={"translate_of": 0, "coordinate": "x4", "shift": 2})
    moved = _invariants_outcome(moved_marking)
    checks.check_invariants(item, moved, base)

    # The untranslated invariant "a" is not the shifted one.
    unshifted = copy.deepcopy(moved)
    unshifted["report"]["results"]["invariants"]["a"] = \
        base["report"]["results"]["invariants"]["a"]
    _rejects(checks.check_invariants, item, unshifted, base)


# -- geometry --------------------------------------------------------------


def _geometry_outcome(integrable: bool) -> dict:
    return _cli({"tangent_plane_integrable": integrable,
                 "growth": [2, 2, 2] if integrable else [2, 3, 5],
                 "consistent": True})


def test_geometry_check():
    item = Item("geometry", marking="x3", meta={"class": "cheap"})
    checks.check_geometry(item, _geometry_outcome(False))
    _rejects(checks.check_geometry, item, _geometry_outcome(True))

    wrong_growth = _geometry_outcome(False)
    wrong_growth["report"]["results"]["growth"] = [2, 3, 4]
    _rejects(checks.check_geometry, item, wrong_growth)

    inconsistent = _geometry_outcome(False)
    inconsistent["report"]["results"]["consistent"] = False
    _rejects(checks.check_geometry, item, inconsistent)

    kerr = Item("geometry", marking=workloads.kerr_marking(-2), meta={"class": "kerr"})
    checks.check_geometry(kerr, _geometry_outcome(True))
    _rejects(checks.check_geometry, kerr, _geometry_outcome(False))


# -- bundle ----------------------------------------------------------------


def test_tautological_check():
    item = Item("tautological", marking="x3")
    good = {name: True for name in checks.TORSION_IDENTITIES}
    checks.check_tautological(item, good)
    for name in checks.TORSION_IDENTITIES:
        _rejects(checks.check_tautological, item, {**good, name: False})


def test_verify_flat_check():
    item = Item("verify-flat", ["reduction", "verify-flat"])
    good = _cli({"equations": {e: True for e in checks.FLAT_EQUATIONS}, "pass": True})
    checks.check_verify_flat(item, good)
    wrong = copy.deepcopy(good)
    wrong["report"]["results"]["equations"]["e5"] = False
    _rejects(checks.check_verify_flat, item, wrong)
    missing = copy.deepcopy(good)
    del missing["report"]["results"]["equations"]["e12"]
    _rejects(checks.check_verify_flat, item, missing)


# -- algebra ---------------------------------------------------------------


def _mutations(good: dict, path: tuple, wrong_values):
    for value in wrong_values:
        outcome = copy.deepcopy(good)
        target = outcome["report"]["results"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        yield outcome


ALGEBRA_CASES = [
    ("g2", {}, {"structure_equations": "14/14 matched", "jacobi": "364/364 triples",
                "killing": {"signature": [8, 6, 0]},
                "bilinear_form": {"dimension": 1, "signature": [3, 4, 0]}},
     [(("killing", "signature"), [[6, 8, 0], [7, 7, 0]]),
      (("jacobi",), ["363/364 triples"]),
      (("structure_equations",), ["13/14 matched"])]),
    ("prolong", {"g0": "gl2"}, {"total_dimension": 14},
     [(("total_dimension",), [13, 15])]),
    ("prolong", {"g0": "borel"}, {"total_dimension": 9, "matches_parabolic": True},
     [(("total_dimension",), [8]), (("matches_parabolic",), [False])]),
    ("cohomology", {}, {"H1_full_l1..l4": [0, 0, 0, 0], "H2_full_hom1": 8,
                        "H2_parabolic_hom1": 9},
     [(("H1_full_l1..l4",), [[0, 1, 0, 0]]), (("H2_full_hom1",), [9]),
      (("H2_parabolic_hom1",), [8])]),
    ("normalization", {}, {"image_full_dim": 16, "image_parabolic_dim": 15},
     [(("image_full_dim",), [15]), (("image_parabolic_dim",), [16])]),
    ("models", {}, {"systems": {"submax-minus": {"closed": True,
                                                 "killing_signature": [5, 3, 0]},
                                "submax-plus": {"closed": True,
                                                "killing_signature": [4, 4, 0]}}},
     [(("systems", "submax-plus", "killing_signature"), [[5, 3, 0]]),
      (("systems", "submax-minus", "closed"), [False])]),
    ("fibration", {}, {"forms_match": [True] * 6, "pass": True},
     [(("forms_match",), [[True] * 5 + [False]]), (("pass",), [False])]),
    ("cubic", {}, {"symplectic_line_dimension": 1, "stabilizer_dimension": 4,
                   "pass": True},
     [(("stabilizer_dimension",), [3]), (("symplectic_line_dimension",), [2])]),
]


@pytest.mark.parametrize("kind, meta, results, wrong", ALGEBRA_CASES,
                         ids=[f"{c[0]}-{c[1].get('g0', '')}" for c in ALGEBRA_CASES])
def test_algebra_checks(kind, meta, results, wrong):
    item = Item(kind, meta=meta)
    good = _cli(results)
    checks.CHECKS[kind](item, good)
    for path, values in wrong:
        for outcome in _mutations(good, path, values):
            _rejects(checks.CHECKS[kind], item, outcome)


def test_kerr_solve_check():
    point = {"x0": 0.5, "x1": 1.25, "x2": -0.75, "x3": 0.375, "x4": 1.5}
    item = Item("kerr-solve", meta={"point": point})
    closed = (1.25 - 0.75) / (0.75 + 3.0)
    checks.check_kerr_solve(item, _cli({"t": closed}))
    _rejects(checks.check_kerr_solve, item, _cli({"t": closed + 1e-9}))
    _rejects(checks.check_kerr_solve, item, _cli({"t": -closed}))


# -- inputs and tracing ----------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_follow_the_seed(workload):
    def plan(seed, round_no):
        return [(i.kind, i.argv, i.marking, i.meta)
                for i in workloads.make_round(workload, seed, round_no)]

    assert plan(5, 0) == plan(5, 0)
    kinds = [entry[0] for entry in plan(5, 0)]
    assert kinds == [entry[0] for entry in plan(6, 3)]  # same mix every round
    if workload != "bundle":  # the bundle's first and last items take no seed
        assert plan(5, 0) != plan(6, 0)


def test_shapes_and_translations_are_fixed():
    assert len(workloads.SHAPES) == workloads.SHAPE_COUNT
    for coordinate, k in workloads.TRANSLATED.items():
        assert coordinate in workloads.polynomial_marking(
            workloads.SHAPES[k], workloads.random.Random(0))


def test_tracer_accounts_for_an_item():
    import engelkit.cli
    from engelkit import engel, symexpr
    from layertrace import Tracer

    originals = (engelkit.cli.run, engel.adapted_coframe, symexpr.Expr.__radd__)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_item()
        code, _ = engelkit.cli.run(["invariants", "--t=x3", "--format", "json"])
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert code == 0
    assert (engelkit.cli.run, engel.adapted_coframe, symexpr.Expr.__radd__) == originals
    assert tracer.worst_gap < 1e-6
    metrics = tracer.metrics(1.0)
    assert metrics["engel.invariants_closed_form_calls"]["value"] == 2
    assert metrics["symexpr.ops"]["value"] > 0
    assert metrics["cli.self_s"]["value"] > 0
    total = sum(v["value"] for k, v in metrics.items()
                if k.endswith("self_s") or k == "other_s")
    assert total == pytest.approx(metrics["trace.item_s"]["value"], abs=1e-6)


def test_warm_metrics_leave_out_the_first_round():
    from run import warm_metrics

    def round_of(*seconds):
        return ([None] * len(seconds), [], list(seconds), sum(seconds))

    cold = round_of(9.0, 9.0, 9.0)
    warm = [round_of(1.0, 2.0, 5.0), round_of(3.0, 2.0, 1.0)]
    items_per_s, item_p50_s = warm_metrics([cold, *warm])
    assert items_per_s == pytest.approx(6 / 14)
    assert item_p50_s == pytest.approx(2.0)  # per-item means 2, 2, 3
    assert warm_metrics([cold]) == (pytest.approx(1 / 9), pytest.approx(9.0))
