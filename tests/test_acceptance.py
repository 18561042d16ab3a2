"""Acceptance suite: one test per criterion, with stated tolerances and budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from engelkit import cubicalg, engel, g2alg, kerr, linalg, models, tanaka
from engelkit.forms import distribution_growth, generic_rank, lie_bracket
from engelkit.symexpr import integer, parse, symbol


def _report(number: int, text: str, started: float, budget: float | None = None):
    elapsed = time.time() - started
    budget_note = f", budget {budget:.0f}s" if budget else ""
    print(f"[criterion {number:2d}] PASS ({elapsed:.2f}s{budget_note}): {text}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def seeded_markings(seed: int = 20240, count: int = 20):
    """Seeded random polynomial markings of degree at most two."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(5)]
    out = []
    for _ in range(count):
        e = integer(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 5)):
            term = integer(rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 2)):
                term = term * symbol(rng.choice(names))
            e = e + term
        out.append(e)
    return out


def test_criterion_01_g2_table():
    started = time.time()
    alg = g2alg.commutator_table()  # raises on closure failure
    mc = g2alg.verify_maurer_cartan()
    assert mc.all_match, mc.mismatches
    assert alg.jacobi_violations() == []
    _report(1, "14 basis matrices close; all 14 structure equations exact; "
               "Jacobi holds on 364 triples", started, budget=5.0)


def test_criterion_02_parabolic_reduction():
    started = time.time()
    rep = g2alg.grading_and_parabolics()
    assert rep.parabolic_p1.indices == (0, 1, 2, 3, 4, 5, 6, 8, 12)
    assert rep.parabolic_p1.closed
    assert rep.reduction_matches
    _report(2, "9-generator span closes; annihilating the five complement forms "
               "reproduces the reduced system line-for-line", started)


def test_criterion_03_flat_invariants():
    started = time.time()
    inv = engel.invariants_closed_form(integer(0))
    assert all(v.is_zero for v in inv.main_fields().values())
    label = engel.classify(integer(0))
    assert label.leaf == "flat" and label.symmetry_dimension == 9
    _report(3, "zero marking has all invariants identically zero; classified "
               "flat with symmetry dimension 9", started)


def test_criterion_04_kerr_family():
    started = time.time()
    t = parse("(x1 - s*x3)/(-x2 + s*x4)")
    inv = engel.invariants_closed_form(t)
    assert inv.J.is_zero  # symbolic, with the free parameter s
    pair = kerr.verify_kerr_pair(parse("t - (s*y3 - y1)/y2"), t)
    assert pair.passed
    _report(4, "one-parameter family is integrable symbolically and verifies "
               "against its generating function exactly", started, budget=10.0)


def test_criterion_05_oracle_equivalence():
    started = time.time()
    markings = seeded_markings()
    assert len(markings) >= 20
    for t in markings:
        closed = engel.invariants_closed_form(t)
        structural = engel.invariants_from_structure_equations(t)
        for name, value in closed.main_fields().items():
            assert value == getattr(structural, name), (str(t), name)
        assert closed.J == engel.J_coordinate(t)
        acf = engel.adapted_coframe(t)
        assert closed.J == -acf.frame[4].apply(acf.t)
    _report(5, "20 seeded markings: closed-form and structure-equation routes "
               "agree on all ten invariants; J matches the coordinate "
               "polynomial and the frame derivative", started, budget=10.0)


def test_criterion_06_geometry_battery():
    started = time.time()
    markings = seeded_markings()
    for t in markings:
        inv = engel.invariants_closed_form(t)
        acf = engel.adapted_coframe(t)
        frame = acf.frame
        tangent = [frame[3], frame[4]]
        brackets = tangent + [lie_bracket(frame[3], frame[4])]
        integrable = generic_rank(brackets) == 2
        assert integrable == inv.J.is_zero
        if not inv.J.is_zero:
            assert distribution_growth(tangent) == (2, 3, 5)
        else:
            osculating = [frame[2], frame[3], frame[4]]
            derived = list(osculating)
            for i in range(3):
                for j in range(i + 1, 3):
                    derived.append(lie_bracket(osculating[i], osculating[j]))
            assert generic_rank(derived) == 4
        w = acf.omega
        lhs = w[2].d().wedge(w[0]).wedge(w[1]).wedge(w[2])
        assert lhs == acf.volume() * (2 * inv.J)
    _report(6, "20 seeded markings: integrability iff J = 0; growth (2,3,5) "
               "otherwise; derived osculating rank 4 when integrable; volume "
               "identity exact", started, budget=5.0)


def test_criterion_07_rigid_coframe_checks():
    started = time.time()
    quadratic = seeded_markings(seed=777, count=1)[0]
    for t in (integer(0), parse("x4"), quadratic):
        rep = engel.tautological_forms(t)
        assert rep.torsion_124, str(t)
        assert rep.torsion_102, str(t)
        assert rep.contact_structure_equation and rep.torsion_234
    _report(7, "tautological forms satisfy the displayed torsion "
               "identities exactly for zero, linear and seeded quadratic "
               "markings", started)


def test_criterion_08_flat_reduction():
    started = time.time()
    rep = engel.verify_flat_reduction()
    assert rep.all_zero(), rep.failures()
    _report(8, "all nine structure-bundle equations vanish identically on the "
               "9-variable chart", started, budget=10.0)


def test_criterion_09_tanaka():
    started = time.time()
    gl2 = cubicalg.gl2_basis()
    table = tanaka.tanaka_prolong(gl2)
    assert table.degree_dims == (4, 1, 0) and table.total_dimension == 14
    borel = [gl2[0], gl2[1], gl2[3]]
    table_b = tanaka.tanaka_prolong(borel)
    assert table_b.degree_dims == (1, 0) and table_b.total_dimension == 9
    for l in (1, 2, 3, 4):
        assert tanaka.cohomology_dim("g", 1, l) == 0
    assert tanaka.cohomology_dim("g", 2, 1) == 8
    assert tanaka.cohomology_dim("q", 2, 1) == 9
    obstruction = tanaka.normalization_obstruction()
    assert obstruction.image_full_dim == 16
    assert obstruction.image_parabolic_dim == 15
    assert obstruction.all_invariant_lines_in_parabolic_image
    _report(9, "prolongations total 14 and 9; first cohomology vanishes; "
               "second cohomology dims 8 and 9; image dims 16/15; every "
               "invariant line sits inside the parabolic image", started,
            budget=5.0)


def test_criterion_10_homogeneous_models():
    started = time.time()
    systems = models.catalogue()
    assert len(systems) == 7
    for system in systems:
        assert models.jacobi_check(system), system.name
    by_name = {s.name: s for s in systems}
    minus = models.identify(by_name["submax-minus"])
    plus = models.identify(by_name["submax-plus"])
    assert minus.semisimple and plus.semisimple
    assert minus.killing_signature == (5, 3, 0)
    assert plus.killing_signature == (4, 4, 0)
    assert minus.killing_signature != plus.killing_signature
    split = models.identify(by_name["six-dim-split"], split_ideals=True)
    assert split.ideal_split == ((3, True), (3, True))
    _report(10, "seven systems close exactly; submaximal pair semisimple with "
                "distinct signatures (5,3) and (4,4); 6-dim system splits "
                "into two simple 3-dim ideals", started, budget=5.0)


def test_criterion_11_numeric_kerr():
    started = time.time()
    rng = random.Random(2025)
    F = parse("y2*t - (2*y3 - y1)")
    solved = 0
    while solved < 20:
        point = {f"x{i}": rng.uniform(-2.0, 2.0) for i in range(5)}
        if abs(point["x2"] - 2 * point["x4"]) <= 0.1:
            continue
        solved += 1
        root = kerr.solve_kerr_numeric(F, point, guess=0.0, tol=1e-10)
        assert abs(root.f_residual) < 1e-10
        assert abs(root.j_residual) < 1e-7
        closed = (point["x1"] - 2 * point["x3"]) / (-point["x2"] + 2 * point["x4"])
        assert abs(root.t_value - closed) <= 1e-10 * max(1.0, abs(closed))
    _report(11, "20 seeded points: residual < 1e-10, implicit integrability "
                "residual < 1e-7, roots match the closed form", started,
            budget=5.0)


def test_criterion_12_cubic_algebra():
    started = time.time()
    rng = random.Random(99)
    for _ in range(20):
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        assert linalg.mat_mul(cubicalg.irrep_rho(a), cubicalg.irrep_rho(b)) == \
            cubicalg.irrep_rho(linalg.mat_mul(a, b))
        s, u = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        w = [a[0][0] * s + a[0][1] * u, a[1][0] * s + a[1][1] * u]
        assert linalg.mat_vec(cubicalg.irrep_rho(a), cubicalg.veronese(s, u)) == \
            cubicalg.veronese(w[0], w[1])
    symp = cubicalg.legendrian_symplectic()
    assert symp.dimension == 1
    rep = symp.basis[0]
    assert rep[(0, 3)] == -Fraction(1, 3) * rep[(1, 2)]
    stabilizer = cubicalg.stabilizer_subalgebra()
    assert len(stabilizer) == 4
    assert cubicalg.stabilizer_matches_representation(stabilizer)
    _report(12, "representation homomorphism and equivariance exact on 20 "
                "seeded matrices; symplectic line 1-dimensional with the -1/3 "
                "relation; stabilizer is the 4-dim representation image",
            started, budget=5.0)
