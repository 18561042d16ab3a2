"""Independent checks of every benchmark item's result.

The reference values are computed here, with sympy's own differentiation
and cancellation, or taken from the paper and the known structure of split
G2; nothing is imported from engelkit.  Each check raises ``CheckError``
naming the first disagreement.
"""

from __future__ import annotations

import sympy

X = sympy.symbols("x0:5")
_NAMES = {f"x{i}": X[i] for i in range(5)}

INVARIANT_NAMES = ("a", "b", "c", "J", "L", "M", "P", "Q", "R", "S")
FLAT_EQUATIONS = ("e0", "e1", "e2", "e3", "e4", "e5", "e6", "e8", "e12")
TORSION_IDENTITIES = ("contact_structure_equation", "torsion_124",
                      "torsion_234", "torsion_102")


class CheckError(AssertionError):
    pass


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckError(what)


def to_sympy(text: str) -> sympy.Expr:
    """Read an engelkit expression (``^`` for powers) into sympy."""
    return sympy.sympify(text.replace("^", "**"), locals=_NAMES)


def is_zero(e: sympy.Expr) -> bool:
    return sympy.cancel(e) == 0


def reference_J(marking: str) -> sympy.Expr:
    """(x1 + 3 t x2) t_x0 + t^3 t_x1 - t^2 t_x2 + t t_x3 - t_x4, by sympy."""
    t = to_sympy(marking)
    d = [sympy.diff(t, x) for x in X]
    return sympy.cancel((X[1] + 3 * t * X[2]) * d[0] + t ** 3 * d[1]
                        - t ** 2 * d[2] + t * d[3] - d[4])


def _ok_status(outcome: dict) -> dict:
    _expect(outcome["code"] == 0 and outcome["report"]["status"] == "ok",
            f"exit {outcome['code']}, status {outcome['report']['status']}")
    return outcome["report"]["results"]


def check_invariants(item, outcome: dict, base_outcome: dict | None = None) -> None:
    results = _ok_status(outcome)
    table = results["invariants"]
    _expect(tuple(table) == INVARIANT_NAMES, f"invariant names {list(table)}")
    _expect(results["routes_agree"] is True, "the two invariant routes disagree")
    _expect(is_zero(to_sympy(table["J"]) - reference_J(item.marking)),
            f"J = {table['J']} differs from the coordinate formula")
    if "kerr_s" in item.meta:
        _expect(table["J"] == "0", "a Kerr-family marking has J != 0")
    if base_outcome is not None:
        base = base_outcome["report"]["results"]["invariants"]
        x = X[int(item.meta["coordinate"][1])]
        shift = item.meta["shift"]
        for name in INVARIANT_NAMES:
            moved = to_sympy(base[name]).subs(x, x + shift)
            _expect(is_zero(to_sympy(table[name]) - moved),
                    f"{name} does not commute with {x} -> {x} + {shift}")


def check_geometry(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    j_zero = is_zero(reference_J(item.marking))
    _expect(results["tangent_plane_integrable"] is j_zero,
            f"integrable = {results['tangent_plane_integrable']} but J = 0 is {j_zero}")
    _expect((results["growth"] == [2, 3, 5]) is (not j_zero),
            f"growth {results['growth']} with J = 0 {j_zero}")
    if item.meta.get("class") == "kerr":
        _expect(j_zero and results["tangent_plane_integrable"] is True,
                "a Kerr-family marking is not integrable")
    _expect(results["consistent"] is True, "the battery is not consistent")


def check_tautological(item, outcome: dict) -> None:
    for name in TORSION_IDENTITIES:
        _expect(outcome[name] is True, f"{name} fails for t = {item.marking}")


def check_verify_flat(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    _expect(results["equations"] == {e: True for e in FLAT_EQUATIONS},
            f"flat structure equations {results['equations']}")
    _expect(results["pass"] is True, "verify-flat does not pass")


def check_g2(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    _expect(results["structure_equations"] == "14/14 matched",
            results["structure_equations"])
    _expect(results["jacobi"] == "364/364 triples", results["jacobi"])
    _expect(results["killing"]["signature"] == [8, 6, 0],
            f"Killing signature {results['killing']['signature']}")
    _expect(results["bilinear_form"]["dimension"] == 1
            and sorted(results["bilinear_form"]["signature"][:2]) == [3, 4],
            f"invariant form {results['bilinear_form']}")


def check_prolong(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    expected = {"gl2": 14, "borel": 9}[item.meta["g0"]]
    _expect(results["total_dimension"] == expected,
            f"{item.meta['g0']} prolongation total {results['total_dimension']}")
    if item.meta["g0"] == "borel":
        _expect(results["matches_parabolic"] is True, "borel prolongation != parabolic")


def check_cohomology(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    _expect(results["H1_full_l1..l4"] == [0, 0, 0, 0], f"H1 {results['H1_full_l1..l4']}")
    _expect(results["H2_full_hom1"] == 8, f"H2 {results['H2_full_hom1']}")
    _expect(results["H2_parabolic_hom1"] == 9, f"H2(q) {results['H2_parabolic_hom1']}")


def check_normalization(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    _expect(results["image_full_dim"] == 16, f"image {results['image_full_dim']}")
    _expect(results["image_parabolic_dim"] == 15,
            f"parabolic image {results['image_parabolic_dim']}")


def check_models(item, outcome: dict) -> None:
    systems = _ok_status(outcome)["systems"]
    _expect(all(entry["closed"] is True for entry in systems.values()),
            "a model system does not close")
    for name, signature in (("submax-minus", [5, 3, 0]), ("submax-plus", [4, 4, 0])):
        _expect(systems[name]["killing_signature"] == signature,
                f"{name} Killing signature {systems[name]['killing_signature']}")


def check_fibration(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    _expect(results["forms_match"] == [True] * 6 and results["pass"] is True,
            f"fibration {results}")


def check_cubic(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    _expect(results["symplectic_line_dimension"] == 1
            and results["stabilizer_dimension"] == 4 and results["pass"] is True,
            f"cubic {results}")


def kerr_closed_form(point: dict[str, float]) -> float:
    """The root of y2 t - (2 y3 - y1) = 0: t = (x1 - 2 x3)/(-x2 + 2 x4)."""
    return (point["x1"] - 2 * point["x3"]) / (-point["x2"] + 2 * point["x4"])


def check_kerr_solve(item, outcome: dict) -> None:
    results = _ok_status(outcome)
    closed = kerr_closed_form(item.meta["point"])
    _expect(abs(results["t"] - closed) <= 1e-10,
            f"root {results['t']} is not the closed form {closed}")


CHECKS = {
    "invariants": check_invariants,
    "geometry": check_geometry,
    "tautological": check_tautological,
    "verify-flat": check_verify_flat,
    "g2": check_g2,
    "prolong": check_prolong,
    "cohomology": check_cohomology,
    "normalization": check_normalization,
    "models": check_models,
    "fibration": check_fibration,
    "cubic": check_cubic,
    "kerr-solve": check_kerr_solve,
}


def check_round(items, outcomes, translations: bool = True) -> None:
    """Check one round's results; None marks an item that failed to run.

    With ``translations`` a translated marking is also compared with its
    original, the costliest check, which the caller runs on a subset.
    """
    for item, outcome in zip(items, outcomes):
        if outcome is None:
            continue
        base = outcomes[item.meta["translate_of"]] if "translate_of" in item.meta else None
        if translations and base is not None:
            check_invariants(item, outcome, base)
        else:
            CHECKS[item.kind](item, outcome)
