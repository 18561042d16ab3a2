"""Command-line front end.

Commands
    invariants --t EXPR          the ten structure functions, both routes
    classify --t EXPR            branch of the classification tree
    growth --t EXPR              growth vector of the tangent-plane field
    geometry --t EXPR            the geometric cross-check battery
    kerr verify --F EXPR --t EXPR
    kerr solve --F EXPR --at PT [--guess G] [--tol T]
    kerr section --H EXPR --at PT [--guess G] [--tol T] [--seed N] [--csv FILE]
    fibration check              double-fibration coordinate change
    g2 verify                    matrix model: closure, 14 equations, Jacobi
    tanaka prolong [--g0 NAME] [--max-degree K]
    tanaka cohomology            the standard dimension battery
    tanaka cohomology --degree Q [--coefficients g|q] [--homogeneity L]
    tanaka normalization         the no-invariant-complement obstruction
    models check                 catalogue closure and identification
    reduction verify-flat        the nine flat structure-bundle equations
    cubic verify [--seed N]      pointwise twisted-cubic algebra

Exit codes: 0 ok, 1 verification failed, 2 input error.

Only the commands that compute with symbolic expressions (invariants,
classify, growth, geometry, kerr, fibration, reduction) load the symbolic
layer, and with it sympy; g2, tanaka, models and cubic run on exact
fractions alone and never import it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

__all__ = ["main", "run", "Report"]

OK = "ok"
FAILED = "verification-failed"
INPUT_ERROR = "input-error"


@dataclass
class Report:
    command: str
    inputs: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    status: str = OK

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "status": self.status,
        }, indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"input {key} = {value}")
        lines.extend(_render("", self.results))
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


def _render(prefix: str, value) -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key, sub in value.items():
            lines.extend(_render(f"{prefix}{key}.", sub)
                         if isinstance(sub, dict) else
                         [f"{prefix}{key}: {_scalar(sub)}"])
        return lines
    return [f"{prefix}: {_scalar(value)}"]


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


def _parse_point(text: str) -> dict[str, float | Fraction | int]:
    point: dict[str, float | Fraction | int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad point assignment {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        value = value.strip()
        try:
            if "." in value or "e" in value or "E" in value:
                number = float(value)
            elif "/" in value:
                num, den = value.split("/")
                number = Fraction(int(num), int(den))
            else:
                number = int(value)
        except ZeroDivisionError:
            raise ValueError(f"point value {name}={value} divides by zero") from None
        except ValueError:
            raise ValueError(f"point value {name}={value} is not a number") from None
        if isinstance(number, float) and not math.isfinite(number):
            raise ValueError(f"point value {name}={value} is not a finite number")
        point[name] = number
    return point


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------
# Each handler imports the modules it uses, so that a command loads only
# its own part of the package: the Fraction-only commands never load sympy.


def _symbolic(handler):
    """An ``Expr`` command: it runs over one factor base, started empty, and
    the symbolic layer's errors in its input are input errors."""

    @functools.wraps(handler)
    def run_symbolic(args, report: Report) -> None:
        from . import engel, symexpr

        try:
            with symexpr.factor_base():
                handler(args, report)
        except (symexpr.ExprError, engel.StructureShapeError) as exc:
            raise _InputError(str(exc)) from exc

    return run_symbolic


@_symbolic
def _cmd_invariants(args, report: Report) -> None:
    from . import engel
    from .symexpr import parse

    t = parse(args.t)
    report.inputs["t"] = args.t
    acf = engel.adapted_coframe(t)
    closed = engel.invariants_closed_form(acf)
    structural = engel.invariants_from_structure_equations(acf)
    table = {}
    disagreeing = []
    for name, value in closed.main_fields().items():
        table[name] = str(value)
        if not (value - getattr(structural, name)).is_zero:
            disagreeing.append(name)
    report.results["invariants"] = table
    report.results["routes_agree"] = not disagreeing
    if disagreeing:
        report.results["disagreeing"] = disagreeing
    try:
        label = engel.classify(acf)
        report.results["branch"] = label.leaf
        report.results["symmetry_dimension"] = label.symmetry_dimension
        report.results["annotation"] = label.annotation
    except engel.BranchNotConstantError as exc:
        report.results["branch"] = "non-constant"
        report.results["annotation"] = str(exc)
    if disagreeing:
        report.status = FAILED


@_symbolic
def _cmd_classify(args, report: Report) -> None:
    from . import engel
    from .symexpr import parse

    t = parse(args.t)
    report.inputs["t"] = args.t
    point = _parse_point(args.at) if args.at else None
    acf = engel.adapted_coframe(t)
    try:
        if point is not None:
            label = engel.classify_at(acf, point)
            report.inputs["at"] = args.at
        else:
            label = engel.classify(acf)
    except engel.BranchNotConstantError as exc:
        report.results["branch"] = "non-constant"
        report.results["detail"] = str(exc)
        return
    report.results["branch"] = label.leaf
    report.results["path"] = [f"{n} {'= 0' if s == 'zero' else '!= 0'}"
                              for n, s in label.path]
    report.results["symmetry_dimension"] = label.symmetry_dimension
    report.results["annotation"] = label.annotation
    report.results["models"] = list(label.models)


@_symbolic
def _cmd_growth(args, report: Report) -> None:
    from . import engel
    from .forms import distribution_growth
    from .symexpr import parse

    t = parse(args.t)
    report.inputs["t"] = args.t
    frame = engel.adapted_coframe(t).frame
    growth = distribution_growth([frame[3], frame[4]])
    report.results["growth"] = list(growth)
    report.results["integrable"] = growth[-1] == 2


@_symbolic
def _cmd_geometry(args, report: Report) -> None:
    from . import engel
    from .symexpr import parse

    t = parse(args.t)
    report.inputs["t"] = args.t
    rep = engel.geometric_checks(engel.adapted_coframe(t))
    results = {
        "first_invariant_vanishes": rep.j_is_zero,
        "tangent_plane_integrable": rep.tangent_plane_integrable,
        "growth": list(rep.growth),
        "osculating_derived_rank": rep.osculating_derived_rank,
        "marked_line_type": rep.marked_line_type,
        "volume_identity": rep.volume_identity_holds,
        "connection_identity": rep.weyl_identity_holds,
    }
    for name in ("l_is_zero", "tangent_symmetry_of_derived", "m_is_zero",
                 "derived_integrable", "m_minus_p_is_zero",
                 "null_plane_integrable"):
        value = getattr(rep, name)
        if value is not None:
            results[name] = value
    results["consistent"] = rep.all_consistent()
    report.results.update(results)
    if not rep.all_consistent():
        report.status = FAILED


@_symbolic
def _cmd_kerr_verify(args, report: Report) -> None:
    from . import kerr
    from .symexpr import parse

    F = parse(args.F)
    t = parse(args.t)
    report.inputs["F"] = args.F
    report.inputs["t"] = args.t
    rep = kerr.verify_kerr_pair(F, t)
    report.results["composition_residual"] = str(rep.composition_residual)
    report.results["integrability_function"] = str(rep.integrability_function)
    report.results["pass"] = rep.passed
    if not rep.passed:
        report.status = FAILED


@_symbolic
def _cmd_kerr_solve(args, report: Report) -> None:
    from . import kerr
    from .symexpr import parse

    F = parse(args.F)
    point = _parse_point(args.at)
    tol = kerr.F_TOL_DEFAULT if args.tol is None else args.tol
    report.inputs["F"] = args.F
    report.inputs["at"] = args.at
    try:
        root = kerr.solve_kerr_numeric(F, point, guess=args.guess, tol=tol)
    except kerr.KerrSolveError as exc:
        report.results["error"] = str(exc)
        report.status = FAILED
        return
    report.results["t"] = root.t_value
    report.results["f_residual"] = root.f_residual
    report.results["j_residual"] = root.j_residual
    report.results["iterations"] = root.iterations


@_symbolic
def _cmd_kerr_section(args, report: Report) -> None:
    from . import kerr
    from .symexpr import parse

    H = parse(args.H)
    point = _parse_point(args.at)
    tol = kerr.F_TOL_DEFAULT if args.tol is None else args.tol
    report.inputs["H"] = args.H
    report.inputs["at"] = args.at
    try:
        rep = kerr.section_from_hypersurface(H, point, guess=args.guess,
                                             tol=tol, seed=args.seed)
    except kerr.TransversalityError as exc:
        raise _InputError(str(exc)) from exc
    except kerr.KerrSolveError as exc:
        report.results["error"] = str(exc)
        report.status = FAILED
        return
    report.results["samples"] = len(rep.samples)
    report.results["max_j_residual"] = rep.max_j_residual
    report.results["values"] = [s.t_value for s in rep.samples]
    if args.csv:
        lines = [",".join([f"x{i}" for i in range(5)] + ["t", "f_residual", "j_residual"])]
        for s in rep.samples:
            row = [s.point[f"x{i}"] for i in range(5)] + [s.t_value, s.f_residual, s.j_residual]
            lines.append(",".join(repr(v) for v in row))
        _write("--csv", args.csv, "".join(line + "\n" for line in lines))
        report.results["csv"] = args.csv


@_symbolic
def _cmd_fibration(args, report: Report) -> None:
    from . import kerr

    rep = kerr.coordinate_change_check()
    report.results["forms_match"] = list(rep.forms_match)
    report.results["first_projection_rectified"] = rep.vertical_field_first_projection
    report.results["second_projection_rectified"] = rep.vertical_field_second_projection
    report.results["round_trip_identity"] = rep.round_trip_identity
    report.results["pass"] = rep.passed
    if not rep.passed:
        report.status = FAILED


def _cmd_g2(args, report: Report) -> None:
    from . import g2alg

    mc = g2alg.verify_maurer_cartan()
    alg = g2alg.commutator_table()
    violations = alg.jacobi_violations()
    grading = g2alg.grading_and_parabolics()
    forms = g2alg.invariant_forms()
    n_equations = 14 - len(mc.mismatches)
    report.results["structure_equations"] = f"{n_equations}/14 matched"
    if mc.mismatches:
        report.results["mismatched_equations"] = [f"dtheta^{k}" for k in sorted(mc.mismatches)]
    report.results["jacobi"] = f"{364 - len(violations)}/364 triples"
    report.results["grading"] = grading.grading_holds and grading.additivity_holds
    report.results["parabolics_closed"] = (grading.parabolic_p2.closed
                                           and grading.parabolic_p1.closed
                                           and grading.borel.closed)
    report.results["reduction_matches"] = grading.reduction_matches
    report.results["bilinear_form"] = {
        "dimension": forms.bilinear_dimension,
        "signature": list(forms.bilinear_signature),
    }
    report.results["killing"] = {
        "signature": list(forms.killing_signature),
        "nondegenerate": forms.killing_nondegenerate,
        "grading_pairing": forms.killing_grading_pairing,
    }
    ok = (mc.all_match and not violations and grading.grading_holds
          and grading.additivity_holds and grading.reduction_matches
          and forms.bilinear_dimension == 1
          and set(forms.bilinear_signature[:2]) == {3, 4})
    report.results["pass"] = ok
    if not ok:
        report.status = FAILED


_G0_CHOICES = ("gl2", "borel", "derivations")


def _g0_matrices(name: str):
    from . import cubicalg, tanaka

    if name == "gl2":
        return cubicalg.gl2_basis()
    if name == "borel":
        return [cubicalg.rho_prime([[1, 0], [0, 0]]),
                cubicalg.rho_prime([[0, 1], [0, 0]]),
                cubicalg.rho_prime([[0, 0], [0, 1]])]
    ders = tanaka.graded_derivations(tanaka.heisenberg_from_table())
    return [[list(r) for r in d.matrix] for d in ders]


def _cmd_tanaka_prolong(args, report: Report) -> None:
    from . import tanaka

    report.inputs["g0"] = args.g0
    if args.max_degree < 0:
        raise _InputError(f"--max-degree must be at least 0, got {args.max_degree}")
    # --g0 names a built-in g0, so a precondition it fails is a failed check
    try:
        table = tanaka.tanaka_prolong(_g0_matrices(args.g0), max_degree=args.max_degree)
        matches = tanaka.prolongation_matches_parabolic() if args.g0 == "borel" else None
    except ValueError as exc:
        report.results["failures"] = [str(exc)]
        report.status = FAILED
        return
    report.results["g0_dimension"] = table.g0_dim
    report.results["degree_dims"] = list(table.degree_dims)
    report.results["total_dimension"] = table.total_dimension
    if not table.terminated:
        report.results["truncated"] = True
    if args.g0 == "gl2":
        # gl2 prolongs to G2, with grades 1, 2, 3 of dimensions 4, 1, 0
        expected = [4, 1, 0][:args.max_degree]
        if list(table.degree_dims) != expected:
            report.results["failures"] = [f"degree_dims != {expected}, the grades of G2"]
            report.status = FAILED
    if args.g0 == "borel":
        report.results["matches_parabolic"] = matches
        if not matches:
            report.status = FAILED


def _cmd_tanaka_cohomology(args, report: Report) -> None:
    from . import tanaka

    boundaries: dict = {}  # C^1_1 -> C^2_1 of g serves H^1 at l = 1 and H^2
    failures: list[str] = []

    def dim(coefficients: str, q: int, homogeneity: int) -> int | None:
        """The dimension, or None, with the failure named, where d o d != 0."""
        try:
            return tanaka.cohomology_dim(coefficients, q, homogeneity, boundaries)
        except tanaka.BrokenComplexError as exc:
            failures.append(str(exc))
            return None

    if args.degree is not None:
        coefficients = "g" if args.coefficients is None else args.coefficients
        homogeneity = 1 if args.homogeneity is None else args.homogeneity
        report.results["dimension"] = dim(coefficients, args.degree, homogeneity)
        if failures:
            report.results["failures"] = failures
            report.status = FAILED
        return
    for option, value in (("--coefficients", args.coefficients),
                          ("--homogeneity", args.homogeneity)):
        if value is not None:
            raise _InputError(f"{option} needs --degree; without it the "
                              "fixed battery runs")
    battery = {
        "H1_full_l1..l4": [dim("g", 1, l) for l in (1, 2, 3, 4)],
        "H2_full_hom1": dim("g", 2, 1),
        "H2_parabolic_hom1": dim("q", 2, 1),
    }
    report.results.update(battery)
    if failures:
        report.results["failures"] = failures
    ok = (battery["H1_full_l1..l4"] == [0, 0, 0, 0]
          and battery["H2_full_hom1"] == 8 and battery["H2_parabolic_hom1"] == 9)
    report.results["pass"] = ok
    if not ok:
        report.status = FAILED


def _cmd_tanaka_normalization(args, report: Report) -> None:
    from . import tanaka

    rep = tanaka.normalization_obstruction()
    report.results["two_cochain_dim"] = rep.two_cochain_dim
    report.results["image_full_dim"] = rep.image_full_dim
    report.results["image_parabolic_dim"] = rep.image_parabolic_dim
    report.results["invariant_lines"] = len(rep.invariant_line_weights)
    report.results["all_lines_inside_parabolic_image"] = \
        rep.all_invariant_lines_in_parabolic_image
    ok = (rep.image_full_dim == 16 and rep.image_parabolic_dim == 15
          and rep.all_invariant_lines_in_parabolic_image)
    report.results["pass"] = ok
    if not ok:
        report.status = FAILED


def _cmd_models(args, report: Report) -> None:
    from . import models

    systems = models.catalogue()
    table = {}
    ok = True
    for system in systems:
        rep = models.identify(system, split_ideals=(system.name == "six-dim-split"))
        entry = {
            "closed": rep.jacobi,
            "killing_signature": list(rep.killing_signature),
            "semisimple": rep.semisimple,
        }
        if rep.ideal_split:
            entry["ideals"] = [list(pair) for pair in rep.ideal_split]
        table[system.name] = entry
        ok = ok and rep.jacobi
    flat = models.flat_symmetry_system()
    table["flat-symmetry"] = {"closed": models.jacobi_check(flat)}
    ok = ok and table["flat-symmetry"]["closed"]
    report.results["systems"] = table
    report.results["pass"] = ok
    if not ok:
        report.status = FAILED


@_symbolic
def _cmd_reduction(args, report: Report) -> None:
    from . import engel

    rep = engel.verify_flat_reduction()
    report.results["equations"] = {name: residual.is_zero
                                   for name, residual in rep.residuals.items()}
    report.results["u3_solved"] = str(rep.u3_solved)
    report.results["u3_printed_formula_matches"] = rep.u3_matches_printed_formula
    report.results["pass"] = rep.all_zero()
    if not rep.all_zero():
        report.results["failures"] = rep.failures()
        report.status = FAILED


def _cmd_cubic(args, report: Report) -> None:
    import random

    from . import cubicalg, linalg

    rng = random.Random(args.seed)
    hom_ok = True
    equiv_ok = True
    for _ in range(20):
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        lhs = linalg.mat_mul(cubicalg.irrep_rho(a), cubicalg.irrep_rho(b))
        if lhs != cubicalg.irrep_rho(linalg.mat_mul(a, b)):
            hom_ok = False
        s, u = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        w = [a[0][0] * s + a[0][1] * u, a[1][0] * s + a[1][1] * u]
        if linalg.mat_vec(cubicalg.irrep_rho(a), cubicalg.veronese(s, u)) != \
                cubicalg.veronese(w[0], w[1]):
            equiv_ok = False
    symp = cubicalg.legendrian_symplectic()
    rep = symp.basis[0] if symp.dimension == 1 else {}
    relation = symp.dimension == 1 and \
        rep[(0, 3)] == -Fraction(1, 3) * rep[(1, 2)]
    stab = cubicalg.stabilizer_subalgebra()
    report.inputs["seed"] = args.seed
    report.results["homomorphism_20_random"] = hom_ok
    report.results["equivariance_20_random"] = equiv_ok
    report.results["symplectic_line_dimension"] = symp.dimension
    report.results["symplectic_relation"] = relation
    report.results["stabilizer_dimension"] = len(stab)
    report.results["stabilizer_matches_representation"] = \
        cubicalg.stabilizer_matches_representation(stab)
    ok = (hom_ok and equiv_ok and symp.dimension == 1 and relation
          and len(stab) == 4
          and report.results["stabilizer_matches_representation"])
    report.results["pass"] = ok
    if not ok:
        report.status = FAILED


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class _InputError(Exception):
    pass


def _write(option: str, path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is an input error."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {option} {path}: {exc.strerror or exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` can be reused."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", help="write the report to a file")

    parser = argparse.ArgumentParser(prog="engelkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(where, name, handler):
        p = where.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        return p

    p = add(sub, "invariants", _cmd_invariants)
    p.add_argument("--t", required=True)
    p = add(sub, "classify", _cmd_classify)
    p.add_argument("--t", required=True)
    p.add_argument("--at", help="optional chart point for pointwise classification")
    p = add(sub, "growth", _cmd_growth)
    p.add_argument("--t", required=True)
    p = add(sub, "geometry", _cmd_geometry)
    p.add_argument("--t", required=True)

    kerr_parser = sub.add_parser("kerr")
    kerr_sub = kerr_parser.add_subparsers(dest="subcommand", required=True)
    p = add(kerr_sub, "verify", _cmd_kerr_verify)
    p.add_argument("--F", required=True)
    p.add_argument("--t", required=True)
    p = add(kerr_sub, "solve", _cmd_kerr_solve)
    p.add_argument("--F", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--guess", type=float, default=0.0)
    p.add_argument("--tol", type=float)  # None: kerr.F_TOL_DEFAULT
    p = add(kerr_sub, "section", _cmd_kerr_section)
    p.add_argument("--H", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--guess", type=float, default=0.0)
    p.add_argument("--tol", type=float)  # None: kerr.F_TOL_DEFAULT
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write the sample grid as CSV")

    fib = sub.add_parser("fibration")
    add(fib.add_subparsers(dest="subcommand", required=True), "check", _cmd_fibration)

    g2p = sub.add_parser("g2")
    add(g2p.add_subparsers(dest="subcommand", required=True), "verify", _cmd_g2)

    tk = sub.add_parser("tanaka")
    tk_sub = tk.add_subparsers(dest="subcommand", required=True)
    p = add(tk_sub, "prolong", _cmd_tanaka_prolong)
    p.add_argument("--g0", choices=_G0_CHOICES, default="gl2")
    p.add_argument("--max-degree", type=int, default=3)
    p = add(tk_sub, "cohomology", _cmd_tanaka_cohomology)
    # None tells a given option from the default, 'g' and 1 with --degree
    p.add_argument("--coefficients", choices=("g", "q"))
    p.add_argument("--degree", type=int)
    p.add_argument("--homogeneity", type=int)
    add(tk_sub, "normalization", _cmd_tanaka_normalization)

    mp = sub.add_parser("models")
    add(mp.add_subparsers(dest="subcommand", required=True), "check", _cmd_models)

    rp = sub.add_parser("reduction")
    add(rp.add_subparsers(dest="subcommand", required=True), "verify-flat",
        _cmd_reduction)

    cp = sub.add_parser("cubic")
    p = add(cp.add_subparsers(dest="subcommand", required=True), "verify", _cmd_cubic)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: list[str]) -> tuple[int, Report]:
    code, report, _ = _execute(argv)
    return code, report


# options whose value is an expression, which may start with a minus sign
_EXPRESSION_OPTIONS = ("--t", "--F", "--H")


def _join_expression_values(argv: list[str]) -> list[str]:
    """``--t -x3^2`` as ``--t=-x3^2``: argparse reads a separate value that
    starts with ``-`` as an option.  A value starting with ``--`` is left
    alone, so a missing value still reads as a usage error."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _EXPRESSION_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _execute(argv: list[str]) -> tuple[int, Report, str]:
    """Run one command; also return the report rendered for ``--format``."""
    try:
        args = _build_parser().parse_args(_join_expression_values(argv))
    except SystemExit as exc:
        raise _CliUsage(int(exc.code or 0)) from exc
    name = args.command + (f" {args.subcommand}" if hasattr(args, "subcommand") else "")
    report = Report(command=name)

    def render() -> str:
        return report.to_json() if args.format == "json" else report.to_text()

    try:
        args.handler(args, report)
    except (ValueError, _InputError) as exc:
        report.status = INPUT_ERROR
        report.results["error"] = str(exc)
    text = render()
    if args.out:
        try:
            _write("--out", args.out, text + "\n")
        except _InputError as exc:
            report.status = INPUT_ERROR
            report.results["error"] = str(exc)
            text = render()
    code = {OK: 0, FAILED: 1, INPUT_ERROR: 2}[report.status]
    return code, report, text


class _CliUsage(Exception):
    def __init__(self, code: int):
        super().__init__()
        self.code = code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, _, text = _execute(argv)
    except _CliUsage as usage:
        return 2 if usage.code else 0
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
