"""Tests for the command-line front end."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from engelkit.cli import main, run
from engelkit.symexpr import parse


class TestExitCodes:
    def test_ok(self):
        code, report = run(["invariants", "--t", "0"])
        assert code == 0 and report.status == "ok"

    def test_input_error_on_bad_expression(self):
        code, report = run(["invariants", "--t", "x1 + "])
        assert code == 2 and report.status == "input-error"

    def test_input_error_on_bad_marking(self):
        code, report = run(["invariants", "--t", "x5"])
        assert code == 2

    def test_verification_failure_sets_exit_one(self):
        code, report = run(["kerr", "verify", "--F", "t", "--t", "x4"])
        assert code == 1 and report.status == "verification-failed"

    def test_point_value_dividing_by_zero_is_input_error(self):
        code, report = run(["classify", "--t", "x3",
                            "--at", "x0=1/0,x1=0,x2=0,x3=2,x4=0"])
        assert code == 2 and report.status == "input-error"
        assert "divides by zero" in report.results["error"]

    @pytest.mark.parametrize("value", ["1e400", "-1E999", "inf", "nan"])
    def test_non_finite_point_value_is_input_error(self, value):
        code, report = run(["kerr", "solve", "--F", "y2*t - (2*y3 - y1)",
                            "--at", f"x0=1,x1={value},x2=1,x3=1,x4=1"])
        assert code == 2 and report.status == "input-error"
        assert report.results["error"]

    @pytest.mark.parametrize("option", [["--tol", "inf"], ["--tol", "nan"],
                                        ["--tol", "-1"], ["--guess", "nan"],
                                        ["--guess", "inf"], ["--guess", "1e400"]])
    @pytest.mark.parametrize("command", [
        ["kerr", "solve", "--F", "y2*t - (2*y3 - y1)"],
        ["kerr", "section", "--H", "y4 - 3"],
    ], ids=["solve", "section"])
    def test_non_finite_kerr_option_is_input_error(self, command, option):
        code, report = run(command + ["--at", "x0=0,x1=1,x2=1,x3=1,x4=1"] + option)
        assert code == 2 and report.status == "input-error"
        assert option[0].lstrip("-").replace("tol", "tolerance") in report.results["error"]

    @pytest.mark.parametrize("value", ["1/2/3", "abc", "1/x", "--1"])
    def test_malformed_point_value_is_named(self, value):
        code, report = run(["classify", "--t", "x3",
                            "--at", f"x0={value},x1=0,x2=0,x3=2,x4=0"])
        assert code == 2 and report.status == "input-error"
        assert report.results["error"] == f"point value x0={value} is not a number"

    def test_kerr_function_composing_free_of_t_is_input_error(self):
        code, report = run(["kerr", "solve", "--F", "2",
                            "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"])
        assert code == 2 and report.status == "input-error"
        assert "free of t" in report.results["error"]

    def test_kerr_free_parameter_missing_from_point_is_input_error(self):
        code, report = run(["kerr", "solve", "--F", "t - c",
                            "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"])
        assert code == 2 and report.status == "input-error"
        assert "free parameter c" in report.results["error"]
        code, report = run(["kerr", "solve", "--F", "t - c",
                            "--at", "x0=1,x1=3,x2=1,x3=1,x4=1,c=2"])
        assert code == 0 and report.results["t"] == 2.0

    @pytest.mark.parametrize("argv", [
        ["geometry", "--t", "x1 +"],
        ["kerr", "verify", "--F", "t +", "--t", "x4"],
        ["kerr", "section", "--H", "y1 +", "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"],
    ], ids=["geometry", "kerr-verify", "kerr-section"])
    def test_unparsable_expression_is_input_error(self, argv):
        code, report = run(argv)
        assert code == 2 and report.status == "input-error"
        assert report.results["error"]

    def test_structure_shape_error_is_input_error(self, monkeypatch):
        from engelkit import engel

        def misshapen(acf):
            raise engel.StructureShapeError("dw3 has an unexpected w0 ^ w4 term")

        monkeypatch.setattr(engel, "invariants_from_structure_equations", misshapen)
        code, report = run(["invariants", "--t", "x4"])
        assert code == 2 and report.status == "input-error"
        assert report.results["error"] == "dw3 has an unexpected w0 ^ w4 term"

    def test_transversality_is_input_error(self):
        code, report = run(["kerr", "section", "--H", "y1",
                            "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"])
        assert code == 2

    def test_negative_prolongation_degree_is_input_error(self):
        code, report = run(["tanaka", "prolong", "--max-degree", "-3"])
        assert code == 2 and report.status == "input-error"
        assert "--max-degree" in report.results["error"]
        code, report = run(["tanaka", "prolong", "--max-degree", "0"])
        assert code == 0 and report.results["degree_dims"] == []
        assert report.results["truncated"] is True

    @pytest.mark.parametrize("option,value", [("--homogeneity", "50"),
                                              ("--coefficients", "q")])
    def test_cohomology_option_without_degree_is_input_error(self, option, value):
        code, report = run(["tanaka", "cohomology", option, value])
        assert code == 2 and report.status == "input-error"
        assert f"{option} needs --degree" in report.results["error"]
        code, report = run(["tanaka", "cohomology", option, value, "--degree", "2"])
        assert code == 0 and isinstance(report.results["dimension"], int)


class TestExpressionOptions:
    """An expression value may start with a minus sign without ``=``."""

    def test_marking_starting_with_minus(self):
        spaced = run(["geometry", "--t", "-x3^2", "--format", "json"])
        joined = run(["geometry", "--t=-x3^2", "--format", "json"])
        assert spaced[0] == joined[0] == 0
        assert spaced[1].to_json() == joined[1].to_json()

    def test_kerr_function_starting_with_minus(self):
        argv = ["kerr", "verify", "--t", "(x1 - 2*x3)/(-x2 + 2*x4)"]
        spaced = run([*argv, "--F", "-y2 + t", "--format", "json"])
        joined = run([*argv, "--F=-y2 + t", "--format", "json"])
        assert spaced[0] == joined[0]
        assert spaced[1].to_json() == joined[1].to_json()
        assert spaced[1].inputs["F"] == "-y2 + t"

    @pytest.mark.parametrize("option", ["--t", "--F", "--H"])
    @pytest.mark.parametrize("text", ["(" * 1000 + "x3" + ")" * 1000, "-" * 5000 + "x3"],
                             ids=["parentheses", "minus-signs"])
    def test_deep_nesting_is_input_error(self, option, text):
        command = {"--t": ["invariants"],
                   "--F": ["kerr", "verify", "--t", "x4"],
                   "--H": ["kerr", "section", "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"]}[option]
        code, report = run([*command, f"{option}={text}"])
        assert code == 2 and report.status == "input-error"
        assert "nested more than" in report.results["error"]

    def test_missing_value_is_still_a_usage_error(self, capsys):
        assert main(["geometry", "--t", "--format", "json"]) == 2
        assert main(["geometry", "--bogus"]) == 2
        assert main(["geometry", "--t", "x4"]) == 0


class TestInvariantsCommand:
    def test_flat_marking(self):
        code, report = run(["invariants", "--t", "0"])
        assert code == 0
        assert all(v == "0" for v in report.results["invariants"].values())
        assert report.results["branch"] == "flat"
        assert report.results["symmetry_dimension"] == 9
        assert report.results["routes_agree"]

    def test_linear_marking(self):
        code, report = run(["invariants", "--t", "x4"])
        assert code == 0
        assert report.results["invariants"]["J"] == "-1"
        assert report.results["branch"] == "J-nonzero"

    def test_branch_non_constant_reported(self):
        code, report = run(["invariants", "--t", "x3"])
        assert code == 0
        assert report.results["branch"] == "non-constant"


@pytest.mark.parametrize("command", ["invariants", "geometry"])
def test_one_coframe_per_command(monkeypatch, command):
    from engelkit.forms import CoframeChart

    builds = []
    build = CoframeChart.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(command)
        build(self, *args, **kwargs)

    monkeypatch.setattr(CoframeChart, "__init__", counting_build)
    code, _ = run([command, "--t", "x1*x4"])
    assert code == 0
    assert len(builds) == 1


class TestKerrCommands:
    def test_verify_family(self):
        code, report = run(["kerr", "verify", "--F", "t - (2*y3 - y1)/y2",
                            "--t", "(x1 - 2*x3)/(-x2 + 2*x4)"])
        assert code == 0
        assert report.results["pass"]

    def test_solve(self):
        code, report = run(["kerr", "solve", "--F", "y2*t - (2*y3 - y1)",
                            "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"])
        assert code == 0
        assert abs(report.results["t"] - 1.0) < 1e-12
        # F need not mention t: the base expressions carry it (y2 = x2 - t^2 x4)
        code, report = run(["kerr", "solve", "--F", "y2", "--guess", "0.5",
                            "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"])
        assert code == 0
        assert abs(report.results["t"] - 1.0) < 1e-12

    @pytest.mark.parametrize("command", [
        ["kerr", "solve", "--F", "y2*t - (2*y3 - y1)"],
        ["kerr", "section", "--H", "y2*y4 - (2*y3 - y1)", "--guess", "0.5"],
    ], ids=["solve", "section"])
    def test_default_tolerance(self, command):
        argv = command + ["--at", "x0=1,x1=3,x2=1,x3=1,x4=1", "--format", "json"]
        default = run(argv)
        explicit = run(argv + ["--tol", "1e-10"])
        assert default[0] == explicit[0] == 0
        assert default[1].to_json() == explicit[1].to_json()

    def test_section_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code, report = run(["kerr", "section", "--H", "y2*y4 - (2*y3 - y1)",
                            "--at", "x0=1,x1=3,x2=1,x3=1,x4=1",
                            "--guess", "0.5", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("x0,x1,x2,x3,x4,t")
        assert len(lines) == report.results["samples"] + 1

    @pytest.mark.parametrize("H, value", [("y4 - c", 3.0), ("c*y4 - 3", 1.0)])
    def test_section_keeps_free_parameters(self, H, value):
        code, report = run(["kerr", "section", "--H", H, "--guess", "2",
                            "--at", "x0=0,x1=1,x2=1,x3=1,x4=1,c=3"])
        assert code == 0 and report.status == "ok"
        assert report.results["values"] == [value] * 11

    def test_section_point_missing_a_coordinate(self):
        code, report = run(["kerr", "section", "--H", "y2*y4 - (2*y3 - y1)",
                            "--at", "x0=1,x1=3,x2=1,x3=1"])
        assert code == 2 and report.status == "input-error"
        assert report.results["error"] == "point must assign x4"


class TestVerificationCommands:
    def test_g2(self):
        code, report = run(["g2", "verify"])
        assert code == 0
        assert report.results["structure_equations"] == "14/14 matched"
        assert report.results["jacobi"] == "364/364 triples"

    def test_models(self):
        code, report = run(["models", "check"])
        assert code == 0
        assert report.results["systems"]["submax-minus"]["killing_signature"] == [5, 3, 0]

    def test_reduction(self):
        code, report = run(["reduction", "verify-flat"])
        assert code == 0
        assert all(report.results["equations"].values())
        assert not report.results["u3_printed_formula_matches"]

    def test_cubic(self):
        code, report = run(["cubic", "verify", "--seed", "5"])
        assert code == 0
        assert report.results["stabilizer_dimension"] == 4

    def test_fibration(self):
        code, report = run(["fibration", "check"])
        assert code == 0

    def test_tanaka_prolong(self):
        code, report = run(["tanaka", "prolong", "--g0", "gl2"])
        assert code == 0
        assert report.results["degree_dims"] == [4, 1, 0]
        assert report.results["total_dimension"] == 14
        assert "truncated" not in report.results
        code, report = run(["tanaka", "prolong", "--g0", "gl2", "--max-degree", "1"])
        assert code == 0
        assert report.results["degree_dims"] == [4]
        assert report.results["truncated"] is True

    def test_tanaka_cohomology_single(self):
        code, report = run(["tanaka", "cohomology", "--coefficients", "q",
                            "--degree", "2", "--homogeneity", "1"])
        assert code == 0
        assert report.results["dimension"] == 9

    def test_tanaka_cohomology_degree_defaults(self):
        # --degree alone takes the full algebra and homogeneity 1
        code, report = run(["tanaka", "cohomology", "--degree", "2"])
        assert code == 0
        assert report.results["dimension"] == 8

    def test_tanaka_normalization(self):
        code, report = run(["tanaka", "normalization"])
        assert code == 0
        assert report.results["image_parabolic_dim"] == 15


class TestReports:
    def test_json_round_trips_expressions(self):
        for t_text in ("x4", "(x1 - 2*x3)/(-x2 + 2*x4)", "x0*x4 + x2^2"):
            code, report = run(["invariants", "--t", t_text, "--format", "json"])
            data = json.loads(report.to_json())
            reparsed_input = parse(data["inputs"]["t"])
            assert reparsed_input == parse(t_text)
            for name, text in data["results"]["invariants"].items():
                again = parse(text)
                assert str(again) == text  # canonical printing is stable

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        code, report = run(["classify", "--t", "0", "--format", "json",
                            "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["results"]["branch"] == "flat"

    @pytest.mark.parametrize("argv,option", [
        (["cubic", "verify"], "--out"),
        (["kerr", "section", "--H", "y2*y4 - (2*y3 - y1)", "--guess", "0.5",
          "--at", "x0=1,x1=3,x2=1,x3=1,x4=1"], "--csv"),
    ], ids=["out", "csv"])
    def test_unwritable_output_path_is_input_error(self, tmp_path, capsys, argv, option):
        path = str(tmp_path / "missing" / "report")
        code, report = run([*argv, option, path])
        assert code == 2 and report.status == "input-error"
        assert report.results["error"].startswith(f"cannot write {option} {path}: ")
        assert main([*argv, option, path, "--format", "json"]) == 2
        printed = json.loads(capsys.readouterr().out)
        assert printed["status"] == "input-error"
        assert path in printed["results"]["error"]

    def test_text_rendering_has_status(self):
        code, report = run(["growth", "--t", "x4"])
        text = report.to_text()
        assert "growth: [2, 3, 5]" in text
        assert text.endswith("status: ok")

    @pytest.mark.parametrize("fmt", [[], ["--format", "text"], ["--format", "json"],
                                     ["--format=json"]])
    def test_main_prints_the_rendered_report(self, fmt, capsys):
        argv = ["growth", "--t", "x4", *fmt]
        assert main(argv) == 0
        _, report = run(argv)
        expected = report.to_json() if "json" in "".join(fmt) else report.to_text()
        assert capsys.readouterr().out == expected + "\n"

    def test_deterministic_output(self):
        _, rep1 = run(["invariants", "--t", "x0*x4 - x2^2"])
        _, rep2 = run(["invariants", "--t", "x0*x4 - x2^2"])
        assert rep1.to_json() == rep2.to_json()

    def test_pointwise_classify(self):
        code, report = run(["classify", "--t", "x3", "--at",
                            "x0=0,x1=0,x2=0,x3=2,x4=0"])
        assert code == 0
        assert report.results["path"][0] == "J != 0"


class TestInjectedFaults:
    """One corrupted coefficient per command: each must exit 1 with
    ``verification-failed``, and name what failed."""

    @staticmethod
    def assert_failed(argv):
        code, report = run(argv)
        assert code == 1 and report.status == "verification-failed"
        assert report.results.get("pass") is not True
        return report

    def test_cubic_quadric_coefficient(self, monkeypatch):
        import copy

        from engelkit import cubicalg

        quadrics = copy.deepcopy(cubicalg._QUADRICS)
        quadrics[0][1][1] = -2  # q1 = p1 p3 - 2 p2^2 misses the cubic
        monkeypatch.setattr(cubicalg, "_QUADRICS", quadrics)
        report = self.assert_failed(["cubic", "verify"])
        assert report.results["stabilizer_matches_representation"] is False

    def test_models_structure_constant(self, monkeypatch):
        from dataclasses import replace

        from engelkit import models

        catalogue = models.catalogue

        def corrupted():
            systems = catalogue()
            first = systems[0]
            coefficients = {k: dict(eq) for k, eq in first.coefficients.items()}
            coefficients[1][(1, 5)] += 1
            systems[0] = replace(first, coefficients=coefficients)
            return systems

        monkeypatch.setattr(models, "catalogue", corrupted)
        report = self.assert_failed(["models", "check"])
        assert report.results["systems"]["six-dim-nonintegrable"]["closed"] is False
        assert report.results["systems"]["six-dim-split"]["closed"] is True

    def test_g2_structure_constant(self, monkeypatch):
        from engelkit import g2alg

        equation = dict(g2alg.MAURER_CARTAN[2])
        equation[(1, 6)] += 1
        monkeypatch.setitem(g2alg.MAURER_CARTAN, 2, equation)
        report = self.assert_failed(["g2", "verify"])
        assert report.results["structure_equations"] == "13/14 matched"
        assert report.results["mismatched_equations"] == ["dtheta^2"]

    def test_tanaka_gl2_basis_matrix(self, monkeypatch):
        from engelkit import cubicalg

        # E_03 is a symplectic derivation and span(rho'(E11), rho'(E12),
        # E_03, rho'(E22)) a subalgebra, so g0 is valid but not the cubic's gl2
        basis = cubicalg.gl2_basis()
        basis[2] = [[Fraction(1) if (i, j) == (0, 3) else Fraction(0)
                     for j in range(4)] for i in range(4)]
        monkeypatch.setattr(cubicalg, "gl2_basis", lambda: basis)
        report = self.assert_failed(["tanaka", "prolong", "--g0", "gl2"])
        assert report.results["degree_dims"] != [4, 1, 0]
        assert report.results["failures"] == ["degree_dims != [4, 1, 0], the grades of G2"]

    @pytest.mark.parametrize("t, wrong_j, growth", [
        ("x4", 0, [2, 3, 5]),  # J != 0 read as 0: the point path is skipped
        ("(x1 - 2*x3)/(-x2 + 2*x4)", 1, [2, 2, 2]),  # J = 0 read as 1: the point fails
    ])
    def test_geometry_closed_form_j(self, monkeypatch, t, wrong_j, growth):
        from engelkit import engel
        from engelkit.symexpr import integer

        # J = -X4(t) is computed in one place, which both the branch and the
        # closed-form jet read; the generic proof is taken before J is bent,
        # so the inconsistency must come from the marking's own checks
        engel._generic_identities()
        monkeypatch.setattr(engel.AdaptedCoframe, "J",
                            property(lambda acf: integer(wrong_j)))
        report = self.assert_failed(["geometry", "--t", t])
        assert report.results["first_invariant_vanishes"] is (wrong_j == 0)
        assert report.results["growth"] == growth
        assert report.results["consistent"] is False

    @pytest.mark.parametrize("command", ["cohomology", "normalization"])
    def test_tanaka_structure_constant(self, monkeypatch, command):
        self.double_heisenberg_pairing(monkeypatch)
        report = self.assert_failed(["tanaka", command])
        assert report.results["pass"] is False
        if command == "cohomology":
            assert report.results["H1_full_l1..l4"] != [0, 0, 0, 0]
        else:
            assert report.results["image_full_dim"] != 16

    @staticmethod
    def bend_table(monkeypatch, pair, k, bend):
        """Replace the E_k coefficient c of the bracket ``pair`` by
        ``bend(c)`` in the table that `tanaka` reads."""
        from dataclasses import replace

        from engelkit import g2alg, tanaka

        alg = g2alg.commutator_table()
        constants = {p: dict(entry) for p, entry in alg.constants.items()}
        entry = constants.setdefault(pair, {})
        entry[k] = bend(entry.get(k, Fraction(0)))
        monkeypatch.setattr(tanaka, "commutator_table",
                            lambda: replace(alg, constants=constants))

    @classmethod
    def double_heisenberg_pairing(cls, monkeypatch):
        """c^0_14 doubled in the table `tanaka` reads: Jacobi fails."""
        cls.bend_table(monkeypatch, (1, 4), 0, lambda c: 2 * c)

    def test_tanaka_cohomology_names_the_broken_complex(self, monkeypatch):
        self.double_heisenberg_pairing(monkeypatch)
        report = self.assert_failed(["tanaka", "cohomology"])
        assert report.results["H1_full_l1..l4"] == [None, None, 0, 0]
        assert report.results["H2_full_hom1"] is None
        assert report.results["H2_parabolic_hom1"] is None
        assert report.results["failures"] == [
            "d o d != 0 at C^1_1 with coefficients in 'g'",
            "d o d != 0 at C^1_2 with coefficients in 'g'",
            "d o d != 0 at C^2_1 with coefficients in 'g'",
            "d o d != 0 at C^2_1 with coefficients in 'q'"]
        report = self.assert_failed(["tanaka", "cohomology", "--degree", "1",
                                     "--homogeneity", "2"])
        assert report.results["dimension"] is None
        assert report.results["failures"][0].startswith("d o d != 0 at C^1_2")

    def test_tanaka_borel_structure_constant(self, monkeypatch):
        # the Borel matrices stop preserving the doubled pairing
        self.double_heisenberg_pairing(monkeypatch)
        report = self.assert_failed(["tanaka", "prolong", "--g0", "borel"])
        assert report.results["failures"] == [
            "matrix does not extend to a graded derivation"]
        code, report = run(["tanaka", "prolong", "--g0", "borel", "--max-degree", "-1"])
        assert code == 2 and report.status == "input-error"

    @pytest.mark.parametrize("pair, k", [((6, 8), 6), ((5, 12), 12)])
    def test_tanaka_borel_parabolic_bracket(self, monkeypatch, pair, k):
        # the Borel prolongs as before; a doubled [E6, E8] breaks the grade-0
        # brackets, a doubled [E5, E12] the grade-0 action on degree 1
        self.bend_table(monkeypatch, pair, k, lambda c: 2 * c)
        report = self.assert_failed(["tanaka", "prolong", "--g0", "borel"])
        assert report.results["matches_parabolic"] is False
        assert report.results["degree_dims"] == [1, 0]

    @pytest.mark.parametrize("pair, k, argv, failure", [
        ((1, 5), 2, ["tanaka", "normalization"],
         "[E5, E1] has an E2 term, so ad(E5) is not diagonal"),
        ((1, 5), 7, ["tanaka", "normalization"],
         "[E1, E5] has an E7 term outside grade -1"),
        ((1, 5), 7, ["tanaka", "cohomology"],
         "[E1, E5] has an E7 term outside grade -1"),
        ((1, 5), 7, ["tanaka", "cohomology", "--degree", "2", "--coefficients", "q"],
         "[E1, E5] has an E7 term outside grade -1"),
        ((1, 12), 7, ["tanaka", "cohomology", "--degree", "1", "--coefficients", "q",
                      "--homogeneity", "2"],
         "[E1, E12] has an E7 term outside the coefficient module 'q'"),
        ((1, 5), 7, ["tanaka", "prolong", "--g0", "borel"],
         "[E1, E5] has an E7 term outside grade -1"),
        ((1, 4), 5, ["tanaka", "prolong", "--g0", "gl2"],
         "[E1, E4] has an E5 term outside grade -2"),
    ])
    def test_tanaka_bent_grading(self, monkeypatch, pair, k, argv, failure):
        # an E2 term in [E1, E5] keeps the grading but not E5's diagonal
        # action; an E7 term leaves grade -1; an E7 term in [E1, E12] keeps
        # the grading but leaves the parabolic; the Heisenberg pairing reads
        # only the E0 term of [E1, E4]
        self.bend_table(monkeypatch, pair, k, lambda c: c + 1)
        report = self.assert_failed(argv)
        assert report.results["failures"] == [failure]

    def test_invariants_structure_route(self, monkeypatch):
        from dataclasses import replace

        from engelkit import engel

        code, report = run(["invariants", "--t", "x4"])
        assert code == 0 and "disagreeing" not in report.results
        structural = engel.invariants_from_structure_equations

        def shifted(acf):
            inv = structural(acf)
            return replace(inv, M=inv.M + 1)

        monkeypatch.setattr(engel, "invariants_from_structure_equations", shifted)
        report = self.assert_failed(["invariants", "--t", "x4"])
        assert report.results["routes_agree"] is False
        assert report.results["disagreeing"] == ["M"]

    def test_reduction_lifted_w4(self, monkeypatch):
        from engelkit import engel

        lift = engel._lift_omega

        def doubled(acf):
            w = lift(acf)
            w[4] = w[4] * 2
            return w

        monkeypatch.setattr(engel, "_lift_omega", doubled)
        report = self.assert_failed(["reduction", "verify-flat"])
        assert report.results["pass"] is False
        assert sorted(report.results["failures"]) == ["e0", "e4"]
        assert [name for name, ok in report.results["equations"].items()
                if not ok] == ["e0", "e4"]

    def test_fibration_inverse_coordinate(self, monkeypatch):
        from engelkit import kerr
        from engelkit.symexpr import symbol

        inverse = kerr.inverse_coordinate_map

        def corrupted():
            chart = inverse()
            chart["x3"] = chart["x3"] + 2 * symbol("y4") * symbol("y5")  # x3 = y3 + x5 x4
            return chart

        monkeypatch.setattr(kerr, "inverse_coordinate_map", corrupted)
        report = self.assert_failed(["fibration", "check"])
        assert report.results["pass"] is False
        assert report.results["round_trip_identity"] is False
        assert report.results["forms_match"] == [True] * 6

    @pytest.mark.parametrize("command", [
        ["kerr", "solve", "--F", "y2*t - (2*y3 - y1)"],
        ["kerr", "section", "--H", "y2*y4 - (2*y3 - y1)", "--guess", "0.5"],
    ], ids=["solve", "section"])
    def test_kerr_base_expression(self, monkeypatch, command):
        from engelkit import kerr
        from engelkit.symexpr import symbol

        y_of = kerr.y_of

        def bent(t=None):
            y0, y1, y2, y3 = y_of(t)
            return y0, y1, y2, y3 + (symbol("t") if t is None else t) * symbol("x4")

        monkeypatch.setattr(kerr, "y_of", bent)
        report = self.assert_failed(command + ["--at", "x0=1,x1=3,x2=1,x3=1,x4=1"])
        assert report.results["error"].startswith("integrability residual ")
        assert report.results["error"].endswith(" exceeds 1e-07")

    def test_fibration_base_expression(self, monkeypatch):
        # coordinate_map reads y0..y3 from y_of; the y-chart forms do not
        from engelkit import kerr
        from engelkit.symexpr import symbol

        y_of = kerr.y_of

        def bent(t=None):
            y0, y1, y2, y3 = y_of(t)
            return y0, y1, y2, y3 + (symbol("t") if t is None else t) * symbol("x4")

        monkeypatch.setattr(kerr, "y_of", bent)
        report = self.assert_failed(["fibration", "check"])
        assert report.results["forms_match"] != [True] * 6
        assert report.results["round_trip_identity"] is False

    def test_fibration_adapted_forms(self, monkeypatch):
        # the x-chart forms come from the builder of every adapted coframe
        from engelkit import kerr

        forms = kerr._adapted_forms

        def bent(chart, t):
            w = forms(chart, t)
            w[2] = w[2] * 2
            return w

        monkeypatch.setattr(kerr, "_adapted_forms", bent)
        report = self.assert_failed(["fibration", "check"])
        assert report.results["forms_match"] == [True, True, False, True, True, True]

    def test_tanaka_gl2_truncated_depths_pass(self):
        for depth in range(6):
            code, report = run(["tanaka", "prolong", "--g0", "gl2",
                                "--max-degree", str(depth)])
            assert code == 0 and "failures" not in report.results

    @pytest.mark.parametrize("seed", range(10))
    def test_cubic_passes_on_seeds(self, seed):
        code, report = run(["cubic", "verify", "--seed", str(seed)])
        assert code == 0 and report.results["pass"] is True
