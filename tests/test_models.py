"""Tests for the homogeneous-model structure systems."""

from __future__ import annotations

from fractions import Fraction

from engelkit import models
from engelkit.models import (
    ConstantStructureSystem,
    _restrict,
    catalogue,
    flat_ideal_report,
    flat_symmetry_system,
    identify,
    jacobi_check,
)


def by_name(name):
    return next(s for s in catalogue() if s.name == name)


class TestJacobi:
    def test_all_catalogued_systems_close(self):
        systems = catalogue()
        assert len(systems) == 7
        for system in systems:
            assert jacobi_check(system), system.name

    def test_mutated_system_fails(self):
        base = by_name("six-dim-nonintegrable")
        eqs = {k: dict(v) for k, v in base.coefficients.items()}
        eqs[3][(3, 5)] = Fraction(-13, 5)  # perturb one scaling weight
        mutated = ConstantStructureSystem("mutated", 6, eqs)
        assert not jacobi_check(mutated)

    def test_five_dim_systems_close(self):
        assert jacobi_check(by_name("five-dim-L"))
        assert jacobi_check(by_name("five-dim-MP-plus"))
        assert jacobi_check(by_name("five-dim-MP-minus"))


class TestIdentification:
    def test_submax_minus_variant(self):
        rep = identify(by_name("submax-minus"))
        assert rep.semisimple
        assert rep.killing_signature == (5, 3, 0)

    def test_submax_plus_variant(self):
        rep = identify(by_name("submax-plus"))
        assert rep.semisimple
        assert rep.killing_signature == (4, 4, 0)

    def test_submax_variants_not_isomorphic(self):
        minus = identify(by_name("submax-minus")).killing_signature
        plus = identify(by_name("submax-plus")).killing_signature
        assert minus != plus

    def test_six_dim_split_decomposes(self):
        rep = identify(by_name("six-dim-split"), split_ideals=True)
        assert rep.semisimple
        assert rep.ideal_split == ((3, True), (3, True))

    def test_non_semisimple_branch_models(self):
        for name in ("six-dim-nonintegrable", "five-dim-L"):
            rep = identify(by_name(name))
            assert not rep.semisimple
            assert rep.center_dim == 0


def dense_killing_form(alg):
    """The definition tr(ad E_i ad E_j), from dense ad matrices."""
    n = alg.dim
    ads = [alg.ad(i) for i in range(n)]
    return [[sum(ads[i][k][l] * ads[j][l][k] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


class TestKillingForm:
    def test_catalogue_matches_trace_of_ad_products(self):
        for system in catalogue() + [flat_symmetry_system()]:
            alg = system.dual_algebra()
            assert alg.killing_form() == dense_killing_form(alg), system.name

    def test_split_ideals_match_trace_of_ad_products(self, monkeypatch):
        restricted = []

        def recording(alg, rows):
            sub = _restrict(alg, rows)
            restricted.append(sub)
            return sub

        monkeypatch.setattr(models, "_restrict", recording)
        rep = identify(by_name("six-dim-split"), split_ideals=True)
        assert rep.ideal_split == ((3, True), (3, True))
        assert len(restricted) == 2
        for sub in restricted:
            assert sub.killing_form() == dense_killing_form(sub)


class TestFlatSymmetrySystem:
    def test_closed(self):
        assert jacobi_check(flat_symmetry_system())

    def test_ideal_structure(self):
        rep = flat_ideal_report()
        # the first five duals span a Heisenberg subalgebra, not an ideal
        assert rep.first_five_duals_subalgebra
        assert not rep.first_five_duals_ideal
        assert rep.nilradical_dim == 5
        assert rep.nilradical_is_nilpotent
        assert rep.nilradical_basis_indices == (0, 2, 3, 4, 6)


class TestExport:
    def test_table_lists_all_constants(self):
        system = by_name("six-dim-split")
        table = system.to_table()
        assert "d[0][1,4] = 1" in table
        assert table.startswith("# six-dim-split")
