"""Acceptance suite: one check per claim, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each test exercises its claim at the stated scale and tolerance (all
arithmetic is exact, so every tolerance is zero).  Deep elimination
oracles are time-budgeted and skip, never fail, on budget exhaustion.
"""

import time

import pytest

from fiberforge import candidate, census, groebner, hilbert, rees
from fiberforge.candidate import DOCUMENTED_ERRATA_KEYS
from fiberforge.errors import BudgetExceeded
from fiberforge.rings import omega_order, ring_R, ring_Rees, ring_S, ring_W
from math import comb


def _report(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _lambda_gens(d):
    return [rec.value for rec in candidate.generators_lambda(d, "all")]


class TestCriterion1CensusTableD4:
    def test_census_table_d4(self):
        t0 = time.monotonic()
        d = 4
        s = lambda i, j: len(census.s_set(d, i, j))
        tmax = lambda i, j: len(
            census.enum_census(d, "Tmax", (i, j)).members
        )

        def tau(v):
            return (max(v.index), min(v.index))

        def t_row(i, j):
            vs = sorted(census.s_set(d, i, j), key=tau, reverse=True)
            return tuple(len(census.t_set(d, (i, j), v.index)) for v in vs)

        ok = (
            s(3, 4) == 3
            and s(2, 4) == 5
            and s(1, 4) == 2
            and tmax(3, 4) == 9
            and tmax(2, 4) == 8
            and tmax(1, 4) == 7
            and t_row(3, 4) == (9, 8, 7)
            and t_row(2, 4) == (8, 7, 6, 5, 4)
            and t_row(1, 4) == (7, 6)
            and len(census.t_total(d)) == 67
        )
        elapsed = time.monotonic() - t0
        _report(
            "criterion-1 degree-3 census table at d=4",
            ok and elapsed < 1.0,
            f"{elapsed:.2f}s < 1s",
        )


class TestCriterion2ClosedFormCounts:
    def test_closed_forms_match_enumeration_d4_to_d8(self):
        t0 = time.monotonic()
        ok = True
        for d in range(4, 9):
            ok = ok and len(census.enum_census(d, "K0").members) == 2 * comb(d, 4)
            ok = ok and len(census.enum_census(d, "K1").members) == (d - 3) * comb(d, 2)
            ok = ok and len(census.enum_census(d, "K2").members) == d * (d - 3) // 2
            for j in range(4, d + 1):
                ok = ok and len(census.s_set(d, 1, j)) == j * (j - 3) // 2
            for i in range(2, d + 1):
                for j in range(i + 1, d + 1):
                    ok = ok and len(census.s_set(d, i, j)) == census.count_closed(
                        d, "S", (i, j)
                    )
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    if census.s_set(d, i, j):
                        ok = ok and len(
                            census.enum_census(d, "Tmax", (i, j)).members
                        ) == census.count_closed(d, "Tmax", (i, j))
            ok = ok and len(census.t_total(d)) == census.count_closed(d, "Ttotal")
            ok = ok and len(census.enum_census(d, "G1").members) == 6
            for fam in ("G2", "G3", "G4"):
                ok = ok and len(
                    census.enum_census(d, fam).members
                ) == census.count_closed(d, fam)
            ok = ok and census.count_closed(d, "G3") == d * (d - 3) // 2
            ok = ok and census.count_closed(d, "G4") == d * (d - 3) // 2
            gsum = sum(
                len(census.enum_census(d, fam).members)
                for fam in ("G1", "G2", "G3", "G4")
            )
            ok = ok and gsum == census.count_closed(d, "Gsum")
        elapsed = time.monotonic() - t0
        _report(
            "criterion-2 closed-form counts vs enumeration, d=4..8",
            ok and elapsed < 10.0,
            f"{elapsed:.2f}s < 10s",
        )


class TestCriterion3HilbertFunctions:
    def test_degree2_values(self):
        ok = True
        for d, want in ((4, 10), (5, 35), (6, 84), (7, 168)):
            got = hilbert.hf_exact(_lambda_gens(d), 2)
            ok = ok and got == want == hilbert.hf_closed("IX2", d)
        _report("criterion-3a degree-2 Hilbert values, d=4..7", ok)

    def test_degree3_values(self):
        t0 = time.monotonic()
        ok = True
        for d, want in ((4, 81), (5, 350), (6, 1078)):
            got = hilbert.hf_exact(_lambda_gens(d), 3)
            ok = ok and got == want == hilbert.hf_closed("IX3", d)
        elapsed = time.monotonic() - t0
        _report(
            "criterion-3b degree-3 Hilbert values, d=4..6",
            ok and elapsed < 300.0,
            f"{elapsed:.1f}s < 300s",
        )


class TestCriterion4InitialIdealDegree2:
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_initial_degree2_equals_census(self, d):
        got = set(hilbert.echelon_leads(_lambda_gens(d), 2)[2])
        want = census.census_degree2(d)
        _report(f"criterion-4 degree-2 initial monomials = census, d={d}",
                got == want)


class TestCriterion5Membership:
    def test_phi_w_kills_all_generators(self):
        ok = all(
            candidate.phi_W(rec.value).is_zero
            for d in range(4, 9)
            for rec in candidate.generators_lambda(d, "all")
        )
        _report("criterion-5a generators vanish under the quadric map, d=4..8", ok)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_epsilon_reduces_mod_minor_ideal(self, d):
        from fiberforge.rings import ring_U

        # the full basis of N stays the reference for the rank route's rows
        gbN = groebner.buchberger(
            candidate.minor_ideal_U(d), omega_order(ring_U(d))
        )
        rows = candidate.minor_ideal_U_basis(d)
        verdicts = [
            (
                groebner.normal_form(candidate.epsilon(rec.value), gbN).is_zero,
                candidate.check_criterion_c(rec.value, rows),
            )
            for rec in candidate.generators_lambda(d, "all")
        ]
        ok = all(by_basis and by_rows for by_basis, by_rows in verdicts)
        _report(f"criterion-5b generator images reduce to 0 mod 2x2 minors, d={d}",
                ok)


class TestCriterion6Oracles:
    def test_fiber_kernel_equality_d4(self):
        d = 4
        ker = groebner.kernel_of_hom(
            ring_W(d), ring_R(d), candidate.hom_catalog(d).phi_W
        )
        ok = groebner.ideal_equal(_lambda_gens(d), ker)
        _report("criterion-6a candidate ideal = fiber kernel, d=4", ok)

    def test_fiber_kernel_equality_d5_budgeted(self):
        d = 5
        try:
            ker = groebner.kernel_of_hom(
                ring_W(d), ring_R(d), candidate.hom_catalog(d).phi_W,
                deadline=time.monotonic() + 1800.0,
            )
            ok = groebner.ideal_equal(
                _lambda_gens(d), ker, deadline=time.monotonic() + 1800.0
            )
        except BudgetExceeded:
            print("criterion-6b candidate ideal = fiber kernel, d=5: SKIPPED")
            pytest.skip("time budget exceeded")
        _report("criterion-6b candidate ideal = fiber kernel, d=5", ok)

    def test_rees_membership_always(self):
        d = 4
        hom = rees.rees_substitution(d)
        from fiberforge.rings import apply_hom

        T = ring_Rees(d)
        ok = all(apply_hom(g, hom, T).is_zero for g in rees.rees_ideal(d))
        _report("criterion-6c Rees generators lie in the substitution kernel, d=4",
                ok)

    def test_rees_kernel_equality_d4_budgeted(self):
        d = 4
        try:
            oracle = groebner.kernel_of_hom(
                ring_S(d), ring_Rees(d), rees.rees_substitution(d),
                deadline=time.monotonic() + 3600.0,
            )
            ok = groebner.ideal_equal(
                rees.rees_ideal(d), oracle, deadline=time.monotonic() + 3600.0
            )
        except BudgetExceeded:
            print("criterion-6d Rees ideal = elimination kernel, d=4: SKIPPED")
            pytest.skip("time budget exceeded")
        _report("criterion-6d Rees ideal = elimination kernel, d=4", ok)


class TestCriterion7PowerIdentities:
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_squares_and_cubes_fill_even_powers(self, d):
        ok = rees.power_check(d, 2) and rees.power_check(d, 3)
        _report(f"criterion-7 quadric products span degrees 4 and 6, d={d}", ok)


class TestCriterion8CatalogueFidelity:
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_errata_limited_to_documented_entries(self, d):
        bad = {entry.key for entry, _ in candidate.errata_report(d)}
        ok = bad <= set(DOCUMENTED_ERRATA_KEYS)
        _report(
            f"criterion-8 catalogue leads match except documented errata, d={d}",
            ok,
            f"errata keys: {sorted(bad)}",
        )


class TestCriterion9IntegerIdentities:
    def test_identity_suite_d4_to_d50(self):
        ok = True
        for d in range(4, 51):
            n = comb(d + 1, 2) - 1
            hw2 = comb(2 + n - 1, 2)
            hw3 = comb(3 + n - 1, 3)
            ok = ok and hw2 - hilbert.hf_closed("fiber", d, 2) == hilbert.hf_closed(
                "IX2", d
            )
            ok = ok and hw3 - hilbert.hf_closed("fiber", d, 3) == hilbert.hf_closed(
                "IX3", d
            )
            ok = ok and census.count_closed(d, "Ttotal") + census.count_closed(
                d, "Gsum"
            ) == hilbert.hf_closed("IX3", d)
            ok = ok and 2 * comb(d, 4) + (d - 3) * comb(d, 2) + d * (
                d - 3
            ) // 2 == hilbert.hf_closed("IX2", d)
        _report("criterion-9 integer identity suite, d=4..50", ok)
