"""Tests for the monomial census: K sets, S sets, T partitions, G families."""

import itertools
from fractions import Fraction

import pytest

from fiberforge import candidate, census
from fiberforge.census import (
    CensusReport,
    census_degree2,
    census_size,
    count_closed,
    enum_census,
    s_set,
    t_set,
    t_total,
    verify_census,
)
from fiberforge.errors import BadParams, NotInS, OutOfTable
from fiberforge.hilbert import hf_closed
from fiberforge.rings import ring_W, wvar


def _wm(d, *pairs):
    return ring_W(d).monomial_of(*(wvar(i, j) for i, j in pairs))


def _tau(v):
    return (max(v.index), min(v.index))


class TestDegree2Census:
    def test_size_matches_hf2(self):
        for d in (4, 5, 6, 7):
            assert len(census_degree2(d)) == hf_closed("IX2", d)

    def test_families_disjoint(self):
        for d in (4, 5):
            k0 = enum_census(d, "K0").members
            k1 = enum_census(d, "K1").members
            k2 = enum_census(d, "K2").members
            assert not (k0 & k1) and not (k0 & k2) and not (k1 & k2)
            assert k0 | k1 | k2 == census_degree2(d)

    def test_k1_pair34_member(self):
        # for the pair {3,4} with l = 2 the census holds w_23 w_24
        assert _wm(4, (2, 3), (2, 4)) in enum_census(4, "K1").members
        assert _wm(4, (2, 2), (3, 4)) not in census_degree2(4)

    def test_k2_squares(self):
        assert enum_census(4, "K2").members == {_wm(4, (2, 4), (2, 4)),
                                                _wm(4, (3, 4), (3, 4))}


class TestSSets:
    def test_s34_at_d4(self):
        assert s_set(4, 3, 4) == frozenset({wvar(1, 4), wvar(2, 4), wvar(3, 4)})

    def test_s12_empty(self):
        assert s_set(4, 1, 2) == frozenset()

    def test_sizes_match_closed_form(self):
        for d in (4, 5, 6):
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    assert len(s_set(d, i, j)) == count_closed(d, "S", (i, j))

    def test_bad_pair(self):
        with pytest.raises(BadParams):
            s_set(4, 4, 3)


class TestTSets:
    def test_t24_13_members(self):
        got = t_set(4, (2, 4), (1, 3))
        want = {
            _wm(4, (i, j), (1, 3), (2, 4))
            for (i, j) in ((1, 1), (1, 2), (2, 2), (1, 3))
        }
        assert got == want

    def test_not_in_s(self):
        with pytest.raises(NotInS):
            t_set(4, (3, 4), (1, 2))

    def test_partition(self):
        for d in (4, 5):
            seen = set()
            total = 0
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    for v in s_set(d, i, j):
                        part = t_set(d, (i, j), v.index)
                        assert not (part & seen)
                        seen |= part
                        total += len(part)
            assert seen == t_total(d)
            assert total == count_closed(d, "Ttotal")

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_members_match_brute_force(self, d):
        # charge every census multiple to its tau-greatest factor pair,
        # comparing the factors' index keys rather than ring positions
        W = ring_W(d)
        census = census_degree2(d)
        want = {}
        for m in t_total(d):
            factors = [W.vars[p] for p in m]
            best = max(
                (_tau(hi), _tau(lo), hi.index, lo.index)
                for hi, lo in (
                    sorted(pair, key=_tau, reverse=True)
                    for pair in itertools.combinations(factors, 2)
                )
                if W.monomial_of(hi, lo) in census
            )
            want.setdefault(best[2:], set()).add(m)
        got = {
            ((i, j), v.index): t_set(d, (i, j), v.index)
            for j in range(1, d + 1)
            for i in range(1, j + 1)
            if (i, j) != (d, d)
            for v in s_set(d, i, j)
        }
        assert {k: v for k, v in got.items() if v} == want

    def test_tmax_size(self):
        assert len(enum_census(4, "Tmax", (2, 4)).members) == count_closed(
            4, "Tmax", (2, 4)
        )


class TestGFamilies:
    def test_sizes(self):
        for d in (4, 5, 6):
            total = 0
            for fam in ("G1", "G2", "G3", "G4"):
                cs = enum_census(d, fam)
                assert len(cs.members) == count_closed(d, fam)
                total += len(cs.members)
            assert total == count_closed(d, "Gsum")

    def test_disjoint_from_t(self):
        for d in (4, 5):
            tt = t_total(d)
            for fam in ("G1", "G2", "G3", "G4"):
                assert not (enum_census(d, fam).members & tt)

    def test_g_plus_t_is_hf3(self):
        for d in (4, 5, 6):
            assert len(t_total(d)) + count_closed(d, "Gsum") == hf_closed("IX3", d)


class TestClosedFormGuards:
    def test_unknown_family(self):
        with pytest.raises(OutOfTable):
            count_closed(4, "K9")

    def test_bad_d(self):
        with pytest.raises(BadParams):
            enum_census(3, "K0")

    @pytest.mark.parametrize(
        "fn, family, params",
        [
            (enum_census, "S", ()),
            (count_closed, "S", ()),
            (enum_census, "K0", (1, 2)),
            (count_closed, "K0", (1, 2)),
            (enum_census, "Tkl", (2, 4)),
            (count_closed, "Tmax", ((2, 4), (1, 3))),
        ],
    )
    def test_wrong_parameter_count(self, fn, family, params):
        with pytest.raises(BadParams):
            fn(4, family, params)

    def test_census_size_is_hf(self):
        for d in (4, 5, 6, 9):
            assert census_size(d, 2) == hf_closed("IX2", d)
            assert census_size(d, 3) == hf_closed("IX3", d)
        with pytest.raises(OutOfTable):
            census_size(4, 4)

    def test_unknown_family_enumeration(self):
        with pytest.raises(BadParams, match="unknown census family 'K9'"):
            enum_census(4, "K9")
        # Gsum has a closed form but no enumeration, and the message says so
        with pytest.raises(BadParams, match="'Gsum' has a closed form but no enumeration"):
            enum_census(4, "Gsum")

    def test_divisible_for_integer_parameters(self):
        for d in range(4, 40):
            assert isinstance(count_closed(d, "Ttotal"), int)
            assert isinstance(count_closed(d, "Gsum"), int)
            for j in range(4, d + 1):
                for i in range(1, j + 1):
                    assert isinstance(count_closed(d, "Tmax", (i, j)), int)

    # Each divided closed form is integral for every integer input, so
    # only a half-integer parameter reaches the failing side of its guard.
    @pytest.mark.parametrize(
        "d, family, params",
        [
            (6, "Tmax", (Fraction(1, 2), 4)),
            (Fraction(9, 2), "Ttotal", ()),
            (Fraction(9, 2), "Gsum", ()),
        ],
        ids=["Tmax", "Ttotal", "Gsum"],
    )
    def test_non_integral_closed_form_raises(self, d, family, params):
        with pytest.raises(ArithmeticError):
            count_closed(d, family, params)


class TestVerify:
    @pytest.mark.parametrize("d", [4, 5])
    def test_verify_census_passes(self, d):
        report = verify_census(d)
        assert len(report.checks) > 0
        assert report.ok, [c for c in report.checks if c[1] != c[2]]

    def test_ok_reads_the_rows(self):
        assert CensusReport(4, [("a", 1, 1), ("b", {1}, {1})]).ok
        assert not CensusReport(4, [("a", 1, 1), ("b", [3], [2])]).ok


class TestClaimedLeads:
    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_read_off_the_table(self, d):
        claimed = candidate.claimed_leads(d)
        assert claimed == {e.claimed_leading for e in candidate.catalogue_entries(d)}

    def test_verify_census_expands_no_element(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a catalogue element was expanded")

        monkeypatch.setattr(candidate, "_entry", refuse)
        monkeypatch.setattr(candidate, "_quadric", refuse)
        candidate.catalogue_entries.cache_clear()
        try:
            assert verify_census(6).ok
        finally:
            candidate.catalogue_entries.cache_clear()


def _sorted_next_triples(d, p, q):
    """The T set of the census pair (p, q) as positions, by sorting each
    triple and taking the first of its factor pairs in the census."""
    pairs = census_degree2(d)
    out = set()
    for r in range(ring_W(d).nvars):
        x, y, z = sorted((r, p, q))
        if next(f for f in ((y, z), (x, z), (x, y)) if f in pairs) == (p, q):
            out.add((x, y, z))
    return frozenset(out)


class TestTriplesByCase:
    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_cases_match_the_sorted_definition(self, d):
        pairs = census_degree2(d)
        assert pairs
        for p, q in pairs:
            assert census._t_triples(d, p, q) == _sorted_next_triples(d, p, q)


class TestKSetsOnce:
    def test_verify_census_enumerates_each_k_set_once(self, monkeypatch):
        calls = []
        for fam in ("K0", "K1", "K2"):
            row = census.FAMILIES[fam]

            def spy(d, enum=row.enum, fam=fam):
                calls.append(fam)
                return enum(d)

            monkeypatch.setitem(census.FAMILIES, fam, row._replace(enum=spy))
        cached = (census._k_sets, census.census_degree2, census.s_set)
        for fn in cached:
            fn.cache_clear()
        try:
            assert verify_census(5).ok
        finally:
            for fn in cached:
                fn.cache_clear()
        assert sorted(calls) == ["K0", "K1", "K2"]
