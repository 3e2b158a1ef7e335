"""Tests for the candidate-ideal generators and the named catalogue."""

import itertools
from functools import lru_cache
from math import comb

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from fiberforge.candidate import (
    DOCUMENTED_ERRATA_KEYS,
    catalogue_entries,
    check_criterion_c,
    errata_report,
    generators_lambda,
    hom_catalog,
    minor_ideal_U,
    minor_ideal_U_basis,
    named_generator,
    epsilon,
    phi_W,
    quadric_image,
)
from fiberforge.errors import BadParams, BeyondTruncation, DimensionTooSmall
from fiberforge.groebner import buchberger, normal_form
from fiberforge.rings import (
    Polynomial,
    omega_order,
    ring_U,
    ring_W,
    wvar,
)

W4 = ring_W(4)


@lru_cache(maxsize=None)
def _full_basis_N(d):
    """The full reduced Groebner basis of the 2x2-minor ideal N of U: the
    reference that criterion-c's rows are checked against."""
    return buchberger(minor_ideal_U(d), omega_order(ring_U(d)))


def _in_N_by_normal_form(f):
    return normal_form(epsilon(f), _full_basis_N(f.ring.d)).is_zero


def _wpoly(d, *terms):
    ring = ring_W(d)
    f = ring.zero()
    for coeff, pairs in terms:
        mono = ring.monomial_of(*(wvar(i, j) for i, j in pairs))
        f = f + Polynomial(ring, {mono: Fraction(coeff)})
    return f


class TestGeneratorCounts:
    def test_counts_d4(self):
        assert len(generators_lambda(4, 0)) == 3
        assert len(generators_lambda(4, 1)) == 6
        assert len(generators_lambda(4, 2)) == 3
        assert len(generators_lambda(4, "all")) == 12

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            generators_lambda(3)
        with pytest.raises(DimensionTooSmall):
            hom_catalog(3)

    def test_bad_part(self):
        with pytest.raises(BadParams):
            generators_lambda(4, part=5)

    def test_counts_grow_with_d(self):
        assert len(generators_lambda(5, "all")) > len(generators_lambda(4, "all"))

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_part_sizes_and_distinct_up_to_sign(self, d):
        sizes = [len(generators_lambda(d, part)) for part in (0, 1, 2)]
        assert sizes == [3 * comb(d, 4), 6 * comb(d, 4), 3 * comb(d, 4)]
        seen = set()
        for rec in generators_lambda(d):
            assert rec.value not in seen and -rec.value not in seen, rec.provenance
            seen.add(rec.value)
        assert len(seen) == sum(sizes)

    def test_built_once_as_a_tuple(self):
        gens = generators_lambda(5)
        assert isinstance(gens, tuple)
        assert generators_lambda(5) is gens
        assert generators_lambda(5, "all") is gens
        assert generators_lambda(d=5, part="all") is gens


class TestGeneratorValues:
    def test_sign_normalized(self):
        for rec in generators_lambda(5, "all"):
            c, lead = rec.value.leading()
            assert c > 0
            assert lead == rec.leading

    def test_part0_is_plucker_shape(self):
        # [12|34] = w_13 w_24 - w_14 w_23
        recs = generators_lambda(4, 0)
        want = _wpoly(4, (1, [(1, 3), (2, 4)]), (-1, [(1, 4), (2, 3)]))
        values = {rec.value for rec in recs}
        assert want in values or -want in values

    def test_part1_kills_phi_w(self):
        for rec in generators_lambda(4, 1):
            assert phi_W(rec.value).is_zero

    def test_all_generators_vanish_under_phi_w(self):
        for d in (4, 5, 6):
            for rec in generators_lambda(d, "all"):
                assert phi_W(rec.value).is_zero

    def test_generators_homogeneous_quadrics(self):
        for rec in generators_lambda(5, "all"):
            assert rec.value.is_homogeneous()
            assert rec.value.degree() == 2


class TestHomomorphisms:
    def test_quadric_image_offdiagonal(self):
        f = quadric_image(4, 1, 2)
        assert not f.is_zero and f.degree() == 2

    def test_epsilon_criterion_c(self):
        basis = minor_ideal_U_basis(4)
        for rec in generators_lambda(4, "all"):
            assert check_criterion_c(rec.value, basis)
            assert _in_N_by_normal_form(rec.value)

    def test_epsilon_nonmember(self):
        w12 = W4.variable(wvar(1, 2))
        assert not check_criterion_c(w12 * w12, minor_ideal_U_basis(4))
        assert not _in_N_by_normal_form(w12 * w12)
        with pytest.raises(BeyondTruncation):  # the rows stop at degree 2
            check_criterion_c(w12 * w12 * w12, minor_ideal_U_basis(4))

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_minor_ideal_basis_is_truncated_buchberger(self, d):
        rows = minor_ideal_U_basis(d)
        order = omega_order(ring_U(d))
        got = tuple(Polynomial(order.ring, rows[m]) for m in sorted(rows, key=order.key))
        want = buchberger(minor_ideal_U(d), order, max_degree=2)
        assert got == want.elements
        assert all(rows[m][m] == 1 and Polynomial(order.ring, rows[m]).leading() == (1, m)
                   for m in rows)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([4, 5]), st.data())
    def test_criterion_c_agrees_with_the_full_basis(self, d, data):
        # a small-integer combination of Lambda's generators, which lies in
        # N, plus in some draws one quadric monomial of W, which does not
        gens = generators_lambda(d)
        W = ring_W(d)
        f = W.zero()
        for index, coeff in data.draw(st.lists(st.tuples(
            st.integers(0, len(gens) - 1), st.integers(-3, 3).filter(bool),
        ), max_size=5)):
            f = f + gens[index].value.scale(coeff)
        extra = data.draw(st.none() | st.tuples(
            st.integers(0, W.nvars - 1), st.integers(0, W.nvars - 1),
            st.integers(-3, 3).filter(bool),
        ))
        if extra is not None:
            p, q, coeff = extra
            f = f + W.variable(W.vars[p]) * W.variable(W.vars[q]).scale(coeff)
        assert check_criterion_c(f, minor_ideal_U_basis(d)) == _in_N_by_normal_form(f)

    def test_epsilon_is_a_ring_map(self):
        f = _wpoly(4, (1, [(1, 1), (2, 2)]))
        g = _wpoly(4, (1, [(1, 2), (1, 2)]))
        assert epsilon(f + g) == epsilon(f) + epsilon(g)
        assert epsilon(f * g) == epsilon(f) * epsilon(g)


class TestCatalogue:
    def test_g1_34_expansion(self):
        entry = named_generator("g1", (3, 4), 4)
        want = _wpoly(
            4,
            (1, [(2, 3), (2, 4)]),
            (-1, [(1, 3), (1, 4)]),
            (-1, [(2, 2), (3, 4)]),
            (1, [(1, 1), (3, 4)]),
        )
        assert entry.value == want or entry.value == -want

    def test_g3f1_expansion(self):
        # G3.F1(i, j) leads with w_13 w_23 w_ij
        entry = named_generator("G3.F1", (4, 5), 5)
        _, lead = entry.value.leading(omega_order(ring_W(5)))
        assert lead == entry.claimed_leading

    def test_bad_params(self):
        with pytest.raises(BadParams):
            named_generator("g1", (4, 3), 5)
        with pytest.raises(BadParams):
            named_generator("G2.F1", (2, 3, 4), 5)
        with pytest.raises(BadParams):
            named_generator("G3.F1", (3, 4), 5)
        with pytest.raises(BadParams):
            named_generator("G5.F1", (), 5)
        # A key takes a tuple exactly when the catalogue lists it.
        keys = (
            [f"{f}{n}" for f, top in (("f", 3), ("g", 6), ("h", 2)) for n in range(1, top + 1)]
            + [f"G{g}.F{n}" for g, top in ((1, 6), (2, 4), (3, 3), (4, 3))
               for n in range(1, top + 1)]
        )
        for d in (5, 6):
            listed = {(e.key, e.params) for e in catalogue_entries(d)}
            assert {key for key, _ in listed} == set(keys)
            for key in keys:
                for size in range(4):
                    for params in itertools.product(range(d + 2), repeat=size):
                        try:
                            named_generator(key, params, d)
                            accepted = True
                        except BadParams:
                            accepted = False
                        assert accepted == ((key, params) in listed), (d, key, params)

    def test_catalogue_deterministic(self):
        a = catalogue_entries(5)
        b = catalogue_entries(5)
        assert [(e.key, e.params) for e in a] == [(e.key, e.params) for e in b]

    def test_catalogue_values_vanish_under_phi_w(self):
        for entry in catalogue_entries(4):
            assert phi_W(entry.value).is_zero

    def test_claimed_leads_homogeneous(self):
        for entry in catalogue_entries(5):
            assert entry.value.is_homogeneous()
            assert sum(entry.claimed_leading) == entry.value.degree()


class TestErrata:
    def test_errata_keys_pinned(self):
        for d in (4, 5, 6):
            keys = {entry.key for entry, _ in errata_report(d)}
            assert keys <= set(DOCUMENTED_ERRATA_KEYS)

    def test_documented_errata_present(self):
        keys = {entry.key for entry, _ in errata_report(5)}
        assert keys == set(DOCUMENTED_ERRATA_KEYS)
