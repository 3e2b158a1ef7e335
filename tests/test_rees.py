"""Tests for the quadric ideal, its syzygies, and the Rees-side objects."""

import itertools
from fractions import Fraction
from functools import reduce
from math import comb
from operator import mul

import pytest

from fiberforge import groebner, rees

from fiberforge.candidate import hom_catalog, phi_U, phi_W, generators_lambda
from fiberforge.errors import DimensionTooSmall
from fiberforge.groebner import buchberger, normal_form
from fiberforge.rees import (
    integrality_witness,
    linear_syzygies,
    power_check,
    rees_ideal,
    rees_kernel_oracle,
    rees_substitution,
    sym_algebra_ideal,
)
from fiberforge.hilbert import hf_exact
from fiberforge.rings import (
    Polynomial,
    apply_hom,
    omega_order,
    ring_R,
    ring_Rees,
    ring_S,
    ring_W,
    xvar,
)


def _xpoly(d, *terms):
    R = ring_R(d)
    f = R.zero()
    for coeff, idxs in terms:
        mono = R.monomial_of(*(xvar(i) for i in idxs))
        f = f + Polynomial(R, {mono: Fraction(coeff)})
    return f


def _quadrics(d):
    return tuple(hom_catalog(d).phi_W.values())


class TestQuadricIdeal:
    """I is the quadrics ``hom_catalog(d).phi_W``, in w-variable order."""

    def test_d4_generators_exact(self):
        gens = _quadrics(4)
        assert len(gens) == 9
        want = set()
        for i in range(1, 5):
            for j in range(i + 1, 5):
                want.add(_xpoly(4, (1, [i, j])))
        for k in range(1, 4):
            want.add(_xpoly(4, (1, [k, k]), (-1, [4, 4])))
        assert set(gens) == want

    def test_count_general(self):
        assert len(_quadrics(5)) == 14
        assert len(_quadrics(6)) == 20

    def test_labels_align_with_w_sequence(self):
        assert list(hom_catalog(4).phi_W) == list(ring_W(4).vars)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            hom_catalog(3)

    def test_rees_map_and_oracle_refuse_small_d_before_eliminating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(groebner, "eliminate", lambda *args: calls.append(args))
        with pytest.raises(DimensionTooSmall):
            rees_substitution(3)
        with pytest.raises(DimensionTooSmall):
            rees_kernel_oracle(3)
        assert calls == []


class TestPowers:
    def test_linear_span_deficient(self):
        assert power_check(4, 1) is False

    @pytest.mark.parametrize("d", [4, 5])
    def test_squares_and_cubes_span(self, d):
        assert power_check(d, 2) is True
        assert power_check(d, 3) is True


class TestSyzygies:
    def test_count_d4(self):
        assert len(linear_syzygies(4)) == 16

    def test_columns_are_syzygies(self):
        for d in (4, 5):
            for col in linear_syzygies(d):
                total = ring_R(d).zero()
                for form, g in zip(col, _quadrics(d)):
                    if not form.is_zero:
                        total = total + form * g
                assert total.is_zero

    def test_sym_algebra_entries_vanish_under_substitution(self):
        hom = rees_substitution(4)
        T = ring_Rees(4)
        for entry in sym_algebra_ideal(4):
            assert apply_hom(entry, hom, T).is_zero


class TestReesIdeal:
    def test_counts(self):
        assert len(sym_algebra_ideal(4)) == 16
        assert len(rees_ideal(4)) == 16 + 12

    def test_vanishes_under_substitution(self):
        hom = rees_substitution(4)
        T = ring_Rees(4)
        for g in rees_ideal(4):
            assert apply_hom(g, hom, T).is_zero

    def test_candidate_lives_in_rees_ideal(self):
        S = ring_S(4)
        gb = buchberger(rees_ideal(4), omega_order(S))
        from fiberforge.rings import transport

        gens = [transport(rec.value, S) for rec in generators_lambda(4)]
        assert all(normal_form(f, gb).is_zero for f in gens)


class TestWitness:
    @pytest.mark.parametrize("d", [4, 5])
    def test_witness_valid(self, d):
        wit = integrality_witness(d)
        # combo maps to x_d^4 under the quadric substitution
        img = phi_W(wit.combo)
        assert img == _xpoly(d, (1, [d, d, d, d]))
        # so h = u_dd^2 - epsilon(combo) dies under phi_U
        assert phi_U(wit.h).is_zero

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            integrality_witness(3)

    def test_combo_is_quadratic(self):
        wit = integrality_witness(4)
        assert wit.combo.is_homogeneous() and wit.combo.degree() == 2
        assert wit.h.degree() == 2


def _unpack(m, base, n):
    """The exponent tuple of a packed monomial: n digits in ``base``,
    most significant first."""
    digits = []
    for _ in range(n):
        m, e = divmod(m, base)
        digits.append(e)
    return tuple(reversed(digits))


class TestPackedPowers:
    """power_check forms its products on packed ints; the rank of the
    products multiplied out as polynomials must give the same verdict."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_verdict_matches_rank_of_polynomial_products(self, d, k):
        products = [
            reduce(mul, combo)
            for combo in itertools.combinations_with_replacement(_quadrics(d), k)
        ]
        want = hf_exact(products, 2 * k) == comb(d + 2 * k - 1, 2 * k)
        assert power_check(d, k) is want
        assert want is (k > 1)


class TestPowerCheckPrefixes:
    def test_each_prefix_product_is_formed_once(self, monkeypatch):
        d, k = 6, 3
        gens = _quadrics(d)
        # the rows as products multiplied out from scratch, in the same order
        want = [
            list(reduce(mul, combo).terms.items())
            for combo in itertools.combinations_with_replacement(gens, k)
        ]
        products, rows = [], []
        real_product, real_echelon = rees._packed_product, rees.echelon
        monkeypatch.setattr(
            rees, "_packed_product", lambda f, g: products.append(1) or real_product(f, g)
        )
        monkeypatch.setattr(
            rees, "echelon", lambda r: rows.extend(r) or real_echelon(r)
        )
        assert power_check(d, k) is True
        # one product per twofold prefix and one per threefold combination
        n = len(gens)
        assert len(products) == comb(n + 1, 2) + comb(n + 2, 3)
        nvars = ring_R(d).nvars
        got = [[(_unpack(m, 2 * k + 1, nvars), c) for m, c in r.items()] for r in rows]
        assert got == want
