"""Tests for the quadric ideal, its syzygies, and the Rees-side objects."""

import itertools
from fractions import Fraction
from types import SimpleNamespace
from functools import reduce
from math import comb
from operator import mul

import pytest

from fiberforge import cli, groebner, hilbert, rees

from fiberforge.candidate import hom_catalog, phi_U, phi_W, generators_lambda
from fiberforge.errors import DimensionTooSmall
from fiberforge.groebner import buchberger, normal_form
from fiberforge.rees import (
    integrality_witness,
    linear_syzygies,
    power_check,
    rees_ideal,
    rees_substitution,
    sym_algebra_ideal,
)
from fiberforge.hilbert import echelon, echelon_leads, orbit, pack_weights
from fiberforge.rings import (
    Polynomial,
    apply_hom,
    omega_order,
    ring_R,
    ring_Rees,
    ring_S,
    ring_W,
    wvar,
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
        monkeypatch.setattr(groebner, "buchberger", lambda *args: calls.append(args))
        with pytest.raises(DimensionTooSmall):
            rees_substitution(3)
        with pytest.raises(DimensionTooSmall):
            cli._kernel("rees", 3, None)
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
    """The monomial of a packed int: n digits in ``base``, most
    significant first, each the exponent of its position."""
    out = []
    for p in reversed(range(n)):
        m, e = divmod(m, base)
        out += [p] * e
    return tuple(sorted(out))


class TestPackedPowers:
    """power_check forms its products on packed ints, by blocks; the rank of
    the products multiplied out as polynomials, counted by the plain
    route's leads, must give the same verdict."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_verdict_matches_rank_of_polynomial_products(self, d, k):
        products = [
            reduce(mul, combo)
            for combo in itertools.combinations_with_replacement(_quadrics(d), k)
        ]
        rank = len(echelon_leads(products, 2 * k)[2 * k])
        want = rank == comb(d + 2 * k - 1, 2 * k)
        assert power_check(d, k) is want
        assert want is (k > 1)


def _whole_slice_verdict(d, k, quadrics=None):
    """I^k = m^{2k} as one rank: every k-fold product, packed, in one matrix."""
    quadrics = _quadrics(d) if quadrics is None else quadrics
    weight = pack_weights(ring_R(d).nvars, 2 * k + 1)
    gens = [{sum(weight[p] for p in t): c for t, c in g.terms.items()} for g in quadrics]
    rows = [
        reduce(hilbert._packed_product, combo)
        for combo in itertools.combinations_with_replacement(gens, k)
    ]
    return len(echelon(rows)) == comb(d + 2 * k - 1, 2 * k)


def _class_of(combo):
    """The class of a product of quadrics g_ij, as ``parity_classes`` has it."""
    beta = 0
    for v in combo:
        for i in v.index:
            beta ^= 1 << (i - 1)
    return beta


class TestPowerCheckBlocks:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_blocks_give_the_whole_slice_verdict(self, d, k):
        assert power_check(d, k) is _whole_slice_verdict(d, k)

    def _count_blocks(self, monkeypatch):
        """Every ``echelon`` call: the generators' own slice for the
        certificate, then one per product block."""
        calls = []
        real = hilbert.echelon
        monkeypatch.setattr(hilbert, "echelon", lambda *a: calls.append(1) or real(*a))
        return calls

    def test_one_block_per_orbit(self, monkeypatch):
        # d = 5, k = 2: the orbits (w, b) with w + b even and at most 4,
        # w <= 4: (0,0), (2,0), (4,0), (1,1), (3,1)
        calls = self._count_blocks(monkeypatch)
        assert power_check(5, 2) is True
        assert len(calls) == 1 + 5

    def _patch_quadric(self, monkeypatch, d, v, g):
        """I with the quadric of w-variable v replaced by g."""
        phi = dict(hom_catalog(d).phi_W)
        phi[v] = g
        monkeypatch.setattr(rees, "hom_catalog", lambda d: SimpleNamespace(phi_W=phi))
        return tuple(phi.values())

    def test_an_unstable_generator_set_counts_every_class(self, monkeypatch):
        d = 5
        calls = self._count_blocks(monkeypatch)
        # g_12 doubled: no longer the image of g_23 under (1 2 ... d-1), but
        # the span is the same, so the orbits still count
        doubled = self._patch_quadric(monkeypatch, d, wvar(1, 2), _xpoly(d, (2, [1, 2])))
        assert power_check(d, 2) is _whole_slice_verdict(d, 2, doubled) is True
        assert len(calls) == 1 + 5
        # g_11 = x_1^2 - 2 x_d^2: a new span that (1 2) does not keep, so
        # every even class of weight <= 4 of the five indices is a block:
        # 1 + C(5, 2) + C(5, 4)
        calls.clear()
        g11 = _xpoly(d, (1, [1, 1]), (-2, [d, d]))
        broken = self._patch_quadric(monkeypatch, d, wvar(1, 1), g11)
        assert power_check(d, 2) is _whole_slice_verdict(d, 2, broken) is True
        assert len(calls) == 1 + 1 + comb(5, 2) + comb(5, 4)

    def test_a_generator_outside_its_class_counts_one_block(self, monkeypatch):
        # g_11 + x_1 x_2 spans with the others what g_11 does, but its terms
        # have the classes 0 and {1, 2}, so no class blocks apply: the
        # products are one block, and the verdict is the whole slice's
        d = 5
        calls = self._count_blocks(monkeypatch)
        g11 = _xpoly(d, (1, [1, 1]), (-1, [d, d]), (1, [1, 2]))
        mixed = self._patch_quadric(monkeypatch, d, wvar(1, 1), g11)
        assert power_check(d, 2) is _whole_slice_verdict(d, 2, mixed) is True
        assert len(calls) == 1 + 1


class TestPowerCheckPrefixes:
    def test_each_prefix_product_is_formed_once(self, monkeypatch):
        d, k = 6, 3
        catalog = hom_catalog(d).phi_W
        low = (1 << (d - 1)) - 1
        combos = [
            combo
            for combo in itertools.combinations_with_replacement(list(catalog), k)
            if orbit(_class_of(combo), low)[0] == _class_of(combo)
        ]
        # the rows as products multiplied out from scratch, block by block
        want = {}
        for combo in combos:
            product = reduce(mul, [catalog[v] for v in combo])
            want.setdefault(_class_of(combo), []).append(list(product.terms.items()))
        products, blocks = [], []
        real_product, real_echelon = hilbert._packed_product, hilbert.echelon
        monkeypatch.setattr(
            hilbert, "_packed_product", lambda f, g: products.append(1) or real_product(f, g)
        )
        monkeypatch.setattr(
            hilbert, "echelon", lambda r, *a: blocks.append(list(r)) or real_echelon(r, *a)
        )
        assert power_check(d, k) is True
        del blocks[0]  # the generators' own slice, for the certificate
        # one product per twofold prefix that some row extends, one per row
        prefixes = {combo[:-1] for combo in combos}
        assert len(products) == len(prefixes) + len(combos)
        nvars = ring_R(d).nvars
        got = {}
        for rows in blocks:
            rows = [[(_unpack(m, 2 * k + 1, nvars), c) for m, c in r.items()] for r in rows]
            first = rows[0][0][0]
            got[sum(1 << i for i in set(first) if first.count(i) % 2)] = rows
        assert len(got) == len(blocks)
        assert got == want
