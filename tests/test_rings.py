"""Ring core: variables, the omega order, arithmetic, homomorphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberforge.errors import (
    BadIndex,
    PartialHomomorphism,
    RingMismatch,
    ZeroPolynomial,
)
from fiberforge.rings import (
    OrderSpec,
    Polynomial,
    apply_hom,
    elimination_order,
    format_monomial,
    format_poly,
    omega_order,
    poly_to_json,
    ring_R,
    ring_U,
    ring_W,
    uvar,
    wvar,
    xvar,
)

W4 = ring_W(4)
OMEGA4 = omega_order(W4)


def wm(*pairs):
    return W4.monomial_of(*(wvar(i, j) for i, j in pairs))


def key(m, order=OMEGA4):
    return order.key(m)


class TestVariableId:
    def test_pair_canonicalized(self):
        assert wvar(4, 2).index == (2, 4)
        assert uvar(3, 1) == uvar(1, 3)

    def test_w_corner_rejected(self):
        with pytest.raises(BadIndex):
            wvar(4, 4, d=4)

    def test_u_corner_allowed(self):
        assert uvar(4, 4, d=4).index == (4, 4)

    def test_out_of_range(self):
        with pytest.raises(BadIndex):
            wvar(0, 2)
        with pytest.raises(BadIndex):
            wvar(2, 5, d=4)


class TestOmegaVariableOrder:
    def test_w33_less_than_w14(self):
        assert W4.position(wvar(3, 3)) < W4.position(wvar(1, 4))
        assert key(wm((3, 3))) < key(wm((1, 4)))

    def test_w12_less_than_w22(self):
        assert W4.position(wvar(1, 2)) < W4.position(wvar(2, 2))
        assert key(wm((1, 2))) < key(wm((2, 2)))

    def test_equal(self):
        assert W4.position(wvar(2, 4)) == W4.position(wvar(4, 2))
        assert key(wm((2, 4))) == key(wm((4, 2)))

    def test_full_ascending_sequence_d4(self):
        expected = [
            (1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3),
            (1, 4), (2, 4), (3, 4),
        ]
        assert [v.index for v in W4.vars] == expected
        # every W ring is sorted by (max index, min index) with no two
        # variables sharing that key, so the census may compare positions
        for d in range(4, 11):
            keys = [(max(v.index), min(v.index)) for v in ring_W(d).vars]
            assert keys == sorted(set(keys)), d
            assert len(keys) == d * (d + 1) // 2 - 1, d


class TestMonomialOrder:
    def test_k0_example(self):
        assert key(wm((1, 3), (2, 4))) > key(wm((1, 2), (3, 4)))

    def test_square_tiebreak(self):
        assert key(wm((1, 2), (1, 2))) > key(wm((1, 1), (2, 2)))

    def test_equal(self):
        assert key(wm((1, 4), (2, 3))) == key(wm((2, 3), (1, 4)))

    def test_degree_dominates(self):
        assert key(wm((1, 1), (1, 1))) > key(wm((3, 4)))


class TestPolynomialArithmetic:
    def test_add_negate_is_zero(self):
        f = W4.variable(wvar(1, 2)) * W4.variable(wvar(3, 4))
        assert (f + (-f)).is_zero

    def test_sub_cancels_term(self):
        f = wm((1, 3), (2, 4))
        g = wm((1, 4), (2, 3))
        p = Polynomial(W4, {f: Fraction(1), g: Fraction(-1)})
        q = Polynomial(W4, {f: Fraction(1)})
        assert (p - q).terms == {g: Fraction(-1)}

    def test_mixed_ring_rejected(self):
        with pytest.raises(RingMismatch):
            W4.one() + ring_W(5).one()

    def test_scale_by_zero(self):
        assert W4.one().scale(0).is_zero


class TestLeadingTerm:
    def test_f2_leading(self):
        # -w_2i*w_1j + w_12*w_ij at (i,j) = (3,4)
        f = Polynomial(
            W4,
            {
                wm((2, 3), (1, 4)): Fraction(-1),
                wm((1, 2), (3, 4)): Fraction(1),
            },
        )
        c, m = f.leading(OMEGA4)
        assert (c, m) == (Fraction(-1), wm((2, 3), (1, 4)))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            W4.zero().leading(OMEGA4)

    def test_single_term(self):
        f = W4.variable(wvar(1, 1)).scale(5)
        assert f.leading(OMEGA4) == (Fraction(5), wm((1, 1)))


class TestApplyHom:
    def test_variable_image(self):
        R = ring_R(4)
        img = R.variable(xvar(1)) * R.variable(xvar(2))
        f = W4.variable(wvar(1, 2))
        assert apply_hom(f, {wvar(1, 2): img}, R) == img

    def test_zero(self):
        assert apply_hom(W4.zero(), {}, ring_R(4)).is_zero

    def test_missing_image(self):
        with pytest.raises(PartialHomomorphism):
            apply_hom(W4.variable(wvar(1, 2)), {}, ring_R(4))

    def test_principal_minor_substitution(self):
        from fiberforge.candidate import phi_W

        R = ring_R(4)
        x = [None] + [R.variable(xvar(i)) for i in range(1, 5)]
        f = wm((1, 1), (2, 2))
        g = wm((1, 2), (1, 2))
        p = Polynomial(W4, {f: Fraction(1), g: Fraction(-1)})
        expected = (x[1] * x[1] - x[4] * x[4]) * (x[2] * x[2] - x[4] * x[4]) - (
            x[1] * x[2] * x[1] * x[2]
        )
        assert phi_W(p) == expected


class TestSerialization:
    def test_text_descending(self):
        p = Polynomial(
            W4,
            {
                wm((1, 2), (3, 4)): Fraction(1),
                wm((1, 3), (2, 4)): Fraction(-2),
            },
        )
        assert format_poly(p) == "-2*w[1,3]*w[2,4]+w[1,2]*w[3,4]"

    def test_json_shape(self):
        p = W4.variable(wvar(2, 4)).scale(Fraction(1, 3))
        assert poly_to_json(p) == {
            "ring": "W4",
            "terms": [{"coeff": "1/3", "exp": {"2,4": 1}}],
        }

    def test_zero(self):
        assert format_poly(W4.zero()) == "0"

    def test_monomial_text(self):
        assert format_monomial(W4, wm((3, 4), (1, 2), (1, 2))) == "w[1,2]^2*w[3,4]"
        assert format_monomial(W4, wm()) == "1"
        assert format_poly(W4.one()) == "+1"
        assert format_poly(W4.one().scale(-3) + W4.variable(wvar(1, 1))) == "+w[1,1]-3"


def _poly_strategy(ring):
    mono = st.lists(
        st.integers(min_value=0, max_value=ring.nvars - 1), min_size=0, max_size=3
    )
    term = st.tuples(mono, st.integers(min_value=-5, max_value=5))

    def build(ts):
        f = ring.zero()
        for positions, c in ts:
            exps = [0] * ring.nvars
            for p in positions:
                exps[p] += 1
            if c:
                f = f + Polynomial(ring, {tuple(exps): Fraction(c)})
        return f

    return st.lists(term, max_size=4).map(build)


class TestProperties:
    @given(_poly_strategy(W4), _poly_strategy(W4), _poly_strategy(W4))
    @settings(max_examples=60)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)

    @given(_poly_strategy(W4), _poly_strategy(W4))
    @settings(max_examples=60)
    def test_order_compatible_with_multiplication(self, f, g):
        if f.is_zero or g.is_zero:
            return
        _, mf = f.leading(OMEGA4)
        _, mg = g.leading(OMEGA4)
        prod = f * g
        if not prod.is_zero:
            _, mp = prod.leading(OMEGA4)
            assert key(mp) <= key(tuple(a + b for a, b in zip(mf, mg)))

    @given(_poly_strategy(W4), _poly_strategy(W4))
    @settings(max_examples=40)
    def test_hom_is_additive_and_multiplicative(self, f, g):
        from fiberforge.candidate import hom_catalog

        hom = hom_catalog(4).phi_W
        R = ring_R(4)
        assert apply_hom(f + g, hom, R) == apply_hom(f, hom, R) + apply_hom(g, hom, R)
        assert apply_hom(f * g, hom, R) == apply_hom(f, hom, R) * apply_hom(g, hom, R)


class TestEliminationOrder:
    def test_eliminated_block_dominates(self):
        R = ring_R(4)
        order = elimination_order(R, frozenset({xvar(1)}))
        m1 = R.monomial_of(xvar(1))
        m2 = R.monomial_of(xvar(2), xvar(3), xvar(4))
        assert key(m1, order) > key(m2, order)


def _orders_w4():
    """Orders over W4 covering every shape of block: the whole ring, two
    contiguous blocks, scattered and single-variable blocks, an empty
    eliminated block, and three blocks."""
    v = W4.vars
    return [
        OMEGA4,
        elimination_order(W4, frozenset(v[:3])),
        elimination_order(W4, frozenset(v[1::3])),
        elimination_order(W4, frozenset(v[-1:])),
        elimination_order(W4, frozenset()),
        OrderSpec("three_blocks", W4, ((0, 5), (1, 2, 3), (4, 6, 7, 8))),
    ]


_exps_w4 = st.lists(
    st.integers(min_value=0, max_value=3), min_size=W4.nvars, max_size=W4.nvars
).map(tuple)


class TestDescendingKey:
    @given(_exps_w4, _exps_w4)
    @settings(max_examples=200)
    def test_reverses_key(self, a, b):
        for order in _orders_w4():
            ka, kb = order.key(a), order.key(b)
            da, db = order.descending_key(a), order.descending_key(b)
            assert (da < db) == (ka > kb)
            assert (da == db) == (a == b)

    def test_not_part_of_equality(self):
        order = OrderSpec("omega_grevlex", W4, OMEGA4.blocks)
        assert order == OMEGA4 and hash(order) == hash(OMEGA4)
