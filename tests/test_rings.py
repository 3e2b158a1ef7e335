"""Ring core: variables, the omega order, arithmetic, homomorphisms."""

import ast
import copy
import gc
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberforge.candidate import hom_catalog
from fiberforge.errors import (
    BadIndex,
    PartialHomomorphism,
    RingMismatch,
    ZeroPolynomial,
)
from fiberforge.rings import (
    OrderSpec,
    Polynomial,
    Ring,
    RingMap,
    VarKind,
    apply_hom,
    elimination_order,
    format_monomial,
    format_poly,
    omega_order,
    poly_to_json,
    ring_R,
    ring_Rees,
    ring_S,
    ring_U,
    ring_W,
    uvar,
    wvar,
    xvar,
)
from fiberforge.rees import rees_substitution

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
        assert wvar(3, 1) == wvar(1, 3) and hash(wvar(3, 1)) == hash(wvar(1, 3))

    def test_equal_only_to_variables(self):
        assert wvar(1, 3) != (VarKind.W, (1, 3))
        assert wvar(1, 3) != uvar(1, 3)
        assert len({wvar(1, 3), (VarKind.W, (1, 3))}) == 2

    def test_fields_cannot_be_assigned(self):
        v = wvar(1, 3)
        with pytest.raises(AttributeError):
            v.index = (2, 3)
        with pytest.raises(AttributeError):
            v.kind = VarKind.U
        with pytest.raises(AttributeError):
            del v.index
        assert v == wvar(1, 3) and v.kind is VarKind.W

    def test_copy_and_pickle(self):
        v = wvar(3, 1)
        for other in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert other == v and hash(other) == hash(v)
            assert other.index == (1, 3)

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

    def test_scale_keeps_int(self):
        f = W4.variable(wvar(1, 2)).scale(-3)
        assert [type(c) for c in f.terms.values()] == [int]
        assert f.scale(Fraction(1, 3)).terms == {wm((1, 2)): Fraction(-1)}

    def test_scale_refuses_float(self):
        for c in (0.1, 2.0, True):
            with pytest.raises(TypeError):
                W4.one().scale(c)


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
            if c:
                f = f + Polynomial(ring, {tuple(sorted(positions)): Fraction(c)})
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
            assert key(mp) <= key(tuple(sorted(mf + mg)))

    @given(_poly_strategy(W4), _poly_strategy(W4))
    @settings(max_examples=40)
    def test_hom_is_additive_and_multiplicative(self, f, g):
        from fiberforge.candidate import hom_catalog

        hom = hom_catalog(4).phi_W
        R = ring_R(4)
        assert apply_hom(f + g, hom, R) == apply_hom(f, hom, R) + apply_hom(g, hom, R)
        assert apply_hom(f * g, hom, R) == apply_hom(f, hom, R) * apply_hom(g, hom, R)


def _apply_hom_reference(f, hom, target):
    """The term-by-term ``apply_hom``: one Polynomial per source term,
    added into a copy of the running result.  ``apply_hom`` must equal it."""
    result = target.zero()
    pow_cache = {}

    def power(v, e):
        key = (v, e)
        got = pow_cache.get(key)
        if got is not None:
            return got
        if e == 1:
            img = hom.get(v)
            if img is None:
                raise PartialHomomorphism(f"no image for {v!r}")
            if img.ring is not target:
                raise RingMismatch("homomorphism images in mixed rings")
            p = img
        else:
            p = power(v, e - 1) * power(v, 1)
        pow_cache[key] = p
        return p

    rvars = f.ring.vars
    for m, c in f.terms.items():
        term = Polynomial(target, {(): c})
        for pos in set(m):
            term = term * power(rvars[pos], m.count(pos))
        result = result + term
    return result


def _variable_poly_strategy(ring):
    """Sums of scaled products of at most three variables, built with
    ``variable``, ``*``, ``scale`` and ``+`` only.  A factor is an int or
    a Fraction."""
    factor = st.one_of(
        st.integers(-5, 5),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
    )
    term = st.tuples(st.lists(st.sampled_from(ring.vars), max_size=3), factor)

    def build(ts):
        f = ring.zero()
        for variables, c in ts:
            m = ring.one()
            for v in variables:
                m = m * ring.variable(v)
            f = f + m.scale(c)
        return f

    return st.lists(term, max_size=4).map(build)


def _exact(f):
    return all(type(c) in (int, Fraction) for c in f.terms.values())


def _integral(f):
    return all(type(c) is int for c in f.terms.values())


def _check_against_reference(f, g, hom, target):
    """apply_hom equals the reference on f, g and their sum, product and
    a scale; every coefficient is an int or a Fraction, and int input
    stays int.  A missing image or an image over another ring still
    raises."""
    for h in (f, g, f + g, f * g, f.scale(-2)):
        assert _exact(h)
        got = apply_hom(h, hom, target)
        assert got == _apply_hom_reference(h, hom, target)
        assert _exact(got)
        if _integral(h):
            assert _integral(got)
    if _integral(f) and _integral(g):
        assert _integral(f + g) and _integral(f * g) and _integral(f.scale(7))
    used = sorted({p for m in f.terms for p in m})
    if used:
        v = f.ring.vars[used[0]]
        partial = {u: img for u, img in hom.items() if u != v}
        with pytest.raises(PartialHomomorphism):
            apply_hom(f, partial, target)
        with pytest.raises(RingMismatch):
            apply_hom(f, {**hom, v: ring_W(5).one()}, target)


_DIAGONAL_DIFFERENCE = W4.variable(wvar(1, 1)) - W4.variable(wvar(2, 2))


class TestApplyHomReference:
    # w_11 - w_22 maps to (x_1^2 - x_4^2) - (x_2^2 - x_4^2) under phi_W and
    # to (u_11 - u_44) - (u_22 - u_44) under epsilon: the corner term
    # cancels across the two source terms
    @given(_variable_poly_strategy(W4), _variable_poly_strategy(W4))
    @example(_DIAGONAL_DIFFERENCE, W4.zero())
    @settings(max_examples=60, deadline=None)
    def test_phi_w_and_epsilon_d4(self, f, g):
        maps = hom_catalog(4)
        _check_against_reference(f, g, maps.phi_W, ring_R(4))
        _check_against_reference(f, g, maps.epsilon, ring_U(4))

    @given(_variable_poly_strategy(ring_S(4)), _variable_poly_strategy(ring_S(4)))
    @settings(max_examples=40, deadline=None)
    def test_rees_substitution_d4(self, f, g):
        _check_against_reference(f, g, rees_substitution(4), ring_Rees(4))


_W11 = W4.variable(wvar(1, 1))


class TestRingMapMemo:
    """A ``RingMap`` keeps the image of each source monomial across calls."""

    # one monomial under two coefficients, so the second reads the memo
    @given(st.lists(_variable_poly_strategy(W4), min_size=1, max_size=4))
    @example([_W11.scale(2), _W11.scale(-3) + _DIAGONAL_DIFFERENCE])
    @settings(max_examples=60, deadline=None)
    def test_memoized_equals_per_call_and_repeats(self, polys):
        maps = hom_catalog(4)
        for images, target in ((maps.phi_W, ring_R(4)), (maps.epsilon, ring_U(4))):
            memoized = RingMap(dict(images), target)
            per_call = dict(images)
            first = [apply_hom(f, memoized, target) for f in polys]
            assert first == [apply_hom(f, per_call, target) for f in polys]
            assert [apply_hom(f, memoized, target) for f in polys] == first

    def test_other_ring_never_reads_this_rings_entry(self):
        # same variables, listed the other way round: the monomial (0,) is
        # w_11 over W4 and w_34 over the other ring
        R = ring_R(4)
        flipped = Ring("W4flipped", tuple(reversed(W4.vars)), 4)
        hom = RingMap(dict(hom_catalog(4).phi_W), R)
        e = (0,)
        assert apply_hom(Polynomial(W4, {e: 1}), hom, R) == hom[W4.vars[0]]
        got = apply_hom(Polynomial(flipped, {e: 1}), hom, R)
        assert got == hom[flipped.vars[0]] != hom[W4.vars[0]]
        assert set(hom._memo) == {(W4, e), (flipped, e)}

    def test_leaves_no_reference_cycle(self):
        """Everything ``apply_hom`` makes for one call goes when it
        returns, without waiting for the cycle collector."""
        f = (_W11 * _W11 * _W11 - _DIAGONAL_DIFFERENCE).scale(2)
        gc.collect()
        gc.disable()
        try:
            apply_hom(f, dict(hom_catalog(4).phi_W), ring_R(4))
            apply_hom(f, hom_catalog(4).phi_W, ring_R(4))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_read_only_and_one_target(self):
        hom = hom_catalog(4).phi_W
        with pytest.raises(TypeError):
            hom[wvar(1, 2)] = ring_R(4).one()
        with pytest.raises(RingMismatch):
            RingMap({wvar(1, 2): ring_R(4).one(), wvar(1, 3): ring_U(4).one()}, ring_R(4))
        with pytest.raises(RingMismatch):
            apply_hom(_W11, hom, ring_U(4))


_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fiberforge"


class TestExactDivision:
    def test_true_division_only_of_fractions(self):
        """The left operand of every ``/`` in the package is a
        ``Fraction(...)`` call, so no quotient of two ``int`` coefficients
        can become a float."""
        allowed, refused = [], []
        paths = sorted(_PACKAGE.glob("*.py"))
        assert "rings.py" in [p.name for p in paths]
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                    refused.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    left = node.left
                    exact = (
                        isinstance(left, ast.Call)
                        and isinstance(left.func, ast.Name)
                        and left.func.id == "Fraction"
                    )
                    (allowed if exact else refused).append(
                        f"{path.name}:{node.lineno}"
                    )
        assert refused == []
        assert allowed  # groebner._reducer's Fraction(1, 1) / c


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
        OrderSpec(W4, ((0, 5), (1, 2, 3), (4, 6, 7, 8))),
    ]


def _exps(m):
    """The exponent tuple over W4 of a monomial: the test-side reference."""
    return tuple(map(m.count, range(W4.nvars)))


_monomials_w4 = st.lists(
    st.integers(min_value=0, max_value=3), min_size=W4.nvars, max_size=W4.nvars
).map(lambda exps: tuple(p for p, e in enumerate(exps) for _ in range(e)))


def _exponent_key(order, m):
    """``OrderSpec.key`` as defined on exponent tuples: per block, the
    degree, then the negated exponents (graded reverse lexicographic)."""
    e = _exps(m)
    return tuple(
        (sum(e[p] for p in blk), tuple(-e[p] for p in blk)) for blk in order.blocks
    )


class TestDescendingKey:
    @given(st.sampled_from(_orders_w4()), st.lists(_monomials_w4, max_size=12, unique=True))
    @settings(max_examples=200)
    def test_keys_sort_as_the_exponent_reference(self, order, monomials):
        """Within a degree ascending multisets are descending exponent
        tuples; both keys must sort as graded reverse lexicographic on
        the exponent tuples does, under omega and under block orders."""
        want = sorted(monomials, key=lambda m: _exponent_key(order, m))
        assert sorted(monomials, key=order.key) == want
        assert sorted(monomials, key=order.descending_key) == want[::-1]

    @given(_monomials_w4, _monomials_w4)
    @settings(max_examples=200)
    def test_reverses_key(self, a, b):
        for order in _orders_w4():
            ka, kb = order.key(a), order.key(b)
            da, db = order.descending_key(a), order.descending_key(b)
            assert (da < db) == (ka > kb)
            assert (da == db) == (a == b)

    @given(_poly_strategy(W4).filter(lambda f: f.terms), st.sampled_from(_orders_w4()))
    @settings(max_examples=200)
    def test_leading_is_greatest_key(self, f, order):
        """``leading`` takes the least ``descending_key``, which must name
        the term that is greatest under ``key``."""
        m = max(f.terms, key=order.key)
        assert f.leading(order) == (f.terms[m], m)
        if order is OMEGA4:
            assert f.leading() == (f.terms[m], m)

    def test_not_part_of_equality(self):
        order = OrderSpec(W4, OMEGA4.blocks)
        assert order == OMEGA4 and hash(order) == hash(OMEGA4)

    def test_an_order_is_its_ring_and_blocks(self):
        """An order takes its ring and blocks and nothing else: equality,
        hashing and the repr read those two alone."""
        eliminated = frozenset(W4.vars[:3])
        plain = elimination_order(W4, eliminated)
        rebuilt = OrderSpec(W4, plain.blocks)
        assert plain == rebuilt and hash(plain) == hash(rebuilt)
        assert repr(plain) == repr(rebuilt) == (
            f"OrderSpec(ring={W4!r}, blocks={plain.blocks!r})"
        )
        assert plain != elimination_order(W4, frozenset(W4.vars[:2]))
        assert plain != plain.blocks
        with pytest.raises(TypeError):
            OrderSpec(W4, plain.blocks, (2,) * W4.nvars)
        with pytest.raises(TypeError):
            elimination_order(W4, eliminated, (2,) * W4.nvars)

    def test_fields_cannot_be_assigned(self):
        order = elimination_order(W4, frozenset(W4.vars[:3]))
        for name, value in [
            ("ring", ring_W(5)),
            ("blocks", OMEGA4.blocks),
            ("parts", OMEGA4.parts),
            ("descending_key", OMEGA4.descending_key),
        ]:
            with pytest.raises(AttributeError):
                setattr(order, name, value)
        assert order.blocks != OMEGA4.blocks

    def test_copy_and_pickle(self):
        """Copies rebuild the order through ``__init__``.  A ring compares
        by identity, so only a shallow copy, which shares it, is equal."""
        order = elimination_order(W4, frozenset(W4.vars[:3]))
        assert copy.copy(order) == order
        x11, x12, x34 = (W4.variable(wvar(*ij)) for ij in ((1, 1), (1, 2), (3, 4)))
        f = x12 * x34 - x11 * x11
        g = pickle.loads(pickle.dumps(f))
        assert g.ring.vars == W4.vars and g.terms == f.terms
        for other in (
            copy.copy(order), copy.deepcopy(order), pickle.loads(pickle.dumps(order))
        ):
            assert other.ring.vars == W4.vars and other.blocks == order.blocks
            assert g.leading(other) == f.leading(order)
