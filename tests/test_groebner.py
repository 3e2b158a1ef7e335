"""Tests for Buchberger's algorithm, normal forms, and elimination."""

import hashlib
import json
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from fiberforge import cli, groebner
from fiberforge.candidate import generators_lambda, hom_catalog
from fiberforge.errors import (
    BeyondTruncation,
    BudgetExceeded,
    MonomialOverflow,
    NotHomogeneous,
    RingMismatch,
    UnfixedSharedVariable,
    UnknownVariable,
)
from fiberforge.groebner import (
    GroebnerBasis,
    buchberger,
    ideal_equal,
    kernel_of_hom,
    normal_form,
)
from fiberforge.rees import rees_ideal, rees_substitution, sym_algebra_ideal
from fiberforge.rings import (
    Polynomial,
    Ring,
    VariableId,
    VarKind,
    elimination_order,
    omega_order,
    poly_to_json,
    ring_R,
    ring_Rees,
    ring_S,
    ring_W,
    transport,
    tvar,
    wvar,
    xvar,
)

W4 = ring_W(4)
OMEGA4 = omega_order(W4)


def _monomial(exps):
    """The position multiset of an exponent tuple: the test-side
    reference for the package's monomials."""
    return tuple(p for p, e in enumerate(exps) for _ in range(e))


def _exps(m, n):
    """The exponent tuple, over n variables, of a position multiset."""
    return tuple(map(m.count, range(n)))


def _wpoly(*terms):
    f = W4.zero()
    for coeff, pairs in terms:
        mono = W4.monomial_of(*(wvar(i, j) for i, j in pairs))
        f = f + Polynomial(W4, {mono: Fraction(coeff)})
    return f


def _small_rings():
    """A two-variable source ring and its squared-monomial target."""
    w11 = VariableId(VarKind.W, (1, 1))
    w12 = VariableId(VarKind.W, (1, 2))
    w22 = VariableId(VarKind.W, (2, 2))
    source = Ring("Wsq", (w11, w12, w22), 2)
    x1, x2 = xvar(1), xvar(2)
    target = Ring("Xsq", (x1, x2), 2)
    images = {
        w11: target.variable(x1) * target.variable(x1),
        w12: target.variable(x1) * target.variable(x2),
        w22: target.variable(x2) * target.variable(x2),
    }
    return source, target, images, (w11, w12, w22)


class TestBuchberger:
    def test_veronese_kernel(self):
        source, target, images, (w11, w12, w22) = _small_rings()
        gb = kernel_of_hom(source, target, images)
        # Kernel is generated by w_11 w_22 - w_12^2.
        assert len(gb.elements) == 1
        f = gb.elements[0]
        v11 = source.variable(w11)
        v12 = source.variable(w12)
        v22 = source.variable(w22)
        assert f == v11 * v22 - v12 * v12 or f == v12 * v12 - v11 * v22

    def test_kernel_with_shared_variables(self):
        # x1 -> x1, w11 -> t*x1, w12 -> t^2*x1^2: the target shares x1 with
        # the source, only t is eliminated, and x1 - x1 = 0 is dropped
        x1, w11, w12, t = xvar(1), wvar(1, 1), wvar(1, 2), tvar()
        source = Ring("S1", (x1, w11, w12), 1)
        target = Ring("T1", (x1, t), 1)
        X, T = target.variable(x1), target.variable(t)
        images = {x1: X, w11: T * X, w12: T * T * X * X}
        gb = kernel_of_hom(source, target, images)
        assert gb.order is omega_order(source)
        v11, v12 = source.variable(w11), source.variable(w12)
        assert gb.elements == (v11 * v11 - v12,)

    def test_normal_form_reduces(self):
        source, target, images, (w11, w12, w22) = _small_rings()
        gb = kernel_of_hom(source, target, images)
        v11 = source.variable(w11)
        v12 = source.variable(w12)
        v22 = source.variable(w22)
        # w_12^2 reduces to w_11 w_22 modulo the Veronese kernel.
        assert normal_form(v12 * v12, gb) == v11 * v22

    def test_reduced_basis_is_monic_and_sorted(self):
        gens = [_wpoly((2, [(1, 2), (3, 4)]), (-2, [(1, 3), (2, 4)]))]
        gb = buchberger(gens, OMEGA4)
        for f in gb.elements:
            c, _ = f.leading(OMEGA4)
            assert c == 1

    def test_zero_generators_dropped(self):
        gb = buchberger([W4.zero(), _wpoly((1, [(1, 2)]))], OMEGA4)
        assert len(gb.elements) == 1

    def test_ring_mismatch(self):
        gb = buchberger([_wpoly((1, [(1, 2)]))], OMEGA4)
        other = ring_W(5)
        g = Polynomial(other, {other.monomial_of(wvar(1, 2)): Fraction(1)})
        with pytest.raises(RingMismatch):
            normal_form(g, gb)


class TestTruncation:
    def test_needs_homogeneous(self):
        f = _wpoly((1, [(1, 2), (1, 2)]), (1, [(1, 2)]))
        with pytest.raises(NotHomogeneous):
            buchberger([f], OMEGA4, max_degree=3)

    def test_beyond_truncation(self):
        f = _wpoly((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]))
        gb = buchberger([f], OMEGA4, max_degree=2)
        assert gb.truncation_degree == 2
        cubic = _wpoly((1, [(1, 2), (1, 2), (1, 2)]))
        with pytest.raises(BeyondTruncation):
            normal_form(cubic, gb)

    def test_truncated_agrees_below_cutoff(self):
        from fiberforge.candidate import generators_lambda

        gens = [rec.value for rec in generators_lambda(4, "all")]
        full = buchberger(gens, OMEGA4)
        trunc = buchberger(gens, OMEGA4, max_degree=2)
        full_deg2 = [f for f in full.elements if f.degree() == 2]
        assert sorted(map(hash, trunc.elements)) == sorted(map(hash, full_deg2))


class TestBudget:
    def test_budget_exceeded_carries_partial(self):
        from fiberforge.candidate import generators_lambda

        gens = [rec.value for rec in generators_lambda(6, "all")]
        with pytest.raises(BudgetExceeded) as info:
            buchberger(gens, omega_order(ring_W(6)), deadline=time.monotonic() + 1e-9)
        assert info.value.partial is not None
        assert info.value.partial.elements

    def test_budget_bounds_wall_time(self):
        order = omega_order(ring_W(6))
        gens = [rec.value for rec in generators_lambda(6, "all")]
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as info:
            buchberger(gens, order, deadline=time.monotonic() + 1e-9)
        assert time.monotonic() - start < 2.0
        # the partial state is monic and sorted, but not reduced further
        elements = info.value.partial.elements
        leads = [f.leading(order) for f in elements]
        assert all(c == 1 for c, _ in leads)
        sort_keys = [(f.degree(), order.key(m)) for f, (_, m) in zip(elements, leads)]
        assert sort_keys == sorted(sort_keys)

    def _spy(self, monkeypatch, pause):
        """Record the deadline of each ``buchberger`` call; each call first
        sleeps for ``pause`` seconds."""
        deadlines = []
        real = groebner.buchberger

        def spy(gens, order, max_degree=None, deadline=None):
            deadlines.append(deadline)
            time.sleep(pause)
            return real(gens, order, max_degree, deadline)

        monkeypatch.setattr(groebner, "buchberger", spy)
        return deadlines

    def test_ideal_equal_shares_one_budget(self, monkeypatch):
        gens = [_wpoly((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]))]
        basis = buchberger(gens, OMEGA4)
        deadlines = self._spy(monkeypatch, 0.05)
        deadline = time.monotonic() + 30.0
        assert ideal_equal(gens, basis, deadline)
        assert deadlines == [deadline]  # one Buchberger run per comparison

    def test_ideal_equal_second_basis_gets_no_fresh_budget(self, monkeypatch):
        # the basis is built with no deadline; the comparison's one run on
        # Lambda gets the caller's deadline, which passes while it sleeps
        gens = [_wpoly((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]))]
        basis = buchberger(gens, OMEGA4)
        lam = [rec.value for rec in generators_lambda(4, "all")]
        deadlines = self._spy(monkeypatch, 0.05)
        deadline = time.monotonic() + 0.01
        with pytest.raises(BudgetExceeded):
            ideal_equal(lam, basis, deadline)
        assert deadlines == [deadline]

    def test_truncated_run_with_no_pairs_stops_at_a_passed_deadline(self):
        # a degree-2 truncation of Lambda6 has no pairs: the deadline is
        # noticed only by the steps of the seed's inter-reduction
        gens = [rec.value for rec in generators_lambda(6, "all")]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, omega_order(ring_W(6)), 2, time.monotonic() - 1)


def _digest(polys):
    blob = json.dumps([poly_to_json(f) for f in polys], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _lambda_basis(d):
    gens = [rec.value for rec in generators_lambda(d, "all")]
    return buchberger(gens, omega_order(ring_W(d)))


class TestPinnedBases:
    """sha256 prefixes of reduced bases as the engine gave them before it
    cached order data (Lambda, phi_W at d=4) or before it changed its pair
    order (phi_W at d=5, the Rees oracle); the reduced basis is unique, so
    they must not move."""

    @pytest.mark.parametrize(
        "d, digest, size", [(4, "c09b1a090a056243", 24), (5, "f4e6dbb7220bb512", 61)]
    )
    def test_lambda_basis(self, d, digest, size):
        gb = _lambda_basis(d)
        assert (_digest(gb.elements), len(gb.elements)) == (digest, size)

    def test_phi_w_kernel_d4(self):
        gb = kernel_of_hom(ring_W(4), ring_R(4), hom_catalog(4).phi_W)
        assert (_digest(gb.elements), len(gb.elements)) == ("c09b1a090a056243", 24)

    def test_phi_w_kernel_d5(self):
        gb = kernel_of_hom(ring_W(5), ring_R(5), hom_catalog(5).phi_W)
        assert (_digest(gb.elements), len(gb.elements)) == ("f4e6dbb7220bb512", 61)

    @pytest.mark.parametrize(
        "d, digest, size",
        [
            (4, "d383c7fb63196080", 49),
            (5, "0896f846db2488a1", 109),
            (6, "f1eba710ffd29f8e", 210),
        ],
    )
    def test_rees_kernel_oracle(self, d, digest, size):
        gb = _rees_kernel(d)
        assert gb.order is omega_order(ring_S(d))
        assert (_digest(gb.elements), len(gb.elements)) == (digest, size)

    def test_cached_order_data_not_in_equality(self):
        gb = _lambda_basis(4)
        bare = GroebnerBasis(gb.order, gb.elements, gb.truncation_degree)
        assert "reducers" not in vars(bare)
        assert bare == gb and hash(bare) == hash(gb)
        assert bare.reducers == gb.reducers
        assert "reducers" in vars(bare)
        fresh = GroebnerBasis(gb.order, gb.elements, gb.truncation_degree)
        assert bare == fresh == gb and hash(bare) == hash(fresh)
        assert fresh != GroebnerBasis(gb.order, gb.elements, 2)
        assert fresh != GroebnerBasis(gb.order, gb.elements[1:])
        assert repr(fresh) == (
            f"GroebnerBasis(order={gb.order!r}, elements={gb.elements!r}, "
            "truncation_degree=None)"
        )
        with pytest.raises(AttributeError):
            fresh.elements = ()
        unpack = groebner._layout(gb.order).unpack
        assert [unpack(lt) for _, lt, _ in gb.reducers] == [
            f.leading(OMEGA4)[1] for f in gb.elements
        ]


# one term of a W4 combination: (generator index, multiplier variables,
# coefficient); Lambda has 12 generators at d=4
_combo_terms = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.lists(st.integers(0, W4.nvars - 1), max_size=2),
        st.integers(-3, 3).filter(bool),
    ),
    min_size=1,
    max_size=5,
)


class TestBasisProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_generator_order_does_not_matter(self, rng):
        gens = [rec.value for rec in generators_lambda(4, "all")]
        rng.shuffle(gens)
        assert buchberger(gens, OMEGA4).elements == _lambda_basis(4).elements

    @settings(max_examples=50, deadline=None)
    @given(_combo_terms)
    def test_combination_of_generators_reduces_to_zero(self, terms):
        gens = [rec.value for rec in generators_lambda(4, "all")]
        combo = W4.zero()
        for index, positions, coeff in terms:
            multiplier = Polynomial(W4, {tuple(sorted(positions)): Fraction(coeff)})
            combo = combo + multiplier * gens[index]
        assert normal_form(combo, _lambda_basis(4)).is_zero

    @settings(max_examples=25, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
            min_size=12,
            max_size=12,
        ),
    )
    def test_ideal_equal_reflexive_under_shuffle_and_scaling(self, rng, scales):
        gens = [rec.value for rec in generators_lambda(4, "all")]
        scaled = [g.scale(c) for g, c in zip(gens, scales)]
        rng.shuffle(scaled)
        assert ideal_equal(gens, buchberger(scaled, OMEGA4))


R4 = ring_R(4)
# omega and an elimination order over R4; the random polynomials below use
# x1, x2, x3, and the elimination order eliminates x1
_R4_ORDERS = [omega_order(R4), elimination_order(R4, frozenset({xvar(1)}))]


def _r4_term(degree):
    """A term over x1..x3 of R4: (monomial, nonzero integer coefficient),
    its degree drawn from ``degree``."""
    return st.tuples(
        degree.flatmap(
            lambda k: st.lists(st.integers(0, 2), min_size=k, max_size=k)
        ).map(lambda positions: tuple(sorted(positions))),
        st.integers(-3, 3).filter(bool),
    )


def _r4_poly(terms):
    f = R4.zero()
    for m, c in terms:
        f = f + Polynomial(R4, {m: Fraction(c)})
    return f


# two to four generators of two or three terms each: fewer rarely leave
# a pair for the criteria to act on
_inhomogeneous = st.lists(
    st.lists(_r4_term(st.integers(0, 2)), min_size=2, max_size=3).map(_r4_poly),
    min_size=2,
    max_size=4,
)
_homogeneous = st.integers(1, 2).flatmap(
    lambda k: st.lists(
        st.lists(_r4_term(st.just(k)), min_size=2, max_size=3).map(_r4_poly),
        min_size=2,
        max_size=4,
    )
)


def _s_polynomial(f, g, order):
    """S(f, g) and the degree of the lcm of their leading terms."""
    cf, mf = f.leading(order)
    cg, mg = g.leading(order)
    lcm = Counter(mf) | Counter(mg)
    qf = Polynomial(f.ring, {tuple(sorted((lcm - Counter(mf)).elements())): 1 / cf})
    qg = Polynomial(g.ring, {tuple(sorted((lcm - Counter(mg)).elements())): 1 / cg})
    return qf * f - qg * g, lcm.total()


def _assert_certified(gens, gb, max_degree=None):
    """Buchberger's test with no criteria: every S-pair of the output and
    every generator reduces to zero against the output (up to
    ``max_degree`` for a truncated basis)."""
    bound = float("inf") if max_degree is None else max_degree
    elements = gb.elements
    for a, f in enumerate(elements):
        for g in elements[a + 1:]:
            s, lcm_degree = _s_polynomial(f, g, gb.order)
            if lcm_degree <= bound:
                assert normal_form(s, gb).is_zero
    for g in gens:
        if not g.is_zero and g.degree() <= bound:
            assert normal_form(g, gb).is_zero


class TestCriterionFreeCertificate:
    """The criteria and the pair order only skip or schedule work: the
    output must pass Buchberger's test without any of them."""

    @settings(max_examples=100, deadline=None)
    @given(_inhomogeneous, st.sampled_from(_R4_ORDERS))
    def test_full_basis(self, gens, order):
        _assert_certified(gens, buchberger(gens, order), None)

    @settings(max_examples=100, deadline=None)
    @given(_homogeneous, st.sampled_from(_R4_ORDERS), st.integers(2, 4))
    def test_truncated_basis(self, gens, order, max_degree):
        gb = buchberger(gens, order, max_degree)
        _assert_certified(gens, gb, max_degree)

    @pytest.mark.parametrize("max_degree", [3, None])
    def test_chain_criterion_consults_handled_pairs_only(self, max_degree):
        # the three leads share variables pairwise: a chain criterion that
        # also trusted pending pairs drops a needed cubic S-pair here
        x = [R4.variable(xvar(i)) for i in range(1, 5)]
        gens = [
            x[0] * x[1] + x[0] * x[0],
            x[0] * x[2] + x[0] * x[0],
            x[1] * x[2] + x[0] * x[0],
        ]
        gb = buchberger(gens, omega_order(R4), max_degree)
        _assert_certified(gens, gb, max_degree)

    def test_coprime_leads_push_no_pair(self, monkeypatch):
        # leads x4^2, x3^2, x2^3 under omega: pairwise coprime, so the
        # product criterion settles every pair and no lcm is computed
        x = [R4.variable(xvar(i)) for i in range(1, 5)]
        gens = [
            x[3] * x[3] + x[0] * x[1],
            x[2] * x[2] - x[0],
            x[1] * x[1] * x[1] + x[0] * x[0],
        ]
        order = omega_order(R4)
        lcms = []
        real = groebner._lcm
        monkeypatch.setattr(
            groebner, "_lcm", lambda *args: lcms.append(args) or real(*args)
        )
        gb = buchberger(gens, order)
        assert lcms == []
        assert sorted(map(hash, gb.elements)) == sorted(map(hash, gens))
        _assert_certified(gens, gb)


def _outside_sizes():
    """The size of every cache outside a ring: each ``lru_cache`` and each
    module-level dict, set or list of the package, and the memos of the
    d = 4 ring maps."""
    from fiberforge import candidate, census, hilbert, rees, rings, symmat

    sizes = {}
    for mod in (rings, symmat, candidate, census, groebner, hilbert, rees, cli):
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                sizes[f"{mod.__name__}.{name}"] = obj.cache_info().currsize
            elif isinstance(obj, (dict, set, list)):
                sizes[f"{mod.__name__}.{name}"] = len(obj)
    maps = hom_catalog(4)
    for name in ("epsilon", "phi_W", "phi_U"):
        sizes[f"hom_catalog(4).{name}"] = len(getattr(maps, name)._memo)
    return sizes


class TestPerCallRings:
    def test_leave_no_cache_grown(self):
        """``kernel_of_hom`` and ``transport`` on rings built per call grow
        no cache outside those rings.  The first run fills what the
        long-lived rings key; the later ones, each on new rings, add
        nothing."""
        S = ring_S(4)
        f = S.variable(wvar(1, 2)) * S.variable(xvar(3)) - S.variable(wvar(4, 3))

        def run():
            kernel_of_hom(ring_W(4), ring_R(4), hom_catalog(4).phi_W)
            joint = Ring("joint", (tvar(),) + S.vars, 4)
            assert transport(transport(f, joint), S) == f

        run()
        before = _outside_sizes()
        run()
        run()
        assert _outside_sizes() == before


class TestTransport:
    def test_into_a_reordered_ring_sorts_each_monomial(self):
        # the joint ring of the Rees oracle lists the eliminated t first, so
        # t moves from the last position to the first
        T = ring_Rees(4)
        joint = Ring("joint", (tvar(),) + ring_S(4).vars, 4)
        for g in rees_ideal(4)[:20]:
            f = (T.variable(tvar()) + T.one()) * transport(g, T)
            moved = transport(f, joint)
            assert all(list(m) == sorted(m) for m in moved.terms)
            assert any(m and m[0] == 0 for m in moved.terms)
            assert transport(moved, T) == f

    def test_missing_variable_raises(self):
        with pytest.raises(UnknownVariable):
            transport(ring_Rees(4).variable(tvar()), ring_S(4))


class TestElimination:
    def test_elimination_order_blocks(self):
        order = elimination_order(W4, frozenset({wvar(1, 1)}))
        m_elim = W4.monomial_of(wvar(1, 1))
        m_kept = W4.monomial_of(wvar(3, 4), wvar(3, 4), wvar(3, 4))
        assert order.key(m_elim) > order.key(m_kept)

    def test_eliminate_veronese(self):
        source, target, images, names = _small_rings()
        joint = Ring("J", target.vars + source.vars, 2)
        gens = []
        for v, img in images.items():
            gens.append(transport(joint.variable(v), joint) - transport(img, joint))
        full = buchberger(gens, elimination_order(joint, frozenset(target.vars)))
        kept = [f for f in full.elements if _free_of(f, range(target.nvars))]
        assert len(kept) == 1
        used = {joint.vars[p] for f in kept for m in f.terms for p in m}
        assert used <= set(source.vars)


def _free_of(f, positions):
    return not any(p in positions for m in f.terms for p in m)


_X2 = Ring("X2", (xvar(1), xvar(2)), 2)
_W3 = Ring("W3", tuple(VariableId(VarKind.W, ij) for ij in ((1, 1), (1, 2), (2, 2))), 2)

# a homogeneous X2 polynomial of degree 1 to 3 with one to three terms;
# three of them are algebraically dependent, so the kernel is not zero
_x2_form = st.integers(1, 3).flatmap(
    lambda k: st.dictionaries(
        st.integers(0, k).map(lambda a: (0,) * a + (1,) * (k - a)),
        st.integers(-2, 2).filter(bool),
        min_size=1,
        max_size=3,
    )
).map(lambda terms: Polynomial(_X2, terms))


def _eliminate(gens, order, weights):
    """``groebner._buchberger`` as ``kernel_of_hom`` calls it, with no
    count: pairs popped by ``weights``, the first block's leads dropped."""
    layout = groebner._layout(order)
    packed = groebner._reducers([g for g in gens if not g.is_zero], order)
    grading = groebner._weighted_degree(layout, weights)
    mask = sum(1 << p for p in order.blocks[0])
    return groebner._buchberger(packed, order, None, None, grading, None, mask)


class TestGradedElimination:
    """The Buchberger core under an elimination order with weights pops
    its S-pairs by that grading and inter-reduces only the kept elements;
    neither may change the result."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_x2_form, min_size=3, max_size=3))
    def test_kernel_matches_the_standard_degree_order(self, forms):
        # images of different degrees: the grading differs from the
        # standard degree; ``buchberger`` pops its pairs by standard degree
        # and reduces its whole basis
        images = dict(zip(_W3.vars, forms))
        joint = Ring("X2+W3", _X2.vars + _W3.vars, 2)
        gens = [
            transport(_W3.variable(v), joint) - transport(images[v], joint)
            for v in _W3.vars
        ]
        full = buchberger(gens, elimination_order(joint, frozenset(_X2.vars)))
        kept = [f for f in full.elements if _free_of(f, range(_X2.nvars))]
        kernel = kernel_of_hom(_W3, _X2, images)
        assert kernel.elements and kernel.elements == tuple(
            transport(f, _W3) for f in kept
        )

    @settings(max_examples=60, deadline=None)
    @given(_inhomogeneous, st.lists(st.integers(1, 3), min_size=4, max_size=4))
    def test_kept_only_equals_the_kept_part_of_the_full_basis(self, gens, weights):
        order = elimination_order(R4, frozenset({xvar(1)}))
        full = buchberger(gens, order)
        kept = [f for f in full.elements if _free_of(f, [0])]
        for w in (tuple(weights), (1,) * R4.nvars):
            assert list(_eliminate(gens, order, w).elements) == kept


def _rees_kernel(d):
    """The Rees oracle's kernel: S -> R[t] by ``rees_substitution``."""
    return kernel_of_hom(ring_S(d), ring_Rees(d), rees_substitution(d))


@lru_cache(maxsize=None)
def _fiber_kernel_d4():
    return kernel_of_hom(ring_W(4), ring_R(4), hom_catalog(4).phi_W)


class TestOracleNegativeControls:
    """The oracle comparison fails when the candidate misses a part."""

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_fiber_d4_without_one_part_of_lambda(self, part):
        kernel = _fiber_kernel_d4()
        full = [rec.value for rec in generators_lambda(4, "all")]
        assert ideal_equal(full, kernel)
        dropped = {rec.value for rec in generators_lambda(4, part)}
        assert not ideal_equal([g for g in full if g not in dropped], kernel)

    def test_rees_d4_without_one_l_generator(self):
        kernel = _rees_kernel(4)
        gens = rees_ideal(4)
        assert ideal_equal(gens, kernel)
        first_l = sym_algebra_ideal(4)[0]
        assert gens[0] == first_l  # J lists L first
        assert not ideal_equal(gens[1:], kernel)

    def test_comparison_never_packs_the_basis(self):
        kernel = kernel_of_hom(ring_W(4), ring_R(4), hom_catalog(4).phi_W)
        assert ideal_equal([rec.value for rec in generators_lambda(4, "all")], kernel)
        assert "reducers" not in vars(kernel)


class TestIdealPredicates:
    def test_ideal_equal_true(self):
        a = [_wpoly((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]))]
        b = [f.scale(Fraction(-3)) for f in a]
        assert ideal_equal(a, buchberger(b, OMEGA4))

    def test_ideal_equal_false(self):
        a = [_wpoly((1, [(1, 2)]))]
        b = [_wpoly((1, [(1, 3)]))]
        assert not ideal_equal(a, buchberger(b, OMEGA4))

    def test_ideal_contains(self):
        gen = _wpoly((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]))
        gb = buchberger([gen], OMEGA4)
        w11 = W4.variable(wvar(1, 1))
        assert normal_form(gen * w11, gb).is_zero
        assert not normal_form(w11, gb).is_zero


def _max_degree_spy(monkeypatch):
    """Record the ``max_degree`` of each Buchberger run: every one, the
    elimination of ``kernel_of_hom`` too, passes through the core."""
    bounds = []
    real = groebner._buchberger

    def spy(packed, order, max_degree, *rest):
        bounds.append(max_degree)
        return real(packed, order, max_degree, *rest)

    monkeypatch.setattr(groebner, "_buchberger", spy)
    return bounds


_LAMBDA4 = [rec.value for rec in generators_lambda(4, "all")]
_w4_variable = st.integers(0, W4.nvars - 1).map(lambda p: W4.variable(W4.vars[p]))
_nonzero = st.integers(-2, 2).filter(bool)
_lambda4_subset = st.lists(
    st.integers(0, len(_LAMBDA4) - 1), min_size=1, max_size=4, unique=True
)


@st.composite
def _w4_side(draw, base):
    """Homogeneous W4 generators: the Lambda4 generators numbered in
    ``base``, random quadric or cubic combinations of them, and perhaps
    one random quadric or cubic binomial."""
    gens = [_LAMBDA4[i] for i in base]
    quadrics = st.sampled_from(list(gens))
    for _ in range(draw(st.integers(0, 2))):
        f, g = draw(quadrics), draw(quadrics)
        if draw(st.booleans()):
            gens.append(f + g.scale(draw(_nonzero)))
        else:
            gens.append(draw(_w4_variable) * f + draw(_w4_variable) * g)
    if draw(st.booleans()):
        k = draw(st.integers(2, 3))
        one, two = (
            reduce(mul, draw(st.lists(_w4_variable, min_size=k, max_size=k)))
            for _ in range(2)
        )
        gens.append(one + two.scale(draw(_nonzero)))
    draw(st.randoms(use_true_random=False)).shuffle(gens)
    return gens


@st.composite
def _w4_side_pair(draw):
    """Two generator sets, half the time over the same Lambda4 generators."""
    base_a = draw(_lambda4_subset)
    base_b = base_a if draw(st.booleans()) else draw(_lambda4_subset)
    return draw(_w4_side(base_a)), draw(_w4_side(base_b))


class TestDegreeBoundedEquality:
    """``ideal_equal`` truncates its one basis at the top degree of the
    generators and the given basis when all of them are homogeneous."""

    def test_extra_cubic_outside_the_ideal(self, monkeypatch):
        cubic = _wpoly((1, [(1, 1), (1, 1), (1, 1)]))
        assert not normal_form(cubic, _lambda_basis(4)).is_zero
        # the degree-2 parts agree, so a bound of 2 could not tell them apart
        low = buchberger(_LAMBDA4, OMEGA4, 2).elements
        assert buchberger(_LAMBDA4 + [cubic], OMEGA4, 2).elements == low
        wider = buchberger(_LAMBDA4 + [cubic], OMEGA4)
        bounds = _max_degree_spy(monkeypatch)
        assert not ideal_equal(_LAMBDA4 + [cubic], _lambda_basis(4))
        assert not ideal_equal(_LAMBDA4, wider)
        assert bounds == [3, 3]

    def test_inhomogeneous_falls_back_to_full_bases(self, monkeypatch):
        f = _wpoly((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]), (1, [(1, 1)]))
        g = _wpoly((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]))
        bases = [buchberger([h], OMEGA4) for h in (f.scale(Fraction(5)), g, f)]
        bounds = _max_degree_spy(monkeypatch)
        assert ideal_equal([f], bases[0])
        assert not ideal_equal([f], bases[1])
        assert not ideal_equal([g], bases[2])  # only the basis is inhomogeneous
        assert bounds == [None] * 3

    def test_one_side_empty(self, monkeypatch):
        q = _wpoly((1, [(1, 2), (3, 4)]))
        of_q, of_zero = buchberger([q], OMEGA4), buchberger([W4.zero()], OMEGA4)
        bounds = _max_degree_spy(monkeypatch)
        assert not ideal_equal([], of_q)
        assert not ideal_equal([q, W4.zero()], of_zero)
        assert ideal_equal([], of_zero)
        assert bounds == [2, 2, None]

    def test_truncated_basis_refused(self):
        with pytest.raises(BeyondTruncation):
            ideal_equal(_LAMBDA4, buchberger(_LAMBDA4, OMEGA4, 2))

    def test_fiber_oracle_d4_bounds_the_comparison_at_3(self, monkeypatch, capsys):
        # Lambda4 holds only quadrics, but the kernel's basis has cubics
        bounds = _max_degree_spy(monkeypatch)
        assert cli.main(["oracle", "--d", "4", "--which", "fiber"]) == 0
        capsys.readouterr()
        assert bounds == [None, 3]  # the elimination, then ideal_equal

    @settings(max_examples=40, deadline=None)
    @given(_w4_side_pair())
    def test_agrees_with_full_bases(self, pair):
        a, b = pair
        gb = buchberger(b, OMEGA4)
        full = buchberger(a, OMEGA4).elements == gb.elements
        assert ideal_equal(a, gb) == full


# omega, an elimination order with a leading block of consecutive
# positions, and one whose eliminated positions are scattered
_PACKING_ORDERS = [
    omega_order(W4),
    elimination_order(W4, frozenset(W4.vars[:3])),
    elimination_order(W4, frozenset(W4.vars[p] for p in (0, 4, 5, 8))),
]
_w4_monomials = st.lists(
    st.integers(0, 3), min_size=W4.nvars, max_size=W4.nvars
).map(_monomial)


class TestPacking:
    """A packed monomial is one int per ``groebner._Layout``: addition
    multiplies, the guard-bit test divides, and the packed key sorts as
    ``OrderSpec.descending_key``."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_PACKING_ORDERS), _w4_monomials, _w4_monomials)
    def test_pack_is_faithful(self, order, a, b):
        layout = groebner._layout(order)
        pa, pb = layout.pack(a), layout.pack(b)
        assert layout.unpack(pa) == a
        assert pa + pb == layout.pack(tuple(sorted(a + b)))
        assert layout.degree(pa) == len(a)
        ea, eb = _exps(a, W4.nvars), _exps(b, W4.nvars)
        G = layout.guards
        assert (((pb | G) - pa) & G == G) == all(x <= y for x, y in zip(ea, eb))
        lcm = groebner._lcm(pa, pb, layout)
        assert layout.unpack(lcm) == _monomial(map(max, ea, eb))
        assert lcm == layout.pack(_monomial(map(max, ea, eb)))
        assert (not layout.support(pa) & layout.support(pb)) == (not set(a) & set(b))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_PACKING_ORDERS), st.lists(_w4_monomials, max_size=12))
    def test_packed_key_sorts_as_descending_key(self, order, monomials):
        layout = groebner._layout(order)
        packed = sorted((layout.pack(m) for m in monomials), key=layout.key)
        assert [layout.unpack(m) for m in packed] == sorted(
            monomials, key=order.descending_key
        )


class TestOverflow:
    """A field that reaches its guard bit raises where the monomial is
    made, as the traceback shows; with 3-bit fields a block degree may be
    at most 3."""

    @pytest.fixture
    def narrow(self, monkeypatch):
        monkeypatch.setattr(groebner, "_FIELD_BITS", 3)

    def test_packed_input(self, narrow):
        with pytest.raises(MonomialOverflow) as info:
            buchberger([_wpoly((1, [(1, 2)] * 4))], OMEGA4)
        assert info.traceback[-1].name == "pack"

    def test_lcm(self, narrow, monkeypatch):
        # leads w12^2 w13 and w12 w13^2: the lcm has degree 4
        lcms = []
        real = groebner._lcm
        monkeypatch.setattr(
            groebner, "_lcm", lambda *args: lcms.append(args) or real(*args)
        )
        f = _wpoly((1, [(1, 2), (1, 2), (1, 3)]))
        g = _wpoly((1, [(1, 2), (1, 3), (1, 3)]))
        with pytest.raises(MonomialOverflow) as info:
            buchberger([f, g], OMEGA4)
        assert len(lcms) == 1
        assert info.traceback[-1].name == "_lcm"

    def test_reduction_term(self, narrow):
        # eliminating w11: w11 w12 reduces by w11 - w12^3 to w12^4, whose
        # second-block degree is 4; the input and the reducer both fit
        order = elimination_order(W4, frozenset({wvar(1, 1)}))
        f = _wpoly((1, [(1, 1)]), (-1, [(1, 2)] * 3))
        gb = buchberger([f], order)
        with pytest.raises(MonomialOverflow) as info:
            normal_form(_wpoly((1, [(1, 1), (1, 2)])), gb)
        assert info.traceback[-1].name == "_reduce_terms"

    def test_s_polynomial_term(self, narrow):
        # eliminating w11: the S-polynomial of w11 w12 - w22^3 and
        # w11 w13 - 1 has the term w13 w22^3, of second-block degree 4
        order = elimination_order(W4, frozenset({wvar(1, 1)}))
        f = _wpoly((1, [(1, 1), (1, 2)]), (-1, [(2, 2)] * 3))
        g = _wpoly((1, [(1, 1), (1, 3)]), (-1, []))
        with pytest.raises(MonomialOverflow) as info:
            buchberger([f, g], order)
        assert info.traceback[-1].name == "_buchberger"

    def test_block_degree_at_the_guard(self):
        # 16-bit fields: a block degree of 2^15 reaches the guard; two blocks
        # below it fit, though the monomial is longer than one field's value
        value = (1 << (groebner._FIELD_BITS - 1)) - 1
        layout = groebner._layout(omega_order(W4))
        assert layout.unpack(layout.pack((0,) * value)) == (0,) * value
        with pytest.raises(MonomialOverflow):
            layout.pack((0,) * value + (3,))
        two = groebner._layout(elimination_order(W4, frozenset(W4.vars[:1])))
        m = (0,) * value + (4,) * value
        assert two.unpack(two.pack(m)) == m
        with pytest.raises(MonomialOverflow):
            two.pack(m + (5,))

    def test_cli_exits_2(self, narrow, capsys):
        assert cli.main(["oracle", "--d", "4", "--which", "fiber"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _reduction_spy(monkeypatch):
    """Record, for each ``_reduce_terms`` call, whether it reduced an
    S-polynomial (the main loop hands it its memo) and whether it
    returned zero, and every memo the calls were handed."""
    calls, memos = [], []
    real = groebner._reduce_terms

    def spy(terms, layout, reducers, deadline=None, memo=None):
        rem = real(terms, layout, reducers, deadline, memo)
        calls.append((memo is not None, not rem))
        if memo is not None and all(m is not memo for m in memos):
            memos.append(memo)
        return rem

    monkeypatch.setattr(groebner, "_reduce_terms", spy)
    return calls, memos


def _work(calls):
    """(S-pair reductions, those giving zero, inter-reduction calls)."""
    pairs = [zero for s_pair, zero in calls if s_pair]
    return len(pairs), sum(pairs), len(calls) - len(pairs)


class TestSameWork:
    """The engine's reductions in an elimination, pinned: the S-pair
    reductions, how many give zero, and the inter-reduction calls, which
    see only the kept elements.  The fiber kernel skips the pairs its
    quotient's Hilbert function settles; the standard-degree order
    carries no count.  The Rees kernel counts degree 4 only and settles
    none there.  The memo of the main loop holds one entry per distinct
    monomial."""

    def test_fiber_kernel_d5(self, monkeypatch):
        calls, memos = _reduction_spy(monkeypatch)
        kernel_of_hom(ring_W(5), ring_R(5), hom_catalog(5).phi_W)
        assert _work(calls) == (482, 359, 89)
        assert [len(m) for m in memos] == [958]

    def test_fiber_d5_standard_degree_order(self, monkeypatch):
        # ``buchberger``: the full basis, its pairs popped by standard degree
        W, R, images = ring_W(5), ring_R(5), hom_catalog(5).phi_W
        joint = Ring("R5+W5", R.vars + W.vars, 5)
        gens = [
            transport(W.variable(v), joint) - transport(images[v], joint)
            for v in W.vars
        ]
        calls, _ = _reduction_spy(monkeypatch)
        buchberger(gens, elimination_order(joint, frozenset(R.vars)))
        assert _work(calls) == (1382, 1259, 165)

    def test_rees_kernel_d4(self, monkeypatch):
        calls, memos = _reduction_spy(monkeypatch)
        _rees_kernel(4)
        assert _work(calls) == (458, 399, 67)
        assert len(memos) == 1


@st.composite
def _small_maps(draw):
    """A map from 3-4 w's, and sometimes a shared x_1 fixed, to 2-3 x's;
    each w goes to a homogeneous form with 1-3 terms, of degree 1-3 over
    two x's and 1-2 over three (a map by cubics in three variables can
    take seconds to eliminate)."""
    xs = tuple(xvar(i) for i in range(1, draw(st.integers(2, 3)) + 1))
    ws = tuple(wvar(1, j) for j in range(1, draw(st.integers(3, 4)) + 1))
    shared = draw(st.booleans())
    target = Ring("T", xs, len(xs))
    source = Ring("S", xs[:1] * shared + ws, len(xs))
    images = {x: target.variable(x) for x in source.vars[:shared]}
    for w in ws:
        k = draw(st.integers(1, 5 - len(xs)))
        monomial = st.lists(
            st.integers(0, len(xs) - 1), min_size=k, max_size=k
        ).map(lambda idx: tuple(sorted(idx)))
        terms = draw(
            st.dictionaries(
                monomial, st.integers(-2, 2).filter(bool), min_size=1, max_size=3
            )
        )
        images[w] = Polynomial(target, terms)
    return source, target, images


def _core_spy(mp):
    """Record every ``groebner._buchberger`` call's arguments."""
    seen = []
    real = groebner._buchberger
    mp.setattr(
        groebner, "_buchberger", lambda *args, **kw: seen.append(args) or real(*args, **kw)
    )
    return seen


def _uncounted(args):
    """The same elimination, grading and kept block with no quotient
    count: its kept elements."""
    return groebner._buchberger(*args[:5], count=None, eliminated=args[6]).elements


class TestHilbertSkip:
    """``kernel_of_hom`` hands its elimination a count of the quotient's
    standard monomials; the core skips the pairs that count proves zero.
    The result is the one the same elimination gives with no count."""

    @settings(max_examples=40, deadline=None)
    @given(_small_maps())
    def test_kernel_equals_the_elimination_with_no_count(self, small_map):
        source, target, images = small_map
        with pytest.MonkeyPatch.context() as mp:
            seen = _core_spy(mp)
            kernel = kernel_of_hom(source, target, images)
        (args,) = seen
        # E and F together are the target variables
        assert args[5].nvars == target.nvars
        plain = _uncounted(args)
        assert kernel.elements == tuple(transport(f, source) for f in plain)

    def test_inhomogeneous_image_does_the_same_work(self, monkeypatch):
        x1, x2 = xvar(1), xvar(2)
        target = Ring("T", (x1, x2), 2)
        ws = (wvar(1, 1), wvar(1, 2), wvar(2, 2))
        source = Ring("S", ws, 2)
        X1, X2 = target.variable(x1), target.variable(x2)
        images = dict(zip(ws, (X1 * X1 + X1, X1 * X2, X2 * X2)))
        seen = _core_spy(monkeypatch)
        calls, _ = _reduction_spy(monkeypatch)
        kernel = kernel_of_hom(source, target, images)
        counted = _work(calls)
        calls.clear()
        plain = _uncounted(seen[0])
        assert seen[0][5] is None  # no grading makes the generators homogeneous
        assert _work(calls) == counted and counted[0] > 0
        assert kernel.elements == tuple(transport(f, source) for f in plain)

    def test_past_deadline_raises_with_a_partial_basis(self):
        with pytest.raises(BudgetExceeded) as err:
            kernel_of_hom(
                ring_W(6), ring_R(6), hom_catalog(6).phi_W, time.monotonic() - 1
            )
        assert err.value.partial is not None and err.value.partial.elements

    def test_moved_shared_variable_raises_before_eliminating(self, monkeypatch):
        # x -> x^2 with x in both rings: the image uses a variable it moves
        x = xvar(1)
        ring = Ring("X1", (x,), 1)
        X = ring.variable(x)
        seen = _core_spy(monkeypatch)
        with pytest.raises(UnfixedSharedVariable):
            kernel_of_hom(ring, ring, {x: X * X})
        assert seen == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 2), min_size=3, max_size=3),
        st.lists(
            st.tuples(*[st.integers(0, 2)] * 3).filter(any), min_size=1, max_size=4
        ),
    )
    def test_standard_sets_match_a_direct_count(self, weights, leads):
        # the sets built degree by degree hold exactly the monomials that
        # no lead divides, whatever the leads' degrees
        ring = Ring("X3", (xvar(1), xvar(2), xvar(3)), 3)
        layout = groebner._layout(elimination_order(ring, frozenset({xvar(1)})))
        standard = groebner._StandardCount(layout, tuple(weights), 3)
        top = 6
        packed = {layout.pack(_monomial(a)) for a in leads}
        assert standard.begin(top, comb(top + 2, 2), packed, None)
        for e in range(top + 1):
            want = {
                layout.pack(_monomial(m))
                for m in product(range(top + 1), repeat=3)
                if sum(map(mul, m, weights)) == e
                and not any(all(map(int.__le__, a, m)) for a in leads)
            }
            assert set(standard.sets[e]) == want

    def test_counting_polls_the_deadline(self):
        order = elimination_order(R4, frozenset({xvar(1)}))
        standard = groebner._StandardCount(groebner._layout(order), (1,) * 4, 4)
        with pytest.raises(BudgetExceeded):
            standard.begin(6, 100, set(), time.monotonic() - 1)

    def test_cost_rule_declines_a_thin_degree(self):
        # with no leads every monomial is standard: HF(6) = C(9, 3) = 84
        order = elimination_order(R4, frozenset({xvar(1)}))
        standard = groebner._StandardCount(groebner._layout(order), (1,) * 4, 4)
        assert not standard.begin(6, 20, set(), None)
        assert standard.begin(6, 21, set(), None) and standard.excess == 0
