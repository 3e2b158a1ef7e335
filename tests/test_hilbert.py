"""Tests for exact Hilbert-function values and their closed forms."""

import itertools
import pytest
from fractions import Fraction
import random
import time
from math import comb

from hypothesis import given, settings, strategies as st

from fiberforge.candidate import generators_lambda
from fiberforge.census import census_degree2
from fiberforge.errors import (
    BudgetExceeded,
    DimensionTooSmall,
    NotHomogeneous,
    OutOfTable,
    RingMismatch,
)
from fiberforge.groebner import buchberger
from fiberforge import hilbert
from fiberforge.hilbert import (
    echelon,
    echelon_leads,
    hf_closed,
    hf_exact,
    hf_values,
    monomials_of_degree,
    orbit,
    parity_classes,
    relations,
    rref,
)
from fiberforge.rees import rees_ideal
from fiberforge.rings import (
    Polynomial,
    omega_order,
    ring_R,
    ring_S,
    ring_U,
    ring_W,
    VariableId,
    wvar,
    xvar,
)

W4 = ring_W(4)
R4 = ring_R(4)


def _lambda_gens(d):
    return [rec.value for rec in generators_lambda(d, "all")]


def _groebner_leads(gens, k):
    """The degree-k initial monomials by the Groebner route: every degree-k
    multiple of a lead of the k-truncated ``buchberger`` basis.  A
    reference for ``echelon_leads``, which takes them from the rank route."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return set()
    ring = gens[0].ring
    out = set()
    for lt in buchberger(gens, omega_order(ring), max_degree=k).leading_monomials():
        if len(lt) <= k:
            out.update(
                tuple(sorted(lt + m)) for m in monomials_of_degree(ring, k - len(lt))
            )
    return out


class TestMonomialEnumeration:
    def test_count(self):
        # dim of the degree-k slice of a polynomial ring in n variables
        n = W4.nvars
        for k in (0, 1, 2, 3):
            assert len(monomials_of_degree(W4, k)) == comb(k + n - 1, k)

    def test_descending(self):
        order = omega_order(W4)
        ms = monomials_of_degree(W4, 2)
        keys = [order.key(m) for m in ms]
        assert keys == sorted(keys, reverse=True)

    @pytest.mark.parametrize(
        "ring", [W4, ring_R(5), ring_U(4), ring_S(4)], ids=lambda r: r.name
    )
    def test_reversed_multisets_are_the_descending_sort(self, ring):
        # every degree-k monomial, sorted by ascending exponent tuple: within
        # one degree, graded reverse lexicographic from the greatest down
        n = ring.nvars
        for k in range(5):
            every = list(itertools.combinations_with_replacement(range(n), k))
            want = sorted(every, key=lambda m: tuple(map(m.count, range(n))))
            assert monomials_of_degree(ring, k) == want
            assert want == sorted(every, key=omega_order(ring).descending_key)


class TestExactValues:
    def test_degree2_matches_closed_form(self):
        for d in (4, 5, 6):
            assert hf_exact(_lambda_gens(d), 2) == hf_closed("IX2", d)

    def test_degree3_matches_closed_form(self):
        for d in (4, 5):
            assert hf_exact(_lambda_gens(d), 3) == hf_closed("IX3", d)

    def test_degree_below_generators(self):
        assert hf_exact(_lambda_gens(4), 1) == 0
        assert hf_exact(_lambda_gens(4), 0) == 0

    def test_inhomogeneous_rejected(self):
        f = Polynomial(
            W4,
            {
                W4.monomial_of(wvar(1, 2)): Fraction(1),
                W4.monomial_of(wvar(1, 2), wvar(1, 2)): Fraction(1),
            },
        )
        with pytest.raises(NotHomogeneous):
            hf_exact([f], 2)

    def test_empty_gens(self):
        assert hf_exact([W4.zero()], 2) == 0

    def test_mixed_rings_rejected(self):
        W5 = ring_W(5)
        f = W4.variable(wvar(1, 2))
        g = W5.variable(wvar(1, 2))
        with pytest.raises(RingMismatch):
            hf_exact([f, g], 2)
        with pytest.raises(RingMismatch):
            hf_exact([W4.zero(), g, f], 1)


# small rational matrices as sparse rows {column: value}, zeros left out
_entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_matrix = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(_entry, min_size=ncols, max_size=ncols).map(
            lambda vals: {j: v for j, v in enumerate(vals) if v}
        ),
        max_size=7,
    )
)


def _reduce(row, reduced):
    """Row minus its multiples of the rref rows, by their pivot entries."""
    row = {j: Fraction(v) for j, v in row.items() if v}
    for c, prow in reduced.items():
        f = row.get(c)
        if f:
            for j, v in prow.items():
                row[j] = row.get(j, 0) - f * v
            row = {j: v for j, v in row.items() if v}
    return row


def _rank_from_all_multiples(gens, k):
    """dim I_k from every generator times every monomial of degree k - deg g."""
    cols = {m: p for p, m in enumerate(monomials_of_degree(R4, k))}
    rows = []
    for g in gens:
        if g.is_zero or g.degree() > k:
            continue
        for m in monomials_of_degree(R4, k - g.degree()):
            rows.append({cols[tuple(sorted(m + t))]: c for t, c in g.terms.items()})
    return len(echelon(rows))


# homogeneous polynomials over R4 of degree 1 to 3 with small coefficients
_r4_poly = st.integers(1, 3).flatmap(
    lambda e: st.dictionaries(
        st.sampled_from(monomials_of_degree(R4, e)),
        st.integers(-2, 2).filter(bool).map(Fraction),
        min_size=1,
        max_size=3,
    )
).map(lambda terms: Polynomial(R4, terms))


def _x(*indices):
    return Polynomial(R4, {R4.monomial_of(*map(xvar, indices)): Fraction(1)})


class TestDegreeByDegree:
    """hf_exact builds I_k from a basis of I_{k-1}; these pin it to I_k itself."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_r4_poly, min_size=1, max_size=4), st.integers(0, 4))
    def test_agrees_with_all_multiples_and_initial_ideal(self, gens, k):
        rank = hf_exact(gens, k)
        assert rank == _rank_from_all_multiples(gens, k)
        leads = echelon_leads(gens, k)
        assert sorted(leads) == list(range(k + 1))
        assert set(leads[k]) == _groebner_leads(gens, k)
        assert len(set(leads[k])) == rank  # distinct pivots, one per dimension

    def test_gap_degree(self):
        # degree-1 and degree-3 generators only: I_2 comes from x1 alone
        gens = [_x(1), _x(2, 3, 4) + _x(2, 2, 2)]
        assert hf_exact(gens, 2) == 4
        assert hf_exact(gens, 3) == _rank_from_all_multiples(gens, 3) == 10 + 1

    def test_generator_above_k_ignored(self):
        gens = [_x(1, 2), _x(3, 3, 4)]
        assert hf_exact(gens, 2) == 1
        assert hf_exact(gens, 1) == 0
        assert hf_exact([_x(3, 3, 4)], 2) == 0

    def test_nonzero_constant_gives_whole_ring(self):
        one = R4.one().scale(Fraction(-3))
        for k in range(4):
            assert hf_exact([one, _x(1, 2)], k) == comb(k + 3, 3)

    def test_two_variable_kinds_match_groebner_leads(self):
        # J over S = R[w]: x and w variables in one ring
        gens = rees_ideal(4)
        leads = echelon_leads(gens, 3)
        key = omega_order(ring_S(4)).descending_key
        for j in range(4):
            assert set(leads[j]) == _groebner_leads(gens, j)
            assert leads[j] == sorted(leads[j], key=key)
        assert len(leads[3]) > len(leads[2]) > 0

    def test_shuffle_invariant_d6(self):
        gens = _lambda_gens(6)
        for seed in (11, 12):
            shuffled = list(gens)
            random.Random(seed).shuffle(shuffled)
            assert hf_exact(shuffled, 3) == hf_closed("IX3", 6)


class TestDeadline:
    """Every rank of one call polls the deadline on one shared row count."""

    def test_past_deadline_stops_hf_values(self):
        with pytest.raises(BudgetExceeded):
            hf_values(_lambda_gens(5), 3, deadline=time.monotonic() - 1)

    def test_few_rows_per_echelon_still_poll(self):
        # 40 rows per call: only the shared count reaches the 64th row
        rows = [{j: 1} for j in range(40)]
        ticks = itertools.count(1)
        echelon(rows, time.monotonic() - 1, ticks)
        with pytest.raises(BudgetExceeded):
            echelon(rows, time.monotonic() - 1, ticks)

    def test_future_deadline_changes_nothing(self):
        gens = _lambda_gens(5)
        assert hf_values(gens, 3, deadline=time.monotonic() + 600) == hf_values(gens, 3)


class TestEchelonKernel:
    @settings(max_examples=200, deadline=None)
    @given(_matrix, st.randoms(use_true_random=False))
    def test_rank_ignores_row_order(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert len(echelon(shuffled)) == len(echelon(rows)) == len(rref(rows))

    @settings(max_examples=200, deadline=None)
    @given(_matrix)
    def test_rref_is_reduced(self, rows):
        reduced = rref(rows)
        for c, prow in reduced.items():
            assert min(prow) == c and prow[c] == 1
            for other, orow in reduced.items():
                if other != c:
                    assert c not in orow

    @settings(max_examples=200, deadline=None)
    @given(_matrix)
    def test_rows_reduce_to_zero(self, rows):
        reduced = rref(rows)
        for row in rows:
            assert _reduce(row, reduced) == {}

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols).map(
                    lambda vals: dict(enumerate(vals))
                ),
                max_size=7,
            )
        )
    )
    def test_int_rows_give_the_pivots_of_the_same_fractions(self, rows):
        # int rows skip the rescaling; zero entries are dropped on both paths
        before = [dict(r) for r in rows]
        as_fractions = [{j: Fraction(v) for j, v in r.items()} for r in rows]
        assert echelon(rows) == echelon(as_fractions)
        assert rows == before

    def test_integer_pivot_rows_are_primitive(self):
        rows = [{0: Fraction(1, 2), 2: Fraction(3, 4)}, {0: 2, 1: 4, 2: 6}]
        ech = echelon(rows)
        assert ech[0] == {0: 2, 2: 3}
        assert ech[1] == {1: 4, 2: 3}


R3 = ring_R(3)

# polynomials over R3 of degree at most 3 with small integer coefficients
_r3_poly = st.dictionaries(
    st.sampled_from([m for e in range(4) for m in monomials_of_degree(R3, e)]),
    st.integers(-2, 2).filter(bool),
    max_size=4,
).map(lambda terms: Polynomial(R3, terms))


@st.composite
def _dependent_polys(draw):
    """A shuffled list of polynomials, some of them integer combinations of
    others, so the list has relations beyond those of its zero entries."""
    base = draw(st.lists(_r3_poly, min_size=1, max_size=5))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    combos = [
        sum((g.scale(c) for g, c in zip(base, cs)), R3.zero())
        for cs in draw(st.lists(coeffs, max_size=3))
    ]
    return draw(st.permutations(base + combos))


class TestRelations:
    @settings(max_examples=200, deadline=None)
    @given(_dependent_polys())
    def test_one_relation_per_free_column(self, polys):
        rels = relations(polys, range(len(polys)))
        for f, vec in rels.items():
            total = R3.zero()
            for s, a in vec.items():
                total = total + polys[s].scale(a)
            assert total.is_zero
            assert vec[f] == 1
            assert not (set(vec) - {f}) & set(rels)
        assert list(rels) == sorted(rels)
        rows: dict = {}
        for s, p in enumerate(polys):
            for t, c in p.terms.items():
                rows.setdefault(t, {})[s] = c
        assert len(rels) == len(polys) - len(echelon(rows.values()))

    @settings(max_examples=100, deadline=None)
    @given(_dependent_polys(), st.data())
    def test_requested_columns_only(self, polys, data):
        """Asked for some columns, it returns the full basis's vectors at
        those of them that are free, in the order asked, and no other."""
        full = relations(polys, range(len(polys)))
        cols = data.draw(st.permutations(range(len(polys))))[: len(polys) // 2]
        assert relations(polys, cols) == {f: full[f] for f in cols if f in full}
        assert list(relations(polys, cols)) == [f for f in cols if f in full]

    @settings(max_examples=100, deadline=None)
    @given(_dependent_polys())
    def test_monomial_outside_the_span_is_a_pivot(self, polys):
        x3_4 = Polynomial(R3, {R3.monomial_of(*[xvar(3)] * 4): 1})
        assert relations(polys + [x3_4], (len(polys),)).get(len(polys)) is None


class TestClosedForms:
    def test_known_values(self):
        assert [hf_closed("IX2", d) for d in (4, 5, 6, 7)] == [10, 35, 84, 168]
        assert [hf_closed("IX3", d) for d in (4, 5, 6)] == [81, 350, 1078]

    def test_fiber_complement(self):
        # codim of I(X)_2 inside the quadrics of the ambient ring
        for d in (4, 5, 6):
            assert hf_closed("W", d, 2) - hf_closed("IX2", d) == hf_closed(
                "fiber", d, 2
            )

    def test_out_of_table(self):
        with pytest.raises(OutOfTable):
            hf_closed("IX2", 4, 3)
        with pytest.raises(OutOfTable):
            hf_closed("fiber", 4, 1)
        with pytest.raises(OutOfTable):
            hf_closed("nope", 4, 2)

    def test_dimension_too_small(self):
        # the formulas give 0 or negative values there (IX2 at d=1 is -1)
        for which, d, k in (("IX2", 3, 2), ("IX2", 1, None), ("IX3", 2, 3),
                            ("fiber", 3, 2)):
            with pytest.raises(DimensionTooSmall):
                hf_closed(which, d, k)


class TestInitialIdeal:
    def test_initial_count_equals_hf(self):
        # the rank route's pivots against the Groebner route's leads
        gens = _lambda_gens(4)
        leads = echelon_leads(gens, 3)
        for k in (2, 3):
            assert len(leads[k]) == hf_exact(gens, k)
            assert set(leads[k]) == _groebner_leads(gens, k)

    def test_degree_one_empty(self):
        assert echelon_leads(_lambda_gens(4), 1) == {0: [], 1: []}
        assert echelon_leads(_lambda_gens(4), -1) == {}

    def test_initial_degree2_is_census(self):
        got = echelon_leads(_lambda_gens(4), 2)[2]
        want = census_degree2(4)
        assert set(got) == want
        order = omega_order(W4)
        assert got == sorted(want, key=order.descending_key)


def _sigma(f, perm):
    """f with the positions of its monomials permuted by ``perm``."""
    return Polynomial(
        f.ring, {tuple(sorted(perm[p] for p in t)): c for t, c in f.terms.items()}
    )


def _position_perms(ring):
    """Every permutation of 1..d-1, fixing d, as a position permutation."""
    d = ring.d
    out = []
    for images in itertools.permutations(range(1, d)):
        sigma = dict(zip(range(1, d), images))
        out.append([
            ring.index[VariableId(v.kind, tuple(sigma.get(i, i) for i in v.index))]
            for v in ring.vars
        ])
    return out


@st.composite
def _orbit_gens(draw, d):
    """The S_{d-1}-orbit of one or two quadrics over W with small integer
    coefficients, parity-homogeneous in most draws, plus a few arbitrary
    quadrics."""
    W = ring_W(d)
    classes = parity_classes(W)
    by_class = {}
    for m in monomials_of_degree(W, 2):
        by_class.setdefault(classes[m[0]] ^ classes[m[1]], []).append(m)
    every = monomials_of_degree(W, 2)
    gens = []
    perms = _position_perms(W)
    for _ in range(draw(st.integers(1, 2))):
        monos = by_class[draw(st.sampled_from(sorted(by_class)))]
        if draw(st.integers(0, 3)) == 0:
            monos = every
        terms = draw(st.dictionaries(
            st.sampled_from(monos), st.integers(-2, 2).filter(bool),
            min_size=1, max_size=3,
        ))
        f = Polynomial(W, terms)
        gens.extend(_sigma(f, perm) for perm in perms)
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.dictionaries(
            st.sampled_from(every), st.integers(-2, 2).filter(bool),
            min_size=1, max_size=3,
        ))
        gens.append(Polynomial(W, terms))
    return draw(st.permutations(gens))


def _spy(monkeypatch, name):
    """Record every return value of ``hilbert.<name>``."""
    seen = []
    real = getattr(hilbert, name)
    monkeypatch.setattr(hilbert, name, lambda *a: seen.append(real(*a)) or seen[-1])
    return seen


class TestOrbitCounts:
    """hf_values counts its top degree by one block per orbit; the plain
    route's leads are the reference."""

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8, 9])
    def test_counts_equal_the_leads_on_lambda(self, d):
        gens = _lambda_gens(d)
        leads = echelon_leads(gens, 3)
        assert hf_values(gens, 3) == {j: len(leads[j]) for j in range(4)}

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_counts_equal_the_leads_on_each_part(self, part):
        gens = [rec.value for rec in generators_lambda(6, part)]
        leads = echelon_leads(gens, 3)
        assert hf_values(gens, 3) == {j: len(leads[j]) for j in range(4)}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([4, 5]).flatmap(_orbit_gens))
    def test_orbits_of_random_quadrics(self, gens):
        assert hf_exact(gens, 3) == len(echelon_leads(gens, 3)[3])

    def test_lambda_takes_the_orbit_route(self, monkeypatch):
        # degree 3 at d >= 7 has seven orbits: (w, b) with w + b even and
        # at most 6, w the class's weight on 1..d-1 and b its bit d
        gens = _lambda_gens(7)
        certificate = _spy(monkeypatch, "_certificate")
        blocks = []
        real = hilbert.echelon
        monkeypatch.setattr(hilbert, "echelon", lambda *a: blocks.append(1) or real(*a))
        assert hf_exact(gens, 3) == hf_closed("IX3", 7)
        assert [low for _, low in certificate] == [(1 << 6) - 1]
        assert len(blocks) == 1 + 7  # degree 2 whole, then the orbits

    def test_a_non_invariant_span_counts_every_row(self, monkeypatch):
        W = ring_W(6)
        extra = Polynomial(W, {W.monomial_of(wvar(1, 2), wvar(3, 4)): 1})
        gens = _lambda_gens(6) + [extra]
        certificate = _spy(monkeypatch, "_certificate")
        assert hf_exact(gens, 3) == len(echelon_leads(gens, 3)[3])
        [(classes, low)] = certificate
        assert classes is not None and low == 0

    def test_a_wrong_class_fails_the_homogeneity_check(self, monkeypatch):
        real = hilbert.parity_classes

        def wrong(ring):
            classes = real(ring)
            classes[ring.index[wvar(1, 2)]] = 0
            return classes

        monkeypatch.setattr(hilbert, "parity_classes", wrong)
        monkeypatch.setattr(hilbert, "symmetry_generators", lambda ring: pytest.fail())
        certificate = _spy(monkeypatch, "_certificate")
        gens = _lambda_gens(5)
        assert hf_exact(gens, 3) == len(echelon_leads(gens, 3)[3]) == hf_closed("IX3", 5)
        assert certificate == [(None, 0)]

    @pytest.mark.parametrize("d", [4, 5, 6, 9])
    def test_orbit_sizes_cover_every_class(self, d):
        low = (1 << (d - 1)) - 1
        sizes = {}
        for beta in range(1 << d):
            rep, size = orbit(beta, low)
            sizes.setdefault(rep, set()).add(size)
            assert orbit(rep, low) == (rep, size)
        assert all(len(s) == 1 for s in sizes.values())
        assert sum(s.pop() for s in sizes.values()) == 1 << d
        assert orbit(0b101, 0) == (0b101, 1)

    def test_classes_follow_the_indices(self):
        W = ring_W(5)
        classes = parity_classes(W)
        assert classes[W.index[wvar(2, 4)]] == 0b1010
        assert classes[W.index[wvar(3, 3)]] == 0
        assert parity_classes(ring_R(4)) == [1, 2, 4, 8]
