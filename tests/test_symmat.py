"""Symbolic symmetric matrices: minors, complements, delta, PCM pairs."""

import itertools

import pytest

from fiberforge.errors import BadIndex, NotA1
from fiberforge.rings import Ring, VarKind, ring_W, uvar, wvar
from fiberforge.symmat import (
    SymMatrix,
    delta,
    minor2,
    pcm_pairs,
    principal_minor,
)

M4 = SymMatrix(4, VarKind.W)
W4 = ring_W(4)


def wm(*pairs):
    return W4.monomial_of(*(wvar(i, j) for i, j in pairs))


class TestEntries:
    def test_symmetric(self):
        assert M4.entry(1, 3) == M4.entry(3, 1)

    def test_missing_corner_is_zero(self):
        assert M4.entry(4, 4).is_zero

    def test_u_matrix_has_corner(self):
        N = SymMatrix(4, VarKind.U)
        assert not N.entry(4, 4).is_zero


class TestMinor2:
    def test_a_class(self):
        assert minor2(M4, (1, 2), (3, 4)).a_class == 0
        assert minor2(M4, (1, 2), (1, 3)).a_class == 1
        assert minor2(M4, (1, 2), (1, 2)).a_class == 2

    def test_value_written_order(self):
        m = minor2(M4, (1, 2), (3, 4))
        w = {e: c for e, c in m.value.terms.items()}
        assert w[wm((1, 3), (2, 4))] == 1
        assert w[wm((1, 4), (2, 3))] == -1

    def test_corner_vanishes_in_value(self):
        # [34] = w_33*w_44 - w_34^2 with w_44 = 0
        m = principal_minor(M4, 3, 4)
        w34 = W4.variable(wvar(3, 4))
        assert m.value == -(w34 * w34)


class TestMinorFromPositions:
    @pytest.mark.parametrize("kind", [VarKind.W, VarKind.U])
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_equals_the_entry_products(self, d, kind):
        """Every ordered row and column pair, the corner included: the
        value equals entry(a1,b1)*entry(a2,b2) - entry(a1,b2)*entry(a2,b1),
        with its terms in the same order."""
        mat = SymMatrix(d, kind)
        e = mat.entry
        ordered = list(itertools.permutations(range(1, d + 1), 2))
        corner = 0
        for (a1, a2), (b1, b2) in itertools.product(ordered, ordered):
            got = minor2(mat, (a1, a2), (b1, b2)).value
            want = e(a1, b1) * e(a2, b2) - e(a1, b2) * e(a2, b1)
            assert got.ring is mat.ring
            assert list(got.terms.items()) == list(want.terms.items())
            corner += d in (a1, a2) and d in (b1, b2)
        assert corner > 0

    def test_pair_table_refuses_two_kinds(self):
        mixed = Ring("WU", (wvar(1, 2), uvar(1, 2)), 2)
        with pytest.raises(BadIndex):
            mixed.pair_positions()


class TestComplements:
    def test_class_is_stable_under_complement(self):
        # the complement of a minor inside a 4x4 principal submatrix P takes
        # the rows P minus its rows and the columns P minus its columns
        M5 = SymMatrix(5, VarKind.W)
        for rows in ((1, 2), (1, 3)):
            for cols in ((3, 4), (2, 4), (1, 4)):
                m = minor2(M5, rows, cols)
                for P in itertools.combinations(range(1, 6), 4):
                    if not set(rows) | set(cols) <= set(P):
                        continue
                    n = minor2(
                        M5,
                        tuple(sorted(set(P) - set(rows))),
                        tuple(sorted(set(P) - set(cols))),
                    )
                    assert n.a_class == m.a_class


class TestDelta:
    def test_diagonal_position(self):
        # w_22 at position (2,1) of rows (1,2), cols (2,3): antidiagonal
        assert delta(minor2(M4, (1, 2), (2, 3))) == 1

    def test_main_diagonal(self):
        # rows (2,3), cols (2,4): w_22 at (1,1)
        assert delta(minor2(M4, (2, 3), (2, 4))) == 0

    def test_requires_a1(self):
        with pytest.raises(NotA1):
            delta(minor2(M4, (1, 2), (3, 4)))


class TestPcmPairs:
    def test_three_pairs(self):
        pairs = pcm_pairs((1, 2, 3, 4), M4)
        assert len(pairs) == 3
        assert all(p.ambient == (1, 2, 3, 4) for p in pairs)

    def test_partitions_are_principal(self):
        for p in pcm_pairs((1, 2, 3, 4), M4):
            for m in p.pair1 + p.pair2:
                assert m.rows == m.cols

    def test_bad_input(self):
        with pytest.raises(BadIndex):
            pcm_pairs((1, 2, 3, 3), M4)
        with pytest.raises(BadIndex):
            pcm_pairs((1, 2, 3, 5), M4)
