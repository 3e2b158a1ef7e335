"""Symbolic symmetric matrices of variables and their 2x2 minors.

The W-matrix has entry w_ij for i != j and w_ii on the diagonal, except the
(d,d) corner which is the zero polynomial.  The U-matrix keeps u_dd.  Minor
brackets are evaluated exactly in the row/column order given: swapping two
rows or two columns flips the sign.

``minor2`` builds no entry polynomial: it writes the two +-1 terms of the
value from ``Ring.pair_positions``, a table the matrix's ring builds once
and owns; a product with the missing corner, which has no position, is
zero.  Keeping the table is sound: a ring's variables never change; each
key names one variable, as a ring holds pairs of one kind; and the table
lives and dies with its ring.  ``SymMatrix.entry`` stays the definition
the minors are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadIndex, NotA1
from .rings import Polynomial, VarKind, ring_U, ring_W, uvar, wvar


class SymMatrix:
    """The d x d symmetric matrix of variables over W or U."""

    __slots__ = ("d", "kind", "ring")

    def __init__(self, d: int, kind: VarKind):
        if kind not in (VarKind.W, VarKind.U):
            raise BadIndex("symmetric matrices exist only over W or U")
        self.d = d
        self.kind = kind
        self.ring = ring_W(d) if kind is VarKind.W else ring_U(d)

    def entry(self, i: int, j: int) -> Polynomial:
        if not (1 <= i <= self.d and 1 <= j <= self.d):
            raise BadIndex(f"entry ({i},{j}) outside 1..{self.d}")
        if self.kind is VarKind.W and i == j == self.d:
            return self.ring.zero()
        v = wvar(i, j) if self.kind is VarKind.W else uvar(i, j)
        return self.ring.variable(v)


@dataclass(frozen=True)
class Minor2:
    """A 2x2 minor selection with its diagonal class and expanded value."""

    rows: tuple
    cols: tuple
    a_class: int
    value: Polynomial

    def bracket(self) -> str:
        r, c = self.rows, self.cols
        if set(r) == set(c):
            return f"[{r[0]} {r[1]}]"
        return f"[{r[0]} {r[1]}|{c[0]} {c[1]}]"


def minor2(mat: SymMatrix, rows: tuple, cols: tuple) -> Minor2:
    """det of the submatrix with rows/cols taken in the order written.

    entry(a1, b1) * entry(a2, b2) - entry(a1, b2) * entry(a2, b1), in that
    term order, written from positions (module docstring).  The two
    monomials never coincide, as that needs a1 = a2 or b1 = b2.
    """
    a1, a2 = rows
    b1, b2 = cols
    if a1 == a2 or b1 == b2:
        raise BadIndex("minor rows and columns must be distinct pairs")
    for i in (a1, a2, b1, b2):
        if not (1 <= i <= mat.d):
            raise BadIndex(f"index {i} outside 1..{mat.d}")
    pos = mat.ring.pair_positions()
    terms = {}
    for c, e1, e2 in ((1, (a1, b1), (a2, b2)), (-1, (a1, b2), (a2, b1))):
        p, q = pos.get(e1), pos.get(e2)
        if p is None or q is None:
            continue  # a factor is the missing W corner
        terms[(p, q) if p <= q else (q, p)] = c
    value = Polynomial(mat.ring, terms)
    a_class = len({a1, a2} & {b1, b2})
    return Minor2((a1, a2), (b1, b2), a_class, value)


def principal_minor(mat: SymMatrix, i: int, j: int) -> Minor2:
    if i == j:
        raise BadIndex("principal 2x2 minor needs two distinct indices")
    i, j = min(i, j), max(i, j)
    return minor2(mat, (i, j), (i, j))


def delta(m: Minor2) -> int:
    """0 if the unique diagonal entry of an A1 minor sits on its main
    diagonal, 1 if on the antidiagonal."""
    if m.a_class != 1:
        raise NotA1(f"{m.bracket()} is not in A_1")
    (i,) = set(m.rows) & set(m.cols)
    r = m.rows.index(i)
    c = m.cols.index(i)
    return 0 if r == c else 1


@dataclass(frozen=True)
class PcmPair:
    """Two complementary A2 partitions of one 4x4 principal submatrix."""

    ambient: tuple
    pair1: tuple
    pair2: tuple


def pcm_pairs(four_set, mat: SymMatrix) -> list:
    """The three PCM pairings built from a 4-index principal submatrix."""
    idx = tuple(sorted(four_set))
    if len(set(idx)) != 4:
        raise BadIndex(f"need four distinct indices, got {four_set}")
    for i in idx:
        if not (1 <= i <= mat.d):
            raise BadIndex(f"index {i} outside 1..{mat.d}")
    i, j, k, l = idx
    partitions = [
        (principal_minor(mat, i, j), principal_minor(mat, k, l)),
        (principal_minor(mat, i, k), principal_minor(mat, j, l)),
        (principal_minor(mat, i, l), principal_minor(mat, j, k)),
    ]
    out = []
    for a, b in itertools.combinations(range(3), 2):
        out.append(PcmPair(idx, partitions[a], partitions[b]))
    return out
