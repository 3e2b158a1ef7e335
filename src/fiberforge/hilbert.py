"""Hilbert functions and initial ideals of graded ideals by exact linear algebra.

The rank route is deliberately independent of the Groebner engine: the
degree-k slice of an ideal is spanned by generator multiples, and its
dimension is the rank of the coefficient matrix.  ``echelon_leads`` builds
the slices degree by degree and reads the initial monomials off their
pivots; ``hf_exact`` counts those of the top degree.  Closed forms for the
same numbers live in ``hf_closed`` so the two can be compared.

One exact kernel serves every linear-algebra computation in the package:
``echelon`` is an exact sparse elimination on integer rows, used
for ranks here and in ``rees.power_check``; ``rref`` back-substitutes its
result into the unique reduced form, used for the degree-2 basis of the
minor ideal in ``candidate``; ``relations`` reads the null space off it,
used for the kernels in ``rees`` (the linear syzygies and the
integrality witness).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd

from .errors import DimensionTooSmall, NotHomogeneous, OutOfTable, RingMismatch
from .rings import Ring


def monomials_of_degree(ring: Ring, k: int) -> list:
    """The exponent tuples of all degree-k monomials of the ring,
    descending under ``omega_order``: the expansions of ``_multisets``,
    whose docstring argues the order, with no sort."""
    n = ring.nvars
    return [_exponents(n, c) for c in _multisets(n, k)]


def _multisets(n: int, k: int) -> list:
    """The degree-k monomials over n variables as position multisets
    (sorted position tuples of length k), descending under ``omega_order``.

    ``combinations_with_replacement`` yields the multisets in ascending
    lexicographic order, so this is that list reversed, with no sort.
    Within one degree ``omega_order`` lists monomials by ascending
    exponent tuple (``descending_key`` is (-degree, exponents)), and
    ascending exponent tuples are descending multisets: let e < e' be
    exponent tuples of degree k, first different at index i, e_i < e'_i.
    Both hold the same count of every position below i, so their
    multisets agree up to those and the e_i copies of i that follow; the
    next entry is a further copy of i in the multiset of e' and a
    position above i in that of e (its remaining degree sits above i).
    So the multiset of e' is the smaller one.
    """
    out = list(itertools.combinations_with_replacement(range(n), k))
    out.reverse()
    return out


def _exponents(n: int, positions) -> tuple:
    """The exponent tuple, over n variables, of a position multiset."""
    exps = [0] * n
    for p in positions:
        exps[p] += 1
    return tuple(exps)


def _positions(exps: tuple) -> tuple:
    """The position multiset of an exponent tuple, one entry per unit of
    exponent."""
    out: list = []
    for p in itertools.compress(range(len(exps)), exps):
        out += [p] * exps[p]
    return tuple(out)


def echelon(rows) -> dict:
    """Row echelon form of sparse rational rows ``{column: value}``; a
    column may be any totally ordered key (an int, an exponent tuple).

    Each row is scaled to integers and reduced incrementally against the
    pivots found so far, sparsest rows first; a row's pivot is its
    smallest column.  Against a pivot whose pivot entry is +-1 the row
    subtracts a multiple of it in place; against any other pivot the step
    is fraction-free and the result is divided by its content.  A row is
    made primitive once, when it is stored.  Returns ``{pivot column:
    primitive integer row}``, whose length is the rank.
    """
    pivots: dict = {}
    for row in sorted(rows, key=len):
        denom = 1
        for v in row.values():
            denom = denom * v.denominator // gcd(denom, v.denominator)
        row = {j: v.numerator * (denom // v.denominator) for j, v in row.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _primitive(row)
                break
            a, b = piv[c], row[c]
            if a == 1 or a == -1:
                f = a * b  # b / a, as 1 / a == a
                for j, v in piv.items():
                    s = row.get(j, 0) - f * v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                continue
            new = {}
            for j, v in row.items():
                s = a * v - b * piv.get(j, 0)
                if s:
                    new[j] = s
            for j, v in piv.items():
                if j not in row:
                    new[j] = -b * v
            row = _primitive(new)
    return pivots


def rref(rows) -> dict:
    """Reduced row echelon form over Q of sparse rational rows.

    Back-substitutes the output of ``echelon``; returns ``{pivot column:
    row}`` in pivot order, each row with entry 1 at its pivot and 0 at
    every other pivot column.  Columns are keys as in ``echelon``; for a
    fixed column order this form is unique.
    """
    done: dict = {}
    for c, row in sorted(echelon(rows).items(), reverse=True):
        lead = row[c]
        out = {j: Fraction(v, lead) for j, v in row.items()}
        for j in [j for j in out if j in done]:
            f = out[j]
            for k, v in done[j].items():
                s = out.get(k, 0) - f * v
                if s:
                    out[k] = s
                else:
                    del out[k]
        done[c] = out
    return dict(sorted(done.items()))


def relations(polys, columns) -> dict:
    """A basis of the linear relations among polynomials over one ring,
    given by its vectors at the free columns among ``columns``.

    Column s of the coefficient matrix holds ``polys[s]``, one row per
    monomial.  Returns ``{free column f: {s: a_s}}`` for each free column
    f in ``columns``, in their order, with sum a_s * polys[s] = 0, a_f = 1
    and a_g = 0 at every other free column g: the null space read off
    ``rref``, so for a fixed list each vector is unique, as the reduced
    form is for a fixed column numbering.  A reduced row is 1 at its
    pivot p and 0 at every other pivot, so each of its other entries v
    sits in a free column f and gives a_p = -v there.  With ``columns``
    all of ``range(len(polys))`` that is a basis of the null space; a
    caller that needs one column passes only it, and no other vector is
    built.
    """
    rows: dict = {}
    for s, poly in enumerate(polys):
        for t, c in poly.terms.items():
            rows.setdefault(t, {})[s] = c
    reduced = rref(rows.values())
    out = {f: {f: 1} for f in columns if f not in reduced}
    for p, prow in reduced.items():
        for f, v in prow.items():
            vec = out.get(f)  # None at a pivot or an unrequested column
            if vec is not None:
                vec[p] = -v
    return out


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
    return {j: v // g for j, v in row.items()} if g > 1 else row


def hf_exact(gens, k: int) -> int:
    """Dimension of the degree-k slice of the ideal generated by ``gens``:
    the number of its initial monomials of degree k (``echelon_leads``)."""
    return len(echelon_leads(gens, k).get(k, ()))


def echelon_leads(gens, k: int) -> dict:
    """The initial monomials of the ideal generated by ``gens`` under
    ``omega_order``: ``{j: exponent tuples, descending}`` for j = 0..k.

    For homogeneous generators I_j = R_1 * I_{j-1} + span{g : deg g = j},
    because a multiple m * g with deg m = j - deg g > 0 factors as
    x * (m' * g) with x a variable and m' * g in I_{j-1}.  Any basis of
    I_{j-1} may stand in for it, so the rows of degree j are the
    ``echelon`` pivot rows of degree j - 1 times every variable, plus the
    generators of degree j: no row is carried for every multiple of every
    generator.  The recursion runs exactly over Q from the lowest
    generator degree to k, so the rank in degree j is dim I_j.

    The pivots of degree j are in(I)_j, as for any Macaulay matrix with
    columns in descending order (Lazard, EUROCAL 1983).  The columns are
    the position multisets of ``_multisets``, which lists them descending
    under ``omega_order`` with no sort, and a row's pivot is its smallest
    column, so each stored row is an element of I_j whose leading monomial
    is its pivot.  The pivots are distinct and there are dim I_j =
    dim in(I)_j of them, so they are exactly in(I)_j.  Only the pivots are
    expanded back to exponent tuples.
    """
    leads: dict = {j: [] for j in range(k + 1)}
    gens = [g for g in gens if not g.is_zero]
    if not gens or k < 0:
        return leads
    ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch(f"generators over {ring.name} and {g.ring.name}")
        if not g.is_homogeneous():
            raise NotHomogeneous(f"inhomogeneous generator: {g!r}")
    by_degree: dict = {}
    for g in gens:
        by_degree.setdefault(g.degree(), []).append(g)
    n = ring.nvars
    pivots: dict = {}
    previndex = None
    for j in range(min(by_degree), k + 1):
        cols = _multisets(n, j)
        colindex = {m: c for c, m in enumerate(cols)}
        rows = [
            {colindex[_positions(t)]: c for t, c in g.terms.items()}
            for g in by_degree.get(j, ())
        ]
        if pivots:
            # greatest variable (the last position) first: no row order
            # changes the pivot columns, and this one took 3-7% fewer
            # reduction steps on Lambda at d = 5..12 than the ascending one
            for shift in reversed(_variable_shifts(n, previndex, cols)):
                rows.extend(
                    {shift[c]: v for c, v in row.items()} for row in pivots.values()
                )
        pivots = echelon(rows)
        del rows  # freed before the pivots are expanded
        leads[j] = [_exponents(n, cols[c]) for c in sorted(pivots)]
        previndex = colindex
    return leads


def _variable_shifts(n: int, previndex: dict, cols: list) -> list:
    """Per variable x_p, the column of x_p * m for the monomial m of each
    column of the degree below.

    ``cols`` lists the position multisets of one degree in column order,
    ``previndex`` numbers those of the degree below.  Deleting one copy of
    a position p from a multiset m gives the m' with x_p * m' = m, and
    every pair (m', p) arises so from exactly one m, once per distinct
    position of m.
    """
    shifts = [[0] * len(previndex) for _ in range(n)]
    for c, m in enumerate(cols):
        last = None
        for i, p in enumerate(m):
            if p != last:
                shifts[p][previndex[m[:i] + m[i + 1:]]] = c
                last = p
    return shifts


def hf_closed(which: str, d: int, k: int | None = None) -> int:
    """The closed-form Hilbert values for the rings in play (d >= 4 but for W)."""
    if which in ("IX2", "IX3", "fiber") and d < 4:
        raise DimensionTooSmall(f"need d >= 4, got {d}")
    if which == "IX2":
        if k not in (None, 2):
            raise OutOfTable("IX2 is the degree-2 value")
        return 2 * (d + 2) * (d + 1) * d * (d - 3) // 24
    if which == "IX3":
        if k not in (None, 3):
            raise OutOfTable("IX3 is the degree-3 value")
        num = (
            14 * d**6 + 30 * d**5 - 40 * d**4 - 210 * d**3 - 334 * d**2 - 180 * d
        )
        return num // 720
    if which == "W":
        if k is None or k < 0:
            raise OutOfTable("W needs a degree k >= 0")
        n = comb(d + 1, 2) - 1
        return comb(k + n - 1, k)
    if which == "fiber":
        if k is None or k < 2:
            raise OutOfTable("the fiber closed form holds for k >= 2 only")
        return comb(d + 2 * k - 1, 2 * k)
    raise OutOfTable(f"unknown closed form {which!r}")
