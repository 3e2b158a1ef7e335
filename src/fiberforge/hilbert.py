"""Hilbert functions and initial ideals of graded ideals by exact linear algebra.

The rank route is deliberately independent of the Groebner engine: the
degree-k slice of an ideal is spanned by generator multiples, and its
dimension is the rank of the coefficient matrix.  ``echelon_leads`` builds
the slices degree by degree and reads the initial monomials off their
pivots.  ``hf_values`` builds the same slices below the top degree and
counts the top one by parity blocks: a variable's class in (Z/2)^d is the
sum of its indices (``parity_classes``), and when the generators allow it,
one block per S_{d-1}-orbit of classes is eliminated (``orbit``).  Closed
forms for the same numbers live in ``hf_closed`` so the two can be
compared.

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
from .rings import Ring, VariableId


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
    pivots found so far (``_reduce``), sparsest rows first; a row's pivot
    is its smallest column.  A row whose entries are all ints skips the
    scaling: its common denominator is 1, so the scaling would give the
    same entries, and only its zeros are dropped.  A row is made primitive
    once, when it is stored.  Returns ``{pivot column: primitive integer
    row}``, whose length is the rank.
    """
    pivots: dict = {}
    for row in sorted(rows, key=len):
        if all(type(v) is int for v in row.values()):
            row = {j: v for j, v in row.items() if v} if 0 in row.values() else dict(row)
        else:
            denom = 1
            for v in row.values():
                denom = denom * v.denominator // gcd(denom, v.denominator)
            row = {j: v.numerator * (denom // v.denominator) for j, v in row.items() if v}
        row = _reduce(row, pivots)
        if row:
            pivots[min(row)] = _primitive(row)
    return pivots


def _reduce(row: dict, pivots: dict) -> dict:
    """An integer row reduced against ``echelon`` pivots until its smallest
    column has none; ``{}`` iff the row lies in their span.  The row may
    be changed in place.

    Against a pivot whose pivot entry is +-1 the row subtracts a multiple
    of it; against any other pivot the step is fraction-free and the
    result is divided by its content.
    """
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
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
    return row


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
    """Dimension of the degree-k slice of the ideal generated by ``gens``
    (``hf_values``)."""
    return hf_values(gens, k).get(k, 0)


def hf_values(gens, k: int) -> dict:
    """``{j: dim I_j}`` for j = 0..k, I the ideal generated by ``gens``.

    Degrees below k are the ranks of ``_slices``, the recursion of
    ``echelon_leads``.  Degree k is counted by blocks.  Give each variable
    its class in (Z/2)^d (``parity_classes``).  If every generator is
    parity-homogeneous, so is every row of the recursion, as ``echelon``
    reduces a row only by a pivot of its own class; so dim I_k is the sum
    over classes b of dim I_{k,b}, the rank of the rows of class b.

    A permutation s of 1..d-1, fixing d, acts on the variables through
    their indices and on classes by permuting bits; the class of s(m) is
    s(class of m).  Let j* be the top generator degree and j* < k.  Then
    I_k = R_{k-j*} * I_{j*}, as every multiple of a generator factors
    through I_{j*}.  If s maps span I_{j*} into itself, it maps it onto
    itself (s is a graded automorphism), so s maps I_k onto itself and
    block b onto block s(b): dim I_{k,b} = dim I_{k,s(b)}.  The
    transposition (1 2) and the cycle (1 2 ... d-1) generate S_{d-1}; once
    both keep span I_{j*} (``_invariant``), the blocks of one orbit have
    one dimension, and only the representative of each orbit is
    eliminated, its rank multiplied by the orbit size (``orbit``).
    Otherwise (j* = k, a generator not parity-homogeneous, or span I_{j*}
    not kept) every variable gets class 0: one block, every row.

    Degree k's columns are monomials packed into ints in base k + 1
    (``pack``), so no column list of degree k is built: a shift by x_p
    adds the pack of x_p.
    """
    dims = {j: 0 for j in range(k + 1)}
    ring, by_degree = _by_degree(gens, k)
    if not by_degree:
        return dims
    n = ring.nvars
    top, low = max(by_degree), 0
    classes = parity_classes(ring)
    pivots = None
    for j, cols, colindex, pivots in _slices(n, by_degree, k - 1):
        dims[j] = len(pivots)
        if j == top and _homogeneous(sum(by_degree.values(), []), classes):
            perms = symmetry_generators(ring)
            if perms is not None and _invariant(perms, cols, colindex, pivots):
                low = (1 << (ring.d - 1)) - 1
    if not low:
        classes = [0] * n
    # degree k: the rows of representative classes only, each block in the
    # order of ``_slices``: the generators, then the greatest variable first.
    # Generators of degree k occur only when top == k, where every class is 0.
    gen_rows = _term_rows(by_degree.get(k, ()), lambda t: pack(t, k + 1))
    weight = [(k + 1) ** (n - 1 - p) for p in range(n)]
    by_class: dict = {}  # class -> the pivot rows of degree k - 1, packed
    if pivots:
        key = [sum(weight[p] for p in m) for m in cols]
        for c, row in pivots.items():
            by_class.setdefault(_class(cols[c], classes), []).append(
                {key[j]: v for j, v in row.items()}
            )
    for beta in {0} | {g ^ c for g in by_class for c in set(classes)}:
        rep, size = orbit(beta, low)
        if rep != beta:
            continue
        rows = gen_rows if beta == 0 else []
        for p in reversed(range(n)):
            w = weight[p]
            rows.extend(
                {m + w: v for m, v in row.items()}
                for row in by_class.get(beta ^ classes[p], ())
            )
        dims[k] += size * len(echelon(rows))
    return dims


def echelon_leads(gens, k: int) -> dict:
    """The initial monomials of the ideal generated by ``gens`` under
    ``omega_order``: ``{j: exponent tuples, descending}`` for j = 0..k.

    The pivots of degree j are in(I)_j, as for any Macaulay matrix with
    columns in descending order (Lazard, EUROCAL 1983).  The columns of
    ``_slices`` are the position multisets of ``_multisets``, which lists
    them descending under ``omega_order`` with no sort, and a row's pivot
    is its smallest column, so each stored row is an element of I_j whose
    leading monomial is its pivot.  The pivots are distinct and there are
    dim I_j = dim in(I)_j of them, so they are exactly in(I)_j.  Only the
    pivots are expanded back to exponent tuples.
    """
    leads: dict = {j: [] for j in range(k + 1)}
    ring, by_degree = _by_degree(gens, k)
    if by_degree:
        n = ring.nvars
        for j, cols, _, pivots in _slices(n, by_degree, k):
            leads[j] = [_exponents(n, cols[c]) for c in sorted(pivots)]
    return leads


def _by_degree(gens, k: int) -> tuple:
    """The ring and ``{degree: generators}`` of the nonzero generators of
    degree at most k, after checking that all nonzero generators share one
    ring and are homogeneous; ``(None, {})`` for none or for k < 0."""
    gens = [g for g in gens if not g.is_zero]
    if not gens or k < 0:
        return None, {}
    ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch(f"generators over {ring.name} and {g.ring.name}")
        if not g.is_homogeneous():
            raise NotHomogeneous(f"inhomogeneous generator: {g!r}")
    by_degree: dict = {}
    for g in gens:
        deg = g.degree()
        if deg <= k:
            by_degree.setdefault(deg, []).append(g)
    return ring, by_degree


def _slices(n: int, by_degree: dict, k: int):
    """Yield ``(j, cols, colindex, pivots)`` for j from the lowest generator
    degree to k: the ``_multisets`` columns of degree j, their numbering,
    and the ``echelon`` pivot rows of I_j on them.

    For homogeneous generators I_j = R_1 * I_{j-1} + span{g : deg g = j},
    because a multiple m * g with deg m = j - deg g > 0 factors as
    x * (m' * g) with x a variable and m' * g in I_{j-1}.  Any basis of
    I_{j-1} may stand in for it, so the rows of degree j are the pivot
    rows of degree j - 1 times every variable, plus the generators of
    degree j: no row is carried for every multiple of every generator.
    The recursion runs exactly over Q, so the rank in degree j is dim I_j.
    """
    pivots: dict = {}
    previndex = None
    for j in range(min(by_degree), k + 1):
        cols = _multisets(n, j)
        colindex = {m: c for c, m in enumerate(cols)}
        rows = _term_rows(by_degree.get(j, ()), lambda t: colindex[_positions(t)])
        if pivots:
            # greatest variable (the last position) first: no row order
            # changes the pivot columns, and this one took 3-7% fewer
            # reduction steps on Lambda at d = 5..12 than the ascending one
            for shift in reversed(_variable_shifts(n, previndex, cols)):
                rows.extend(
                    {shift[c]: v for c, v in row.items()} for row in pivots.values()
                )
        pivots = echelon(rows)
        del rows  # freed before the caller reads the pivots
        yield j, cols, colindex, pivots
        previndex = colindex


def _term_rows(gens, key) -> list:
    """Each generator's terms as a row ``{key(t): c}``; ``key`` runs once
    per distinct exponent tuple t, however many generators share it."""
    col = {t: key(t) for t in set().union(*(g.terms for g in gens))}
    return [{col[t]: c for t, c in g.terms.items()} for g in gens]


def pack(exps: tuple, base: int) -> int:
    """An exponent tuple as the digits of one int in ``base``, most
    significant first.  When every exponent is below the base, distinct
    tuples pack to distinct ints, the pack of a product is the sum of the
    packs (no digit carries), and packs ascend as the tuples do."""
    v = 0
    for e in exps:
        v = v * base + e
    return v


def parity_classes(ring: Ring) -> list:
    """The class in (Z/2)^d of each variable of the ring, as a bitmask with
    bit i - 1 for index i: x_i has {i}, w_ij and u_ij have {i} + {j} (0 on
    the diagonal), and t has 0.  A monomial's class is the sum (xor) of
    its variables' classes.  The quadric g_ij of w_ij, x_i x_j or
    x_i^2 - x_d^2, has the class of w_ij, so phi_W, epsilon and the minors
    of the symmetric matrices are homogeneous for it.
    """
    out = []
    for v in ring.vars:
        c = 0
        for i in v.index:
            c ^= 1 << (i - 1)
        out.append(c)
    return out


def _class(positions, classes: list) -> int:
    """The class of the monomial of a position multiset (a position met
    twice cancels)."""
    c = 0
    for p in positions:
        c ^= classes[p]
    return c


def _homogeneous(gens, classes: list) -> bool:
    """True iff all terms of each generator have one class: keyed by class
    (``_term_rows``), each generator's terms collapse to one entry."""
    rows = _term_rows(gens, lambda t: _class(_positions(t), classes))
    return all(len(row) == 1 for row in rows)


def orbit(beta: int, low: int) -> tuple:
    """``(representative, size)`` of the orbit of the class ``beta`` under
    the permutations of the bits set in ``low``.  A permutation keeps the
    number w of beta's bits in ``low`` and its other bits, and reaches
    every class that agrees there, so those label the orbit: it has
    C(|low|, w) classes, and its representative has the lowest w bits of
    ``low`` (``low`` is always 0 or the bits 0..d-2 here).  With ``low``
    0 every class is its own orbit."""
    w = (beta & low).bit_count()
    return ((1 << w) - 1) | (beta & ~low), comb(low.bit_count(), w)


def symmetry_generators(ring: Ring):
    """The position permutations of the ring's variables under (1 2) and
    (1 2 ... d-1), which fix d and generate S_{d-1}; ``[]`` for d < 3,
    and None if one of them moves a variable out of the ring."""
    m = ring.d - 1
    if m < 2:
        return []
    perms = []
    for sigma in ({1: 2, 2: 1}, {i: i % m + 1 for i in range(1, m + 1)}):
        perm = []
        for v in ring.vars:
            p = ring.index.get(VariableId(v.kind, tuple(sigma.get(i, i) for i in v.index)))
            if p is None:
                return None
            perm.append(p)
        perms.append(perm)
    return perms


def _invariant(perms: list, cols: list, colindex: dict, pivots: dict) -> bool:
    """True iff each position permutation maps the span of the pivot rows
    into itself: the image of every pivot row reduces to 0 against them."""
    for perm in perms:
        image = [colindex[tuple(sorted(perm[p] for p in m))] for m in cols]
        for row in pivots.values():
            if _reduce({image[c]: v for c, v in row.items()}, pivots):
                return False
    return True


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
