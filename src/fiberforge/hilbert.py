"""Hilbert functions and initial ideals of graded ideals by exact linear algebra.

The rank route is deliberately independent of the Groebner engine: the
degree-k slice of an ideal is spanned by generator multiples, and its
dimension is the rank of the coefficient matrix.  ``echelon_leads`` builds
the slices degree by degree and reads the initial monomials off their
pivots.  ``hf_values`` builds the same slices below the top degree and
counts the top one by parity blocks, as ``power_dim`` counts the span of
k-fold products: one certificate (``_certificate``) decides for both
whether the span splits by classes, and whether one block per
S_{d-1}-orbit of classes suffices (``orbit``).  Closed forms for the same
numbers live in ``hf_closed`` so the two can be compared.

One exact kernel serves every linear-algebra computation in the package:
``echelon`` is an exact sparse elimination on integer rows, used
for every rank here; ``rref`` back-substitutes its
result into the unique reduced form, used for the degree-2 basis of the
minor ideal in ``candidate``; ``relations`` reads the null space off it,
used for the kernels in ``rees`` (the linear syzygies and the
integrality witness).
"""

from __future__ import annotations

import functools
import itertools
import time
from fractions import Fraction
from math import comb, gcd, inf

from .errors import (
    BudgetExceeded,
    DimensionTooSmall,
    NotHomogeneous,
    OutOfTable,
    RingMismatch,
)
from .rings import Ring, VariableId


def monomials_of_degree(ring: Ring, k: int) -> list:
    """All degree-k monomials of the ring, descending under
    ``omega_order``: ``_multisets``."""
    return _multisets(ring.nvars, k)


def _multisets(n: int, k: int) -> list:
    """The degree-k monomials over n variables (position multisets, the
    sorted position tuples of length k), descending under ``omega_order``.

    ``combinations_with_replacement`` yields the multisets in ascending
    lexicographic order, so this is that list reversed, with no sort:
    within one degree ``omega_order`` compares monomials as their
    multisets compare as tuples (``rings.OrderSpec`` gives the argument).
    """
    out = list(itertools.combinations_with_replacement(range(n), k))
    out.reverse()
    return out


def echelon(rows, deadline=None) -> dict:
    """Row echelon form of sparse rational rows ``{column: value}``; a
    column may be any totally ordered key.  A row's pivot is its smallest
    column, so a caller that reads leading monomials off the pivots
    numbers its columns in descending monomial order, by their place in
    ``_multisets``: with monomials themselves as the columns, the pivot
    would be the least monomial of its row's degree.

    Each row is scaled to integers and reduced incrementally against the
    pivots found so far (``_reduce``), sparsest rows first.  A row whose
    entries are all ints skips the scaling: its common denominator is 1,
    so the scaling would give the same entries, and only its zeros are
    dropped.  A row is made primitive once, when it is stored.  Returns
    ``{pivot column: primitive integer row}``, whose length is the rank.

    With a ``deadline``, each row reads ``time.monotonic()`` and raises
    BudgetExceeded once it has passed: polling often can only stop a run
    earlier, never change its result.
    """
    pivots: dict = {}
    for row in sorted(rows, key=len):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("deadline passed during elimination")
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


def hf_exact(gens, k: int, deadline=None) -> int:
    """Dimension of the degree-k slice of the ideal generated by ``gens``
    (``hf_values``)."""
    return hf_values(gens, k, deadline).get(k, 0)


def hf_values(gens, k: int, deadline=None) -> dict:
    """``{j: dim I_j}`` for j = 0..k, I the ideal generated by ``gens``;
    each row of every ``echelon`` of the call reads ``deadline``.

    Degrees below k are the ranks of ``_slices``, the recursion of
    ``echelon_leads``.  Degree k is counted by the blocks of
    ``_certificate`` on V = I_{j*}, j* < k the top generator degree: every
    multiple of a generator factors through V, so I_k = R_{k-j*} * V.  The
    recursion's rows are homogeneous, as ``echelon`` reduces a row only by
    a pivot of its own class, so block b's rows are the pivot rows of
    degree k - 1 of class b + (class of x_p), each times x_p.  Only each
    orbit's representative is eliminated, its rank multiplied by the
    orbit size.  When j* = k, or the certificate has no classes, every
    variable gets class 0: one block, every row.

    Degree k's columns are monomials packed into ints in base k + 1
    (``pack_weights``), so no column list of degree k is built: a shift by
    x_p adds the pack of x_p.
    """
    dims = {j: 0 for j in range(k + 1)}
    ring, by_degree = _by_degree(gens, k)
    if not by_degree:
        return dims
    n = ring.nvars
    top = max(by_degree)
    gen_classes = pivots = None
    low = 0
    for j, cols, colindex, pivots in _slices(n, by_degree, k - 1, deadline):
        dims[j] = len(pivots)
        if j == top:
            gen_classes, low = _certificate(ring, by_degree, cols, colindex, pivots)
    classes = [0] * n if gen_classes is None else parity_classes(ring)
    # degree k: the rows of representative classes only, each block in the
    # order of ``_slices``: the generators, then the greatest variable first.
    # Generators of degree k occur only when top == k, where every class is 0.
    weight = pack_weights(n, k + 1)
    gen_rows = _packed_rows(by_degree.get(k, ()), weight)
    by_class: dict = {}  # class -> the pivot rows of degree k - 1, packed
    if pivots:
        key = [sum(map(weight.__getitem__, m)) for m in cols]
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
        dims[k] += size * len(echelon(rows, deadline))
    return dims


def power_dim(gens, k: int, deadline=None) -> int:
    """The dimension of the span of the k-fold products of ``gens``, for
    k >= 1, counted by the blocks of ``_certificate``; each ``echelon``
    reads ``deadline``.

    When the generators share one degree, V is their span, and the
    products span V^k, being multilinear in their factors.  Block b holds
    the products whose factors' classes sum to b, and only blocks of
    representative classes are built.  The generators' classes are those
    of the nonzero blocks of V, a set the certificate's permutations keep.
    So a class s(r) + c of i factors, r the representative of the first
    i - 1 factors' class and c the last's, has the representative of
    r + s^-1(c), and s^-1(c) is a generator class: the representatives of
    i factors are those of r + c' over such r and generator classes c'.
    When the generators have more than one degree, or the certificate has
    no classes, every generator gets class 0: one block, every product.

    No relabelling of the columns changes a rank, so each monomial is
    packed into one int in base k * e + 1 (``pack_weights``), e the top
    generator degree: every exponent of a product of at most k generators
    is a digit below the base, so ``_packed_product`` adds the packs of
    two monomials to multiply them.

    ``combinations_with_replacement`` yields the (k-1)-fold prefixes in
    lexicographic order, and a product is its prefix times a last factor
    of index at least the prefix's last.  Each prefix product is formed
    once, if some last factor completes it to a representative class, the
    same left-to-right product as multiplying the combination out.
    """
    ring, by_degree = _by_degree(gens, inf)
    if not by_degree:
        return 0
    top = max(by_degree)
    gens = sum(by_degree.values(), [])
    gen_classes, low = None, 0
    if len(by_degree) == 1:
        [(_, cols, colindex, pivots)] = _slices(ring.nvars, by_degree, top, deadline)
        gen_classes, low = _certificate(ring, by_degree, cols, colindex, pivots)
    if gen_classes is None:
        gen_classes = [0] * len(gens)
    packed = _packed_rows(gens, pack_weights(ring.nvars, k * top + 1))
    by_class: dict = {}
    for i, beta in enumerate(gen_classes):
        by_class.setdefault(beta, []).append(i)
    reps = {0}  # the representative classes of the i-fold products
    for _ in range(k):
        reps = {orbit(r ^ c, low)[0] for r in reps for c in by_class}
    blocks: dict = {beta: [] for beta in reps}
    for head in itertools.combinations_with_replacement(range(len(gens)), k - 1):
        gamma = 0
        for i in head:
            gamma ^= gen_classes[i]
        first = head[-1] if head else 0
        prefix = None
        for beta, rows in blocks.items():
            lasts = [packed[i] for i in by_class.get(beta ^ gamma, ()) if i >= first]
            if not lasts:
                continue
            if head and prefix is None:
                prefix = functools.reduce(_packed_product, [packed[i] for i in head])
            rows.extend(_packed_product(prefix, g) if head else g for g in lasts)
    return sum(
        orbit(beta, low)[1] * len(echelon(rows, deadline)) for beta, rows in blocks.items()
    )


def _packed_product(f: dict, g: dict) -> dict:
    """The terms of the product of two packed term dicts, zeros dropped:
    ``rings``' product of term dicts, with a sum of ints for a monomial
    product (see ``power_dim`` for when that is exact)."""
    terms: dict = {}
    get = terms.get
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            terms[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in terms.items() if c}


def echelon_leads(gens, k: int, deadline=None) -> dict:
    """The initial monomials of the ideal generated by ``gens`` under
    ``omega_order``: ``{j: monomials, descending}`` for j = 0..k; each
    ``echelon`` reads ``deadline``.

    The pivots of degree j are in(I)_j, as for any Macaulay matrix with
    columns in descending order (Lazard, EUROCAL 1983).  The columns of
    ``_slices`` are numbered in the order of ``_multisets``, which lists
    them descending under ``omega_order`` with no sort, and a row's pivot
    is its smallest column, so each stored row is an element of I_j whose
    leading monomial is its pivot.  The pivots are distinct and there are
    dim I_j = dim in(I)_j of them, so they are exactly in(I)_j.
    """
    leads: dict = {j: [] for j in range(k + 1)}
    ring, by_degree = _by_degree(gens, k)
    if by_degree:
        for j, cols, _, pivots in _slices(ring.nvars, by_degree, k, deadline):
            leads[j] = [cols[c] for c in sorted(pivots)]
    return leads


def _by_degree(gens, k) -> tuple:
    """The ring and ``{degree: generators}`` of the nonzero generators of
    degree at most k, after checking that they share one ring and are
    homogeneous; ``(None, {})`` for none or for k < 0."""
    gens = [g for g in gens if not g.is_zero]
    if not gens or k < 0:
        return None, {}
    ring = gens[0].ring
    by_degree: dict = {}
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch(f"generators over {ring.name} and {g.ring.name}")
        degrees = set(map(len, g.terms))
        if len(degrees) > 1:
            raise NotHomogeneous(f"inhomogeneous generator: {g!r}")
        deg = degrees.pop()
        if deg <= k:
            by_degree.setdefault(deg, []).append(g)
    return ring, by_degree


def _slices(n: int, by_degree: dict, k: int, deadline=None):
    """Yield ``(j, cols, colindex, pivots)`` for j from the lowest generator
    degree to k: the ``_multisets`` columns of degree j, their numbering,
    and the ``echelon`` pivot rows of I_j on them, each ``echelon``
    reading ``deadline`` at every row.

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
        rows = _term_rows(by_degree.get(j, ()), colindex)
        if pivots:
            # greatest variable (the last position) first: no row order
            # changes the pivot columns, and this one took 3-7% fewer
            # reduction steps on Lambda at d = 5..12 than the ascending one
            for shift in reversed(_variable_shifts(n, previndex, cols)):
                rows.extend(
                    {shift[c]: v for c, v in row.items()} for row in pivots.values()
                )
        pivots = echelon(rows, deadline)
        del rows  # freed before the caller reads the pivots
        yield j, cols, colindex, pivots
        previndex = colindex


def _term_rows(gens, col: dict) -> list:
    """Each generator's terms as a row ``{col[t]: c}``."""
    return [{col[t]: c for t, c in g.terms.items()} for g in gens]


def _packed_rows(gens, weight: list) -> list:
    """Each generator's terms as a row keyed by their packs
    (``pack_weights``)."""
    get = weight.__getitem__
    return [{sum(map(get, t)): c for t, c in g.terms.items()} for g in gens]


def pack_weights(n: int, base: int) -> list:
    """The packs of the n variables: a monomial packs into one int, the
    sum of the packs of its positions, which has its exponents as digits
    in ``base``, position 0 most significant.  When every exponent is
    below the base, distinct monomials pack to distinct ints and the pack
    of a product is the sum of the packs (no digit carries)."""
    return [base ** (n - 1 - p) for p in range(n)]


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


def _class(m: tuple, classes: list) -> int:
    """The class of a monomial (a position met twice cancels)."""
    c = 0
    for p in m:
        c ^= classes[p]
    return c


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


def _certificate(ring: Ring, by_degree: dict, cols, colindex, pivots) -> tuple:
    """``(classes, low)`` for counting a span built from V by products
    (R_m * V, V^k) by blocks: V is spanned by the generators of
    ``by_degree`` and their multiples, and its ``echelon`` pivot rows on
    the columns ``cols`` (numbered by ``colindex``) are ``pivots``.

    A monomial's class in (Z/2)^d is the sum of its variables'
    (``parity_classes``).  If each generator is parity-homogeneous,
    ``classes`` lists their classes, in the order of ``by_degree``; then
    such a span is spanned by homogeneous elements, so its dimension is
    the sum of its blocks', one per class.
    Otherwise it is None, and ``low`` 0.

    A permutation s of 1..d-1, fixing d, acts on the variables through
    their indices and maps the forms of class b onto those of class s(b).
    If s maps V into itself, it maps V onto itself (s is a graded
    automorphism), so it maps such a span onto itself and its block b
    onto its block s(b).  So when (1 2) and (1 2 ... d-1), which generate
    S_{d-1}, both keep V (the image of every pivot row reduces to 0),
    the blocks of one orbit have one dimension, and ``low`` is the bits
    1..d-1 of ``orbit``; otherwise ``low`` is 0, and every class is its
    own orbit.
    """
    classes = parity_classes(ring)
    gen_classes = []
    for g in sum(by_degree.values(), []):
        found = {_class(t, classes) for t in g.terms}
        if len(found) != 1:
            return None, 0
        gen_classes += found
    perms = symmetry_generators(ring)
    if perms is None:
        return gen_classes, 0
    for perm in perms:
        image = [colindex[tuple(sorted(perm[p] for p in m))] for m in cols]
        for row in pivots.values():
            if _reduce({image[c]: v for c, v in row.items()}, pivots):
                return gen_classes, 0
    return gen_classes, (1 << (ring.d - 1)) - 1


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
