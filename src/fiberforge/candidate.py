"""The candidate ideal: generators built from 2x2 minors of the W-matrix.

Three families of degree-2 generators:

* part 0: minors whose four indices are distinct,
* part 1: signed differences of complementary minors meeting the diagonal
  once, balanced by the delta positions so the corner term cancels,
* part 2: differences of complementary principal-minor pairs inside one
  4x4 principal submatrix.

Also houses the ring maps (epsilon, the two evaluation maps) and the named
generator catalogue with the degree-3 combinations.  Catalogue brackets are
evaluated with the positional sign they carry inside their ambient 4x4
principal submatrix.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import BadParams, BeyondTruncation, DimensionTooSmall
from .hilbert import monomials_of_degree, rref
from .rings import (
    Polynomial,
    RingMap,
    VarKind,
    apply_hom,
    omega_order,
    ring_R,
    ring_U,
    ring_W,
    uvar,
    wvar,
    xvar,
)
from .symmat import SymMatrix, delta, minor2, pcm_pairs


class GeneratorRecord(NamedTuple):
    part: int
    indices: tuple
    provenance: str
    value: Polynomial
    leading: tuple  # a monomial over ring_W(d)


def _record(part, indices, provenance, value) -> GeneratorRecord:
    """The generator with a positive leading coefficient."""
    c, lead = value.leading()
    return GeneratorRecord(part, indices, provenance, -value if c < 0 else value, lead)


def generators_lambda(d: int, part="all") -> tuple:
    """Degree-2 generators of the candidate ideal, deterministic order.

    Built once per (d, part) and process, however ``part`` is passed; a
    tuple, so callers copy before they reorder."""
    return _generators(d, part)


@lru_cache(maxsize=None)
def _generators(d: int, part) -> tuple:
    if d < 4:
        raise DimensionTooSmall(f"need d >= 4, got {d}")
    if part not in (0, 1, 2, "all"):
        raise BadParams(f"part must be 0, 1, 2 or 'all', got {part!r}")
    builders = (_part0, _part1, _part2)
    if part != "all":
        builders = (builders[part],)
    mat = SymMatrix(d, VarKind.W)
    return tuple(record for build in builders for record in build(mat))


def _part0(mat: SymMatrix) -> list:
    out = []
    for P in itertools.combinations(range(1, mat.d + 1), 4):
        i, j, k, l = P
        for rows, cols in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))):
            m = minor2(mat, rows, cols)
            out.append(_record(0, P, m.bracket(), m.value))
    return out


def _part1(mat: SymMatrix) -> list:
    """m - (-1)^(delta m + delta n) n for each A1 minor m = [rows|cols] inside
    a four-set P, with n = [crows|ccols] on the complements in P.

    The selections (rows, cols), (cols, rows), (crows, ccols) and
    (ccols, crows) give one generator up to sign: the matrix is symmetric,
    so transposing both minors changes neither value nor delta, and
    swapping m with n multiplies the difference by -(-1)^(delta m + delta n).
    Their first components are four distinct pairs: a pair is not its
    complement, and rows and cols share exactly one index, which lies in
    neither complement.  The first of the four in lexicographic order is
    the one with the least first component, and only it is kept: (rows,
    cols) with rows < min(cols, crows, ccols).  The least index a of P
    lies in rows or in crows.  If a is in crows, then crows < rows; if a
    is in rows, then crows > rows.  So only the rows (a, x) are visited,
    in lexicographic order, and a selection is kept when
    rows < min(cols, ccols).
    """
    out = []
    for P in itertools.combinations(range(1, mat.d + 1), 4):
        a = P[0]
        for x in P[1:]:
            rows = (a, x)
            crows = tuple(y for y in P if y not in rows)
            for cols in itertools.combinations(P, 2):
                if len(set(rows) & set(cols)) != 1:
                    continue
                ccols = tuple(y for y in P if y not in cols)
                if rows > min(cols, ccols):
                    continue
                m = minor2(mat, rows, cols)
                n = minor2(mat, crows, ccols)
                sign = (-1) ** (delta(m) + delta(n))
                value = m.value - n.value.scale(sign)
                out.append(
                    _record(1, P, f"{m.bracket()} ~ {n.bracket()}", value)
                )
    return out


def _part2(mat: SymMatrix) -> list:
    """(m1 + n1) - (m2 + n2) for each two of the three splittings of a
    four-set into two principal minors.  No two coincide, even up to sign:
    the w_ab^2 terms of [a b] = w_aa w_bb - w_ab^2 never cancel, and they
    name the four-set and both splittings."""
    out = []
    for P in itertools.combinations(range(1, mat.d + 1), 4):
        for pcm in pcm_pairs(P, mat):
            m1, n1 = pcm.pair1
            m2, n2 = pcm.pair2
            value = (m1.value + n1.value) - (m2.value + n2.value)
            prov = (
                f"({m1.bracket()}+{n1.bracket()})-({m2.bracket()}+{n2.bracket()})"
            )
            out.append(_record(2, P, prov, value))
    return out


# -- ring maps ---------------------------------------------------------------


class HomCatalog(NamedTuple):
    """The maps between W, U and the ambient ring for one dimension d,
    each a ``RingMap`` whose memo lives as long as the catalogue."""

    d: int
    epsilon: RingMap
    phi_W: RingMap
    phi_U: RingMap


def quadric_image(d: int, i: int, j: int) -> Polynomial:
    """The quadric the (i,j) fiber variable evaluates to."""
    R = ring_R(d)
    if i != j:
        return R.variable(xvar(i)) * R.variable(xvar(j))
    xi, xd = R.variable(xvar(i)), R.variable(xvar(d))
    return xi * xi - xd * xd


@lru_cache(maxsize=None)
def hom_catalog(d: int) -> HomCatalog:
    if d < 4:
        raise DimensionTooSmall(f"need d >= 4, got {d}")
    W, U, R = ring_W(d), ring_U(d), ring_R(d)
    eps = {}
    phi_w = {}
    u_dd = U.variable(uvar(d, d))
    for v in W.vars:
        i, j = v.index
        if i != j:
            eps[v] = U.variable(uvar(i, j))
        else:
            eps[v] = U.variable(uvar(i, i)) - u_dd
        phi_w[v] = quadric_image(d, i, j)
    phi_u = {
        v: R.variable(xvar(v.index[0])) * R.variable(xvar(v.index[1]))
        for v in U.vars
    }
    return HomCatalog(d, RingMap(eps, U), RingMap(phi_w, R), RingMap(phi_u, R))


def epsilon(f: Polynomial) -> Polynomial:
    """The diagonal-shift embedding of W into U."""
    d = f.ring.d
    return apply_hom(f, hom_catalog(d).epsilon, ring_U(d))


def phi_W(f: Polynomial) -> Polynomial:
    d = f.ring.d
    return apply_hom(f, hom_catalog(d).phi_W, ring_R(d))


def phi_U(f: Polynomial) -> Polynomial:
    d = f.ring.d
    return apply_hom(f, hom_catalog(d).phi_U, ring_R(d))


def check_criterion_c(f: Polynomial, basis: dict) -> bool:
    """True iff epsilon(f), for f of degree at most 2, lies in the
    2x2-minor ideal N of the U-matrix; ``basis`` is ``minor_ideal_U_basis``.

    One pass: for each term c*m of epsilon(f) whose m is a lead, subtract
    c times the row of m.  A reduced row is 0 at every other lead, so each
    subtraction clears its own lead and changes only non-lead columns.
    What remains is the normal form modulo the rows, the degree-2
    truncated reduced Groebner basis of N, so it is zero iff the image
    lies in N (which starts in degree 2): ``normal_form``'s verdict.
    """
    if f.degree() > 2:
        raise BeyondTruncation(f"degree {f.degree()} input against the degree-2 rows")
    terms = epsilon(f).terms
    rest = dict(terms)
    for m, c in terms.items():
        for k, v in basis.get(m, {}).items():
            rest[k] = rest.get(k, 0) - c * v
    return not any(rest.values())


def minor_ideal_U(d: int) -> list:
    """Generators of the 2x2-minor ideal of the symmetric U-matrix."""
    mat = SymMatrix(d, VarKind.U)
    gens = []
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    for a, rows in enumerate(pairs):
        for cols in pairs[a:]:
            gens.append(minor2(mat, rows, cols).value)
    return [g for g in gens if not g.is_zero]


def minor_ideal_U_basis(d: int) -> dict:
    """The degree-2 truncated reduced Groebner basis of the 2x2-minor
    ideal N of the U-matrix under ``omega_order``, as ``{lead: row}``:
    the ``rref`` of the minors, each row and lead read back as monomials.

    Every minor is a quadric, so N_1 = 0 and that basis is the unique
    monic spanning set of N_2 whose leads are distinct and whose other
    terms are not leads.  A pivot of ``echelon`` is a row's least column.
    The columns are numbered in the order of ``monomials_of_degree``,
    which lists the quadrics descending under ``omega_order``, so each
    pivot is its row's greatest monomial: the pivots are in(N)_2, and the
    rows are that basis.  The monomials themselves as the columns would
    make each pivot its row's least monomial.
    """
    cols = monomials_of_degree(ring_U(d), 2)
    colindex = {m: c for c, m in enumerate(cols)}
    reduced = rref({colindex[t]: c for t, c in g.terms.items()} for g in minor_ideal_U(d))
    return {cols[p]: {cols[j]: v for j, v in row.items()} for p, row in reduced.items()}


# -- named generator catalogue ------------------------------------------------
#
# One table, key -> (parameter domain, expansion).  A domain maps d to the
# parameter tuples the key takes, in catalogue order.
#
# A quadric (f, g, h) lives on the principal submatrix [1 2 i j], with
# 3 <= i < j <= d.  Its expansion is written by position 1..4 in [1 2 i j]:
# brackets (sign, rows, cols), and the claimed leading pairs.  Each bracket
# also carries its positional sign (-1)^(sum of positions) inside the
# submatrix, so a principal minor [a b] carries +1.
#
# A cubic (G) maps (d, *params) to its terms (sign, w pair, quadric,
# ambient), meaning sign * w_pair * (the quadric on the principal submatrix
# [ambient]), and its claimed leading pairs.


class CatalogEntry(NamedTuple):
    key: str
    params: tuple
    value: Polynomial
    claimed_leading: tuple  # a monomial over ring_W(d)


def _no_params(d):
    return [()]


def _pairs_from(lo):
    """The pairs lo <= i < j <= d."""
    return lambda d: list(itertools.combinations(range(lo, d + 1), 2))


def _above_3(d):
    return [(j,) for j in range(4, d + 1)]


def _below_d(d):
    return [(i,) for i in range(3, d)]


def _g2f1_params(d):
    """The triples 3 <= i <= j < k <= d."""
    return [
        (i, j, k)
        for i, j in itertools.combinations_with_replacement(range(3, d + 1), 2)
        for k in range(j + 1, d + 1)
    ]


_CATALOGUE = {
    "f1": (_pairs_from(3), ([(1, (1, 2), (3, 4))], [(1, 3), (2, 4)])),
    "f2": (_pairs_from(3), ([(1, (1, 3), (2, 4))], [(2, 3), (1, 4)])),
    "f3": (_pairs_from(3), ([(1, (1, 4), (2, 3))], [(1, 3), (2, 4)])),
    "g1": (_pairs_from(3), ([(1, (2, 3), (2, 4)), (-1, (1, 4), (1, 3))], [(2, 3), (2, 4)])),
    "g2": (_pairs_from(3), ([(1, (3, 4), (2, 3)), (1, (1, 2), (1, 4))], [(3, 3), (2, 4)])),
    "g3": (_pairs_from(3), ([(1, (3, 4), (2, 4)), (-1, (1, 2), (1, 3))], [(2, 4), (3, 4)])),
    "g4": (_pairs_from(3), ([(1, (3, 4), (1, 3)), (-1, (1, 2), (2, 4))], [(3, 3), (1, 4)])),
    "g5": (_pairs_from(3), ([(1, (1, 2), (2, 3)), (1, (3, 4), (1, 4))], [(1, 4), (3, 4)])),
    "g6": (_pairs_from(3), ([(1, (2, 4), (1, 4)), (-1, (1, 3), (2, 3))], [(1, 4), (2, 4)])),
    "h1": (_pairs_from(3), ([(1, (1, 4), (1, 4)), (1, (2, 3), (2, 3)),
                             (-1, (1, 2), (1, 2)), (-1, (3, 4), (3, 4))], [(3, 4), (3, 4)])),
    "h2": (_pairs_from(3), ([(1, (1, 4), (1, 4)), (1, (2, 3), (2, 3)),
                             (-1, (1, 3), (1, 3)), (-1, (2, 4), (2, 4))], [(2, 4), (2, 4)])),
    "G1.F1": (_no_params, lambda d: (
        [(-1, (2, d), "f2", (1, 2, 3, d)), (-1, (2, 3), "g6", (1, 2, 3, d))],
        [(1, 3), (2, 3), (2, 3)])),
    "G1.F2": (_no_params, lambda d: (
        [(-1, (1, d), "f3", (1, 2, 3, d)), (-1, (1, 3), "g6", (1, 2, 3, d))],
        [(1, 3), (1, 3), (2, 3)])),
    "G1.F3": (_no_params, lambda d: (
        [(1, (3, d), "f2", (1, 2, 3, d)), (-1, (2, 3), "g5", (1, 2, 3, d))],
        [(2, 2), (1, 3), (2, 3)])),
    "G1.F4": (_no_params, lambda d: (
        [(1, (1, d), "f2", (1, 2, 3, d)), (1, (2, d), "g1", (1, 2, 3, d)),
         (-1, (2, 3), "h2", (1, 2, 3, d))],
        [(2, 3), (2, 3), (2, 3)])),
    "G1.F5": (_no_params, lambda d: (
        [(1, (3, d), "f3", (1, 2, 3, d)), (1, (1, 3), "g3", (1, 2, 3, d)),
         (-1, (1, 2), "h1", (1, 2, 3, d))],
        [(1, 2), (1, d), (1, d)])),
    "G1.F6": (_no_params, lambda d: (
        [(-1, (3, d), "g1", (1, 2, 3, d)), (1, (2, 3), "g3", (1, 2, 3, d)),
         (1, (1, 3), "g5", (1, 2, 3, d)), (-1, (2, 2), "h1", (1, 2, 3, d))],
        [(2, 2), (1, d), (1, d)])),
    "G2.F1": (_g2f1_params, lambda d, i, j, k: (
        [(1, (2, j), "f3", (1, 2, i, k)), (-1, (1, i), "g1", (1, 2, j, k))],
        [(1, i), (1, j), (1, k)])),
    "G2.F2": (_pairs_from(3), lambda d, i, j: (
        [(-1, (2, j), "f3", (1, 2, i, j)), (-1, (1, i), "h2", (1, 2, i, j))],
        [(1, i), (1, j), (1, j)])),
    "G2.F3": (_above_3, lambda d, j: (
        [(1, (2, j), "g6", (1, 2, 3, j)), (-1, (1, j), "h2", (1, 2, 3, j))],
        [(1, j), (1, j), (1, j)])),
    "G2.F4": (_no_params, lambda d: (
        [(-1, (2, d), "f1", (1, 2, 3, d)), (-1, (2, d), "f2", (1, 2, 3, d)),
         (-1, (1, d), "g1", (1, 2, 3, d)), (-1, (2, 3), "g6", (1, 2, 3, d)),
         (1, (1, 3), "h2", (1, 2, 3, d))],
        [(1, 3), (1, 3), (1, 3)])),
    "G3.F1": (_pairs_from(4), lambda d, i, j: (
        [(1, (1, 3), "f3", (2, 3, i, j)), (-1, (3, j), "f3", (1, 2, 3, i))],
        [(1, 3), (2, 3), (i, j)])),
    "G3.F2": (_above_3, lambda d, j: (
        [(-1, (3, 3), "f3", (1, 2, 3, j)), (1, (1, 3), "g2", (1, 2, 3, j))],
        [(1, 3), (2, 3), (3, j)])),
    "G3.F3": (_below_d, lambda d, i: (
        [(1, (1, i), "g3", (1, 2, i, d)), (1, (2, d), "g4", (1, 2, i, d)),
         (-1, (i, i), "g6", (1, 2, 3, d))],
        [(1, 3), (2, 3), (i, i)])),
    "G4.F1": (_pairs_from(4), lambda d, i, j: (
        [(1, (2, 3), "f2", (2, 3, i, j)), (1, (3, i), "g1", (1, 2, 3, j))],
        [(2, 3), (2, 3), (i, j)])),
    "G4.F2": (_above_3, lambda d, j: (
        [(1, (3, 3), "g1", (1, 2, 3, j)), (1, (2, 3), "g2", (1, 2, 3, j))],
        [(2, 3), (2, 3), (3, j)])),
    "G4.F3": (_below_d, lambda d, i: (
        [(-1, (2, d), "g2", (1, 2, i, d)), (1, (2, i), "g3", (1, 2, i, d)),
         (-1, (1, d), "g4", (1, 2, i, d)), (1, (1, i), "g5", (1, 2, i, d)),
         (-1, (i, i), "h2", (1, 2, 3, d))],
        [(2, 3), (2, 3), (i, i)])),
}


def _quadric(mat: SymMatrix, key: str, ambient: tuple) -> Polynomial:
    """The quadric ``key`` on the principal submatrix [ambient] (increasing)."""
    brackets, _ = _CATALOGUE[key][1]
    value = mat.ring.zero()
    for sign, rows, cols in brackets:
        sign *= (-1) ** sum(rows + cols)
        rows, cols = (tuple(ambient[p - 1] for p in ps) for ps in (rows, cols))
        value = value + minor2(mat, rows, cols).value.scale(sign)
    return value


def named_generator(key: str, params: tuple, d: int) -> CatalogEntry:
    """Machine expansion of a catalogue element plus its claimed leading."""
    if d < 4:
        raise DimensionTooSmall(f"need d >= 4, got {d}")
    if key not in _CATALOGUE:
        raise BadParams(f"unknown catalogue key {key}")
    params = tuple(params)
    if params not in _CATALOGUE[key][0](d):
        raise BadParams(f"invalid parameters {params} for catalogue key {key}")
    return _entry(SymMatrix(d, VarKind.W), key, params)


def _entry(mat: SymMatrix, key: str, params: tuple) -> CatalogEntry:
    """The catalogue element ``key`` at ``params``, valid parameters."""
    W = mat.ring
    expansion = _CATALOGUE[key][1]
    if callable(expansion):  # a cubic
        terms, _ = expansion(mat.d, *params)
        value = W.zero()
        for sign, (a, b), quadric, ambient in terms:
            term = W.variable(wvar(a, b)) * _quadric(mat, quadric, ambient)
            value = value + term.scale(sign)
    else:
        value = _quadric(mat, key, (1, 2, *params))
    return CatalogEntry(key, params, value, _claimed_leading(mat.d, key, params))


def _claimed_leading(d: int, key: str, params: tuple) -> tuple:
    """The claimed leading monomial of ``key`` at ``params``, read off the
    table without expanding the element."""
    expansion = _CATALOGUE[key][1]
    if callable(expansion):  # a cubic
        lead = expansion(d, *params)[1]
    else:
        ambient = (1, 2, *params)
        lead = [(ambient[a - 1], ambient[b - 1]) for a, b in expansion[1]]
    return ring_W(d).monomial_of(*(wvar(a, b) for a, b in lead))


def _valid_entries(d: int):
    """The (key, params) of every catalogue element valid at d, in order."""
    if d < 4:
        raise DimensionTooSmall(f"need d >= 4, got {d}")
    return [
        (key, params)
        for key, (domain, _) in _CATALOGUE.items()
        for params in domain(d)
    ]


@lru_cache(maxsize=None)
def catalogue_entries(d: int) -> tuple:
    """Every catalogue element valid at dimension d, deterministic order.

    Built once per d and process, as ``generators_lambda`` is; a tuple,
    so callers copy before they reorder."""
    mat = SymMatrix(d, VarKind.W)
    return tuple(_entry(mat, key, params) for key, params in _valid_entries(d))


def claimed_leads(d: int) -> frozenset:
    """The claimed leading monomials of the catalogue at d, read off the
    table: ``{e.claimed_leading for e in catalogue_entries(d)}`` with no
    element expanded."""
    return frozenset(
        _claimed_leading(d, key, params) for key, params in _valid_entries(d)
    )


# the two systematic print defects in the source catalogue, kept explicit
DOCUMENTED_ERRATA_KEYS = ("f1", "G2.F1")


def errata_report(d: int) -> list:
    """Catalogue entries whose machine leading monomial differs from the
    catalogued one.  Expected to be empty; anything here is a defect in
    the printed catalogue, never silently patched."""
    bad = []
    for entry in catalogue_entries(d):
        _, lead = entry.value.leading(omega_order(ring_W(d)))
        if lead != entry.claimed_leading:
            bad.append((entry, lead))
    return bad
