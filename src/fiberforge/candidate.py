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
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParams, DimensionTooSmall
from .rings import (
    Polynomial,
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
from .symmat import SymMatrix, delta, minor2, pcm_pairs, principal_minor


@dataclass(frozen=True)
class GeneratorRecord:
    part: int
    indices: tuple
    provenance: str
    value: Polynomial
    leading: tuple  # exponents over ring_W(d)


def _sign_normalized(f: Polynomial) -> Polynomial:
    c, _ = f.leading()
    return -f if c < 0 else f


def _record(part, indices, provenance, value) -> GeneratorRecord:
    value = _sign_normalized(value)
    _, lead = value.leading()
    return GeneratorRecord(part, indices, provenance, value, lead)


def generators_lambda(d: int, part="all") -> list:
    """Degree-2 generators of the candidate ideal, deterministic order."""
    if d < 4:
        raise DimensionTooSmall(f"need d >= 4, got {d}")
    if part not in (0, 1, 2, "all"):
        raise BadParams(f"part must be 0, 1, 2 or 'all', got {part!r}")
    mat = SymMatrix(d, VarKind.W)
    records = []
    if part in (0, "all"):
        records.extend(_part0(mat))
    if part in (1, "all"):
        records.extend(_part1(mat))
    if part in (2, "all"):
        records.extend(_part2(mat))
    return records


def _part0(mat: SymMatrix) -> list:
    out = []
    for P in itertools.combinations(range(1, mat.d + 1), 4):
        i, j, k, l = P
        for rows, cols in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))):
            m = minor2(mat, rows, cols)
            out.append(_record(0, P, m.bracket(), m.value))
    return out


def _part1(mat: SymMatrix) -> list:
    out = []
    seen = set()
    for P in itertools.combinations(range(1, mat.d + 1), 4):
        for rows in itertools.combinations(P, 2):
            for cols in itertools.combinations(P, 2):
                if len(set(rows) & set(cols)) != 1:
                    continue
                m = minor2(mat, rows, cols)
                crows = tuple(sorted(set(P) - set(rows)))
                ccols = tuple(sorted(set(P) - set(cols)))
                n = minor2(mat, crows, ccols)
                sign = (-1) ** (delta(m) + delta(n))
                value = m.value - n.value.scale(sign)
                key = frozenset(_sign_normalized(value).terms.items())
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    _record(1, P, f"{m.bracket()} ~ {n.bracket()}", value)
                )
    return out


def _part2(mat: SymMatrix) -> list:
    out = []
    seen = set()
    for P in itertools.combinations(range(1, mat.d + 1), 4):
        for pcm in pcm_pairs(P, mat):
            m1, n1 = pcm.pair1
            m2, n2 = pcm.pair2
            value = (m1.value + n1.value) - (m2.value + n2.value)
            key = frozenset(_sign_normalized(value).terms.items())
            if key in seen:
                continue
            seen.add(key)
            prov = (
                f"({m1.bracket()}+{n1.bracket()})-({m2.bracket()}+{n2.bracket()})"
            )
            out.append(_record(2, P, prov, value))
    return out


# -- ring maps ---------------------------------------------------------------


@dataclass(frozen=True)
class HomCatalog:
    """The maps between W, U and the ambient ring for one dimension d."""

    d: int
    epsilon: dict
    phi_W: dict
    phi_U: dict


def quadric_image(d: int, i: int, j: int) -> Polynomial:
    """The quadric the (i,j) fiber variable evaluates to."""
    R = ring_R(d)
    if i != j:
        return R.variable(xvar(i)) * R.variable(xvar(j))
    xi, xd = R.variable(xvar(i)), R.variable(xvar(d))
    return xi * xi - xd * xd


@lru_cache(maxsize=None)
def hom_catalog(d: int) -> HomCatalog:
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
    return HomCatalog(d, eps, phi_w, phi_u)


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


def check_criterion_c(f: Polynomial, gbN) -> bool:
    """True iff the image of f under epsilon reduces to zero modulo the
    2x2-minor ideal of the U-matrix (a sufficient membership test)."""
    from .groebner import normal_form

    if f.is_zero:
        return True
    return normal_form(epsilon(f), gbN).is_zero


def minor_ideal_U(d: int) -> list:
    """Generators of the 2x2-minor ideal of the symmetric U-matrix."""
    mat = SymMatrix(d, VarKind.U)
    gens = []
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    for a, rows in enumerate(pairs):
        for cols in pairs[a:]:
            gens.append(minor2(mat, rows, cols).value)
    return [g for g in gens if not g.is_zero]


# -- named generator catalogue ------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    params: tuple
    value: Polynomial
    claimed_leading: tuple  # exponents over ring_W(d)


def _signed_bracket(mat: SymMatrix, ambient, rows, cols) -> Polynomial:
    """Minor with the positional sign it carries inside [ambient;]."""
    pos = {idx: p + 1 for p, idx in enumerate(sorted(ambient))}
    sign = (-1) ** (
        pos[rows[0]] + pos[rows[1]] + pos[cols[0]] + pos[cols[1]]
    )
    return minor2(mat, rows, cols).value.scale(sign)


def _wmono(d, *pairs) -> tuple:
    return ring_W(d).monomial_of(*(wvar(i, j) for i, j in pairs))


def _require(cond, key, params):
    if not cond:
        raise BadParams(f"invalid parameters {params} for catalogue key {key}")


def _base_entry(mat: SymMatrix, key: str, i: int, j: int):
    """The f/g/h families over the principal submatrix on {1,2,i,j}."""
    d = mat.d
    amb = (1, 2, i, j)

    def br(rows, cols):
        return _signed_bracket(mat, amb, rows, cols)

    if key == "f1":
        return br((1, 2), (i, j)), _wmono(d, (1, i), (2, j))
    if key == "f2":
        return br((1, i), (2, j)), _wmono(d, (2, i), (1, j))
    if key == "f3":
        return br((1, j), (2, i)), _wmono(d, (1, i), (2, j))
    if key == "g1":
        return br((2, i), (2, j)) - br((1, j), (1, i)), _wmono(d, (2, i), (2, j))
    if key == "g2":
        return br((i, j), (2, i)) + br((1, 2), (1, j)), _wmono(d, (i, i), (2, j))
    if key == "g3":
        return br((i, j), (2, j)) - br((1, 2), (1, i)), _wmono(d, (2, j), (i, j))
    if key == "g4":
        return br((i, j), (1, i)) - br((1, 2), (2, j)), _wmono(d, (i, i), (1, j))
    if key == "g5":
        return br((1, 2), (2, i)) + br((i, j), (1, j)), _wmono(d, (1, j), (i, j))
    if key == "g6":
        return br((2, j), (1, j)) - br((1, i), (2, i)), _wmono(d, (1, j), (2, j))

    def pm(a, b):
        return principal_minor(mat, a, b).value

    if key == "h1":
        return (pm(1, j) + pm(2, i)) - (pm(1, 2) + pm(i, j)), _wmono(d, (i, j), (i, j))
    if key == "h2":
        return (pm(1, j) + pm(2, i)) - (pm(1, i) + pm(2, j)), _wmono(d, (2, j), (2, j))
    raise BadParams(f"unknown catalogue key {key}")


_BASE_KEYS = ("f1", "f2", "f3", "g1", "g2", "g3", "g4", "g5", "g6", "h1", "h2")


def named_generator(key: str, params: tuple, d: int) -> CatalogEntry:
    """Machine expansion of a catalogue element plus its claimed leading."""
    if d < 4:
        raise DimensionTooSmall(f"need d >= 4, got {d}")
    mat = SymMatrix(d, VarKind.W)
    params = tuple(params)

    if key in _BASE_KEYS:
        _require(len(params) == 2, key, params)
        i, j = params
        _require(3 <= i < j <= d, key, params)
        value, lead = _base_entry(mat, key, i, j)
        return CatalogEntry(key, params, value, lead)

    W = ring_W(d)

    def wv(a, b):
        return W.variable(wvar(a, b))

    def base(k, i, j):
        return _base_entry(mat, k, i, j)[0]

    if key.startswith("G1."):
        _require(params == (), key, params)
        f2 = base("f2", 3, d)
        f3 = base("f3", 3, d)
        g1 = base("g1", 3, d)
        g3 = base("g3", 3, d)
        g5 = base("g5", 3, d)
        g6 = base("g6", 3, d)
        h1 = base("h1", 3, d)
        h2 = base("h2", 3, d)
        table = {
            "G1.F1": (-wv(2, d) * f2 - wv(2, 3) * g6, ((1, 3), (2, 3), (2, 3))),
            "G1.F2": (-wv(1, d) * f3 - wv(1, 3) * g6, ((1, 3), (1, 3), (2, 3))),
            "G1.F3": (wv(3, d) * f2 - wv(2, 3) * g5, ((2, 2), (1, 3), (2, 3))),
            "G1.F4": (
                wv(1, d) * f2 + wv(2, d) * g1 - wv(2, 3) * h2,
                ((2, 3), (2, 3), (2, 3)),
            ),
            "G1.F5": (
                wv(3, d) * f3 + wv(1, 3) * g3 - wv(1, 2) * h1,
                ((1, 2), (1, d), (1, d)),
            ),
            "G1.F6": (
                -wv(3, d) * g1 + wv(2, 3) * g3 + wv(1, 3) * g5 - wv(2, 2) * h1,
                ((2, 2), (1, d), (1, d)),
            ),
        }
        if key not in table:
            raise BadParams(f"unknown catalogue key {key}")
        value, lead_pairs = table[key]
        return CatalogEntry(key, params, value, _wmono(d, *lead_pairs))

    if key == "G2.F1":
        _require(len(params) == 3, key, params)
        i, j, k = params
        _require(3 <= i <= j < k <= d, key, params)
        value = wv(2, j) * base("f3", i, k) - wv(1, i) * base("g1", j, k)
        return CatalogEntry(key, params, value, _wmono(d, (1, i), (1, j), (1, k)))
    if key == "G2.F2":
        _require(len(params) == 2, key, params)
        i, j = params
        _require(3 <= i < j <= d, key, params)
        value = -wv(2, j) * base("f3", i, j) - wv(1, i) * base("h2", i, j)
        return CatalogEntry(key, params, value, _wmono(d, (1, i), (1, j), (1, j)))
    if key == "G2.F3":
        _require(len(params) == 1, key, params)
        (j,) = params
        _require(3 < j <= d, key, params)
        value = wv(2, j) * base("g6", 3, j) - wv(1, j) * base("h2", 3, j)
        return CatalogEntry(key, params, value, _wmono(d, (1, j), (1, j), (1, j)))
    if key == "G2.F4":
        _require(params == (), key, params)
        value = (
            -wv(2, d) * base("f1", 3, d)
            - wv(2, d) * base("f2", 3, d)
            - wv(1, d) * base("g1", 3, d)
            - wv(2, 3) * base("g6", 3, d)
            + wv(1, 3) * base("h2", 3, d)
        )
        return CatalogEntry(key, params, value, _wmono(d, (1, 3), (1, 3), (1, 3)))

    if key == "G3.F1":
        _require(len(params) == 2, key, params)
        i, j = params
        _require(3 < i < j <= d, key, params)
        extra = _signed_bracket(mat, (2, 3, i, j), (2, j), (3, i))
        value = wv(1, 3) * extra - wv(3, j) * base("f3", 3, i)
        return CatalogEntry(key, params, value, _wmono(d, (1, 3), (2, 3), (i, j)))
    if key == "G3.F2":
        _require(len(params) == 1, key, params)
        (j,) = params
        _require(3 < j <= d, key, params)
        value = -wv(3, 3) * base("f3", 3, j) + wv(1, 3) * base("g2", 3, j)
        return CatalogEntry(key, params, value, _wmono(d, (1, 3), (2, 3), (3, j)))
    if key == "G3.F3":
        _require(len(params) == 1, key, params)
        (i,) = params
        _require(3 <= i < d, key, params)
        value = (
            wv(1, i) * base("g3", i, d)
            + wv(2, d) * base("g4", i, d)
            - wv(i, i) * base("g6", 3, d)
        )
        return CatalogEntry(key, params, value, _wmono(d, (1, 3), (2, 3), (i, i)))

    if key == "G4.F1":
        _require(len(params) == 2, key, params)
        i, j = params
        _require(3 < i < j <= d, key, params)
        extra = _signed_bracket(mat, (2, 3, i, j), (2, i), (3, j))
        value = wv(2, 3) * extra + wv(3, i) * base("g1", 3, j)
        return CatalogEntry(key, params, value, _wmono(d, (2, 3), (2, 3), (i, j)))
    if key == "G4.F2":
        _require(len(params) == 1, key, params)
        (j,) = params
        _require(3 < j <= d, key, params)
        value = wv(3, 3) * base("g1", 3, j) + wv(2, 3) * base("g2", 3, j)
        return CatalogEntry(key, params, value, _wmono(d, (2, 3), (2, 3), (3, j)))
    if key == "G4.F3":
        _require(len(params) == 1, key, params)
        (i,) = params
        _require(3 <= i < d, key, params)
        value = (
            -wv(2, d) * base("g2", i, d)
            + wv(2, i) * base("g3", i, d)
            - wv(1, d) * base("g4", i, d)
            + wv(1, i) * base("g5", i, d)
            - wv(i, i) * base("h2", 3, d)
        )
        return CatalogEntry(key, params, value, _wmono(d, (2, 3), (2, 3), (i, i)))

    raise BadParams(f"unknown catalogue key {key}")


def catalogue_entries(d: int) -> list:
    """Every catalogue element valid at dimension d, deterministic order."""
    entries = []
    for key in _BASE_KEYS:
        for i in range(3, d):
            for j in range(i + 1, d + 1):
                entries.append(named_generator(key, (i, j), d))
    for n in range(1, 7):
        entries.append(named_generator(f"G1.F{n}", (), d))
    for i in range(3, d + 1):
        for j in range(i, d + 1):
            for k in range(j + 1, d + 1):
                entries.append(named_generator("G2.F1", (i, j, k), d))
    for i in range(3, d):
        for j in range(i + 1, d + 1):
            entries.append(named_generator("G2.F2", (i, j), d))
    for j in range(4, d + 1):
        entries.append(named_generator("G2.F3", (j,), d))
    entries.append(named_generator("G2.F4", (), d))
    for i in range(4, d):
        for j in range(i + 1, d + 1):
            entries.append(named_generator("G3.F1", (i, j), d))
            entries.append(named_generator("G4.F1", (i, j), d))
    for j in range(4, d + 1):
        entries.append(named_generator("G3.F2", (j,), d))
        entries.append(named_generator("G4.F2", (j,), d))
    for i in range(3, d):
        entries.append(named_generator("G3.F3", (i,), d))
        entries.append(named_generator("G4.F3", (i,), d))
    return entries


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
