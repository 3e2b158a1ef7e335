"""Monomial censuses of the initial ideal in degrees 2 and 3.

Everything here is pure enumeration from the definitions, kept independent
of the Groebner engine so the truncated-basis computation can serve as a
cross-check rather than the source.

Degree 2: K0 (four distinct indices), K1 (one shared index), K2 (squares).
Degree 3: the T-sets partition the multiples of the degree-2 census by
their tau-greatest factorization; the G-families are the listed monomials
not divisible by any degree-2 census element.

A monomial is its position multiset over ``ring_W(d)``, so a degree-3
monomial is the sorted position triple the T sets are built from.  The
census orders variables by tau, the key (max index, min index) of w_ij,
and a factor pair (w_ij, w_kl) with w_kl <= w_ij by (tau(w_ij),
tau(w_kl)) lexicographically.  It compares positions in ``ring_W(d)`` instead:
that ring lists its variables sorted by tau, and no two variables share
a key (the key determines the index pair), so tau(a) <= tau(b) exactly
when pos(a) <= pos(b), and pairs compare as their positions do.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from numbers import Rational

from .errors import BadParams, NotInS, OutOfTable
from .hilbert import hf_closed
from .rings import omega_order, ring_W, wvar


@dataclass(frozen=True)
class CensusSet:
    family: str
    d: int
    params: tuple
    members: frozenset
    expected: int | None = None


def _wm(d, *vids) -> tuple:
    return ring_W(d).monomial_of(*vids)


@lru_cache(maxsize=None)
def census_degree2(d: int) -> frozenset:
    """[in]_2 = K0 + K1 + K2, enumerated straight from the definitions."""
    return frozenset().union(*(members for _, members in _k_sets(d)))


@lru_cache(maxsize=None)
def _k_sets(d: int) -> tuple:
    """``(family, members)`` for each degree-2 family, enumerated once
    per d: the census and ``verify_census``'s counts read them here."""
    return tuple((f, enum_census(d, f).members) for f in _BY_DEGREE[2])


def _k0(d):
    out = set()
    for i, j, k, l in itertools.combinations(range(1, d + 1), 4):
        out.add(_wm(d, wvar(i, k), wvar(j, l)))
        out.add(_wm(d, wvar(i, l), wvar(j, k)))
    return out


def _k1(d):
    key = omega_order(ring_W(d)).key
    out = set()
    for i, j in itertools.combinations(range(1, d + 1), 2):
        comp = sorted(set(range(1, d + 1)) - {i, j})
        for l in comp[1:]:
            if l == d:
                # the w_ij*w_dd candidate vanishes with the missing corner
                out.add(_wm(d, wvar(i, d), wvar(j, d)))
            else:
                m1 = _wm(d, wvar(j, l), wvar(i, l))
                m2 = _wm(d, wvar(i, j), wvar(l, l))
                out.add(m1 if key(m1) > key(m2) else m2)
    return out


def _k2(d):
    out = set()
    for i in range(2, d + 1):
        for j in range(max(i + 1, 4), d + 1):
            out.add(_wm(d, wvar(i, j), wvar(i, j)))
    return out


@lru_cache(maxsize=None)
def s_set(d: int, i: int, j: int) -> frozenset:
    """Variables w_kl with w_kl * w_ij in the degree-2 census, w_kl <= w_ij."""
    if not (1 <= i <= j <= d) or (i, j) == (d, d):
        raise BadParams(f"S needs a valid variable pair, got {(i, j)}")
    W = ring_W(d)
    q = W.position(wvar(i, j))
    pairs = census_degree2(d)
    return frozenset(W.vars[p] for p in range(q + 1) if (p, q) in pairs)


def t_set(d: int, ij: tuple, kl: tuple) -> frozenset:
    """The degree-3 monomials charged to the factor pair (w_ij, w_kl).

    A multiple of the degree-2 census belongs to the tau-greatest pair
    that divides it; this makes the T-sets a partition of those multiples.
    The pairs are the census elements w_kl * w_ij, w_kl <= w_ij (so
    w_kl is in S_ij).  See ``_t_triples`` for how each is found.
    """
    if wvar(*kl) not in s_set(d, *ij):
        raise NotInS(f"w{kl} is not in S_{ij} at d={d}")
    W = ring_W(d)
    return _t_triples(d, W.position(wvar(*kl)), W.position(wvar(*ij)))


def _t_triples(d: int, p: int, q: int) -> frozenset:
    """``t_set`` for the census pair at positions (p, q), p <= q.

    As positions, factor pairs compare by q, then p; a monomial at
    positions x <= y <= z has the factor pairs (y, z) >= (x, z) >= (x, y),
    so it belongs to the first in the census.  With the third position r,
    the triple and its claim follow from where r falls, with no sort:
    r < p gives (r, p, q), whose first pair is (p, q) itself;
    p <= r <= q gives (p, r, q), which (p, q) gets when r = p or (r, q)
    is not in the census; q < r gives (p, q, r), which (p, q) gets when
    neither (q, r) nor (p, r) is.
    """
    pairs = census_degree2(d)
    out = [(r, p, q) for r in range(p)]
    out += [(p, r, q) for r in range(p, q + 1) if r == p or (r, q) not in pairs]
    out += [
        (p, q, r)
        for r in range(q + 1, ring_W(d).nvars)
        if (q, r) not in pairs and (p, r) not in pairs
    ]
    return frozenset(out)


def t_total(d: int) -> frozenset:
    """All degree-3 monomials divisible by a degree-2 census element."""
    n = ring_W(d).nvars
    return frozenset(
        tuple(sorted((p, q, r))) for p, q in census_degree2(d) for r in range(n)
    )


def _g1(d):
    w13, w23, w22, w12, w1d = wvar(1, 3), wvar(2, 3), wvar(2, 2), wvar(1, 2), wvar(1, d)
    return {
        _wm(d, w13, w23, w23),
        _wm(d, w13, w13, w23),
        _wm(d, w22, w13, w23),
        _wm(d, w23, w23, w23),
        _wm(d, w12, w1d, w1d),
        _wm(d, w22, w1d, w1d),
    }


def _g2(d):
    return {
        _wm(d, wvar(1, i), wvar(1, j), wvar(1, k))
        for i, j, k in itertools.combinations_with_replacement(range(3, d + 1), 3)
    }


def _g34(d, *prefix):
    """The product of the prefix pairs' variables with each w_ij,
    3 <= i <= j, but w_dd."""
    out = set()
    for i in range(3, d + 1):
        for j in range(i, d + 1):
            if (i, j) == (d, d):
                continue
            out.add(_wm(d, *(wvar(*p) for p in prefix), wvar(i, j)))
    return out


def _tmax(d, ij):
    sij = s_set(d, *ij)
    if not sij:
        raise NotInS(f"S_{ij} is empty at d={d}")
    return t_set(d, ij, max(sij, key=ring_W(d).position).index)


def _exact_quotient(num, den: int, family: str) -> int:
    """``num / den`` for a closed form whose numerator ``den`` must divide.

    Raises ArithmeticError otherwise, which for integer parameters would
    mean the closed form is wrong.
    """
    if num % den:
        raise ArithmeticError(f"closed form for {family} is not integral: {num}/{den}")
    return num // den


def _s_size(d, ij):
    i, j = ij
    if i == j or (i, j) in ((1, 2), (1, 3), (2, 3)):
        return 0
    if i == 1:
        return j * (j - 3) // 2
    if 1 < i < j:
        return (j - i) * (i + j - 1) // 2
    raise OutOfTable(f"no closed form for S at {ij}")


def _tmax_size(d, ij):
    i, j = ij
    num = d * d - 2 * d * j + 3 * d + 2 * j * j - 4 * j + 2 * i
    return _exact_quotient(num, 2, "Tmax")


def _ttotal_size(d):
    num = (
        14 * d**6 + 30 * d**5 - 40 * d**4 - 330 * d**3
        - 694 * d**2 + 1740 * d - 4320
    )
    return _exact_quotient(num, 720, "Ttotal")


def _gsum_size(d):
    num = 120 * d**3 + 360 * d**2 - 1920 * d + 4320
    return _exact_quotient(num, 720, "Gsum")


@dataclass(frozen=True)
class Family:
    """One census family: its params hold ``pairs`` index pairs, none,
    ``(i, j)`` or ``((i, j), (k, l))``; ``enum`` and ``closed`` map
    ``(d, *pairs)`` to the members and their closed-form count, or are
    None where the family has none."""

    pairs: int
    enum: Callable | None
    closed: Callable | None


FAMILIES = {
    "K0": Family(0, _k0, lambda d: 2 * comb(d, 4)),
    "K1": Family(0, _k1, lambda d: (d - 3) * comb(d, 2)),
    "K2": Family(0, _k2, lambda d: d * (d - 3) // 2),
    "S": Family(1, lambda d, ij: {_wm(d, v) for v in s_set(d, *ij)}, _s_size),
    "Tkl": Family(2, t_set, None),
    "Tmax": Family(1, _tmax, _tmax_size),
    "Ttotal": Family(0, t_total, _ttotal_size),
    "G1": Family(0, _g1, lambda d: 6),
    "G2": Family(0, _g2, lambda d: (d - 2) + (d - 2) * (d - 3) + comb(d - 2, 3)),
    "G3": Family(0, lambda d: _g34(d, (1, 3), (2, 3)), lambda d: d * (d - 3) // 2),
    "G4": Family(0, lambda d: _g34(d, (2, 3), (2, 3)), lambda d: d * (d - 3) // 2),
    "Gsum": Family(0, None, _gsum_size),
}


def _pairs(family: str, row: Family, params) -> tuple:
    """``params`` as the tuple of index pairs the family's row takes."""
    params = tuple(params)
    pairs = (params,) if row.pairs == 1 else params
    if len(pairs) != row.pairs or not all(
        isinstance(p, (tuple, list)) and len(p) == 2
        and all(isinstance(x, Rational) for x in p)
        for p in pairs
    ):
        raise BadParams(f"{family} takes {row.pairs} index pair(s), got {params}")
    return tuple(tuple(p) for p in pairs)


def enum_census(d: int, family: str, params: tuple = ()) -> CensusSet:
    """Enumerate one census family; see count_closed for expected sizes."""
    if d < 4:
        raise BadParams(f"census needs d >= 4, got {d}")
    row = FAMILIES.get(family)
    if row is None or row.enum is None:
        raise BadParams(f"unknown census family {family!r}")
    pairs = _pairs(family, row, params)
    members = frozenset(row.enum(d, *pairs))
    expected = row.closed(d, *pairs) if row.closed else None
    return CensusSet(family, d, pairs[0] if row.pairs == 1 else pairs, members, expected)


def count_closed(d: int, family: str, params: tuple = ()) -> int:
    """Closed-form census sizes; OutOfTable where no formula applies."""
    row = FAMILIES.get(family)
    if row is None or row.closed is None:
        raise OutOfTable(f"no closed form for {family!r} at {tuple(params)}")
    return row.closed(d, *_pairs(family, row, params))


# The families whose closed forms add up to the census of each degree:
# the K sets in degree 2; the T partition and the G families in degree 3.
_BY_DEGREE = {2: ("K0", "K1", "K2"), 3: ("Ttotal", "Gsum")}


def census_size(d: int, k: int) -> int:
    """The closed-form size of the degree-k census, k = 2 or 3."""
    if k not in _BY_DEGREE:
        raise OutOfTable(f"the census has degrees 2 and 3, got {k}")
    return sum(count_closed(d, f) for f in _BY_DEGREE[k])


@dataclass
class CensusReport:
    """``checks`` holds one ``(name, expected, actual)`` row per claim."""

    d: int
    checks: list

    @property
    def ok(self) -> bool:
        return all(expected == actual for _, expected, actual in self.checks)


def verify_census(d: int) -> CensusReport:
    """Every closed-form count and structural claim, as one report."""
    W = ring_W(d)
    checks = []

    def check(name, expected, actual):
        checks.append((name, expected, actual))

    for fam, members in _k_sets(d):
        check(f"|{fam}|", count_closed(d, fam), len(members))
    check("degree-2 census size", hf_closed("IX2", d), len(census_degree2(d)))

    svals = {}
    for j in range(1, d + 1):
        for i in range(1, j + 1):
            if (i, j) != (d, d):
                svals[(i, j)] = s_set(d, i, j)
                check(f"|S_{i}{j}|", count_closed(d, "S", (i, j)), len(svals[(i, j)]))
    nonempty = [ij for ij, sij in svals.items() if sij]

    # membership characterizations by largest variable divisor
    char_ok = True
    for (i, j), sij in svals.items():
        for v in W.vars:
            k, l = v.index
            if i == 1 and 1 < j:
                expect = 1 < k and 2 < l < j
            elif 1 < i < j:
                expect = (i < l < j) or (l == j and k <= i)
            else:
                expect = False
            if (i, j) in ((1, 2), (1, 3), (2, 3)) or i == j:
                expect = False
            if (v in sij) != expect:
                char_ok = False
    check("S membership characterization", True, char_ok)

    # every T-set, built once per factor pair (w_ij, w_kl) with w_kl in S_ij
    tsets = {
        (ij, v.index): _t_triples(d, W.position(v), W.position(wvar(*ij)))
        for ij in nonempty
        for v in svals[ij]
    }
    for i, j in nonempty:
        mx = max(svals[(i, j)], key=W.position)
        expect = wvar(j - 1, j - 1) if i == 1 else wvar(i, j)
        check(f"max S_{i}{j}", expect, mx)
        check(
            f"|Tmax_{i}{j}|",
            count_closed(d, "Tmax", (i, j)),
            len(tsets[((i, j), mx.index)]),
        )

    all_t = []
    total = 0
    for i, j in nonempty:
        sij = sorted(svals[(i, j)], key=W.position, reverse=True)
        sizes = [len(tsets[((i, j), v.index)]) for v in sij]
        tmax = count_closed(d, "Tmax", (i, j))
        check(
            f"T_{i}{j} consecutive sizes",
            list(range(tmax, tmax - len(sij), -1)),
            sizes,
        )
        check(
            f"T_{i}{j} partial sum",
            len(sij) * (2 * tmax - len(sij) + 1) // 2,
            sum(sizes),
        )
        total += sum(sizes)
        all_t.extend(tsets[((i, j), v.index)] for v in sij)

    check("|T| closed form", count_closed(d, "Ttotal"), total)
    union = set().union(*all_t)
    check("T sets disjoint", total, len(union))
    check("T sets cover the census multiples", True, t_total(d) == union)

    gsets = {fam: enum_census(d, fam).members for fam in ("G1", "G2", "G3", "G4")}
    for fam, members in gsets.items():
        check(f"|{fam}|", count_closed(d, fam), len(members))
    gall = set().union(*gsets.values())
    gtotal = sum(len(g) for g in gsets.values())
    check("G sets disjoint", gtotal, len(gall))
    check("G disjoint from T", set(), gall & union)
    check("Gsum closed form", count_closed(d, "Gsum"), gtotal)

    from .candidate import claimed_leads

    claimed = claimed_leads(d)
    missing = {m for m in gall if m not in claimed}
    check("every G monomial is a claimed catalogue lead", set(), missing)

    return CensusReport(d, checks)
