"""The quadric ideal I, its powers, syzygies, and the Rees ideal J = L + Lambda*S.

I is generated by the quadrics ``candidate.hom_catalog(d).phi_W``, in the
order of the w variables.  L is the symmetric-algebra part, read off a
basis of the linear syzygies of the generators; Lambda is the fiber part
from ``candidate``.  An elimination oracle computes the full Rees kernel
independently for cross-certification, and ``integrality_witness``
produces the degree-two equation of integrality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from .candidate import epsilon, generators_lambda, hom_catalog
from .groebner import GroebnerBasis, kernel_of_hom
from .hilbert import (
    echelon,
    monomials_of_degree,
    orbit,
    pack,
    parity_classes,
    relations,
    symmetry_generators,
)
from .rings import (
    Polynomial,
    RingMap,
    ring_R,
    ring_Rees,
    ring_S,
    ring_U,
    ring_W,
    transport,
    tvar,
    uvar,
    xvar,
)


def power_check(d: int, k: int) -> bool:
    """True iff k-fold products of the generators span all degree-2k forms.

    The generator g_ij has the class of w_ij in (Z/2)^d
    (``hilbert.parity_classes``), and a product of generators the sum of
    their classes, so the products split into blocks by class, and they
    span the degree-2k forms iff each block beta spans the forms of class
    beta.  Those are the monomials whose odd exponents sit exactly at
    beta: C((2k - |beta|)/2 + d - 1, d - 1) of them, for each even beta
    with |beta| <= 2k.  So the check is one rank per block.

    A permutation s of 1..d-1 acts on R by permuting the x_i, and it maps
    block beta onto block s(beta) when it maps the generator set onto
    itself: the k-fold products are then permuted among themselves.  If
    (1 2) and (1 2 ... d-1), which generate S_{d-1}, both map every g_ij
    to g_s(i)s(j), the blocks of one orbit (``hilbert.orbit``) have one
    rank, and only the representative's is computed.  Otherwise every
    class is its own orbit.

    No relabelling of the columns changes a rank, so each monomial is its
    exponent tuple packed into one int in base 2k + 1 (``hilbert.pack``),
    and the products are formed on the packed terms by ``_packed_product``:
    every exponent of a monomial of degree at most 2k is a digit below the
    base, so the pack of a product of such monomials is the sum of their
    packs.  The packs ascend as the exponent tuples do, so ``echelon``
    picks the pivots the exponent tuples would give.

    ``combinations_with_replacement`` yields the (k-1)-fold prefixes in
    lexicographic order, and a product is its prefix times a last factor
    of index at least the prefix's last.  Each prefix product is formed
    once, if some last factor completes it to a representative class, the
    same left-to-right product as multiplying the combination out.
    """
    base = 2 * k + 1
    catalog = hom_catalog(d).phi_W
    W = ring_W(d)
    classes = parity_classes(W)
    gens, gen_class, by_class = [], [], {}
    for v, g in catalog.items():
        beta = classes[W.index[v]]
        by_class.setdefault(beta, []).append(len(gens))
        gen_class.append(beta)
        gens.append({pack(t, base): c for t, c in g.terms.items()})
    low = (1 << (d - 1)) - 1 if _stable(catalog, W, ring_R(d)) else 0
    counts = {}  # representative class -> its number of degree-2k monomials
    for size in range(0, min(2 * k, d) + 1, 2):
        for odd in itertools.combinations(range(d), size):
            rep, _ = orbit(sum(1 << i for i in odd), low)
            counts[rep] = comb(k - size // 2 + d - 1, d - 1)
    blocks = {beta: [] for beta in counts}
    for head in itertools.combinations_with_replacement(range(len(gens)), k - 1):
        gamma = 0
        for i in head:
            gamma ^= gen_class[i]
        first = head[-1] if head else 0
        prefix = None
        for beta, rows in blocks.items():
            lasts = [gens[i] for i in by_class.get(beta ^ gamma, ()) if i >= first]
            if not lasts:
                continue
            if head and prefix is None:
                prefix = functools.reduce(_packed_product, [gens[i] for i in head])
            rows.extend(_packed_product(prefix, g) if head else g for g in lasts)
    return all(len(echelon(blocks[beta])) == n for beta, n in counts.items())


def _stable(catalog, W, R) -> bool:
    """True iff (1 2) and (1 2 ... d-1) map every generator g_ij, a
    polynomial over R, to the generator g_s(i)s(j) of the image of w_ij."""
    wperms, xperms = symmetry_generators(W), symmetry_generators(R)
    if wperms is None or xperms is None:
        return False
    for wperm, xperm in zip(wperms, xperms):
        for v, g in catalog.items():
            moved = {}
            for t, c in g.terms.items():
                e = [0] * len(t)
                for p, x in enumerate(t):
                    e[xperm[p]] = x
                moved[tuple(e)] = c
            if moved != catalog[W.vars[wperm[W.index[v]]]].terms:
                return False
    return True


def _packed_product(f: dict, g: dict) -> dict:
    """The terms of the product of two packed term dicts, zeros dropped:
    ``rings``' product of term dicts, with a sum of ints for a monomial
    product (see ``power_check`` for when that is exact)."""
    terms: dict = {}
    get = terms.get
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            terms[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in terms.items() if c}


def linear_syzygies(d: int) -> tuple:
    """A basis of the linear syzygies of the generators g_k of I.

    Each column is a tuple of linear forms (a_k), one per generator, with
    sum a_k * g_k = 0: the ``relations`` among the products m * g_k, m a
    variable, ordered by generator and then by m (deterministic columns).
    """
    gens = tuple(hom_catalog(d).phi_W.values())
    R = ring_R(d)
    unknowns = [(k, m) for k in range(len(gens)) for m in monomials_of_degree(R, 1)]
    products = [Polynomial(R, {m: 1}) * gens[k] for k, m in unknowns]
    columns = []
    for vec in relations(products, range(len(products))).values():
        forms = [{} for _ in gens]
        for s, a in vec.items():
            k, m = unknowns[s]
            forms[k][m] = a
        columns.append(tuple(Polynomial(R, f) for f in forms))
    return tuple(columns)


def sym_algebra_ideal(d: int) -> list:
    """Entries of w . theta: the defining ideal of the symmetric algebra."""
    S = ring_S(d)
    wpolys = [S.variable(v) for v in ring_W(d).vars]
    out = []
    for col in linear_syzygies(d):
        entry = S.zero()
        for wp, form in zip(wpolys, col):
            if not form.is_zero:
                entry = entry + wp * transport(form, S)
        out.append(entry)
    return out


def rees_ideal(d: int) -> list:
    """Generators of J = L + Lambda*S over S = R[w]."""
    S = ring_S(d)
    out = list(sym_algebra_ideal(d))
    out.extend(transport(g.value, S) for g in generators_lambda(d))
    return out


def rees_substitution(d: int) -> RingMap:
    """The map S -> R[t] with x fixed and w_ij -> t*g_ij, over
    ``ring_Rees(d)``; the quadrics g_ij are ``hom_catalog(d).phi_W``.

    A new ``RingMap`` per call, whose memo goes with it."""
    T = ring_Rees(d)
    t = T.variable(tvar())
    hom = {v: T.variable(v) for v in ring_R(d).vars}
    for v, g in hom_catalog(d).phi_W.items():
        hom[v] = t * transport(g, T)
    return RingMap(hom, T)


def rees_kernel_oracle(d: int, deadline: float | None = None) -> GroebnerBasis:
    """Kernel of S -> R[t], ``rees_substitution``: its reduced basis under
    ``omega_order(ring_S(d))``, by ``groebner.kernel_of_hom``, which
    eliminates t.  The x map to themselves and the images use only x and
    t, as its precondition asks.  Raises BudgetExceeded (with partial
    state) once ``deadline`` passes.
    """
    return kernel_of_hom(ring_S(d), ring_Rees(d), rees_substitution(d), deadline)


@dataclass(frozen=True)
class IntegralityWitness:
    d: int
    combo: Polynomial  # degree-2 polynomial over W with phi_W(combo) = x_d^4
    h: Polynomial  # u_dd^2 - epsilon(combo), over U


def integrality_witness(d: int) -> IntegralityWitness:
    """The degree-two equation of integrality for u_dd over the fiber.

    Solves phi_W(sum a_s m_s) = x_d^4 over the degree-2 monomials of W:
    the relation among their images and x_d^4 that has 1 at x_d^4 and 0
    at every other free column (``relations``; deterministic).  Only
    that column's vector is built.
    """
    phi = hom_catalog(d).phi_W
    W, R, U = ring_W(d), ring_R(d), ring_U(d)
    wmons = monomials_of_degree(W, 2)
    images = []
    for m in wmons:
        support = [p for p, e in enumerate(m) if e]  # one position for a square
        images.append(phi[W.vars[support[0]]] * phi[W.vars[support[-1]]])
    rhs = len(wmons)
    images.append(Polynomial(R, {R.monomial_of(*[xvar(d)] * 4): 1}))
    vec = relations(images, (rhs,)).get(rhs)
    if vec is None:
        raise ArithmeticError("x_d^4 is not in the span of the quadric products")
    combo = Polynomial(W, {wmons[s]: -a for s, a in vec.items() if s != rhs})
    udd2 = U.monomial_of(uvar(d, d), uvar(d, d))
    h = Polynomial(U, {udd2: 1}) - epsilon(combo)
    return IntegralityWitness(d, combo, h)
