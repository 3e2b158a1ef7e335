"""The quadric ideal I, its powers, syzygies, and the Rees ideal J = L + Lambda*S.

I is generated by the quadrics ``candidate.hom_catalog(d).phi_W``, in the
order of the w variables.  L is the symmetric-algebra part, read off a
basis of the linear syzygies of the generators; Lambda is the fiber part
from ``candidate``.  J is claimed to be the kernel of
``rees_substitution``, and ``integrality_witness`` produces the
degree-two equation of integrality.  This module is on the rank route
and never loads the Groebner engine: ``cli`` alone hands
``rees_substitution`` to ``groebner.kernel_of_hom`` for the elimination
oracle, so the two routes stay independent.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .candidate import epsilon, generators_lambda, hom_catalog
from .hilbert import monomials_of_degree, power_dim, relations
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


def power_check(d: int, k: int, deadline=None) -> bool:
    """True iff the k-fold products of the generators span all degree-2k
    forms, I^k = m^{2k}: iff their span, counted by parity blocks and
    S_{d-1}-orbits (``hilbert.power_dim``), has dimension
    C(2k + d - 1, 2k), the number of degree-2k monomials; the count reads
    ``deadline``."""
    gens = list(hom_catalog(d).phi_W.values())
    return power_dim(gens, k, deadline) == comb(2 * k + d - 1, 2 * k)


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
    The x map to themselves and the images use only x and t, as
    ``groebner.kernel_of_hom`` asks of a map whose rings share variables.

    A new ``RingMap`` per call, whose memo goes with it."""
    T = ring_Rees(d)
    t = T.variable(tvar())
    hom = {v: T.variable(v) for v in ring_R(d).vars}
    for v, g in hom_catalog(d).phi_W.items():
        hom[v] = t * transport(g, T)
    return RingMap(hom, T)


class IntegralityWitness(NamedTuple):
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
    images = [phi[W.vars[p]] * phi[W.vars[q]] for p, q in wmons]
    rhs = len(wmons)
    images.append(Polynomial(R, {R.monomial_of(*[xvar(d)] * 4): 1}))
    vec = relations(images, (rhs,)).get(rhs)
    if vec is None:
        raise ArithmeticError("x_d^4 is not in the span of the quadric products")
    combo = Polynomial(W, {wmons[s]: -a for s, a in vec.items() if s != rhs})
    udd2 = U.monomial_of(uvar(d, d), uvar(d, d))
    h = Polynomial(U, {udd2: 1}) - epsilon(combo)
    return IntegralityWitness(d, combo, h)
