"""The quadric ideal I, its powers, syzygies, and the Rees ideal J = L + Lambda*S.

L is the symmetric-algebra part, read off a basis of the linear syzygies of
the generators; Lambda is the fiber part from ``candidate``.  An elimination
oracle computes the full Rees kernel independently for cross-certification,
and ``integrality_witness`` produces the degree-two equation of integrality.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import comb

from .candidate import epsilon, generators_lambda, hom_catalog
from .groebner import GroebnerBasis, kernel_of_hom, transport
from .hilbert import echelon, monomials_of_degree, rref
from .rings import (
    Polynomial,
    ring_R,
    ring_Rees,
    ring_S,
    ring_U,
    ring_W,
    tvar,
    uvar,
)


@dataclass(frozen=True)
class QuadricIdeal:
    d: int
    gens: tuple  # ordered to match the w-variable sequence

    @property
    def labels(self) -> tuple:
        return tuple(v.index for v in ring_W(self.d).vars)


def build_ideal_I(d: int) -> QuadricIdeal:
    """The quadrics x_i*x_j (i < j) and x_k^2 - x_d^2 (k < d), in the
    same order as the w-variable sequence: ``hom_catalog(d).phi_W``."""
    phi = hom_catalog(d).phi_W
    return QuadricIdeal(d, tuple(phi[v] for v in ring_W(d).vars))


def power_check(d: int, k: int) -> bool:
    """True iff k-fold products of the generators span all degree-2k forms.

    ``combinations_with_replacement`` yields the combinations in
    lexicographic order, so those sharing a (k-1)-fold prefix come in one
    run: each prefix product is formed once, when its run starts, and
    times the last factor gives the product, the same left-to-right
    product as multiplying the combination out.
    """
    ideal = build_ideal_I(d)
    R = ring_R(d)
    basis = monomials_of_degree(R, 2 * k)
    colindex = {m: p for p, m in enumerate(basis)}
    rows = []
    gens = ideal.gens
    head = prefix = None
    for combo in itertools.combinations_with_replacement(range(len(gens)), k):
        if combo[:-1] != head:
            head = combo[:-1]
            factors = [gens[i] for i in head]
            prefix = functools.reduce(operator.mul, factors) if factors else None
        last = gens[combo[-1]]
        p = last if prefix is None else prefix * last
        rows.append({colindex[t]: c for t, c in p.terms.items()})
    return len(echelon(rows)) == comb(d + 2 * k - 1, 2 * k)


@dataclass(frozen=True)
class SyzygyMatrix:
    d: int
    columns: tuple  # each column: tuple of linear forms over R, one per gen

    def __len__(self) -> int:
        return len(self.columns)


def linear_syzygies(d: int) -> SyzygyMatrix:
    """A basis of the linear syzygies of the generators of I.

    Kernel of (a_k) -> sum a_k * g_k from n copies of the linear forms into
    the cubics, via reduced echelon form (deterministic columns).
    """
    ideal = build_ideal_I(d)
    R = ring_R(d)
    lin = monomials_of_degree(R, 1)
    cubics = monomials_of_degree(R, 3)
    colindex = {m: p for p, m in enumerate(cubics)}
    # unknowns: (generator, linear monomial) pairs
    unknowns = [(gi, m) for gi in range(len(ideal.gens)) for m in lin]
    rows = [{} for _ in cubics]
    for uidx, (gi, m) in enumerate(unknowns):
        for t, c in ideal.gens[gi].terms.items():
            prod = tuple(a + b for a, b in zip(m, t))
            rows[colindex[prod]][uidx] = c
    reduced = rref(rows)
    free = [c for c in range(len(unknowns)) if c not in reduced]
    columns = []
    for fc in free:
        vec = {fc: 1}
        for pc, prow in reduced.items():
            if fc in prow:
                vec[pc] = -prow[fc]
        col = []
        for gi in range(len(ideal.gens)):
            form = R.zero()
            for li, m in enumerate(lin):
                c = vec.get(gi * len(lin) + li)
                if c:
                    form = form + Polynomial(R, {m: c})
            col.append(form)
        columns.append(tuple(col))
    return SyzygyMatrix(d, tuple(columns))


def sym_algebra_ideal(d: int) -> list:
    """Entries of w . theta: the defining ideal of the symmetric algebra."""
    S = ring_S(d)
    wpolys = [S.variable(v) for v in ring_W(d).vars]
    out = []
    for col in linear_syzygies(d).columns:
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


def rees_substitution(d: int) -> dict:
    """The map S -> R[t] with x fixed and w_ij -> t*g_ij, over
    ``ring_Rees(d)``; the quadrics g_ij are ``hom_catalog(d).phi_W``."""
    T = ring_Rees(d)
    t = T.variable(tvar())
    hom = {v: T.variable(v) for v in ring_R(d).vars}
    for v, g in hom_catalog(d).phi_W.items():
        hom[v] = t * transport(g, T)
    return hom


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

    Solves phi_W(sum a_s m_s) = x_d^4 over the degree-2 monomials of W by
    reduced echelon form with free variables at zero (deterministic).
    """
    phi = hom_catalog(d).phi_W
    W, R, U = ring_W(d), ring_R(d), ring_U(d)
    wmons = monomials_of_degree(W, 2)
    quartics = monomials_of_degree(R, 4)
    rowindex = {m: p for p, m in enumerate(quartics)}
    images = []
    for m in wmons:
        support = [p for p, e in enumerate(m) if e]  # one position for a square
        images.append(phi[W.vars[support[0]]] * phi[W.vars[support[-1]]])
    xd4 = tuple(4 if v.index == (d,) else 0 for v in R.vars)
    rhs = len(wmons)
    rows = [{} for _ in quartics]
    for col, img in enumerate(images):
        for t, c in img.terms.items():
            rows[rowindex[t]][col] = c
    rows[rowindex[xd4]][rhs] = 1
    reduced = rref(rows)
    if rhs in reduced:
        raise ArithmeticError("x_d^4 is not in the span of the quadric products")
    sol = {pc: prow[rhs] for pc, prow in reduced.items() if rhs in prow}
    combo = W.zero()
    for col, coeff in sorted(sol.items()):
        combo = combo + Polynomial(W, {wmons[col]: coeff})
    udd2 = U.monomial_of(uvar(d, d), uvar(d, d))
    h = Polynomial(U, {udd2: 1}) - epsilon(combo)
    return IntegralityWitness(d, combo, h)
