"""Buchberger engine: reduced Groebner bases, normal forms, elimination.

Works over any of the package's rings with either the graded order or a
block elimination order.  Supports degree truncation for homogeneous
input (a truncated basis is a full basis "up to degree k") and wall-clock
budgets that abort with the partial state attached.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BeyondTruncation,
    BudgetExceeded,
    RingMismatch,
    TruncationNeedsHomogeneous,
    UnknownVariable,
)
from .rings import (
    OrderSpec,
    Polynomial,
    Ring,
    elimination_order,
    omega_order,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced (monic, inter-reduced) basis, sorted deterministically.

    ``truncation_degree`` is None for a full basis; otherwise normal forms
    are only valid for homogeneous input of degree at most that bound.
    """

    order: OrderSpec
    elements: tuple
    truncation_degree: int | None = None

    def leading_monomials(self) -> list:
        return [f.leading(self.order)[1] for f in self.elements]


def _lcm(e1: tuple, e2: tuple) -> tuple:
    return tuple(a if a > b else b for a, b in zip(e1, e2))


def _divides(e1: tuple, e2: tuple) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _coprime(e1: tuple, e2: tuple) -> bool:
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def _monic(f: Polynomial, order: OrderSpec) -> Polynomial:
    c, _ = f.leading(order)
    return f if c == 1 else f.scale(Fraction(1, 1) / c)


def _reduce_terms(terms: dict, ring: Ring, key, basis_data, deadline=None):
    """Full normal form of a term dict against monic basis elements.

    ``basis_data`` is a list of (lt_exps, terms_dict).  Returns a new dict.
    """
    result: dict = {}
    work = dict(terms)
    nticks = 0
    while work:
        nticks += 1
        if deadline is not None and nticks % 64 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded("time budget exhausted during reduction")
        m = max(work, key=key)
        c = work.pop(m)
        for lt, bterms in basis_data:
            if _divides(lt, m):
                q = tuple(a - b for a, b in zip(m, lt))
                for bm, bc in bterms.items():
                    t = tuple(a + b for a, b in zip(q, bm))
                    if t == m:
                        # the divisor is monic: its leading term cancels c
                        continue
                    acc = work.get(t)
                    s = -c * bc if acc is None else acc - c * bc
                    if s:
                        work[t] = s
                    elif acc is not None:
                        del work[t]
                break
        else:
            result[m] = c
    return result


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by the basis (every term irreducible)."""
    if f.ring is not gb.order.ring:
        raise RingMismatch(
            f"polynomial over {f.ring.name}, basis over {gb.order.ring.name}"
        )
    if f.is_zero:
        return f
    if gb.truncation_degree is not None and f.degree() > gb.truncation_degree:
        raise BeyondTruncation(
            f"degree {f.degree()} input against a basis truncated at "
            f"{gb.truncation_degree}"
        )
    data = [
        (g.leading(gb.order)[1].exps, g.terms) for g in gb.elements
    ]
    terms = _reduce_terms(f.terms, f.ring, gb.order.key, data)
    return Polynomial(f.ring, terms)


def _interreduce(elems: list, order: OrderSpec) -> list:
    """Make a list of polynomials monic and fully inter-reduced."""
    elems = [_monic(f, order) for f in elems if not f.is_zero]
    key = order.key
    changed = True
    while changed:
        changed = False
        for i in range(len(elems)):
            f = elems[i]
            if f is None:
                continue
            data = [
                (g.leading(order)[1].exps, g.terms)
                for j, g in enumerate(elems)
                if j != i and g is not None
            ]
            terms = _reduce_terms(f.terms, order.ring, key, data)
            h = Polynomial(order.ring, terms)
            if h.terms != f.terms:
                elems[i] = None if h.is_zero else _monic(h, order)
                changed = True
        elems = [f for f in elems if f is not None]
    elems.sort(key=lambda f: (f.degree(), key(f.leading(order)[1].exps)))
    return elems


def buchberger(
    gens,
    order: OrderSpec,
    max_degree: int | None = None,
    time_budget: float | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    With ``max_degree`` the computation discards S-pairs above that degree,
    which is sound only for homogeneous input; inhomogeneous input raises.
    A ``time_budget`` (seconds) aborts with BudgetExceeded carrying the
    inter-reduced partial basis in ``.partial``.
    """
    ring = order.ring
    gens = [g for g in gens if not g.is_zero]
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch(f"generator over {g.ring.name}, order over {ring.name}")
    if max_degree is not None and not all(g.is_homogeneous() for g in gens):
        raise TruncationNeedsHomogeneous(
            "degree truncation requires homogeneous generators"
        )
    deadline = None if time_budget is None else time.monotonic() + time_budget
    key = order.key

    basis: list = []
    lts: list = []  # exponent tuples of leading monomials, parallel to basis

    def add(f: Polynomial):
        f = _monic(f, order)
        basis.append(f)
        lts.append(f.leading(order)[1].exps)

    pairs: list = []  # heap of (lcm degree, key(lcm), i, j)
    done = set()

    def push_pairs(j: int):
        for i in range(j):
            l = _lcm(lts[i], lts[j])
            heapq.heappush(pairs, (sum(l), key(l), i, j))

    seed = _interreduce(list(gens), order)
    if max_degree is not None:
        seed = [g for g in seed if g.degree() <= max_degree]
    for g in seed:
        add(g)
        push_pairs(len(basis) - 1)

    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            partial = GroebnerBasis(
                order, tuple(_interreduce(basis, order)), max_degree
            )
            err = BudgetExceeded("time budget exhausted in Buchberger loop")
            err.partial = partial
            raise err
        ldeg, lkey, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if max_degree is not None and ldeg > max_degree:
            continue
        li, lj = lts[i], lts[j]
        l = _lcm(li, lj)
        if _coprime(li, lj):
            continue
        # chain criterion: some k with lt_k | lcm and both pairs handled
        skip = False
        for k, lk in enumerate(lts):
            if k in (i, j) or not _divides(lk, l):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in done and p2 in done:
                skip = True
                break
        if skip:
            continue
        fi, fj = basis[i], basis[j]
        qi = tuple(a - b for a, b in zip(l, li))
        qj = tuple(a - b for a, b in zip(l, lj))
        sterms: dict = {}
        for m, c in fi.terms.items():
            sterms[tuple(a + b for a, b in zip(qi, m))] = c
        for m, c in fj.terms.items():
            t = tuple(a + b for a, b in zip(qj, m))
            acc = sterms.get(t)
            s = -c if acc is None else acc - c
            if s:
                sterms[t] = s
            elif acc is not None:
                del sterms[t]
        rem = _reduce_terms(
            sterms, ring, key, list(zip(lts, (f.terms for f in basis))), deadline
        )
        if rem:
            add(Polynomial(ring, rem))
            push_pairs(len(basis) - 1)

    return GroebnerBasis(order, tuple(_interreduce(basis, order)), max_degree)


def transport(f: Polynomial, target: Ring) -> Polynomial:
    """Re-express f in a ring containing all variables it actually uses."""
    pos = [target.index.get(v) for v in f.ring.vars]
    n = target.nvars
    terms = {}
    for exps, c in f.terms.items():
        t = [0] * n
        for p, e in zip(pos, exps):
            if e:
                if p is None:
                    raise UnknownVariable(
                        f"polynomial uses a variable not in ring {target.name}"
                    )
                t[p] = e
        terms[tuple(t)] = c
    return Polynomial(target, terms)


def eliminate(
    gens,
    joint: Ring,
    eliminated: frozenset,
    time_budget: float | None = None,
) -> list:
    """Generators of the elimination ideal (those free of ``eliminated``)."""
    order = elimination_order(joint, eliminated)
    gb = buchberger(gens, order, time_budget=time_budget)
    dropped = {joint.position(v) for v in eliminated}
    kept = []
    for f in gb.elements:
        if all(all(e[p] == 0 for p in dropped) for e in f.terms):
            kept.append(f)
    return kept


def kernel_of_hom(
    source: Ring,
    target: Ring,
    images: dict,
    time_budget: float | None = None,
) -> GroebnerBasis:
    """Kernel of the map sending each source variable to its image.

    Standard elimination: in the joint ring with the target block greatest,
    compute the basis of (v - image(v) : v in source) and intersect with
    the source subring.  Returns a reduced basis over the source ring.
    """
    joint = Ring(f"{target.name}+{source.name}", target.vars + source.vars, target.d)
    gens = []
    for v in source.vars:
        gens.append(
            transport(source.variable(v), joint) - transport(images[v], joint)
        )
    kept = eliminate(gens, joint, frozenset(target.vars), time_budget)
    back = [transport(f, source) for f in kept]
    order = omega_order(source)
    return GroebnerBasis(order, tuple(_interreduce(back, order)), None)


def ideal_contains(gb: GroebnerBasis, gens) -> bool:
    """True iff every polynomial in ``gens`` lies in the basis's ideal."""
    return all(normal_form(f, gb).is_zero for f in gens)


def ideal_equal(gens_a, gens_b, order: OrderSpec, time_budget=None) -> bool:
    """Exact ideal equality via the canonical reduced bases."""
    gba = buchberger(gens_a, order, time_budget=time_budget)
    gbb = buchberger(gens_b, order, time_budget=time_budget)
    return list(gba.elements) == list(gbb.elements)
