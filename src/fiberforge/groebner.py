"""Buchberger engine: reduced Groebner bases, normal forms, elimination.

Works over any of the package's rings with either the graded order or a
block elimination order.  Supports degree truncation for homogeneous
input (a truncated basis is a full basis "up to degree k") and
``time.monotonic()`` deadlines that abort with the partial state attached.

Order data is computed once.  The engine keeps these invariants:

- Leading exponents.  Every polynomial the engine holds sits in a
  reducer ``(support mask, leading exponent tuple, monic terms)``.  The
  leading exponent is found once, when the polynomial enters the engine
  or when reduction changes it, and never again: ``buchberger`` and
  ``_interreduce`` keep their reducers in a list, and ``GroebnerBasis``
  builds its own once from its elements, so ``normal_form`` reads them.
  A remainder from ``_reduce_terms`` lists its terms in descending
  order, so its first key is its leading exponent.
- Reduction heap.  ``_reduce_terms`` pops terms in descending order from
  a heap of ``OrderSpec.descending_key`` entries; each key is computed
  once, when its term enters the work dict (the argument for the order
  of the pops is in its docstring).
- Divisor prefilter.  A leading exponent can divide a monomial only if
  its support mask is a subset of the monomial's, so the exponent
  compare runs only for those.  Two leading terms are coprime exactly
  when their masks are disjoint.
- Truncation.  With ``max_degree``, a pair whose lcm has higher degree
  is never pushed; in a degree-2 truncation of quadrics no pair is.
- Pair queue.  A pair whose leading terms are coprime is marked handled
  when it is created and never pushed (Buchberger's product criterion):
  its S-polynomial has a standard representation whatever the basis
  holds later.  The chain criterion at pop time consults only handled
  pairs, never pending ones, so counting a coprime pair as handled
  early is sound and cannot make two pairs vouch for each other.  The
  other pairs pop in the order (lcm degree, i, j): within one degree,
  those of older basis elements first, with no order key computed.
  The chain criterion drops (i, j) through an element k whose lead
  divides its lcm L; the lcms of (i, k) and (j, k) then divide L, so
  each either has lower degree, and pops before (i, j) in any
  degree-first order, or equals L, and then both this order and an
  order by (degree, key(lcm), i, j) take it by (i, j).  So within one
  degree the order does not change which of the existing pairs the
  criterion finds handled, and truncation still cuts by degree.  The
  heap entry carries the lcm, so a pop recomputes nothing.
- Integer coefficients.  Inside the engine a coefficient whose
  denominator is 1 is an ``int``; ``_basis`` turns every coefficient
  back into a ``Fraction``.  This is the same exact arithmetic over Q:
  ``int`` and ``Fraction`` operations are exact and promote to
  ``Fraction`` when mixed, ``n == Fraction(n)`` and both hash alike,
  so dict lookups, zero tests and comparisons of terms are unchanged;
  only the cost of integral arithmetic falls.  ``normal_form`` returns
  exact coefficients whatever its input holds (``rings`` builds ``int``
  ones); for a polynomial with ``Fraction`` coefficients they are
  ``Fraction``s: a value enters its work dict as an input coefficient or
  as -c*b or acc - c*b for a popped coefficient c, which is a
  ``Fraction``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import add, le, sub

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


@lru_cache(maxsize=None)  # one table per ring width
def _bit_table(nvars: int) -> tuple:
    return tuple(1 << p for p in range(nvars))


def _support(exps: tuple, bits: tuple) -> int:
    """Bitmask of the positions where ``exps`` is nonzero."""
    return sum(compress(bits, exps))


def _reducer(terms: dict, lead: tuple, bits: tuple) -> tuple:
    """The reducer of a polynomial: (support mask, lead, monic terms).

    A coefficient with denominator 1 is stored as an ``int``.
    """
    c = terms[lead]
    if c != 1:
        inv = Fraction(1, 1) / c
        terms = {m: inv * v for m, v in terms.items()}
    terms = {m: v.numerator if v.denominator == 1 else v for m, v in terms.items()}
    return (_support(lead, bits), lead, terms)


def _reducers(polys, order: OrderSpec) -> list:
    """Reducers of nonzero polynomials, finding each lead once."""
    bits = _bit_table(order.ring.nvars)
    dkey = order.descending_key
    return [_reducer(f.terms, min(f.terms, key=dkey), bits) for f in polys]


def _degree(terms: dict) -> int:
    return max(map(sum, terms))


def _sort_key(order: OrderSpec):
    """Deterministic sort of reducers: by degree, then leading monomial."""
    key = order.key
    return lambda r: (_degree(r[2]), key(r[1]))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced (monic, inter-reduced) basis, sorted deterministically.

    ``truncation_degree`` is None for a full basis; otherwise normal forms
    are only valid for homogeneous input of degree at most that bound.
    ``reducers`` is derived once from the elements and takes no part in
    equality or hashing.
    """

    order: OrderSpec
    elements: tuple
    truncation_degree: int | None = None
    reducers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reducers = tuple(_reducers(self.elements, self.order))
        object.__setattr__(self, "reducers", reducers)

    def leading_monomials(self) -> list:
        return [lt for _, lt, _ in self.reducers]


def _basis(order: OrderSpec, reducers, truncation_degree) -> GroebnerBasis:
    ring = order.ring
    return GroebnerBasis(
        order,
        tuple(
            Polynomial(ring, {m: Fraction(c) for m, c in terms.items()})
            for _, _, terms in reducers
        ),
        truncation_degree,
    )


def _lcm(e1: tuple, e2: tuple) -> tuple:
    return tuple(map(max, e1, e2))


def _divides(e1: tuple, e2: tuple) -> bool:
    return all(map(le, e1, e2))


def _reduce_terms(
    terms: dict, order: OrderSpec, reducers, deadline=None, ticks=None
) -> dict:
    """Full normal form of a term dict against monic reducers.

    ``reducers`` is a sequence of (support mask, leading exponents, monic
    terms); the first one whose lead divides a term reduces it.  Returns
    a new dict with its terms in descending order.

    With a ``deadline``, every 64th reduction step polls the clock.  The
    steps are counted by ``ticks``, an ``itertools.count(1)`` that a
    caller may share across many calls, so that many short reductions
    still poll; without one the count starts afresh.

    Terms are taken greatest first from a heap keyed by the order's
    ``descending_key``, computed once per term when it enters ``work``.
    This is sound: reducing the popped term m by a reducer with lead lt
    adds the terms q*b, where q = m/lt and b runs over the reducer's
    other terms.  Each b < lt, and the order is multiplicative, so
    q*b < q*lt = m: every term a step adds is smaller than the term it
    popped.  So the pops come out in descending order, the same order in
    which ``max(work)`` would pick them, and no popped term comes back.
    A term that cancels out of ``work`` leaves its heap entry behind: an
    entry whose term is no longer in ``work`` is stale and is skipped,
    and a term that cancels and comes back is pushed again, its entries
    popping one after the other.
    """
    dkey = order.descending_key
    bits = _bit_table(order.ring.nvars)
    heappush, heappop = heapq.heappush, heapq.heappop
    result: dict = {}
    work = dict(terms)
    heap = [(dkey(m), m) for m in work]
    heapq.heapify(heap)
    if ticks is None:
        ticks = itertools.count(1)
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:  # stale entry
            continue
        if (
            deadline is not None
            and next(ticks) % 64 == 0
            and time.monotonic() > deadline
        ):
            raise BudgetExceeded("deadline passed during reduction")
        outside = ~_support(m, bits)
        for lmask, lt, bterms in reducers:
            if lmask & outside or not _divides(lt, m):
                continue
            q = tuple(map(sub, m, lt))
            for bm, bc in bterms.items():
                t = tuple(map(add, q, bm))
                if t == m:
                    # the divisor is monic: its leading term cancels c
                    continue
                acc = work.get(t)
                if acc is None:
                    work[t] = -c * bc
                    heappush(heap, (dkey(t), t))
                else:
                    s = acc - c * bc
                    if s:
                        work[t] = s
                    else:
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
    return Polynomial(f.ring, _reduce_terms(f.terms, gb.order, gb.reducers))


# Stands in for an element that must not reduce: -1 has every bit set, so
# the mask test rejects it for every monomial.
_NO_REDUCER = (-1, (), {})


def _interreduce(reducers: list, order: OrderSpec, deadline=None, ticks=None) -> list:
    """Fully inter-reduce monic reducers; return them sorted by degree and
    leading monomial.

    Each element is reduced against all the others, in list order, until
    a pass changes nothing.  A lead is recomputed only for an element
    that reduction changed, as the first key of its remainder.  Whether
    a term is reducible depends only on the other elements' leads, so
    after a pass in which no lead changed every element is reduced and
    the next pass would change nothing: it is skipped.
    """
    reducers = list(reducers)
    bits = _bit_table(order.ring.nvars)
    changed = True
    while changed:
        changed = False
        for i, own in enumerate(reducers):
            if own is _NO_REDUCER:  # reduced to zero
                continue
            reducers[i] = _NO_REDUCER  # an element does not reduce itself
            terms = _reduce_terms(own[2], order, reducers, deadline, ticks)
            if terms == own[2]:
                reducers[i] = own
            elif terms:
                lead = next(iter(terms))
                reducers[i] = _reducer(terms, lead, bits)
                changed = changed or lead != own[1]
    reducers = [r for r in reducers if r is not _NO_REDUCER]
    reducers.sort(key=_sort_key(order))
    return reducers


def buchberger(
    gens,
    order: OrderSpec,
    max_degree: int | None = None,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    With ``max_degree`` the computation discards S-pairs above that degree,
    which is sound only for homogeneous input; inhomogeneous input raises.
    Once ``time.monotonic()`` passes ``deadline`` the call aborts with
    BudgetExceeded: the loop polls the clock before each pair, and one
    step counter spans every reduction of the call (seed inter-reduction,
    S-pairs, final inter-reduction) and polls every 64th step.  Its
    ``.partial`` holds the monic basis elements found so far (the monic
    generators if the seed was not yet inter-reduced), sorted by degree
    and leading monomial.  It is not reduced: no further work is done
    once the deadline has passed.
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
    bits = _bit_table(ring.nvars)

    ticks = itertools.count(1)  # reduction steps, for the deadline poll
    basis: list = []  # reducers (mask, lead, monic terms), in the order found
    pairs: list = []  # heap of (lcm degree, i, j, lcm)
    done = set()  # handled pairs (i, j), i < j

    def add_element(r: tuple):
        j = len(basis)
        basis.append(r)
        mj, lj, _ = r
        for i, (mi, li, _) in enumerate(basis[:j]):
            if not mi & mj:  # product criterion: coprime leading terms
                done.add((i, j))
                continue
            l = _lcm(li, lj)
            ldeg = sum(l)
            if max_degree is None or ldeg <= max_degree:
                heapq.heappush(pairs, (ldeg, i, j, l))

    try:
        for r in _interreduce(_reducers(gens, order), order, deadline, ticks):
            if max_degree is None or _degree(r[2]) <= max_degree:
                add_element(r)

        while pairs:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("deadline passed in Buchberger loop")
            _, i, j, l = heapq.heappop(pairs)
            done.add((i, j))
            mi, li, fi = basis[i]
            mj, lj, fj = basis[j]
            # chain criterion: some k with lt_k | lcm and both pairs handled
            outside = ~(mi | mj)
            skip = False
            for k, (mk, lk, _) in enumerate(basis):
                if mk & outside or k == i or k == j or not _divides(lk, l):
                    continue
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    skip = True
                    break
            if skip:
                continue
            qi = tuple(map(sub, l, li))
            qj = tuple(map(sub, l, lj))
            sterms = {tuple(map(add, qi, m)): c for m, c in fi.items()}
            for m, c in fj.items():
                t = tuple(map(add, qj, m))
                acc = sterms.get(t)
                s = -c if acc is None else acc - c
                if s:
                    sterms[t] = s
                elif acc is not None:
                    del sterms[t]
            rem = _reduce_terms(sterms, order, basis, deadline, ticks)
            if rem:
                add_element(_reducer(rem, next(iter(rem)), bits))

        reduced = _interreduce(basis, order, deadline, ticks)
    except BudgetExceeded as err:
        found = sorted(basis or _reducers(gens, order), key=_sort_key(order))
        err.partial = _basis(order, found, max_degree)
        raise
    return _basis(order, reduced, max_degree)


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
    deadline: float | None = None,
) -> list:
    """Generators of the elimination ideal (those free of ``eliminated``)."""
    order = elimination_order(joint, eliminated)
    gb = buchberger(gens, order, None, deadline)
    dropped = {joint.position(v) for v in eliminated}
    return [f for f in gb.elements if not any(e[p] for e in f.terms for p in dropped)]


def kernel_of_hom(
    source: Ring,
    target: Ring,
    images: dict,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Kernel of the map sending each source variable to its image.

    Standard elimination: in the joint ring with the target block greatest,
    compute the reduced basis of (v - image(v) : v in source) and keep the
    elements free of the target block.  They are the reduced basis of the
    kernel, already sorted.  On source monomials the elimination order is
    ``omega_order(source)``: its second block is the source variables in
    order.  So by the elimination theorem they are a Groebner basis under
    it; as part of a reduced basis they are monic and inter-reduced; and
    they keep the whole basis's order by degree and lead.
    """
    joint = Ring(f"{target.name}+{source.name}", target.vars + source.vars, target.d)
    gens = []
    for v in source.vars:
        gens.append(
            transport(source.variable(v), joint) - transport(images[v], joint)
        )
    kept = eliminate(gens, joint, frozenset(target.vars), deadline)
    return GroebnerBasis(omega_order(source), tuple(transport(f, source) for f in kept))


def ideal_equal(gens_a, gens_b, order: OrderSpec, deadline=None) -> bool:
    """Exact ideal equality via the canonical reduced bases, both computed
    under the same ``deadline``.

    When every nonzero generator on both sides is homogeneous, both bases
    are truncated at D, the largest generator degree; otherwise they are
    full.  This is sound.  For homogeneous input and any monomial order,
    the D-truncated reduced basis of an ideal is the set of its reduced
    basis elements of degree at most D: it is determined by the slices
    A_0, ..., A_D and spans them.  So equal truncated bases give
    A_k = B_k for every k <= D.  Every generator of either side has degree
    at most D, so it lies in the other ideal, and A = B.  Conversely,
    A = B gives equal reduced bases, hence equal truncations.  D is read
    from the inputs alone, never from a claimed count, so this check
    stays independent of the rank route.
    """
    gens_a, gens_b = list(gens_a), list(gens_b)
    nonzero = [g for g in gens_a + gens_b if not g.is_zero]
    bound = None
    if all(g.is_homogeneous() for g in nonzero):
        bound = max((g.degree() for g in nonzero), default=None)
    # positional: wrappers of ``buchberger`` may name the 4th parameter
    gba = buchberger(gens_a, order, bound, deadline)
    gbb = buchberger(gens_b, order, bound, deadline)
    return list(gba.elements) == list(gbb.elements)
