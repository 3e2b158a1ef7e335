"""Buchberger engine: reduced Groebner bases, normal forms, elimination.

Works over any of the package's rings with either the graded order or a
block elimination order.  Supports degree truncation for homogeneous
input (a truncated basis is a full basis "up to degree k") and
``time.monotonic()`` deadlines that abort with the partial state attached.

Order data is computed once.  The engine keeps these invariants:

- Packed monomials.  Inside the engine a monomial is one ``int``, laid
  out by ``_Layout`` from the ``OrderSpec``: one field of ``_FIELD_BITS``
  bits per position of each block, the block's degree in a field above
  them, blocks most significant first.  The top bit of every field is a
  guard bit and holds 0; G is the int with every guard bit set.  While
  no field reaches its guard, the product of two monomials is the sum of
  their ints, a | b exactly when ``((b | G) - a) & G == G`` (field by
  field, b + guard - a keeps the guard iff a <= b, and never borrows
  from the next field), and ``m - 2*(m & DEGMASK)`` sorts as
  ``OrderSpec.descending_key``: it is the mixed-radix number whose
  digits are (-degree, exponents) per block, most significant first,
  each smaller in size than half the radix, so it compares as that
  digit tuple, which is the order of ``OrderSpec.descending_key``.
  ``_reducers`` packs each position multiset on entry, as the sum of
  its positions' units (a 1 in the position's field and in its block's
  degree field); ``_basis``, ``normal_form`` and ``leading_monomials``
  unpack on exit.
- Overflow is an error, never a wrap.  ``_Layout.pack`` refuses a block
  degree (hence an exponent) that reaches the guard.  Every other
  monomial the engine creates is a lcm or a sum q + b with q and b
  packed and each field of both below the guard: q is a packed
  monomial or m - lt for lt | m, whose fields are m's minus lt's and so
  are non-negative.  A field of q + b is then below twice the guard,
  the radix: it can set its guard bit but never carry into the next
  field.  A lcm's exponent fields are maxima, and each of its degree
  fields is a sum of at most twice a guard less 2.  So testing the
  guard bits of each lcm, S-polynomial term and reduction term, as the
  engine does, finds every overflow; it raises ``MonomialOverflow``.
- Leading monomials.  Every polynomial the engine holds sits in a
  reducer ``(support, packed lead, monic packed terms)``.  The lead is
  found once, when the polynomial enters the engine or when reduction
  changes it, and never again: ``buchberger`` and ``_interreduce`` keep
  their reducers in a list, and ``GroebnerBasis`` builds its own from
  its elements on first use, so ``normal_form`` reads them.  A remainder
  from ``_reduce_terms`` lists its terms in descending order, so its
  first key is its lead.  The support is a small bitmask with bit p set
  when position p is nonzero in the lead: two leads are coprime exactly
  when their supports are disjoint, and a lead k can divide the lcm of
  leads i and j only if its support lies inside theirs, a test the chain
  criterion makes before the packed one.
- Reduction heap.  ``_reduce_terms`` pops terms in descending order from
  a heap of packed keys; each key is computed once, when its term
  enters the work dict (the argument for the order of the pops is in
  its docstring).
- Reducer memo.  ``_reduce_terms`` records, per monomial, the index of
  the first reducer whose lead divides it, or (complemented) the length
  of the prefix of reducers it scanned without finding one, and starts
  a later scan there.  A memo is valid while the reducers are only
  appended to: an earlier reducer never changes, so the first divisor
  stays first, and a prefix without a divisor stays without one.
  ``buchberger`` keeps one memo for its main loop, whose basis only
  grows; a normal form or an inter-reduction gets a memo of its own.
- Truncation.  With ``max_degree``, a pair whose lcm has higher degree
  is never pushed; in a degree-2 truncation of quadrics no pair is.
- Pair queue.  A pair whose leading terms are coprime is marked handled
  when it is created and never pushed (Buchberger's product criterion).
  The other pairs pop in the order (pair degree, i, j), with no order
  key computed; the heap entry carries the lcm, so a pop recomputes
  nothing.  The pair degree is the lcm's degree: its weighted degree
  under an order that carries ``weights`` (an elimination, see
  ``eliminate``), and its standard degree otherwise and in every
  truncated call, since truncation cuts by standard degree.  For input
  homogeneous in the weights this is the sugar strategy (Giovini, Mora,
  Niesi, Robbiano and Traverso, ISSAC 1991).
- Any pair order is sound (Buchberger 1985).  The chain criterion at pop
  time drops (i, j) through an element k other than i and j whose lead
  divides the lcm L, when the pairs (i, k) and (j, k) are both handled;
  pending pairs are never consulted.  Call a pair settled when its
  S-polynomial is a combination sum a_m*f_m of the elements the main
  loop ends with, every lead of a_m*f_m below its lcm; a basis whose
  pairs are all settled is a Groebner basis.  Every handled pair is
  settled, by induction on (lcm, treatment time), lcms ordered by
  divisibility.  A coprime pair is settled by the product criterion,
  whatever the basis holds later.  A reduced pair is settled by its
  reduction: S = sum q_m*f_m + r with every lead of q_m*f_m at most
  lm(S) < L, and r is zero or joins the basis with lm(r) <= lm(S).  A
  dropped pair: the lcms L_ik and L_jk divide L, so each is smaller than
  L or equal to it and handled earlier, and both pairs are settled.  With
  monic leads S(i, j) = (L/L_ik)*S(i, k) + (L/L_jk)*S(k, j), and the
  multiplied combinations keep every lead below L.  So the pair order
  changes the work, never the result.  Truncation leaves out only pairs
  above its bound, and a pair within it cites only pairs within it, as
  their lcms divide its own.
- Hilbert-driven skip (Traverso, "Hilbert functions and the Buchberger
  algorithm", J. Symb. Comp. 22, 1996).  When the order carries
  ``quotient_nvars`` m (set by ``kernel_of_hom``, whose docstring proves
  that the ring modulo the ideal I of the generators is a polynomial
  ring in m variables of weight 1) and every generator is homogeneous in
  the weights, I's Hilbert function is known in advance:
  HF(delta) = C(delta + m - 1, m - 1).  The standard monomials of
  weighted degree delta, those that no current lead divides, number at
  least HF(delta), as the leads generate part of in(I).  When they
  number exactly HF(delta), the leads of degree delta span in(I) in that
  degree.  Then every S-polynomial of degree delta has normal form 0:
  the normal form is homogeneous of degree delta and lies in I, so a
  nonzero one would have its lead in in(I), hence divisible by a current
  lead, which a normal form's terms never are.  Its reduction by the
  current elements, which the final basis holds, settles the pair, so
  the pair is marked handled with no chain scan and no reduction, and
  the chain criterion may cite it.  The reduced basis is unique, so the
  result is unchanged and only the work drops.  The counts are exact:
  pairs pop by weighted degree, and an element found at degree delta is
  homogeneous of degree delta, its lead standard until then (a
  remainder's terms are), so it removes exactly that one monomial from
  degree delta's standard set and makes pairs of greater degree only (a
  lead it shares a lcm of degree delta with would divide it).  So once
  delta starts, the sets of lower degrees are final; ``_StandardCount``
  builds them from each other.
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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from .errors import (
    BeyondTruncation,
    BudgetExceeded,
    MonomialOverflow,
    NotHomogeneous,
    RingMismatch,
    UnfixedSharedVariable,
)
from .rings import (
    OrderSpec,
    Polynomial,
    Ring,
    elimination_order,
    omega_order,
    transport,
)

_FIELD_BITS = 16  # bits per packed field, its guard bit included


class _Layout:
    """Where each exponent and block degree sits in a packed monomial."""

    __slots__ = (
        "blocks", "shifts", "degree_shifts", "block_masks", "value",
        "guard_shift", "guards", "degmask", "units",
    )

    def __init__(self, blocks: tuple, nvars: int, width: int):
        fields = []  # most significant first: (block degree | position)
        for b, blk in enumerate(blocks):
            fields.append(("deg", b))
            fields.extend(("pos", p) for p in blk)
        shift = {f: width * (len(fields) - 1 - n) for n, f in enumerate(fields)}
        self.blocks = blocks
        self.guard_shift = width - 1
        self.value = (1 << self.guard_shift) - 1  # the value bits of one field
        self.shifts = tuple(shift["pos", p] for p in range(nvars))
        self.degree_shifts = tuple(shift["deg", b] for b in range(len(blocks)))
        self.block_masks = tuple(
            (sum(self.value << shift["pos", p] for p in blk), shift["deg", b])
            for b, blk in enumerate(blocks)
        )
        self.guards = sum((self.value + 1) << s for s in shift.values())
        self.degmask = sum(self.value << s for s in self.degree_shifts)
        self.units = [0] * nvars  # per position: 1 in its field and its block's degree
        for blk, s in zip(blocks, self.degree_shifts):
            for p in blk:
                self.units[p] = (1 << shift["pos", p]) + (1 << s)

    def pack(self, m: tuple) -> int:
        """A position multiset, packed.  Its length bounds every block
        degree, so only a monomial longer than a field's value has its
        block degrees counted."""
        if len(m) > self.value:
            for blk in self.blocks:
                deg = sum(map(m.count, blk))
                if deg > self.value:  # a degree in range bounds the block's exponents
                    raise MonomialOverflow(
                        f"block degree {deg} exceeds the packed field's {self.value}"
                    )
        return sum(map(self.units.__getitem__, m))

    def unpack(self, m: int) -> tuple:
        value = self.value
        return tuple(
            p for p, s in enumerate(self.shifts) for _ in range((m >> s) & value)
        )

    def degree(self, m: int) -> int:
        value = self.value
        return sum((m >> s) & value for s in self.degree_shifts)

    def key(self, m: int) -> int:
        """Sorts packed monomials as ``OrderSpec.descending_key``."""
        return m - 2 * (m & self.degmask)

    def support(self, m: int) -> int:
        """Bit p set exactly when position p is nonzero in m."""
        value = self.value
        return sum(1 << p for p, s in enumerate(self.shifts) if (m >> s) & value)


# one layout per block shape and field width, so the fresh joint ring of
# each ``kernel_of_hom`` call reuses the layout of an earlier call's
@lru_cache(maxsize=None)
def _order_layout(blocks: tuple, nvars: int, width: int) -> _Layout:
    return _Layout(blocks, nvars, width)


def _layout(order: OrderSpec) -> _Layout:
    return _order_layout(order.blocks, order.ring.nvars, _FIELD_BITS)


def _overflow() -> MonomialOverflow:
    return MonomialOverflow("a packed exponent or block degree overflowed its field")


def _reducer(terms: dict, lead: int, layout: _Layout) -> tuple:
    """The reducer of a packed polynomial: (support, lead, monic terms).

    A coefficient with denominator 1 is stored as an ``int``.
    """
    c = terms[lead]
    if c != 1:
        inv = Fraction(1, 1) / c
        terms = {m: inv * v for m, v in terms.items()}
    terms = {m: v.numerator if v.denominator == 1 else v for m, v in terms.items()}
    return (layout.support(lead), lead, terms)


def _packed(f: Polynomial, layout: _Layout) -> dict:
    pack = layout.pack
    return {pack(m): c for m, c in f.terms.items()}


def _reducers(polys, order: OrderSpec) -> list:
    """Reducers of nonzero polynomials, packing each and finding its lead
    once."""
    layout = _layout(order)
    out = []
    for f in polys:
        terms = _packed(f, layout)
        out.append(_reducer(terms, min(terms, key=layout.key), layout))
    return out


def _degree(terms: dict, layout: _Layout) -> int:
    return max(map(layout.degree, terms))


def _weighted_degree(layout: _Layout, weights: tuple):
    """The degree of a packed monomial in which position p weighs
    ``weights[p]``.

    Per block, the weighted degree is the least weight w0 in the block
    times the block degree, read from its field, plus (w - w0) times the
    exponent sum of each group of positions of a greater weight w.  A
    group's sum is read as its bits modulo radix - 1, as ``_lcm`` reads a
    block degree; it is at most its block's degree, which is below the
    guard in any monomial the engine holds, so the residue is the sum.
    """
    value = layout.value
    radix1 = (value << 1) + 1
    fields, groups = [], []  # (weight, degree shift), (extra weight, mask)
    for blk, shift in zip(layout.blocks, layout.degree_shifts):
        if not blk:
            continue
        base = min(weights[p] for p in blk)
        fields.append((base, shift))
        masks: dict = {}
        for p in blk:
            extra = weights[p] - base
            if extra:
                masks[extra] = masks.get(extra, 0) | value << layout.shifts[p]
        groups.extend(masks.items())

    def degree(m: int) -> int:
        d = 0
        for w, shift in fields:
            d += w * ((m >> shift) & value)
        for w, mask in groups:
            d += w * ((m & mask) % radix1)
        return d

    return degree


def _sort_key(layout: _Layout):
    """Deterministic sort of reducers: by degree, then leading monomial
    ascending in the order (descending in the packed key)."""
    key = layout.key
    return lambda r: (_degree(r[2], layout), -key(r[1]))


_PAIRS_PER_MONOMIAL = 4
"""The cost rule of ``_StandardCount``: a weighted degree is counted only
while this many times its queued pairs are at least its Hilbert function.

Counting costs one step per candidate monomial, and a degree has at least
HF(delta) standard monomials; a skip saves at most one pop, chain scan
and reduction per queued pair.  Measured at fiber d=5 (2-core VM,
Python 3.11.7), one standard monomial costs about 2 us to build and one
pop about 56 us without the skip (0.115 s over 2,065 pops), so a degree
can pay for its count while its pairs number a tenth of HF(delta) or
more; 4 leaves room for the standard monomials beyond HF(delta), for
the lower degrees a count has to build, and for pairs that are reduced
before the count reaches HF(delta).  With no rule the Rees d=4
elimination counts up to degree 15, 15,504 monomials, and took 0.039 s
against 0.023 s with the rule (best of 5), which counts degree 4 only
and does the same reductions as with no count.  At Rees d=8 counting
every degree took 13.6 s against 3.6 s.  A declined degree ends the
counting for good: past it, pairs thin out while HF(delta) grows.
"""


class _StandardCount:
    """The standard monomials of ``buchberger``'s leads, per weighted
    degree, against the quotient's Hilbert function C(delta + m - 1, m - 1)
    (the Hilbert-driven skip of the module docstring).

    ``sets[e]`` maps each packed standard monomial of weighted degree e to
    its support bitmask.  A monomial c of degree e is standard exactly
    when it is no lead and c/u is standard for each variable u of its
    support: a lead dividing c is c itself or divides some c/u.  Each c
    is built once, as m*v with v the greatest position of its support and
    m standard of degree e - weight(v).  ``excess`` is the number of
    standard monomials of the degree being counted beyond HF; at 0 its
    remaining pairs are settled.
    """

    def __init__(self, layout: _Layout, weights: tuple, quotient_nvars: int):
        self.units = layout.units  # the pack of each variable
        self.weights = weights
        self.nvars = quotient_nvars
        self.sets = {0: {0: 0}}
        self.degree = 0  # the greatest degree whose set is built
        self.excess = None

    def begin(self, degree: int, queued: int, leads: set, deadline, ticks) -> bool:
        """Count ``degree``, whose ``queued`` pairs are about to pop, unless
        the cost rule declines it (False).  ``leads`` holds every current
        lead; the sets of lower degrees are final, as no element of a
        lower degree will come."""
        hf = comb(degree + self.nvars - 1, self.nvars - 1)
        if _PAIRS_PER_MONOMIAL * queued < hf:
            return False
        for e in range(self.degree + 1, degree + 1):
            self.sets[e] = self._build(e, leads, deadline, ticks)
        self.degree = degree
        self.excess = len(self.sets[degree]) - hf
        return True

    def found(self, lead: int):
        """A new element's lead, of the degree being counted: standard
        until now, it is the one monomial it removes."""
        del self.sets[self.degree][lead]
        self.excess -= 1

    def _build(self, e: int, leads: set, deadline, ticks) -> dict:
        sets, units, weights = self.sets, self.units, self.weights
        out = {}
        for p, (unit, w) in enumerate(zip(units, weights)):
            if w > e:
                continue
            bit = 1 << p
            for m, mask in sets[e - w].items():
                if mask >> p > 1:  # m holds a position above p
                    continue
                if (
                    deadline is not None
                    and next(ticks) % 64 == 0
                    and time.monotonic() > deadline
                ):
                    raise BudgetExceeded("deadline passed counting standard monomials")
                c = m + unit
                if c in leads:
                    continue
                rest = mask & ~bit  # c/v = m is standard
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    if c - units[u] not in sets[e - weights[u]]:
                        break
                    rest ^= low
                else:
                    out[c] = mask | bit
        return out


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced (monic, inter-reduced) basis, sorted deterministically.

    ``truncation_degree`` is None for a full basis; otherwise normal forms
    are only valid for homogeneous input of degree at most that bound.
    ``reducers`` is derived from the elements on first use, so a basis
    that is only compared is never packed; it takes no part in equality
    or hashing.
    """

    order: OrderSpec
    elements: tuple
    truncation_degree: int | None = None

    @cached_property
    def reducers(self) -> tuple:
        return tuple(_reducers(self.elements, self.order))

    def leading_monomials(self) -> list:
        unpack = _layout(self.order).unpack
        return [unpack(lt) for _, lt, _ in self.reducers]


def _basis(order: OrderSpec, reducers, truncation_degree) -> GroebnerBasis:
    ring = order.ring
    unpack = _layout(order).unpack
    return GroebnerBasis(
        order,
        tuple(
            Polynomial(ring, {unpack(m): Fraction(c) for m, c in terms.items()})
            for _, _, terms in reducers
        ),
        truncation_degree,
    )


def _lcm(a: int, b: int, layout: _Layout) -> int:
    """The lcm of two packed monomials.

    Its exponent fields are the fieldwise maxima: the guard survives
    (a | G) - b exactly in the fields where a >= b; in each other field
    the guard less 1 masks the field's value bits, which come from b.  Each block degree is the sum of the block's
    exponent fields, read as the block's bits modulo radix - 1 (the radix
    is 1 modulo radix - 1); the sum is at most twice a guard less 2, below
    radix - 1, so the residue is the sum itself.
    """
    guards = layout.guards
    below = guards & ~((a | guards) - b)  # guards of the fields where a < b
    take = below - (below >> layout.guard_shift)
    l = ((a & ~take) | (b & take)) & ~layout.degmask
    radix1 = (layout.value << 1) + 1  # radix - 1
    for mask, s in layout.block_masks:
        l |= ((l & mask) % radix1) << s
    if l & guards:
        raise _overflow()
    return l


def _reduce_terms(
    terms: dict, layout: _Layout, reducers, deadline=None, ticks=None, memo=None
) -> dict:
    """Full normal form of a packed term dict against monic reducers.

    ``reducers`` is a sequence of (support, packed lead, monic terms); the
    first one whose lead divides a term reduces it.  Returns a new dict
    with its terms in descending order.

    ``memo`` maps a monomial to the index of its first divisor among
    ``reducers``, or to ``~n`` when the first n hold none (see the module
    docstring).  A caller may share one across calls only while it just
    appends to ``reducers``; without one the call keeps its own.

    With a ``deadline``, every 64th reduction step polls the clock.  The
    steps are counted by ``ticks``, an ``itertools.count(1)`` that a
    caller may share across many calls, so that many short reductions
    still poll; without one the count starts afresh.

    Terms are taken greatest first from a heap keyed by the packed key
    ``m - 2*(m & DEGMASK)``, computed once per term when it enters
    ``work``.  This is sound: reducing the popped term m by a reducer with
    lead lt adds the terms q*b, where q = m/lt and b runs over the
    reducer's other terms.  Each b < lt, and the order is multiplicative,
    so q*b < q*lt = m: every term a step adds is smaller than the term it
    popped.  So the pops come out in descending order, the same order in
    which ``max(work)`` would pick them, and no popped term comes back.
    A term that cancels out of ``work`` leaves its heap entry behind: an
    entry whose term is no longer in ``work`` is stale and is skipped,
    and a term that cancels and comes back is pushed again, its entries
    popping one after the other.
    """
    guards, degmask = layout.guards, layout.degmask
    heappush, heappop = heapq.heappush, heapq.heappop
    if memo is None:
        memo = {}
    result: dict = {}
    work = dict(terms)
    heap = [(m - 2 * (m & degmask), m) for m in work]
    heapq.heapify(heap)
    if ticks is None:
        ticks = itertools.count(1)
    nred = len(reducers)
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
        k = memo.get(m, -1)
        if k < 0:
            mg = m | guards
            for k in range(~k, nred):
                if (mg - reducers[k][1]) & guards == guards:
                    memo[m] = k
                    break
            else:
                memo[m] = ~nred
                result[m] = c
                continue
        _, lt, bterms = reducers[k]
        q = m - lt
        for bm, bc in bterms.items():
            if bm == lt:  # the divisor is monic: its leading term cancels c
                continue
            t = q + bm
            if t & guards:
                raise _overflow()
            acc = work.get(t)
            if acc is None:
                work[t] = -c * bc
                heappush(heap, (t - 2 * (t & degmask), t))
            else:
                s = acc - c * bc
                if s:
                    work[t] = s
                else:
                    del work[t]
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
    layout = _layout(gb.order)
    rem = _reduce_terms(_packed(f, layout), layout, gb.reducers)
    unpack = layout.unpack
    return Polynomial(f.ring, {unpack(m): c for m, c in rem.items()})


def _interreduce(reducers: list, layout: _Layout, deadline=None, ticks=None) -> list:
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
    # stands in for an element that must not reduce: a lead of G never
    # divides, as (m | G) - G = m has no guard bit set
    nothing = (0, layout.guards, {})
    changed = True
    while changed:
        changed = False
        for i, own in enumerate(reducers):
            if own is nothing:  # reduced to zero
                continue
            reducers[i] = nothing  # an element does not reduce itself
            terms = _reduce_terms(own[2], layout, reducers, deadline, ticks)
            if terms == own[2]:
                reducers[i] = own
            elif terms:
                lead = next(iter(terms))
                reducers[i] = _reducer(terms, lead, layout)
                changed = changed or lead != own[1]
    reducers = [r for r in reducers if r is not nothing]
    reducers.sort(key=_sort_key(layout))
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

    Under an order that carries ``weights`` (an elimination, made by
    ``eliminate``) the pairs pop by weighted lcm degree unless the call
    is truncated, and the result holds only the elements whose leads
    miss the first block, inter-reduced among themselves: the reduced
    basis of the elimination ideal (the argument is in ``eliminate``).
    If the order also carries ``quotient_nvars`` and every generator is
    homogeneous in the weights, an untruncated call skips the pairs that
    the quotient's Hilbert function proves zero (module docstring), for
    as long as ``_PAIRS_PER_MONOMIAL`` lets it count.
    """
    ring = order.ring
    gens = [g for g in gens if not g.is_zero]
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch(f"generator over {g.ring.name}, order over {ring.name}")
    if max_degree is not None and not all(g.is_homogeneous() for g in gens):
        raise NotHomogeneous("degree truncation requires homogeneous generators")
    layout = _layout(order)
    guards = layout.guards
    packed = _reducers(gens, order)
    count = None  # the Hilbert-driven skip's standard monomials
    if max_degree is None and order.weights is not None:
        pair_degree = _weighted_degree(layout, order.weights)
        if order.quotient_nvars is not None and all(
            len(set(map(pair_degree, r[2]))) == 1 for r in packed
        ):
            count = _StandardCount(layout, order.weights, order.quotient_nvars)
    else:
        pair_degree = layout.degree

    ticks = itertools.count(1)  # reduction steps, for the deadline poll
    memo: dict = {}  # first divisors in ``basis``, which only grows
    basis: list = []  # reducers (support, lead, monic terms), in the order found
    pairs: list = []  # heap of (pair degree, i, j, lcm)
    done = set()  # handled pairs (i, j), i < j

    def add_element(r: tuple):
        j = len(basis)
        basis.append(r)
        sj, lj, _ = r
        for i, (si, li, _) in enumerate(basis[:j]):
            if not si & sj:  # product criterion: coprime leading terms
                done.add((i, j))
                continue
            l = _lcm(li, lj, layout)
            ldeg = pair_degree(l)
            if max_degree is None or ldeg <= max_degree:
                heapq.heappush(pairs, (ldeg, i, j, l))

    try:
        seed = _interreduce(packed, layout, deadline, ticks)
        for r in seed:
            if max_degree is None or _degree(r[2], layout) <= max_degree:
                add_element(r)

        current = None  # the pair degree popping now
        while pairs:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("deadline passed in Buchberger loop")
            ldeg, i, j, l = heapq.heappop(pairs)
            done.add((i, j))
            if count is not None and ldeg != current:
                current = ldeg
                queued = 1 + sum(1 for p in pairs if p[0] == ldeg)
                leads = {r[1] for r in basis}
                if not count.begin(ldeg, queued, leads, deadline, ticks):
                    count = None  # declined: no later degree is counted
            if count is not None and count.excess == 0:
                continue  # settled: its S-polynomial reduces to zero
            si, li, fi = basis[i]
            sj, lj, fj = basis[j]
            # chain criterion: some k with lt_k | lcm and both pairs handled
            outside = ~(si | sj)
            lg = l | guards
            skip = False
            for k, (sk, lk, _) in enumerate(basis):
                if (
                    sk & outside
                    or k == i
                    or k == j
                    or (lg - lk) & guards != guards
                ):
                    continue
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    skip = True
                    break
            if skip:
                continue
            qi, qj = l - li, l - lj
            sterms = {}
            for m, c in fi.items():
                t = qi + m
                if t & guards:
                    raise _overflow()
                sterms[t] = c
            for m, c in fj.items():
                t = qj + m
                if t & guards:
                    raise _overflow()
                acc = sterms.get(t)
                s = -c if acc is None else acc - c
                if s:
                    sterms[t] = s
                elif acc is not None:
                    del sterms[t]
            rem = _reduce_terms(sterms, layout, basis, deadline, ticks, memo)
            if rem:
                lead = next(iter(rem))
                add_element(_reducer(rem, lead, layout))
                if count is not None:
                    count.found(lead)

        kept = basis
        if order.weights is not None:
            eliminated = sum(1 << p for p in order.blocks[0])
            kept = [r for r in basis if not r[0] & eliminated]
        reduced = _interreduce(kept, layout, deadline, ticks)
    except BudgetExceeded as err:
        found = sorted(basis or packed, key=_sort_key(layout))
        err.partial = _basis(order, found, max_degree)
        raise
    return _basis(order, reduced, max_degree)


def eliminate(
    gens,
    joint: Ring,
    eliminated: frozenset,
    deadline: float | None = None,
    weights: tuple | None = None,
    quotient_nvars: int | None = None,
) -> list:
    """The reduced basis of the elimination ideal (the elements free of
    ``eliminated``), sorted by degree and lead.

    ``weights`` (one per position of ``joint``; all 1 by default) is the
    grading that orders the S-pairs; a caller passes one in which its
    generators are homogeneous.  Any grading gives the same result, as
    any pair order does (module docstring).  ``quotient_nvars`` is passed
    only by a caller that has proven ``joint`` modulo the generators'
    ideal a polynomial ring in that many variables of weight 1; it turns
    on the Hilbert-driven skip, which changes the work, not the result.
    Both ride on the elimination order, so ``buchberger`` keeps its
    signature.

    Only the elements whose lead misses the eliminated block are
    inter-reduced; the rest of the graph ideal's basis is dropped
    unreduced.  This is sound.  Let G be the Groebner basis the main loop
    ends with and K its elements whose leads miss the block.  Under a
    block order a monomial with a positive exponent in the first block is
    greater than every monomial without one, so each term of an element
    of K is at most its lead, hence free of the block too.  By the
    elimination theorem K is a Groebner basis of the elimination ideal,
    and inter-reducing K (each element reduced by the others, made monic,
    zeros dropped) gives its reduced basis.  That basis is unique; the
    elements of the fully reduced basis of the whole ideal whose leads
    miss the block are also one, so the two are the same set.  A lead
    with a block variable never divides a monomial free of the block, so
    the dropped elements could not have changed a kept one.
    """
    if weights is None:
        weights = (1,) * joint.nvars
    order = elimination_order(joint, eliminated, weights, quotient_nvars)
    return list(buchberger(gens, order, None, deadline).elements)


def kernel_of_hom(
    source: Ring,
    target: Ring,
    images: dict,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Kernel of the map sending each source variable v to image(v), a
    polynomial over ``target``: its reduced basis under
    ``omega_order(source)``.

    The rings may share variables, provided no image uses a source
    variable that does not map to itself; a map that breaks this proviso
    raises ``UnfixedSharedVariable`` before any elimination.  The target
    variables outside the source, E, are eliminated from the joint ring
    (E, then the source), in which G is the ideal of v - image(v) over
    the source (an identity-mapped v gives 0, which ``buchberger``
    drops).  G is the kernel of the endomorphism psi: v -> image(v)
    fixing E.  Each
    generator lies in ker psi, as by the proviso psi fixes every image;
    and f - psi(f) lies in G for every f, as v = image(v) modulo G.  On
    the source ring psi is the map, so the part of G free of E is its
    kernel.

    The kept elements are the reduced basis of that ideal, already
    sorted.  On source monomials the elimination order is
    ``omega_order(source)``: its second block is the source variables in
    order.  So by the elimination theorem they are a Groebner basis under
    it; as part of a reduced basis they are monic and inter-reduced; and
    they keep the whole basis's order by degree and lead.

    The S-pairs pop by a grading in which the generators are homogeneous
    when the images are: each source variable weighs the degree of its
    image (at least 1), and each eliminated variable 1.

    The elimination also learns m = |E| + |F|, F the source variables
    that map to themselves: the joint ring modulo G is the polynomial
    ring k[E, F], whose Hilbert function ``buchberger`` counts against.
    The inclusion k[E, F] -> joint/G is onto, as v = image(v) modulo G
    and by the proviso every image lies in k[E, F]; it is one-to-one, as
    psi kills G and fixes k[E, F], so G meets k[E, F] in 0.  Each
    variable of E and F weighs 1, so for homogeneous images the
    isomorphism is graded and the Hilbert function in the weights is
    C(delta + m - 1, m - 1): m = d for the fiber map and d + 1 for the
    Rees map.  m is read off the map, never from a claimed count, so the
    Groebner route stays independent of the rank route.
    """
    fixed = {
        v for v in source.vars
        if v in target.index and images[v] == target.variable(v)
    }
    for v in source.vars:
        f = images[v]
        for p in sorted(set().union(*f.terms)):
            u = f.ring.vars[p]
            if u in source.index and u not in fixed:
                raise UnfixedSharedVariable(
                    f"the image of {v!r} uses {u!r}, which the map moves"
                )
    eliminated = tuple(v for v in target.vars if v not in source.index)
    joint = Ring(f"{target.name}+{source.name}", eliminated + source.vars, target.d)
    gens = [
        transport(source.variable(v), joint) - transport(images[v], joint)
        for v in source.vars
    ]
    weights = (1,) * len(eliminated) + tuple(
        max(images[v].degree(), 1) for v in source.vars
    )
    kept = eliminate(
        gens, joint, frozenset(eliminated), deadline, weights,
        len(eliminated) + len(fixed),
    )
    return GroebnerBasis(omega_order(source), tuple(transport(f, source) for f in kept))


def ideal_equal(gens, basis: GroebnerBasis, deadline=None) -> bool:
    """Whether ``gens`` generate the ideal of which ``basis`` is the full
    reduced Groebner basis, under ``basis.order``.

    One Buchberger run: the reduced basis of ``gens``, computed under
    ``deadline``, is compared with ``basis.elements``, which are not
    recomputed.  When every nonzero generator and every basis element is
    homogeneous, that run is truncated at D, the largest degree among
    them; otherwise it is full.  This is sound.  Write A for the ideal of
    ``gens`` and B for that of ``basis``.  For homogeneous input and any
    monomial order, the D-truncated reduced basis of A is the set of the
    elements of degree at most D of its reduced basis.  If A = B, that is
    ``basis.elements``, as they are the reduced basis of B (unique) and
    all have degree at most D.  Conversely, if the truncated basis of A
    equals ``basis.elements``, then B is generated by elements of A, so
    B is in A; and the truncated basis generates A_k for every k <= D,
    which holds every generator of A, so A is in B.  D is read from the
    inputs alone, never from a claimed count, so this check stays
    independent of the rank route.  A truncated ``basis`` raises
    BeyondTruncation: it does not determine its ideal above its bound.
    """
    if basis.truncation_degree is not None:
        raise BeyondTruncation(
            f"ideal equality needs a full basis, not one truncated at "
            f"{basis.truncation_degree}"
        )
    nonzero = [g for g in gens if not g.is_zero]
    both = nonzero + list(basis.elements)
    bound = None
    if all(g.is_homogeneous() for g in both):
        bound = max((g.degree() for g in both), default=None)
    # positional: wrappers of ``buchberger`` may name the 4th parameter
    gb = buchberger(nonzero, basis.order, bound, deadline)
    return list(gb.elements) == list(basis.elements)
