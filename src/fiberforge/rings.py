"""Exact sparse multivariate polynomials over Q with the matrix-variable orders.

Variables come in four flavours: ambient ``x_i``, fiber ``w_ij`` (symmetric
pair indices, no ``w_dd``), Veronese ``u_ij`` (symmetric, ``u_dd`` present)
and a single Rees variable ``t``.  A monomial is its position multiset
over a ring the caller knows: the positions of its variables in the
ring's sequence, one entry per unit of exponent, ascending, so x_3^2 x_17
is ``(3, 3, 17)`` and 1 is ``()``.  Its degree is its length, a product
is the sorted concatenation, and ``format_monomial`` prints it.  The
graded reverse lexicographic order used throughout sorts pair variables
ascending by (max index, min index):

    w_11 < w_12 < w_22 < w_13 < w_23 < w_33 < w_14 < ...

Within one degree that order lists monomials exactly as their multisets
compare as tuples: the greater monomial has the greater multiset
(``OrderSpec`` gives the argument).

Coefficients are exact rationals: an ``int``, or a ``Fraction`` where the
value is not integral.  ``Ring.variable`` and ``Ring.one`` store the int 1
and ``Polynomial.scale`` keeps an int factor an int, so every polynomial
built from variables, minors and quadric images has int coefficients; a
``Fraction`` appears only where a caller forms a true quotient
(``hilbert.rref``, the monic elements of a Groebner basis).  Mixing the
two types is sound:

- ``int`` and ``Fraction`` arithmetic are both exact, and an operation
  on one of each promotes to ``Fraction``;
- ``n == Fraction(n)`` and both hash alike, so ``Polynomial.__eq__``,
  ``__hash__`` and dict lookups are the same whichever type a
  coefficient has;
- ``str(n) == str(Fraction(n))``, so text and JSON output are
  byte-identical either way;
- no code in the package applies ``/`` to a coefficient except
  ``Fraction(1, 1) / c`` in ``groebner._reducer`` (a test walks the
  source and checks that every ``/`` has a ``Fraction(...)`` call on its
  left), so no quotient of two ints is ever a ``float``.

A ring map that is used more than once is a ``RingMap``: its images and
a memo of monomial images, which ``apply_hom`` fills so that each map
computes the image of each distinct source monomial once.  The memo is
sound:

- the images are immutable: the map copies them and has no setter, a
  ``Polynomial`` is immutable by convention, and ``apply_hom`` only
  reads the term dicts it stores;
- an entry is keyed by the source ring itself, compared by identity, and
  the position multiset, which names a monomial only over its ring: a
  polynomial over another ring, whose positions mean other variables,
  never reads it, and the entry keeps its ring alive, so no other ring
  takes that identity;
- the memo lives and dies with its map: it is an attribute of the map,
  and no table outside the map refers to it.

A plain dict of images gets a memo for one call.  Position maps likewise
belong to their ring (``Ring.index``, ``Ring.pair_positions``).
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import neg

from .errors import (
    BadIndex,
    PartialHomomorphism,
    RingMismatch,
    UnknownVariable,
    ZeroPolynomial,
)


# The immutable classes below (and ``groebner.GroebnerBasis``) write each
# field once in ``__init__`` with ``_init`` and refuse every later
# assignment or deletion with ``_frozen``.  As copying and unpickling
# restore slots by assignment, the slotted ones rebuild themselves
# through ``__init__`` in ``__reduce__``.
_init = object.__setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")


class VarKind(Enum):
    X = "x"
    W = "w"
    U = "u"
    T = "t"


class VariableId:
    """A tagged variable: x_i, w_ij, u_ij or t.

    Pair indices are canonicalized to i <= j on construction.  The hash
    is computed then too, equal to ``hash((kind, index))``, so a dict
    keyed by variables (``Ring.index``, a homomorphism) never calls the
    Python-level ``Enum.__hash__`` of the kind.  Two variables are equal
    when their kinds and indices are; a variable equals no other type,
    a bare ``(kind, index)`` tuple included.  The cached rings share
    their variables with every caller, so no field can be assigned.
    """

    __slots__ = ("kind", "index", "_hash")

    def __init__(self, kind: VarKind, index: tuple):
        if kind in (VarKind.W, VarKind.U):
            i, j = index
            if i < 1 or j < 1:
                raise BadIndex(f"pair index out of range: {index}")
            if i > j:
                index = (j, i)
        elif kind is VarKind.X:
            (i,) = index
            if i < 1:
                raise BadIndex(f"x index out of range: {i}")
        _init(self, "kind", kind)
        _init(self, "index", index)
        # an Enum member hashes as its name, and a tuple by its items'
        # hashes: hash((kind, index)), without the Python-level Enum.__hash__
        _init(self, "_hash", hash((kind._name_, index)))

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return VariableId, (self.kind, self.index)

    def __eq__(self, other):
        if other.__class__ is not VariableId:
            return NotImplemented
        return self.kind is other.kind and self.index == other.index

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind is VarKind.T:
            return "t"
        if self.kind is VarKind.X:
            return f"x[{self.index[0]}]"
        return f"{self.kind.value}[{self.index[0]},{self.index[1]}]"


def xvar(i: int) -> VariableId:
    return VariableId(VarKind.X, (i,))


def wvar(i: int, j: int, d: int | None = None) -> VariableId:
    v = VariableId(VarKind.W, (i, j))
    if d is not None:
        if max(v.index) > d:
            raise BadIndex(f"w index beyond dimension {d}: {v.index}")
        if v.index == (d, d):
            raise BadIndex(f"w[{d},{d}] does not exist (diagonal corner is zero)")
    return v


def uvar(i: int, j: int, d: int | None = None) -> VariableId:
    v = VariableId(VarKind.U, (i, j))
    if d is not None and max(v.index) > d:
        raise BadIndex(f"u index beyond dimension {d}: {v.index}")
    return v


def tvar() -> VariableId:
    return VariableId(VarKind.T, ())


def _pair_sort_key(v: VariableId):
    return (max(v.index), min(v.index))


class Ring:
    """A named polynomial ring with a fixed ascending variable sequence."""

    __slots__ = ("name", "vars", "index", "d", "_pairs")

    def __init__(self, name: str, variables: tuple, d: int):
        self.name = name
        self.vars = tuple(variables)
        self.index = {v: p for p, v in enumerate(self.vars)}
        self.d = d
        self._pairs = None

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def position(self, v: VariableId) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise UnknownVariable(f"{v!r} not in ring {self.name}") from None

    def pair_positions(self) -> dict:
        """``{(i, j): position}`` of the pair variables w_ij or u_ij, under
        both (i, j) and (j, i), built on first use; a pair the ring lacks
        (the W corner) has no entry.  A ring with both w_ij and u_ij
        raises BadIndex."""
        if self._pairs is None:
            pairs = {}
            for p, v in enumerate(self.vars):
                if v.kind is VarKind.W or v.kind is VarKind.U:
                    i, j = v.index
                    if (i, j) in pairs:
                        raise BadIndex(f"ring {self.name} has two ({i},{j}) pairs")
                    pairs[(i, j)] = pairs[(j, i)] = p
            self._pairs = pairs
        return self._pairs

    def variable(self, v: VariableId) -> "Polynomial":
        return Polynomial(self, {(self.position(v),): 1})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(): 1})

    def monomial_of(self, *variables) -> tuple:
        """The position multiset of a product of VariableIds (with
        multiplicity)."""
        return tuple(sorted(map(self.position, variables)))

    def __repr__(self):
        return f"Ring({self.name}, {self.nvars} vars)"


def _w_sequence(d: int):
    pairs = sorted(
        (wvar(i, j) for i in range(1, d + 1) for j in range(i, d + 1)
         if (i, j) != (d, d)),
        key=_pair_sort_key,
    )
    return tuple(pairs)


def _u_sequence(d: int):
    pairs = sorted(
        (uvar(i, j) for i in range(1, d + 1) for j in range(i, d + 1)),
        key=_pair_sort_key,
    )
    return tuple(pairs)


@lru_cache(maxsize=None)
def ring_R(d: int) -> Ring:
    return Ring(f"R{d}", tuple(xvar(i) for i in range(1, d + 1)), d)


@lru_cache(maxsize=None)
def ring_W(d: int) -> Ring:
    return Ring(f"W{d}", _w_sequence(d), d)


@lru_cache(maxsize=None)
def ring_U(d: int) -> Ring:
    return Ring(f"U{d}", _u_sequence(d), d)


@lru_cache(maxsize=None)
def ring_S(d: int) -> Ring:
    """S = R[w...]: the x block followed by the w block."""
    return Ring(f"S{d}", ring_R(d).vars + ring_W(d).vars, d)


@lru_cache(maxsize=None)
def ring_Rees(d: int) -> Ring:
    """S[t], used by the Rees elimination oracle (t listed last)."""
    return Ring(f"Rees{d}", ring_S(d).vars + (tvar(),), d)


class OrderSpec:
    """A monomial order: omega-grevlex or a block elimination order.

    ``blocks`` lists variable positions per block, each ascending; earlier
    blocks are eliminated first (compare greater).  Inside each block the
    comparison is graded reverse lexicographic over the ring's ascending
    sequence.  ``parts(m)`` splits a monomial into its block parts, the
    sub-multisets of the positions of each block, built once per order.

    Per block, ``key`` compares (degree, part).  Graded reverse
    lexicographic compares (degree, negated exponents), and within one
    degree the part compares the other way round from the exponent
    tuple: let e < e' be exponent tuples of one degree, first different
    at position i, e_i < e'_i.  Both hold as many copies of each position
    below i, so their multisets agree up to those and the e_i copies of
    i that follow; the next entry is a further copy of i in the multiset
    of e', and in that of e a position above i (its remaining degree sits
    above i).  So the multiset of e' is the smaller: ascending parts are
    descending exponent tuples, which is ascending negated exponents.
    A part lists raw positions, not indices inside its block, which
    changes no comparison, as a block's positions ascend.

    ``descending_key(m)`` lists monomials from greatest to least:
    ``descending_key(a) < descending_key(b)`` exactly when
    ``key(a) > key(b)``.  Per block it compares (-degree, negated part),
    the reverse order of (degree, part).

    ``weights`` is set only on the order of an elimination
    (``groebner.kernel_of_hom``): one positive integer per position, the
    grading by which its S-pairs are ordered (``kernel_of_hom`` picks one
    in which its generators are homogeneous).  It is not part of the
    monomial order and takes no part in equality or hashing.
    ``groebner.buchberger`` reads it (see there).

    ``quotient_nvars`` rides beside it, likewise outside equality and
    hashing: set by ``groebner.kernel_of_hom``, it is the number m of
    variables of weight 1 of the polynomial ring that the ring modulo the
    ideal of the elimination's generators is, so that the quotient's
    Hilbert function in the weights is C(delta + m - 1, m - 1).
    ``groebner.buchberger`` counts standard monomials against it.

    Equality, hashing and the repr read ``ring`` and ``blocks`` alone;
    ``parts``, ``descending_key``, ``weights`` and ``quotient_nvars``
    stay outside them.  ``omega_order`` hands one cached order to every
    caller, so no field can be assigned.
    """

    __slots__ = (
        "ring", "blocks", "parts", "descending_key", "weights", "quotient_nvars"
    )

    def __init__(
        self,
        ring: Ring,
        blocks: tuple,
        weights: tuple | None = None,
        quotient_nvars: int | None = None,
    ):
        if blocks == (tuple(range(ring.nvars)),):
            parts = _whole
            descending = _descending_whole
        else:
            parts = _block_parts(blocks, ring.nvars)

            def descending(m):
                out = []
                for part in parts(m):
                    out += (-len(part), tuple(map(neg, part)))
                return tuple(out)

        _init(self, "ring", ring)
        _init(self, "blocks", blocks)
        _init(self, "parts", parts)
        _init(self, "descending_key", descending)
        _init(self, "weights", weights)
        _init(self, "quotient_nvars", quotient_nvars)

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return OrderSpec, (self.ring, self.blocks, self.weights, self.quotient_nvars)

    def __eq__(self, other):
        if other.__class__ is not OrderSpec:
            return NotImplemented
        return (self.ring, self.blocks) == (other.ring, other.blocks)

    def __hash__(self):
        return hash((self.ring, self.blocks))

    def __repr__(self):
        return f"OrderSpec(ring={self.ring!r}, blocks={self.blocks!r})"

    def key(self, m: tuple):
        return tuple((len(part), part) for part in self.parts(m))


def _whole(m: tuple) -> tuple:
    return (m,)


def _descending_whole(m: tuple) -> tuple:
    return (-len(m), tuple(map(neg, m)))


def _block_parts(blocks: tuple, nvars: int):
    """Build ``OrderSpec.parts`` for the given blocks: a monomial's
    positions dealt to their blocks, each part ascending as the monomial
    is."""
    owner = [0] * nvars
    for b, blk in enumerate(blocks):
        for p in blk:
            owner[p] = b

    def parts(m: tuple) -> list:
        out = [[] for _ in blocks]
        for p in m:
            out[owner[p]].append(p)
        return [tuple(part) for part in out]

    return parts


@lru_cache(maxsize=None)
def omega_order(ring: Ring) -> OrderSpec:
    return OrderSpec(ring, (tuple(range(ring.nvars)),))


def elimination_order(
    ring: Ring,
    eliminated: frozenset,
    weights: tuple | None = None,
    quotient_nvars: int | None = None,
) -> OrderSpec:
    """Two-block order: ``eliminated`` variables first (greater block).

    ``weights``, one per position of ``ring``, makes it the order of an
    elimination: ``groebner.buchberger`` then returns only the reduced
    basis of the elimination ideal, its elements free of ``eliminated``.
    ``quotient_nvars`` gives its quotient's Hilbert function (see
    ``OrderSpec``)."""
    first = tuple(p for p, v in enumerate(ring.vars) if v in eliminated)
    second = tuple(p for p, v in enumerate(ring.vars) if v not in eliminated)
    if len(first) != len(eliminated):
        raise UnknownVariable("eliminated variables not all in ring")
    return OrderSpec(ring, (first, second), weights, quotient_nvars)


class Polynomial:
    """A sparse polynomial: ring plus {position multiset: coefficient} terms.

    A coefficient is an ``int``, or a ``Fraction`` where it is not
    integral (the module docstring gives the argument that the two mix
    exactly).  Values are immutable by convention; all operations return
    new objects and never keep zero coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(map(len, self.terms))

    def is_homogeneous(self) -> bool:
        return len(set(map(len, self.terms))) <= 1

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring:
            raise RingMismatch(
                f"mixed rings {self.ring.name} and {other.ring.name}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            s = c if acc is None else acc + c
            if s:
                terms[m] = s
            elif acc is not None:
                del terms[m]
        return Polynomial(self.ring, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, _product(self.terms, other.terms))

    def scale(self, c) -> "Polynomial":
        """The polynomial times an exact factor, an ``int`` or a ``Fraction``.

        An ``int`` factor stays an ``int``.  A ``float`` (or ``bool``) is
        refused: ``Fraction(0.1)`` would turn a binary rounding error into
        an exact-looking 55-bit quotient.
        """
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise TypeError(f"scale needs an int or a Fraction, got {c!r}")
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.name, frozenset(self.terms.items())))

    # -- order-aware views -------------------------------------------------

    def sorted_terms(self):
        """Terms as (coefficient, monomial), descending by
        ``omega_order(self.ring)``."""
        monomials = sorted(self.terms, key=omega_order(self.ring).descending_key)
        return [(self.terms[m], m) for m in monomials]

    def leading(self, order: OrderSpec | None = None):
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        order = order or omega_order(self.ring)
        m = min(self.terms, key=order.descending_key)
        return self.terms[m], m

    def __repr__(self):
        return format_poly(self)


def _product(t1: dict, t2: dict) -> dict:
    """The terms of the product of two term dicts, zeros dropped; a
    monomial product is the sorted concatenation of the multisets."""
    terms: dict = {}
    get = terms.get
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = tuple(sorted(m1 + m2))
            terms[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in terms.items() if c}


class RingMap(Mapping):
    """A read-only map ``VariableId -> Polynomial`` over ``target`` (a
    copy of ``images``) with the memo ``apply_hom`` keeps for it; the
    module docstring gives why the memo is sound."""

    __slots__ = ("_images", "target", "_memo")

    def __init__(self, images: dict, target: Ring):
        for img in images.values():
            if img.ring is not target:
                raise RingMismatch("homomorphism images in mixed rings")
        self._images = dict(images)
        self.target = target
        self._memo: dict = {}

    def __getitem__(self, v: VariableId) -> Polynomial:
        return self._images[v]

    def __iter__(self):
        return iter(self._images)

    def __len__(self) -> int:
        return len(self._images)


def apply_hom(f: Polynomial, hom, target: Ring) -> Polynomial:
    """Apply a ring homomorphism given by variable images.

    ``hom`` maps VariableId -> Polynomial over ``target``: a ``RingMap``,
    whose memo keeps the image of each source monomial across calls, or a
    plain dict, which gets a memo for this call only.  Every variable
    occurring in ``f`` must have an image.

    All products go into one accumulator dict.  The image of a monomial
    not yet in the memo is the product of the image powers v^e of its
    distinct variables, e the count of v's position in the multiset,
    each computed once per call as ((v*v)*v)...; a source
    term c*m adds c times the image of m, and zero coefficients are
    dropped once, at the end, so terms that cancel across source terms
    leave nothing behind.
    """
    if isinstance(hom, RingMap):
        if hom.target is not target:
            raise RingMismatch(f"map into {hom.target.name}, not {target.name}")
        images, memo = hom._images, hom._memo
    else:
        images, memo = hom, {}
    ring = f.ring
    rvars = ring.vars
    powers: dict = {}  # (position, exponent) -> terms of image^exponent

    def power(pos: int, e: int) -> dict:
        # iterative, so that no cycle through the closure outlives the call
        got = powers.get((pos, e))
        if got is None:
            img = images.get(rvars[pos])
            if img is None:
                raise PartialHomomorphism(f"no image for {rvars[pos]!r}")
            if img.ring is not target:
                raise RingMismatch("homomorphism images in mixed rings")
            got = img.terms
            for _ in range(e - 1):
                got = _product(got, img.terms)
            powers[(pos, e)] = got
        return got

    one = {(): 1}
    acc: dict = {}
    get = acc.get
    for m, c in f.terms.items():
        term = memo.get((ring, m))
        if term is None:
            term = one
            for pos in dict.fromkeys(m):
                p = power(pos, m.count(pos))
                term = p if term is one else _product(term, p)
            memo[(ring, m)] = term
        for t, v in term.items():
            acc[t] = get(t, 0) + c * v
    return Polynomial(target, {t: v for t, v in acc.items() if v})


def transport(f: Polynomial, target: Ring) -> Polynomial:
    """Re-express f in a ring containing all variables it actually uses:
    each position it uses is looked up once in the target's own
    ``index``, and each remapped multiset is sorted, as the target may
    list the variables in another order."""
    rvars = f.ring.vars
    where = {p: target.index.get(rvars[p]) for p in set().union(*f.terms)}
    if None in where.values():
        raise UnknownVariable(f"polynomial uses a variable not in ring {target.name}")
    get = where.__getitem__
    return Polynomial(
        target, {tuple(sorted(map(get, m))): c for m, c in f.terms.items()}
    )


# -- serialization ---------------------------------------------------------


def _exp_key(v: VariableId) -> str:
    if v.kind is VarKind.T:
        return "t"
    return ",".join(str(i) for i in v.index)


def format_monomial(ring: Ring, m: tuple) -> str:
    """Text form of a monomial over ``ring``: `w[i,j]^e*...` in position
    order, or "1"."""
    factors = []
    for p in dict.fromkeys(m):
        e = m.count(p)
        factors.append(repr(ring.vars[p]) if e == 1 else f"{ring.vars[p]!r}^{e}")
    return "*".join(factors) or "1"


def format_poly(f: Polynomial) -> str:
    """Deterministic text form: terms descending, `±c*w[i,j]^e*...`."""
    if f.is_zero:
        return "0"
    parts = []
    for c, m in f.sorted_terms():
        text = format_monomial(f.ring, m)
        a = abs(c)
        if a != 1:
            text = f"{a}*{text}" if m else str(a)
        parts.append(("+" if c > 0 else "-") + text)
    return "".join(parts)


def poly_to_json(f: Polynomial) -> dict:
    """JSON form with deterministic (descending) term ordering."""
    terms = []
    for c, m in f.sorted_terms():
        exp = {_exp_key(f.ring.vars[p]): m.count(p) for p in dict.fromkeys(m)}
        terms.append({"coeff": str(c), "exp": exp})
    return {"ring": f.ring.name, "terms": terms}
