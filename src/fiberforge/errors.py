"""Exception types shared across the package."""


class FiberForgeError(Exception):
    """Base class for all package errors."""


class UnknownVariable(FiberForgeError):
    """A monomial mentions a variable outside the order's universe."""


class RingMismatch(FiberForgeError):
    """Arithmetic attempted between polynomials of different rings."""


class ZeroPolynomial(FiberForgeError):
    """The zero polynomial has no leading term."""


class PartialHomomorphism(FiberForgeError):
    """A ring map is missing the image of a variable it must substitute."""


class BadIndex(FiberForgeError):
    """A matrix or variable index is out of range or repeated."""


class NotA1(FiberForgeError):
    """delta() is only defined on minors meeting the diagonal exactly once."""


class DimensionTooSmall(FiberForgeError):
    """The construction needs d >= 4."""


class BadParams(FiberForgeError):
    """Catalogue or census parameters violate their constraints."""


class NotInS(FiberForgeError):
    """A triple-product census was requested for a variable outside S_ij."""


class NotHomogeneous(FiberForgeError):
    """A graded computation received an inhomogeneous polynomial."""


class OutOfTable(FiberForgeError):
    """No closed form is available for the requested parameters."""


class BeyondTruncation(FiberForgeError):
    """Reduction was requested above a basis's truncation degree."""


class BudgetExceeded(FiberForgeError):
    """A long-running computation ran out of its time budget.

    Carries whatever partial state was available when the deadline hit.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class MonomialOverflow(FiberForgeError):
    """An exponent or block degree does not fit its packed field."""


class UnfixedSharedVariable(FiberForgeError):
    """A ring map's image uses a source variable that the map moves."""
