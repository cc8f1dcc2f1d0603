"""Exception types shared across the package."""


class HyperconeError(Exception):
    """Base class for all package errors."""


class DegenerateInput(HyperconeError):
    """Input points coincide (within tolerance) where distinctness is required."""


class OutOfArc(HyperconeError):
    """A point that must lie strictly inside an arc does not."""


class NoInvariantDirection(HyperconeError):
    """Elliptic or +-identity matrices have no invariant direction."""


class PreconditionViolated(HyperconeError):
    """A stated precondition (e.g. a trace bound) fails; message names the offender."""


class InadmissibleWord(HyperconeError):
    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class BadFamily(HyperconeError):
    """A candidate multicone family is empty or dense for some symbol."""


class NoConvergence(HyperconeError):
    """An admissible cyclic word is not hyperbolic, so the tuple has no cores;
    the message names the word."""


class SearchBudgetExceeded(HyperconeError):
    """A bounded combinatorial search ran past its budget."""


class NotMonotonic(HyperconeError):
    def __init__(self, clause: str, element):
        super().__init__(f"monotonicity violated ({clause}) at element {element}")
        self.clause = clause
        self.element = element


class AmbiguousIncidence(HyperconeError):
    """An image arc straddles a gap between core components within tolerance."""


class HeightUndefined(HyperconeError):
    """A lifted correspondence has no diagonal point (non-hyperbolic base)."""


class EllipticAlongWord(HyperconeError):
    """The product along the word is elliptic; no fixed direction exists."""


class StructureViolation(HyperconeError):
    def __init__(self, step: str, detail: str = ""):
        super().__init__(f"structure check failed at {step}" + (f": {detail}" if detail else ""))
        self.step = step


class OrderViolation(HyperconeError):
    """Computed directions violate the expected cyclic order."""


class NotInterior(HyperconeError):
    """Fraction is 0/1 or 1/1; no Farey parents exist."""


class DegenerateTie(HyperconeError):
    """Too close to a decision boundary to decide (a quantity in its band, a
    tie, coincident points); value is the quantity at fault, or 0.0."""

    def __init__(self, message: str, value=0.0):
        super().__init__(message)
        self.value = float(value)


class DetDrift(HyperconeError):
    """Determinant of a long product drifted away from 1."""


class WitnessUnverified(HyperconeError):
    """A witness failed its re-verification from a product built from scratch.

    The program disagrees with itself, not the input; the CLI reports it as
    an internal inconsistency with exit code 2."""
