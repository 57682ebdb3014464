"""Typed domain errors.

Every error raised by the library for a *domain* reason (violated axiom,
failed precondition, exceeded cap) derives from DomainError, so callers --
in particular the CLI -- can distinguish them from programming errors.
Each error carries a short machine-readable name and, where it makes
sense, a witness of the violation.  InputError, input without the form
its reader states, is the one that is not a domain error.
"""

from decimal import Decimal


class DomainError(Exception):
    """Base class for all typed domain errors."""

    @property
    def name(self):
        return type(self).__name__

    def payload(self):
        """A JSON-friendly description of the error."""
        return {"error": self.name, "detail": str(self)}


class InputError(ValueError):
    """Input text or JSON that does not have the form its reader states."""


class CapExceeded(DomainError):
    pass


class UniverseMismatch(DomainError):
    pass


class UniverseCardinalityMismatch(DomainError):
    pass


class AxiomViolation(DomainError):
    """A named axiom or criterion that fails, with a witness.  The
    default message is the class's prefix, the axiom and the witness."""

    prefix = "axiom"

    def __init__(self, axiom, witness, message=""):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or "%s %s violated (witness %r)" % (self.prefix, axiom, witness))


class BaseCriterionViolation(AxiomViolation):
    prefix = "base criterion"


class SubbaseCriterionViolation(DomainError):
    def __init__(self, criterion):
        self.criterion = criterion
        super().__init__("subbase criterion violated: %s" % criterion)


class ClosedAxiomViolation(AxiomViolation):
    prefix = "closed-system axiom"


class FilterBaseViolation(DomainError):
    def __init__(self, condition, witness):
        self.condition = condition
        self.witness = witness
        super().__init__("filter base condition violated: %s (witness %r)" % (condition, witness))


class EmptyMeet(DomainError):
    def __init__(self, selection):
        self.selection = selection
        super().__init__("cross intersection is empty for selection %r" % (selection,))


class NotSurjective(DomainError):
    pass


class NeighborhoodAxiomViolation(AxiomViolation):
    prefix = "neighborhood axiom"


class SetMapAxiomViolation(AxiomViolation):
    prefix = "set-neighborhood-map axiom"


class NeighborhoodBaseViolation(AxiomViolation):
    prefix = "neighborhood base axiom"


class NotABase(DomainError):
    pass


class KuratowskiViolation(AxiomViolation):
    prefix = "closure-operator axiom"


class InteriorAxiomViolation(AxiomViolation):
    prefix = "interior-operator axiom"


class NotDirected(DomainError):
    pass


class ClusterPreconditionFailed(DomainError):
    pass


class NotEquivalence(DomainError):
    pass


class NoFullField(DomainError):
    pass


class MissingFullDomain(DomainError):
    pass


class MissingFullRange(DomainError):
    pass


class InvalidMetric(DomainError):
    def __init__(self, reason, witness):
        self.reason = reason
        self.witness = witness
        super().__init__("invalid pseudo-metric: %s (witness %r)" % (reason, witness))


class EmptyArgument(DomainError):
    pass


class IndexOutOfRange(DomainError):
    pass


class NonDyadicClosedForm(DomainError):
    def __init__(self, numerator, denominator):
        self.numerator = numerator
        self.denominator = denominator
        # decimal, unlike int-to-str, writes a pair of any length
        super().__init__("closed form %s/%s is not a dyadic rational"
                         % (Decimal(numerator), Decimal(denominator)))


class BracketViolation(DomainError):
    def __init__(self, step):
        self.step = step
        super().__init__("bracket invariant failed at bisection step %d" % step)


class LengthMismatch(DomainError):
    pass


class NonDyadicLiteral(DomainError):
    pass
