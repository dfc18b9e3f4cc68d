"""Exception types raised by the cpsemi library."""


class CpsemiError(Exception):
    """Base class for all cpsemi errors."""


class DimensionMismatch(CpsemiError):
    """Operands have incompatible shapes or live over different algebras."""


class NotHermitian(CpsemiError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotCP(CpsemiError):
    """A map required to be completely positive is not."""


class NotCCP(CpsemiError):
    """A map required to be conditionally completely positive is not.

    Carries an optional ``witness`` attribute: an eigenvector of the
    projected Choi matrix with negative eigenvalue.
    """

    def __init__(self, message: str, witness=None, eigenvalue: float | None = None):
        super().__init__(message)
        self.witness = witness
        self.eigenvalue = eigenvalue


class NotHermiticityPreserving(CpsemiError):
    """A map required to send Hermitian matrices to Hermitian matrices does not."""


class NotMember(CpsemiError):
    """An operator is not a member of the metric operator space in question."""


class OwnerMismatch(CpsemiError):
    """Units built over different generator decompositions were combined."""


class ConstraintViolated(CpsemiError):
    """A constrained tuple does not satisfy its linear constraint."""


class LogBranch(CpsemiError):
    """A principal logarithm was requested too close to the branch cut."""


class Overflow(CpsemiError):
    """A matrix exponential overflowed: its norm is not finite."""


class ParseError(CpsemiError):
    """An input file or JSON document does not match the expected schema."""
