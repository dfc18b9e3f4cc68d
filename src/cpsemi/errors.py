"""Exception types raised by the cpsemi library, and the CLI's exit codes.

Each class's ``exit_code`` is the code with which ``cpsemi`` exits on it, as
README's "Exit codes" paragraph states: 1 malformed input (a file, a flag or
a library argument), 2 the input is not a generator, 3 a numerical limit.
"""

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_GENERATOR = 2
EXIT_NUMERICAL = 3


class CpsemiError(Exception):
    """Base class for all cpsemi errors: malformed input unless a subclass says otherwise."""

    exit_code = EXIT_PARSE


class DimensionMismatch(CpsemiError):
    """Operands have incompatible shapes or live over different algebras."""


class NotHermitian(CpsemiError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotCP(CpsemiError):
    """A map required to be completely positive is not."""

    exit_code = EXIT_NOT_GENERATOR


class NotCCP(CpsemiError):
    """A map required to be conditionally completely positive is not.

    Carries an optional ``witness`` attribute: an eigenvector of the
    projected Choi matrix with negative eigenvalue.
    """

    exit_code = EXIT_NOT_GENERATOR

    def __init__(self, message: str, witness=None, eigenvalue: float | None = None):
        super().__init__(message)
        self.witness = witness
        self.eigenvalue = eigenvalue


class NotHermiticityPreserving(CpsemiError):
    """A map required to send Hermitian matrices to Hermitian matrices does not."""

    exit_code = EXIT_NOT_GENERATOR


class NotMember(CpsemiError):
    """An operator is not a member of the metric operator space in question."""

    exit_code = EXIT_NUMERICAL


class OwnerMismatch(CpsemiError):
    """Units built over different generator decompositions were combined."""


class ConstraintViolated(CpsemiError):
    """A constrained tuple does not satisfy its linear constraint."""


class LogBranch(CpsemiError):
    """A principal logarithm was requested too close to the branch cut."""

    exit_code = EXIT_NUMERICAL


class Overflow(CpsemiError):
    """An exponential, a covariance estimate, a spectrum's input or an anchor is not finite."""

    exit_code = EXIT_NUMERICAL


class ParseError(CpsemiError):
    """An input file or JSON document does not match the expected schema."""
