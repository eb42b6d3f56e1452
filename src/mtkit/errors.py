"""Exception hierarchy shared by all modules.

Everything derives from DomainError so callers (and the CLI, which maps
DomainError to exit code 2) can catch precondition and invariant
violations uniformly.  Messages always name the violated condition.
"""


class DomainError(ValueError):
    """A precondition or invariant of the library was violated."""


class InvalidCartanType(DomainError):
    """Rank outside the bounds of the requested family."""


class PreconditionError(DomainError):
    """Generic operation precondition failure (non-dominant weight, bad index, ...)."""


class NoSuchLengthClass(DomainError):
    """Asked for a root-length class the root system does not have."""


class NotUnipotent(DomainError):
    """Matrix M with M - 1 not nilpotent passed to a unipotence computation."""


class FieldMismatch(DomainError):
    """Mixed rational / prime-field operands in one matrix operation."""


class QueryInvalid(DomainError):
    """A decision-engine query violating its stated invariants."""
