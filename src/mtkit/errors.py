"""Exception hierarchy shared by all modules.

Everything derives from DomainError so callers (and the CLI, which maps
DomainError to exit code 2) can catch precondition and invariant
violations uniformly.  Messages always name the violated condition.
"""


def printable(value) -> str:
    """repr(value), or, past sys.get_int_max_str_digits(), an int's sign and
    bit length and the type of anything else that holds such an int."""
    try:
        return repr(value)
    except ValueError:  # str() of such an int raises, and a refusal must stay a DomainError
        if type(value) is int:
            return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
        return f"<a {type(value).__name__} that holds an int too long to print>"


class DomainError(ValueError):
    """A precondition or invariant of the library was violated."""


class InvalidCartanType(DomainError):
    """Unknown family, or a rank that is not an int or is outside the bounds of the family."""


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
