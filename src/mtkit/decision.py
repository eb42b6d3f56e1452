"""Case-decision engine for the Mumford-Tate conjecture under bad semistable reduction.

Given an abelian-variety dimension g, a toric dimension s at a bad
semistable place (s = 0 meaning no such place is known), and the
endomorphism type, the engine reports which criterion settles the
conjecture or exhibits the exceptional parameter family blocking the
argument:

* Pink's numeric criterion needs no bad place: it proves G = GSp_2g when
  2g is neither m**k for odd k > 1 nor a central binomial C(2m, m) for
  odd m >= 3.
* With End(A) = Z and a bad place, the inertia generator is a quadratic
  unipotent with drop s, and the symplectic-minuscule case analysis
  leaves exactly two exceptional families: the middle exterior power
  (family 1) and the spin family (family 2).
* For quaternionic endomorphism algebras (types II and III) the variant
  with even s has its own version of both families.

The equations of the families are stated once, beside the table _FAMILIES;
mt_check looks a query up in them and enumerate_exceptional lists them.

An ExceptionalCase verdict always means "not proved by these theorems",
never a claim that the conjecture fails.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import update_wrapper
from math import comb

from .drops import _exact_log2
from .errors import QueryInvalid

CITATION_PINK = (
    "Pink: 2g is neither an odd-exponent perfect power nor a central binomial "
    "coefficient, so the l-adic monodromy group is GSp_2g"
)
CITATION_MAIN = (
    "End(A) = Z with bad semistable reduction: the inertia drop s excludes every "
    "non-symplectic minuscule candidate"
)
CITATION_QUATERNION = (
    "quaternionic endomorphisms (type II/III): even-s variant of the inertia-drop "
    "case analysis"
)

# The engine follows the family equations and says so whenever either g of
# the r = 5 family-1 discrepancy is queried.
DISCREPANCY_NOTE = (
    "instance-list discrepancy: the r = 5 member of exceptional family 1 is "
    "sometimes quoted as (g, s) = (84, 70), but the defining equations "
    "g = C(2r, r)/2 and s = C(2r-2, r-1) give (126, 70); this engine follows "
    "the equations"
)


class EndoType(str, Enum):
    """Endomorphism type of the abelian variety, as exposed on the CLI."""

    TRIVIAL_Z = "Z"
    QUATERNION_TYPE_II = "II"
    QUATERNION_TYPE_III = "III"


class Status(str, Enum):
    PROVED_BY_PINK = "ProvedByPink"
    PROVED_BY_MAIN_THEOREM = "ProvedByMainTheorem"
    PROVED_BY_THEOREM_41 = "ProvedByTheorem41"
    EXCEPTIONAL_CASE = "ExceptionalCase"
    NOT_COVERED = "NotCovered"


# Module-level aliases: the engine compares members by identity, and a class
# attribute read on an Enum costs more than the comparison itself.
_Z, _II, _III = EndoType.TRIVIAL_Z, EndoType.QUATERNION_TYPE_II, EndoType.QUATERNION_TYPE_III
_PINK, _MAIN, _THEOREM_41 = (
    Status.PROVED_BY_PINK, Status.PROVED_BY_MAIN_THEOREM, Status.PROVED_BY_THEOREM_41
)
_EXCEPTIONAL, _NOT_COVERED = Status.EXCEPTIONAL_CASE, Status.NOT_COVERED


def _endo_type(endo) -> EndoType:
    """endo as an EndoType member; a plain string equal to a member's value is accepted."""
    try:
        return EndoType(endo)
    except ValueError:
        raise QueryInvalid(
            f"unknown endomorphism type {endo!r}; expected one of Z, II, III"
        ) from None


def _require_positive_int(value, name: str) -> None:
    """Raise QueryInvalid unless value is an int >= 1; a bool is refused too."""
    if value.__class__ is not int or value < 1:
        raise QueryInvalid(f"{name} must be a positive integer")


def _dict_init(cls):
    """Give a frozen dataclass an __init__ that writes the instance __dict__ directly.

    The generated __init__ sets each field through object.__setattr__, about half
    the cost of a decide query; ==, repr, hash and FrozenInstanceError stay the
    dataclass's.  A record whose __init__ must do more than store its fields is refused.
    """
    fs = fields(cls)
    if hasattr(cls, "__post_init__") or any(
        f.default_factory is not MISSING or not f.init or f.kw_only is True for f in fs
    ):
        raise TypeError(f"{cls.__name__} needs the __init__ that dataclass generates")
    ns = {f"__default_{f.name}": f.default for f in fs}
    params = [f.name if f.default is MISSING else f"{f.name}=__default_{f.name}" for f in fs]
    body = [f"__d[{f.name!r}] = {f.name}" for f in fs]
    exec("\n ".join([f"def __init__(self, {', '.join(params)}):", "__d = self.__dict__", *body]), ns)
    cls.__init__ = update_wrapper(ns["__init__"], cls.__init__)
    return cls


@_dict_init
@dataclass(frozen=True)
class MtQuery:
    g: int
    s: int
    endo: EndoType

    def validate(self) -> EndoType:
        """Check the query's invariants and return its endomorphism type as a member."""
        g, s = self.g, self.s
        if g.__class__ is not int or g < 1:  # _require_positive_int, inlined: the hot path
            raise QueryInvalid("g must be a positive integer")
        if s.__class__ is not int:
            raise QueryInvalid("toric dimension must be an integer")
        if not 0 <= s <= g:
            raise QueryInvalid("toric dimension must satisfy 0 <= s <= g")
        endo = self.endo
        if endo.__class__ is not EndoType:
            endo = _endo_type(endo)
        if endo is not _Z and s % 2:
            raise QueryInvalid("Type II/III requires even s")
        return endo

    def to_dict(self) -> dict:
        return {"g": self.g, "s": self.s, "endo": _endo_type(self.endo).value}


@_dict_init
@dataclass(frozen=True)
class Witness:
    """Parameters of the exceptional family that matched."""

    family: int  # 1: middle exterior power, 2: spin / half-spin
    parameter: int  # r for family 1, t for family 2
    g: int
    s: int

    def to_dict(self) -> dict:
        return {"family": self.family, "r_or_t": self.parameter, "g": self.g, "s": self.s}


@_dict_init
@dataclass(frozen=True)
class MtVerdict:
    status: Status
    target_group: str | None
    witness: Witness | None
    explanation: str
    citations: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "target_group": self.target_group,
            "witness": self.witness.to_dict() if self.witness else None,
            "explanation": self.explanation,
            "citations": list(self.citations),
            "notes": list(self.notes),
        }


@_dict_init
@dataclass(frozen=True)
class PinkResult:
    proves: bool
    reason: str | None = None


def _int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root, exact integer Newton iteration."""
    if n < 1:
        return 0
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def pink_gate(g: int) -> PinkResult:
    """Pink's numeric criterion on g alone (no bad-reduction input needed).

    2g = C(2m, m) with odd m >= 3 exactly when g is on family 1 of End(A) = Z.
    """
    _require_positive_int(g, "g")
    m, fg, _ = _family1_from(g, _Z)
    reason = _pink_reason(g, m, fg)
    return PinkResult(reason is None, reason)


def _pink_reason(g: int, m: int, fg: int) -> str | None:
    """Why Pink's criterion is inconclusive at g; None when it proves GSp_2g.

    (m, fg) are r and g' of the family-1 point _family1_from(g, TRIVIAL_Z).
    An odd power x**k = 2g has x even, so k divides v = v_2(2g) and only
    those k are tried; the least one is reported.
    """
    n = 2 * g
    v = (n & -n).bit_length() - 1
    for k in range(3, v + 1, 2):
        if v % k == 0 and (root := _int_nth_root(n, k)) ** k == n:
            return f"2g = {n} = {root}^{k} with odd exponent {k}"
    if fg == g:
        return f"2g = {n} = C({2 * m}, {m}) with odd m = {m}"
    return None


# The exceptional families, per endomorphism type: (family-1 multiplier k,
# first r, first t, classes of t mod 4).  Family 1 is the middle exterior
# power, g = k C(2r, r)/2 and s = k C(2r-2, r-1), with k = 1 for End(A) = Z
# and k = 2 for types II and III; r steps by 2 from the first r, which
# thereby fixes its parity.  Family 2 is the spin family, g = 2**t and s in
# {g, g/2}, for every t from the first t on whose class mod 4 is listed.
_FAMILIES = {
    _Z: (1, 3, 4, (0, 1)),
    _II: (2, 3, 5, (1, 2)),
    _III: (2, 2, 4, (0, 3)),
}

# The verdict when no family matches, per endomorphism type: status,
# target-group prefix and the multiplier of g in its index, citations (also
# those of an exceptional verdict).
_PROVED = {
    _Z: (_MAIN, "GSp_", 2, (CITATION_MAIN,)),
    _II: (_THEOREM_41, "GSp_", 1, (CITATION_QUATERNION,)),
    _III: (_THEOREM_41, "GSO_", 1, (CITATION_QUATERNION,)),
}

_PINK_EXPLANATION = (
    "Mumford-Tate conjecture holds: Pink's numeric criterion applies "
    "without any bad-reduction hypothesis"
)
_PINK_CITATIONS = (CITATION_PINK,)
_NO_PLACE_QUATERNION = (
    "no bad semistable place is known (s = 0); the quaternionic criteria need one"
)
_DISCREPANCY_NOTES = (DISCREPANCY_NOTE,)


def _family1_from(g: int, endo: EndoType) -> tuple[int, int, int]:
    """The family-1 point with the least g' >= g: (r, g', s').

    C(2r, r) < 4**r, so every r with 4**r <= 2g/k gives g' < g: the walk
    starts at the least r of the family above those.
    """
    k, first, _, _ = _FAMILIES[endo]
    r = ((2 * g // k).bit_length() + 1) // 2
    r = first if r <= first else r + (r - first) % 2
    while (fg := k * comb(2 * r, r) // 2) < g:
        r += 2
    return r, fg, k * comb(2 * r - 2, r - 1)


def _in_family2(t: int | None, endo: EndoType) -> bool:
    """True iff g = 2**t is a family-2 dimension; t is None when g is no power of 2."""
    _, _, first_t, classes = _FAMILIES[endo]
    return t is not None and t >= first_t and t % 4 in classes


def _notes_for(g: int, endo: EndoType) -> tuple[str, ...]:
    return _DISCREPANCY_NOTES if endo is _Z and (g == 84 or g == 126) else ()


def mt_check(q: MtQuery) -> MtVerdict:
    """Decide a single (g, s, endo) query.

    Order: Pink's gate (End = Z only), then the no-bad-place fallback, then
    the endo-specific exceptional-family tests, then the generic proved
    verdict with the matching target group.
    """
    endo = q.validate()
    g, s = q.g, q.s
    notes = _notes_for(g, endo)
    r, fg, fs = _family1_from(g, endo)
    if endo is _Z:
        reason = _pink_reason(g, r, fg)
        if reason is None:
            return MtVerdict(_PINK, f"GSp_{2 * g}", None, _PINK_EXPLANATION, _PINK_CITATIONS, notes)

    if s == 0:
        why = (
            f"Pink's criterion is inconclusive ({reason}) and no bad semistable "
            "place is known (s = 0); the reduction-based criteria need one"
            if endo is _Z
            else _NO_PLACE_QUATERNION
        )
        return MtVerdict(_NOT_COVERED, None, None, why, (), notes)

    status, prefix, multiplier, citations = _PROVED[endo]
    if fg == g and fs == s:
        family, pname, parameter = 1, "r", r
    elif (s == g or s == g // 2) and _in_family2(t := _exact_log2(g), endo):
        family, pname, parameter = 2, "t", t
    else:
        target = f"{prefix}{multiplier * g}"
        return MtVerdict(
            status, target, None,
            f"Mumford-Tate conjecture holds with monodromy {target}: "
            f"s = {s} matches no exceptional family",
            citations, notes,
        )
    return MtVerdict(
        _EXCEPTIONAL, None, Witness(family, parameter, g, s),
        f"not proved by these theorems: (g, s) = ({g}, {s}) lies in "
        f"exceptional family {family} with witness {pname} = {parameter}",
        citations, notes,
    )


@_dict_init
@dataclass(frozen=True)
class ExceptionalInstance:
    g: int
    s: int
    family: int
    parameter: int
    notes: tuple[str, ...] = field(default=(), compare=False)

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "s": self.s,
            "family": self.family,
            "r_or_t": self.parameter,
            "notes": list(self.notes),
        }


def enumerate_exceptional(g_max: int, endo: EndoType) -> tuple[ExceptionalInstance, ...]:
    """All exceptional (g, s) pairs with g <= g_max, from the family table."""
    _require_positive_int(g_max, "g_max")
    endo = _endo_type(endo)
    out = []
    r, fg, fs = _family1_from(1, endo)
    while fg <= g_max:
        out.append(ExceptionalInstance(g=fg, s=fs, family=1, parameter=r,
                                       notes=_notes_for(fg, endo)))
        r, fg, fs = _family1_from(fg + 1, endo)
    for t in range(g_max.bit_length()):
        if _in_family2(t, endo):
            fg = 2**t
            out.append(ExceptionalInstance(g=fg, s=fg // 2, family=2, parameter=t))
            out.append(ExceptionalInstance(g=fg, s=fg, family=2, parameter=t))
    out.sort(key=lambda x: (x.g, x.s, x.family, x.parameter))
    return tuple(out)
