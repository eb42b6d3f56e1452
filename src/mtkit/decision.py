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

from dataclasses import dataclass, field
from enum import Enum
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


@dataclass(frozen=True)
class MtQuery:
    g: int
    s: int
    endo: EndoType

    def validate(self) -> None:
        if self.g < 1:
            raise QueryInvalid("g must be a positive integer")
        if not 0 <= self.s <= self.g:
            raise QueryInvalid("toric dimension must satisfy 0 <= s <= g")
        if self.endo != EndoType.TRIVIAL_Z and self.s > 0 and self.s % 2:
            raise QueryInvalid("Type II/III requires even s")

    def to_dict(self) -> dict:
        return {"g": self.g, "s": self.s, "endo": self.endo.value}

    @classmethod
    def from_dict(cls, d: dict) -> "MtQuery":
        return cls(g=d["g"], s=d["s"], endo=EndoType(d["endo"]))


@dataclass(frozen=True)
class Witness:
    """Parameters of the exceptional family that matched."""

    family: int  # 1: middle exterior power, 2: spin / half-spin
    parameter: int  # r for family 1, t for family 2
    g: int
    s: int

    def to_dict(self) -> dict:
        return {"family": self.family, "r_or_t": self.parameter, "g": self.g, "s": self.s}

    @classmethod
    def from_dict(cls, d: dict) -> "Witness":
        return cls(family=d["family"], parameter=d["r_or_t"], g=d["g"], s=d["s"])


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

    @classmethod
    def from_dict(cls, d: dict) -> "MtVerdict":
        return cls(
            status=Status(d["status"]),
            target_group=d.get("target_group"),
            witness=Witness.from_dict(d["witness"]) if d.get("witness") else None,
            explanation=d.get("explanation", ""),
            citations=tuple(d.get("citations", ())),
            notes=tuple(d.get("notes", ())),
        )


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


def _odd_power_witness(n: int) -> tuple[int, int] | None:
    """(m, k) with m**k = n, k odd > 1 and least; None if none.  n even forces
    m even, so k divides v = v_2(n) and only those k are tried."""
    v = (n & -n).bit_length() - 1
    for k in range(3, v + 1, 2):
        if v % k == 0 and (m := _int_nth_root(n, k)) ** k == n:
            return m, k
    return None


def pink_gate(g: int) -> PinkResult:
    """Pink's numeric criterion on g alone (no bad-reduction input needed).

    2g = C(2m, m) with odd m >= 3 exactly when g is on family 1 of End(A) = Z.
    """
    if g < 1:
        raise QueryInvalid("g must be a positive integer")
    n = 2 * g
    power = _odd_power_witness(n)
    if power is not None:
        m, k = power
        return PinkResult(False, f"2g = {n} = {m}^{k} with odd exponent {k}")
    m, fg, _ = _family1_from(g, EndoType.TRIVIAL_Z)
    if fg == g:
        return PinkResult(False, f"2g = {n} = C({2 * m}, {m}) with odd m = {m}")
    return PinkResult(True)


# The exceptional families, per endomorphism type: (first r, first t,
# classes of t mod 4).  Family 1 is the middle exterior power, g = C(2r, r)/2
# and s = C(2r-2, r-1) for End(A) = Z, twice both for types II and III; r
# steps by 2 from the first r, which thereby fixes its parity.  Family 2 is
# the spin family, g = 2**t and s in {g, g/2}, for every t from the first t
# on whose class mod 4 is listed.
_FAMILIES = {
    EndoType.TRIVIAL_Z: (3, 4, (0, 1)),
    EndoType.QUATERNION_TYPE_II: (3, 5, (1, 2)),
    EndoType.QUATERNION_TYPE_III: (2, 4, (0, 3)),
}


def _family1_from(g: int, endo: EndoType) -> tuple[int, int, int]:
    """The family-1 point with the least g' >= g: (r, g', s').

    C(2r, r) < 4**r, so every r with 4**r <= 2g/k gives g' < g: the walk
    starts at the least r of the family above those.
    """
    k = 1 if endo == EndoType.TRIVIAL_Z else 2
    first = _FAMILIES[endo][0]
    r = ((2 * g // k).bit_length() + 1) // 2
    r = max(first, r + (r - first) % 2)
    while (fg := k * comb(2 * r, r) // 2) < g:
        r += 2
    return r, fg, k * comb(2 * r - 2, r - 1)


def _in_family2(t: int | None, endo: EndoType) -> bool:
    """True iff g = 2**t is a family-2 dimension; t is None when g is no power of 2."""
    _, first_t, classes = _FAMILIES[endo]
    return t is not None and t >= first_t and t % 4 in classes


def _notes_for(g: int, endo: EndoType) -> tuple[str, ...]:
    if endo == EndoType.TRIVIAL_Z and g in (84, 126):
        return (DISCREPANCY_NOTE,)
    return ()


def mt_check(q: MtQuery) -> MtVerdict:
    """Decide a single (g, s, endo) query.

    Order: Pink's gate (End = Z only), then the no-bad-place fallback, then
    the endo-specific exceptional-family tests, then the generic proved
    verdict with the matching target group.
    """
    q.validate()
    notes = _notes_for(q.g, q.endo)

    pink = pink_gate(q.g) if q.endo == EndoType.TRIVIAL_Z else None
    if pink is not None and pink.proves:
        return MtVerdict(
            status=Status.PROVED_BY_PINK,
            target_group=f"GSp_{2 * q.g}",
            witness=None,
            explanation=(
                "Mumford-Tate conjecture holds: Pink's numeric criterion applies "
                "without any bad-reduction hypothesis"
            ),
            citations=(CITATION_PINK,),
            notes=notes,
        )

    if q.s == 0:
        why = (
            f"Pink's criterion is inconclusive ({pink.reason}) and no bad semistable "
            "place is known (s = 0); the reduction-based criteria need one"
            if pink is not None
            else "no bad semistable place is known (s = 0); the quaternionic criteria need one"
        )
        return MtVerdict(
            status=Status.NOT_COVERED,
            target_group=None,
            witness=None,
            explanation=why,
            citations=(),
            notes=notes,
        )

    witness = None
    r, fg, fs = _family1_from(q.g, q.endo)
    if (fg, fs) == (q.g, q.s):
        witness = Witness(family=1, parameter=r, g=fg, s=fs)
    elif q.s in (q.g, q.g // 2):
        t = _exact_log2(q.g)
        if _in_family2(t, q.endo):
            witness = Witness(family=2, parameter=t, g=q.g, s=q.s)
    if witness is not None:
        pname = "r" if witness.family == 1 else "t"
        return MtVerdict(
            status=Status.EXCEPTIONAL_CASE,
            target_group=None,
            witness=witness,
            explanation=(
                f"not proved by these theorems: (g, s) = ({q.g}, {q.s}) lies in "
                f"exceptional family {witness.family} with witness {pname} = {witness.parameter}"
            ),
            citations=(CITATION_MAIN if q.endo == EndoType.TRIVIAL_Z else CITATION_QUATERNION,),
            notes=notes,
        )

    if q.endo == EndoType.TRIVIAL_Z:
        status, target, cite = Status.PROVED_BY_MAIN_THEOREM, f"GSp_{2 * q.g}", CITATION_MAIN
    elif q.endo == EndoType.QUATERNION_TYPE_II:
        status, target, cite = Status.PROVED_BY_THEOREM_41, f"GSp_{q.g}", CITATION_QUATERNION
    else:
        status, target, cite = Status.PROVED_BY_THEOREM_41, f"GSO_{q.g}", CITATION_QUATERNION
    return MtVerdict(
        status=status,
        target_group=target,
        witness=None,
        explanation=(
            f"Mumford-Tate conjecture holds with monodromy {target}: "
            f"s = {q.s} matches no exceptional family"
        ),
        citations=(cite,),
        notes=notes,
    )


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

    @classmethod
    def from_dict(cls, d: dict) -> "ExceptionalInstance":
        return cls(
            g=d["g"], s=d["s"], family=d["family"], parameter=d["r_or_t"],
            notes=tuple(d.get("notes", ())),
        )


def enumerate_exceptional(g_max: int, endo: EndoType) -> tuple[ExceptionalInstance, ...]:
    """All exceptional (g, s) pairs with g <= g_max, from the family table."""
    if g_max < 1:
        raise QueryInvalid("g_max must be a positive integer")
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
