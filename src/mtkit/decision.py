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
  (g = C(2r, r)/2, s = C(2r-2, r-1), odd r >= 3) and the spin family
  (g = 2**t, s in {g, g/2}, t >= 4, t = 0, 1 mod 4).
* For quaternionic endomorphism algebras (types II and III) the variant
  with even s has its own two families per type.

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

# The r = 5 instance of the middle-exterior-power family is sometimes quoted
# as (84, 70); the defining equations g = C(2r,r)/2, s = C(2r-2,r-1) force
# (126, 70).  The engine follows the equations and says so whenever either g
# is queried.
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
    """Parameters of the exceptional family that matched (self-verified)."""

    family: int  # 1: middle exterior power, 2: spin / half-spin
    parameter: int  # r for family 1, t for family 2
    g: int
    s: int

    def to_dict(self) -> dict:
        return {"family": self.family, "r_or_t": self.parameter, "g": self.g, "s": self.s}

    @classmethod
    def from_dict(cls, d: dict) -> "Witness":
        return cls(family=d["family"], parameter=d["r_or_t"], g=d["g"], s=d["s"])


@dataclass
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
    """(m, k) with m**k = n, k odd > 1, m >= 2; None when no such pair exists."""
    k = 3
    while 1 << k <= n:
        m = _int_nth_root(n, k)
        if m >= 2 and m**k == n:
            return m, k
        k += 2
    return None


def _central_binomial_witness(n: int) -> int | None:
    """Odd m >= 3 with C(2m, m) = n, if any (central binomials grow fast)."""
    m = 3
    while (c := comb(2 * m, m)) <= n:
        if c == n:
            return m
        m += 2
    return None


def pink_gate(g: int) -> PinkResult:
    """Pink's numeric criterion on g alone (no bad-reduction input needed)."""
    if g < 1:
        raise QueryInvalid("g must be a positive integer")
    n = 2 * g
    power = _odd_power_witness(n)
    if power is not None:
        m, k = power
        return PinkResult(False, f"2g = {n} = {m}^{k} with odd exponent {k}")
    m = _central_binomial_witness(n)
    if m is not None:
        return PinkResult(False, f"2g = {n} = C({2 * m}, {m}) with odd m = {m}")
    return PinkResult(True)


# family-1 parity of r and family-2 congruence classes of t, per endo type
_F1_PARITY = {EndoType.TRIVIAL_Z: 1, EndoType.QUATERNION_TYPE_II: 1, EndoType.QUATERNION_TYPE_III: 0}
_F1_MIN_R = {EndoType.TRIVIAL_Z: 3, EndoType.QUATERNION_TYPE_II: 3, EndoType.QUATERNION_TYPE_III: 2}
_F2_RESIDUES = {
    EndoType.TRIVIAL_Z: (0, 1),
    EndoType.QUATERNION_TYPE_II: (1, 2),
    EndoType.QUATERNION_TYPE_III: (0, 3),
}
_F2_MIN_T = {EndoType.TRIVIAL_Z: 4, EndoType.QUATERNION_TYPE_II: 5, EndoType.QUATERNION_TYPE_III: 4}


def _family1_values(r: int, endo: EndoType) -> tuple[int, int]:
    if endo == EndoType.TRIVIAL_Z:
        return comb(2 * r, r) // 2, comb(2 * r - 2, r - 1)
    return comb(2 * r, r), 2 * comb(2 * r - 2, r - 1)


def _family1_witness(g: int, s: int, endo: EndoType) -> Witness | None:
    r = _F1_MIN_R[endo]
    while True:
        fg, fs = _family1_values(r, endo)
        if fg > g:
            return None
        if fg == g and fs == s:
            return Witness(family=1, parameter=r, g=fg, s=fs)
        r += 2


def _family2_witness(g: int, s: int, endo: EndoType) -> Witness | None:
    t = _exact_log2(g)
    if t is None or t < _F2_MIN_T[endo] or t % 4 not in _F2_RESIDUES[endo]:
        return None
    if s in (g, g // 2):
        return Witness(family=2, parameter=t, g=g, s=s)
    return None


def _verify_witness(w: Witness, endo: EndoType) -> None:
    # self-check: every emitted witness must satisfy its defining equations
    if w.family == 1:
        fg, fs = _family1_values(w.parameter, endo)
        ok = (
            (fg, fs) == (w.g, w.s)
            and w.parameter >= _F1_MIN_R[endo]
            and w.parameter % 2 == _F1_PARITY[endo]
        )
    else:
        ok = (
            w.g == 2**w.parameter
            and w.s in (w.g, w.g // 2)
            and w.parameter >= _F2_MIN_T[endo]
            and w.parameter % 4 in _F2_RESIDUES[endo]
        )
    if not ok:
        raise AssertionError(f"witness {w} fails its defining equations for endo {endo.value}")


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

    witness = _family1_witness(q.g, q.s, q.endo) or _family2_witness(q.g, q.s, q.endo)
    if witness is not None:
        _verify_witness(witness, q.endo)
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
    """All exceptional (g, s) pairs with g <= g_max, from the defining equations.

    Iterates the family parameters directly (r by parity, t by congruence
    class) until g leaves the range; every emitted instance is re-checked
    through mt_check.
    """
    if g_max < 1:
        raise QueryInvalid("g_max must be a positive integer")
    out = []
    r = _F1_MIN_R[endo]
    while True:
        fg, fs = _family1_values(r, endo)
        if fg > g_max:
            break
        out.append(ExceptionalInstance(g=fg, s=fs, family=1, parameter=r,
                                       notes=_notes_for(fg, endo)))
        r += 2
    t = _F2_MIN_T[endo]
    while 2**t <= g_max:
        if t % 4 in _F2_RESIDUES[endo]:
            fg = 2**t
            out.append(ExceptionalInstance(g=fg, s=fg // 2, family=2, parameter=t))
            out.append(ExceptionalInstance(g=fg, s=fg, family=2, parameter=t))
        t += 1
    out.sort(key=lambda x: (x.g, x.s, x.family, x.parameter))
    for inst in out:
        verdict = mt_check(MtQuery(g=inst.g, s=inst.s, endo=endo))
        if verdict.status != Status.EXCEPTIONAL_CASE:
            raise AssertionError(f"enumerated instance {inst} not confirmed by mt_check")
    return tuple(out)
