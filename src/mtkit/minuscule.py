"""Minuscule weight detection, enumeration, dimensions and duality signs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError
from .roots import (
    CartanType,
    RootDatum,
    Weight,
    build_root_datum,
    dual_weight,
    pair_with_coroot,
    weyl_dimension,
    weyl_orbit,
)

# Default --max-rank of table.
DEFAULT_RANK_BOUND = 12

# Largest orbit MinusculeRep.orbit will materialize (2^20 weights).  The
# dimension gives the orbit size up front, so larger requests, such as the
# 2^40-weight spin orbit of B40, are refused before any expansion.
ORBIT_BUDGET = 2**20


@dataclass(frozen=True)
class MinusculeRep:
    """A minuscule highest weight with its dimension and duality sign.

    sign is +1 for orthogonal, -1 for symplectic, 0 for non-self-dual.  The
    Weyl orbit is not stored: rep.orbit expands it on first read.
    """

    datum: RootDatum
    highest_weight: Weight
    name: str
    dimension: int
    sign: int

    @cached_property
    def orbit(self) -> tuple[Weight, ...]:
        """The Weyl orbit of the highest weight, sorted; expanded once, on first read.

        Raises PreconditionError before expanding when the orbit, whose size
        is the dimension, has more than ORBIT_BUDGET weights.
        """
        if self.dimension > ORBIT_BUDGET:
            raise PreconditionError(
                f"the orbit of w{self.weight_index} of {self.cartan_type} has "
                f"{self.dimension} weights, more than the orbit budget of {ORBIT_BUDGET} weights"
            )
        return weyl_orbit(self.datum, self.highest_weight)

    @property
    def cartan_type(self) -> CartanType:
        return self.datum.cartan_type

    @property
    def weight_index(self) -> int:
        """1-based fundamental-weight index of the highest weight."""
        return self.highest_weight.coords.index(1) + 1


def is_minuscule(d: RootDatum, w: Weight) -> bool:
    """True iff the dominant weight w pairs to 0 or 1 with every positive coroot.

    Every positive coroot lies below the highest coroot theta_coroot, and
    pairings with a dominant weight grow along that order, so the largest
    pairing is <w, theta_coroot>: the test is <w, theta_coroot> <= 1.
    """
    if w.is_zero:
        raise PreconditionError("minuscule test requires a nonzero weight")
    if not w.is_dominant:
        raise PreconditionError("minuscule test requires a dominant weight")
    return pair_with_coroot(d.highest_coroot, w.coords) <= 1


def duality_sign(d: RootDatum, w: Weight) -> int:
    """Frobenius-Schur sign of the minuscule representation with highest weight w.

    0 when the dual highest weight differs from w; otherwise (-1)**p with
    p = <w, 2 rho_coroot>, the sum of the pairings of w against all positive
    coroots (2 rho_coroot is the sum of the positive coroots).
    """
    if not is_minuscule(d, w):
        raise PreconditionError(
            "duality sign via coroot-sum parity is only validated on minuscule weights"
        )
    if dual_weight(d, w) != w:
        return 0
    p = pair_with_coroot(d.two_rho_coroot, w.coords)
    return -1 if p % 2 else 1


def _rep_name(t: CartanType, j: int) -> str:
    fam, n = t.family, t.rank
    if fam == "A":
        return "Std" if j == 1 else f"Λ^{j} Std"
    if fam == "B":
        return "Spin"
    if fam == "C":
        return "Std"
    if fam == "D":
        if j == 1:
            return "Std"
        return "Spin+" if j == n else "Spin-"
    return f"w{j}"


def expand_rep(d: RootDatum, w: Weight) -> MinusculeRep:
    """Build the MinusculeRep record for a minuscule dominant weight.

    Nothing is expanded: the dimension is the Weyl dimension and the sign
    comes from duality_sign; the orbit waits until rep.orbit is read.
    """
    if not is_minuscule(d, w):
        raise PreconditionError(f"{w.coords} is not minuscule for {d.cartan_type}")
    return MinusculeRep(
        datum=d,
        highest_weight=w,
        name=_rep_name(d.cartan_type, w.coords.index(1) + 1),
        dimension=weyl_dimension(d, w),
        sign=duality_sign(d, w),
    )


def enumerate_minuscule(t: CartanType) -> list[MinusculeRep]:
    """The reps of all minuscule fundamental weights of t, in weight-index order.

    For the classical families this reproduces the standard table:
    A_n -> w_1..w_n, B_n -> w_n, C_n -> w_1, D_n -> w_1, w_{n-1}, w_n.
    E6 and E7 contribute their (non-tabulated) minuscule weights as well;
    F4 and G2 contribute none.
    """
    d = build_root_datum(t)
    ws = [Weight(tuple(int(k == i) for k in range(t.rank))) for i in range(t.rank)]
    return [expand_rep(d, w) for w in ws if is_minuscule(d, w)]


def minuscule_rep(t: CartanType, weight_index: int) -> MinusculeRep:
    """The minuscule rep with the given 1-based fundamental-weight index."""
    if not 1 <= weight_index <= t.rank:
        raise PreconditionError(f"weight index w{weight_index} out of range for {t}")
    d = build_root_datum(t)
    w = Weight(tuple(1 if k == weight_index - 1 else 0 for k in range(t.rank)))
    if not is_minuscule(d, w):
        raise PreconditionError(f"w{weight_index} is not minuscule for {t}")
    return expand_rep(d, w)
