"""Minuscule weight detection, enumeration, dimensions and duality signs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import PreconditionError
from .roots import (
    CartanType,
    RootDatum,
    Weight,
    _require_root_budget,
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
    """A minuscule fundamental weight w_j of a Cartan type, with its dimension and duality sign.

    sign is +1 for orthogonal, -1 for symplectic, 0 for non-self-dual.  The
    root datum, the highest weight and its Weyl orbit are not stored: each
    is built on first read.
    """

    cartan_type: CartanType
    weight_index: int  # j, 1-based
    name: str
    dimension: int
    sign: int

    @cached_property
    def datum(self) -> RootDatum:
        return build_root_datum(self.cartan_type)

    @cached_property
    def highest_weight(self) -> Weight:
        return _fundamental(self.cartan_type, self.weight_index)

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


def _fundamental(t: CartanType, j: int) -> Weight:
    return Weight(tuple(int(k == j - 1) for k in range(t.rank)))


def _classical_indices(t: CartanType) -> range | tuple[int, ...]:
    """The minuscule fundamental weights of a classical type, in index order."""
    n = t.rank
    return {"A": range(1, n + 1), "B": (n,), "C": (1,), "D": (1, n - 1, n)}[t.family]


def _classical_row(t: CartanType, j: int) -> tuple[int, int, dict[str, int]]:
    """Dimension, sign and drop per root-length class of the minuscule w_j of a classical t.

    Closed forms (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates
    I-IV).  A drop is dim * N1 / (2 N+): N+ positive roots in the class, N1
    of them pairing to 1 with w_j.
    """
    fam, n = t.family, t.rank
    if fam == "A":  # exterior power: self-dual only in the middle, sign (-1)^j
        return comb(n + 1, j), (-1) ** j if 2 * j == n + 1 else 0, {"long": comb(n - 1, j - 1)}
    if fam == "B":  # spin
        return 2**n, 1 if n % 4 in (0, 3) else -1, {"long": 2 ** (n - 2), "short": 2 ** (n - 1)}
    if fam == "C":  # standard: long roots 2e_i act as transvections
        return 2 * n, -1, {"long": 1, "short": 2}
    if j == 1:  # D standard
        return 2 * n, 1, {"long": 2}
    # D half-spins: dual to each other for odd n
    return 2 ** (n - 1), 0 if n % 2 else 1 if n % 4 == 0 else -1, {"long": 2 ** (n - 3)}


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
    """Build the MinusculeRep record for a minuscule dominant weight from its root datum.

    Nothing is expanded: the dimension is the Weyl dimension and the sign
    comes from duality_sign; the orbit waits until rep.orbit is read.
    """
    if not is_minuscule(d, w):
        raise PreconditionError(f"{w.coords} is not minuscule for {d.cartan_type}")
    j = w.coords.index(1) + 1
    rep = MinusculeRep(d.cartan_type, j, _rep_name(d.cartan_type, j),
                       weyl_dimension(d, w), duality_sign(d, w))
    vars(rep).update(datum=d, highest_weight=w)  # fill the lazy attributes at hand
    return rep


def _classical_rep(t: CartanType, j: int) -> MinusculeRep:
    return MinusculeRep(t, j, _rep_name(t, j), *_classical_row(t, j)[:2])


def enumerate_minuscule(t: CartanType) -> list[MinusculeRep]:
    """The reps of all minuscule fundamental weights of t, in weight-index order.

    The classical rows are closed forms: A_n -> w_1..w_n, B_n -> w_n, C_n ->
    w_1, D_n -> w_1, w_{n-1}, w_n, built without a root datum (more than
    ROOT_BUDGET positive roots are still refused).  E6 and E7 read theirs
    off the root datum; F4 and G2 have none.
    """
    if t.is_classical:
        _require_root_budget(t)
        return [_classical_rep(t, j) for j in _classical_indices(t)]
    d = build_root_datum(t)
    ws = [_fundamental(t, j) for j in range(1, t.rank + 1)]
    return [expand_rep(d, w) for w in ws if is_minuscule(d, w)]


def _fundamental_rep(t: CartanType, j: int) -> MinusculeRep:
    """The rep of the minuscule w_j of t, as enumerate_minuscule builds it."""
    if not 1 <= j <= t.rank:
        raise PreconditionError(f"weight index w{j} out of range for {t}")
    if t.is_classical:
        _require_root_budget(t)
        if j in _classical_indices(t):
            return _classical_rep(t, j)
    else:
        for rep in enumerate_minuscule(t):
            if rep.weight_index == j:
                return rep
    raise PreconditionError(f"w{j} is not minuscule for {t}")


def minuscule_rep(t: CartanType, weight_index: int) -> MinusculeRep:
    """The minuscule rep with the given 1-based fundamental-weight index, its root datum built.

    mtkit.oracle reads rep.datum: building it here keeps it out of the oracle's loops.
    """
    rep = _fundamental_rep(t, weight_index)
    if t.is_classical:
        vars(rep)["datum"] = build_root_datum(t)
    return rep
