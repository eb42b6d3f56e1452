"""The minuscule table: every minuscule fundamental weight with its dimension and duality sign."""

from __future__ import annotations

from collections.abc import Collection
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
    weyl_orbit,
)

# Default --max-rank of table.
DEFAULT_RANK_BOUND = 12

# Largest orbit MinusculeRep.orbit will materialize (2^20 weights).  The
# dimension gives the orbit size up front, so larger requests, such as the
# 2^40-weight spin orbit of B40, are refused before any expansion.
ORBIT_BUDGET = 2**20

# Dimension and sign of each minuscule w_j of the exceptional types
# (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates V-IX): the two
# 27-dimensional reps of E6 are dual to each other, the 56 of E7 is
# symplectic, and F4 and G2 have no minuscule weight.
_EXCEPTIONAL_ROWS = {"E6": {1: (27, 0), 6: (27, 0)}, "E7": {7: (56, -1)}, "F4": {}, "G2": {}}


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


def _minuscule_indices(t: CartanType) -> Collection[int]:
    """The minuscule fundamental weights of t, in index order."""
    n = t.rank
    if t.is_classical:
        return {"A": range(1, n + 1), "B": (n,), "C": (1,), "D": (1, n - 1, n)}[t.family]
    return _EXCEPTIONAL_ROWS[t.family].keys()


def _rep(t: CartanType, j: int) -> MinusculeRep:
    row = _classical_row(t, j)[:2] if t.is_classical else _EXCEPTIONAL_ROWS[t.family][j]
    return MinusculeRep(t, j, _rep_name(t, j), *row)


def enumerate_minuscule(t: CartanType) -> list[MinusculeRep]:
    """The reps of all minuscule fundamental weights of t, in weight-index order.

    Every row is a closed form or a constant, built without a root datum:
    A_n -> w_1..w_n, B_n -> w_n, C_n -> w_1, D_n -> w_1, w_{n-1}, w_n,
    E6 -> w_1, w_6, E7 -> w_7; F4 and G2 have none.  Types with more than
    ROOT_BUDGET positive roots are still refused.
    """
    _require_root_budget(t)
    return [_rep(t, j) for j in _minuscule_indices(t)]


def _fundamental_rep(t: CartanType, j: int) -> MinusculeRep:
    """The rep of the minuscule w_j of t, as enumerate_minuscule builds it."""
    if not 1 <= j <= t.rank:
        raise PreconditionError(f"weight index w{j} out of range for {t}")
    _require_root_budget(t)
    if j not in _minuscule_indices(t):
        raise PreconditionError(f"w{j} is not minuscule for {t}")
    return _rep(t, j)


def minuscule_rep(t: CartanType, weight_index: int) -> MinusculeRep:
    """The minuscule rep with the given 1-based fundamental-weight index, its root datum built.

    mtkit.oracle reads rep.datum: building it here keeps it out of the oracle's loops.
    """
    rep = _fundamental_rep(t, weight_index)
    rep.datum  # read once to build the cached datum
    return rep
