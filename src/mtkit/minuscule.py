"""The minuscule table: every minuscule fundamental weight with its dimension and duality sign.

The weights of a classical minuscule module are closed forms in doubled
epsilon coordinates (Fulton-Harris, Representation Theory, sections 15
and 20; Bourbaki, ch. VI, Plates I-IV): twice the 0/1 indicator vectors
of the j-subsets for A_n w_j, all sign vectors for B_n spin, the sign
vectors with an even (w_n) or odd (w_(n-1)) number of -1 for the D_n
half-spins, and +-2 e_i for the C_n and D_n standard modules.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb

from .errors import PreconditionError, printable
from .roots import CartanType, RootDatum, _require_root_budget, build_root_datum

# Default --max-rank of table.
DEFAULT_RANK_BOUND = 12

# Largest module whose weights MinusculeRep.orbit lists, and largest matrix
# build_root_element, ExactMatrix.identity or ExactMatrix.kron builds.  A root
# element, a product of several and their M - 1 hold only their nonzero
# forms, and their products, degrees, ranks and == write no dense row; at
# least 8 n^2 bytes (134 MB at 4096) are written on each read of a matrix's
# .rows, so the 8192-dimensional half-spin modules of D14 are refused before
# their weights or any row are built.  `oracle drop` peaks at 17.1-17.2 MB RSS
# on D12 w12 (n = 2048) for one root and 18.0-18.3 MB for two, and at
# 20.2-20.5 MB on D13 w13 (n = 4096) for six, over Q and over F_2, where dense
# x_alpha(1) and M - 1 took 57 and 122 MB on D12 (2 vCPUs, Python 3.11.7).
MATRIX_BUDGET = 4096

# Dimension and sign of each minuscule w_j of the exceptional types
# (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates V-IX): the two
# 27-dimensional reps of E6 are dual to each other, the 56 of E7 is
# symplectic, and F4 and G2 have no minuscule weight.
_EXCEPTIONAL_ROWS = {"E6": {1: (27, 0), 6: (27, 0)}, "E7": {7: (56, -1)}, "F4": {}, "G2": {}}


@dataclass(frozen=True)
class MinusculeRep:
    """A minuscule fundamental weight w_j of a Cartan type, with its dimension and duality sign.

    sign is +1 for orthogonal, -1 for symplectic, 0 for non-self-dual.  The
    root datum and the weights are not stored: each is built on first read.
    """

    cartan_type: CartanType
    weight_index: int  # j, 1-based
    name: str
    dimension: int
    sign: int

    @cached_property
    def datum(self) -> RootDatum:
        """The root datum of a classical type; build_root_datum refuses the exceptional ones."""
        return build_root_datum(self.cartan_type)

    @cached_property
    def orbit(self) -> tuple[tuple[int, ...], ...]:
        """The weights in doubled epsilon coordinates, sorted; listed once, on first read.

        Raises PreconditionError before listing any weight for the
        exceptional types, which have no epsilon coordinates here, and when
        the dimension is above MATRIX_BUDGET.
        """
        t, j = self.cartan_type, self.weight_index
        if not t.is_classical:
            raise PreconditionError(f"weights are listed for classical types only, not {t}")
        if self.dimension > MATRIX_BUDGET:
            raise PreconditionError(
                f"the orbit of w{j} of {t} has {self.dimension} weights, "
                f"more than the matrix budget of {MATRIX_BUDGET} weights"
            )
        return _epsilon_weights(t, j)


def _epsilon_weights(t: CartanType, j: int) -> tuple[tuple[int, ...], ...]:
    """The weights of the minuscule w_j of a classical t in doubled epsilon coordinates, sorted."""
    fam, n = t.family, t.rank
    if fam == "A":
        weights = []
        for subset in combinations(range(n + 1), j):
            mu = [0] * (n + 1)
            for k in subset:
                mu[k] = 2
            weights.append(tuple(mu))
    elif j == 1:  # C and D standard
        weights = [tuple(x * (k == i) for k in range(n)) for i in range(n) for x in (2, -2)]
    else:  # B spin: every sign vector; D half-spins: n - j counts the -1 entries mod 2
        weights = [mu for mu in product((-1, 1), repeat=n)
                   if fam == "B" or mu.count(-1) % 2 == n - j]
    weights.sort()
    return tuple(weights)


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
    if type(j) is not int or not 1 <= j <= t.rank:  # bool is refused too
        raise PreconditionError(
            f"weight index must be an int in 1..{printable(t.rank)} for {t}, got {printable(j)}")
    _require_root_budget(t)
    if j not in _minuscule_indices(t):
        raise PreconditionError(f"w{j} is not minuscule for {t}")
    return _rep(t, j)


def minuscule_rep(t: CartanType, weight_index: int) -> MinusculeRep:
    """The minuscule rep of a 1-based fundamental-weight index, its datum built if classical.

    mtkit.oracle reads rep.datum: building it here keeps it out of the oracle's loops.
    """
    rep = _fundamental_rep(t, weight_index)
    if t.is_classical:
        rep.datum  # read once to build the cached datum
    return rep
