"""Minuscule weight detection, enumeration, dimensions and duality signs."""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

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

# Largest rank swept by the exhaustive table-reproduction tests.  The
# biggest orbit this forces is a few thousand weights, which keeps the
# whole sweep in the low seconds.
DEFAULT_RANK_BOUND = 12

# Largest orbit expand_rep will materialize (2^20 weights).  The Weyl
# dimension gives the orbit size up front, so larger requests, such as the
# 2^40-weight spin orbit of B40, are refused before any expansion.
ORBIT_BUDGET = 2**20


@dataclass(frozen=True)
class MinusculeRep:
    """A minuscule highest weight together with its fully expanded orbit.

    sign is +1 for orthogonal, -1 for symplectic, 0 for non-self-dual.
    quadratic_classes records, per root-length class, whether every orbit
    weight pairs into {-1, 0, 1} with that class (what the drop machinery
    needs to treat a root element as quadratic); it is a read-only mapping.
    """

    datum: RootDatum
    highest_weight: Weight
    name: str
    dimension: int
    sign: int
    orbit: tuple[Weight, ...] = field(repr=False)
    quadratic_classes: Mapping[str, bool] = field(repr=False)

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


def _check_orbit_budget(d: RootDatum, w: Weight) -> None:
    size = weyl_dimension(d, w)
    if size > ORBIT_BUDGET:
        raise PreconditionError(
            f"the orbit of w{w.coords.index(1) + 1} of {d.cartan_type} has {size} weights, "
            f"more than the orbit budget of {ORBIT_BUDGET} weights"
        )


def expand_rep(d: RootDatum, w: Weight) -> MinusculeRep:
    """Build the full MinusculeRep record for a minuscule dominant weight.

    Raises PreconditionError before expanding anything when the orbit, whose
    size is the Weyl dimension, has more than ORBIT_BUDGET weights.
    """
    if not is_minuscule(d, w):
        raise PreconditionError(f"{w.coords} is not minuscule for {d.cartan_type}")
    _check_orbit_budget(d, w)
    return _expand(d, w)


def _expand(d: RootDatum, w: Weight) -> MinusculeRep:
    # w is minuscule and its orbit fits ORBIT_BUDGET
    orbit = weyl_orbit(d, w)
    sign = duality_sign(d, w)
    quad: dict[str, bool] = {}
    for cls in d.classes:
        rep_idx = d.length_class.index(cls)
        cr = d.coroots[rep_idx]
        quad[cls] = all(pair_with_coroot(cr, mu.coords) in (-1, 0, 1) for mu in orbit)
    return MinusculeRep(
        datum=d,
        highest_weight=w,
        name=_rep_name(d.cartan_type, w.coords.index(1) + 1),
        dimension=len(orbit),
        sign=sign,
        orbit=orbit,
        quadratic_classes=MappingProxyType(quad),
    )


def _minuscule_weights(d: RootDatum) -> list[Weight]:
    """The minuscule fundamental weights of d, each orbit checked against ORBIT_BUDGET."""
    n = d.rank
    ws = [Weight(tuple(1 if k == i else 0 for k in range(n))) for i in range(n)]
    ws = [w for w in ws if is_minuscule(d, w)]
    for w in ws:
        _check_orbit_budget(d, w)
    return ws


def check_orbit_budget(t: CartanType) -> None:
    """Raise PreconditionError, without expanding any orbit, when a minuscule
    orbit of t has more than ORBIT_BUDGET weights."""
    _minuscule_weights(build_root_datum(t))


def iter_minuscule(types: Sequence[CartanType]) -> Iterator[MinusculeRep]:
    """The reps of enumerate_minuscule for each type in turn, expanded one at a time.

    Every orbit of every type is checked against ORBIT_BUDGET before this
    returns, highest rank first (orbits grow with the rank), so an
    over-budget request is refused before any orbit is expanded and after
    building only the root data it needs.  Each root datum and each Weyl
    dimension is computed once.
    """
    data, weights = {}, {}
    for t in sorted(dict.fromkeys(types), key=lambda t: -t.rank):
        data[t] = build_root_datum(t)
        weights[t] = _minuscule_weights(data[t])
    return (_expand(data[t], w) for t in types for w in weights[t])


def enumerate_minuscule(t: CartanType) -> list[MinusculeRep]:
    """All minuscule fundamental weights of t, expanded, in weight-index order.

    For the classical families this reproduces the standard table:
    A_n -> w_1..w_n, B_n -> w_n, C_n -> w_1, D_n -> w_1, w_{n-1}, w_n.
    E6 and E7 contribute their (non-tabulated) minuscule weights as well;
    F4 and G2 contribute none.  No orbit is expanded unless all of them fit
    ORBIT_BUDGET.
    """
    return list(iter_minuscule([t]))


def minuscule_rep(t: CartanType, weight_index: int) -> MinusculeRep:
    """The minuscule rep with the given 1-based fundamental-weight index."""
    if not 1 <= weight_index <= t.rank:
        raise PreconditionError(f"weight index w{weight_index} out of range for {t}")
    d = build_root_datum(t)
    w = Weight(tuple(1 if k == weight_index - 1 else 0 for k in range(t.rank)))
    if not is_minuscule(d, w):
        raise PreconditionError(f"w{weight_index} is not minuscule for {t}")
    return expand_rep(d, w)
