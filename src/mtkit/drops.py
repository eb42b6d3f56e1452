"""Drops of quadratic root elements and the symplectic-minuscule classifier.

On a minuscule orbit a root element x_alpha moves the weight vector v_mu
to v_mu +- v_{mu+alpha} exactly when <mu, alpha_coroot> = -1, so the rank
of rho(x_alpha) - 1 equals the number of orbit weights pairing to +1 with
the coroot.  That weight count is what this module computes; the exact
matrix route in mtkit.oracle cross-checks it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import comb
from types import MappingProxyType

from .errors import NoSuchLengthClass, NotQuadratic, PreconditionError
from .minuscule import MinusculeRep, enumerate_minuscule
from .roots import CartanType, pair_with_coroot

LENGTH_CLASSES = ("long", "short")


@dataclass(frozen=True)
class DropReport:
    """Per-length-class drops of single root elements on one minuscule rep (read-only maps)."""

    rep: MinusculeRep
    per_length_class: Mapping[str, int]
    quadratic: Mapping[str, bool]


@dataclass(frozen=True)
class Candidate:
    """One symplectic minuscule representation of the requested dimension."""

    cartan_type: CartanType
    weight_index: int
    name: str
    witness_r: int


@dataclass(frozen=True)
class CandidateList:
    two_g: int
    candidates: tuple[Candidate, ...]


def representative_root_index(rep: MinusculeRep, length_class: str) -> int:
    """First positive root (in the fixed lexicographic order) of the class."""
    if length_class not in LENGTH_CLASSES:
        raise NoSuchLengthClass(f"unknown length class {length_class!r}")
    d = rep.datum
    if not d.cartan_type.is_classical:
        raise PreconditionError("drops are computed for classical types only")
    try:
        return d.length_class.index(length_class)
    except ValueError:
        raise NoSuchLengthClass(
            f"{d.cartan_type} is simply laced and has no {length_class!r} roots"
        ) from None


def root_element_drop(rep: MinusculeRep, length_class: str) -> int:
    """Drop of a root element of the given length class acting on rep.

    Counts orbit weights with pairing +1 against one representative coroot
    of the class; every root of a class gives the same count (a tested
    invariant).
    """
    idx = representative_root_index(rep, length_class)
    if not rep.quadratic_classes.get(length_class, False):
        raise NotQuadratic(
            f"{length_class} root elements do not act quadratically on {rep.name}"
        )
    cr = rep.datum.coroots[idx]
    return sum(1 for mu in rep.orbit if pair_with_coroot(cr, mu.coords) == 1)


def drop_spectrum(rep: MinusculeRep) -> DropReport:
    """Drops for every root-length class the root system has."""
    per = {cls: root_element_drop(rep, cls) for cls in rep.datum.classes}
    return DropReport(rep=rep, per_length_class=MappingProxyType(per),
                      quadratic=rep.quadratic_classes)


def _exact_log2(n: int) -> int | None:
    if n >= 1 and n & (n - 1) == 0:
        return n.bit_length() - 1
    return None


def classify_symplectic_minuscule(two_g: int) -> CandidateList:
    """All symplectic (sign -1) minuscule reps of dimension two_g.

    Each family can realize two_g at a single rank only, so the scan builds
    exactly those ranks and filters through the real dimension and sign
    machinery rather than pattern-matching a known list:

    * A: self-dual middle exterior powers have central-binomial dimension
      C(2j, j), strictly increasing in j;
    * B: the spin dimension 2^n forces n = log2(two_g);
    * C: the standard dimension 2n forces n = two_g / 2;
    * D: standard reps are orthogonal, so only the half-spin rank
      n = log2(two_g) + 1 can contribute.
    """
    if two_g < 2 or two_g % 2:
        raise PreconditionError(f"two_g must be an even integer >= 2, got {two_g}")

    scan: list[tuple[str, int, int]] = []  # (family, rank, witness r)
    j = 1
    while (central := comb(2 * j, j)) <= two_g:
        if central == two_g:
            scan.append(("A", 2 * j - 1, j))
        j += 1
    m = _exact_log2(two_g)
    if m is not None and m >= 2:
        scan.append(("B", m, m))
    if two_g >= 4:
        scan.append(("C", two_g // 2, two_g // 2))
    if m is not None and m + 1 >= 3:
        scan.append(("D", m + 1, m + 1))

    found = []
    for family, rank, witness in sorted(scan):
        for rep in enumerate_minuscule(CartanType(family, rank)):
            if rep.dimension == two_g and rep.sign == -1:
                found.append(
                    Candidate(
                        cartan_type=rep.cartan_type,
                        weight_index=rep.weight_index,
                        name=rep.name,
                        witness_r=witness if family != "A" else rep.weight_index,
                    )
                )
    return CandidateList(two_g=two_g, candidates=tuple(found))
