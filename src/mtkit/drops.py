"""Drops of quadratic root elements and the symplectic-minuscule classifier.

On a minuscule orbit a root element x_alpha moves the weight vector v_mu
to v_mu +- v_{mu+alpha} exactly when <mu, alpha_coroot> = -1, so the rank
of rho(x_alpha) - 1 equals the number of orbit weights pairing to +1 with
the coroot.  Every orbit weight pairs into {-1, 0, 1} with every coroot,
so root elements act quadratically.  This module gets the count in closed
form, without the orbit (see root_element_drop); the exact matrix route in
mtkit.oracle cross-checks it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress
from math import comb
from types import MappingProxyType

from .errors import NoSuchLengthClass, PreconditionError
from .minuscule import MinusculeRep, _rep_name, enumerate_minuscule
from .roots import CartanType, coroot_pairings

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


def root_element_drop(rep: MinusculeRep, length_class: str) -> int:
    """Drop of a root element of the given length class acting on rep.

    Counts the pairs (mu, beta_coroot) with mu in the orbit, beta a root of
    the class (positive or negative) and <mu, beta_coroot> = 1 in two ways.
    W permutes the roots of a class transitively, so each of the 2 N+
    coroots meets drop weights; W also permutes the orbit, so each weight
    meets as many coroots as the highest weight does, the N1 positive ones
    pairing to 1 with it.  Hence drop = dim * N1 / (2 N+).
    """
    if length_class not in LENGTH_CLASSES:
        raise NoSuchLengthClass(f"unknown length class {length_class!r}")
    d = rep.datum
    if not d.cartan_type.is_classical:
        raise PreconditionError("drops are computed for classical types only")
    n_pos = d.length_class.count(length_class)
    if not n_pos:
        raise NoSuchLengthClass(
            f"{d.cartan_type} is simply laced and has no {length_class!r} roots"
        )
    # a minuscule weight pairs to 0 or 1 with every positive coroot
    pairs = coroot_pairings(d, rep.highest_weight)
    n_1 = list(compress(d.length_class, pairs)).count(length_class)
    return rep.dimension * n_1 // (2 * n_pos)


def drop_spectrum(rep: MinusculeRep) -> DropReport:
    """Drops for every root-length class the root system has; all are quadratic."""
    per = {cls: root_element_drop(rep, cls) for cls in rep.datum.classes}
    return DropReport(rep=rep, per_length_class=MappingProxyType(per),
                      quadratic=MappingProxyType(dict.fromkeys(per, True)))


def _exact_log2(n: int) -> int | None:
    if n >= 1 and n & (n - 1) == 0:
        return n.bit_length() - 1
    return None


def classify_symplectic_minuscule(two_g: int) -> CandidateList:
    """All symplectic (sign -1) minuscule reps of dimension two_g, in family order.

    Each family realizes two_g at one rank only.  C_n has one minuscule
    weight, w1, whose standard rep is symplectic of dimension 2n, so the C
    row (n = two_g / 2 >= 2; C1 is A1) needs no root datum.  The other ranks
    are O(log two_g), built and filtered through the real dimension and sign:

    * A: self-dual middle exterior powers have central-binomial dimension
      C(2j, j) < 4**j, strictly increasing in j, so the walk starts at the
      least j with 4**j > two_g;
    * B: the spin dimension 2^n forces n = log2(two_g);
    * D: standard reps are orthogonal, so only the half-spin rank
      n = log2(two_g) + 1 can contribute.
    """
    if two_g < 2 or two_g % 2:
        raise PreconditionError(f"two_g must be an even integer >= 2, got {two_g}")

    j = (two_g.bit_length() + 1) // 2
    while (central := comb(2 * j, j)) < two_g:
        j += 1
    scan = [("A", 2 * j - 1, j)] if central == two_g else []  # (family, rank, witness r)
    m = _exact_log2(two_g)
    if m is not None and m >= 2:
        scan += [("B", m, m), ("D", m + 1, m + 1)]

    found = [
        Candidate(rep.cartan_type, rep.weight_index, rep.name, witness)
        for family, rank, witness in scan
        for rep in enumerate_minuscule(CartanType(family, rank))
        if rep.dimension == two_g and rep.sign == -1
    ]
    if two_g >= 4:
        c_n = CartanType("C", two_g // 2)
        found.append(Candidate(c_n, 1, _rep_name(c_n, 1), c_n.rank))
    return CandidateList(two_g, tuple(sorted(found, key=lambda c: c.cartan_type.family)))
