"""Drops of quadratic root elements and the symplectic-minuscule classifier.

On a minuscule orbit a root element x_alpha moves the weight vector v_mu
to v_mu +- v_{mu+alpha} exactly when <mu, alpha_coroot> = -1, so the rank
of rho(x_alpha) - 1 equals the number of orbit weights pairing to +1 with
the coroot.  Every orbit weight pairs into {-1, 0, 1} with every coroot,
so root elements act quadratically.  This module reads the count off the
closed-form row of the representation, without the orbit or the root
datum; the exact matrix route in mtkit.oracle cross-checks it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import comb
from types import MappingProxyType

from .errors import NoSuchLengthClass, PreconditionError, printable
from .minuscule import MinusculeRep, _classical_row, _minuscule_indices, _rep
from .roots import CartanType

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


def _drops(rep: MinusculeRep) -> dict[str, int]:
    t = rep.cartan_type
    if not t.is_classical:
        raise PreconditionError(f"drops are computed for classical types only, not {t}")
    return _classical_row(t, rep.weight_index)[2]


def root_element_drop(rep: MinusculeRep, length_class: str) -> int:
    """Drop of a root element of the given length class acting on rep.

    W permutes the roots of a class transitively, so every root of the
    class has the same drop: the closed form of mtkit.minuscule's
    classical row (Bourbaki, Plates I-IV).
    """
    if length_class not in LENGTH_CLASSES:
        raise NoSuchLengthClass(f"unknown length class {printable(length_class)}")
    per = _drops(rep)
    if length_class not in per:
        raise NoSuchLengthClass(
            f"{rep.cartan_type} is simply laced and has no {length_class!r} roots"
        )
    return per[length_class]


def drop_spectrum(rep: MinusculeRep) -> DropReport:
    """Drops for every root-length class the root system has; all are quadratic."""
    per = _drops(rep)
    return DropReport(rep=rep, per_length_class=MappingProxyType(per),
                      quadratic=MappingProxyType(dict.fromkeys(per, True)))


def _exact_log2(n: int) -> int | None:
    if n >= 1 and n & (n - 1) == 0:
        return n.bit_length() - 1
    return None


def classify_symplectic_minuscule(two_g: int) -> CandidateList:
    """The symplectic (sign -1) minuscule reps of types A-D of dimension two_g, in family order.

    Only the classical types are listed: the simple factors of the
    Mumford-Tate group of an abelian variety are classical (Deligne,
    Varietes de Shimura, section 1.3), so E7 w7, symplectic of dimension 56,
    is never a candidate.  Each family realizes two_g at one rank only, and
    every row is a closed form: no root datum is built.  One rank per family
    is scanned, and its minuscule reps are filtered by dimension and sign:

    * A: self-dual middle exterior powers have central-binomial dimension
      C(2j, j) < 4**j, strictly increasing in j, so the walk starts at the
      least j with 4**j > two_g;
    * B: the spin dimension 2^n forces n = log2(two_g);
    * C: the standard rep of C_n is symplectic of dimension 2n, so
      n = two_g / 2, for two_g >= 4 (C1 is A1);
    * D: standard reps are orthogonal, so only the half-spin rank
      n = log2(two_g) + 1 can contribute.

    Every even two_g >= 2 is answered: no rank is checked against ROOT_BUDGET.
    """
    if type(two_g) is not int or two_g < 2 or two_g % 2:
        raise PreconditionError(f"two_g must be an even integer >= 2, got {printable(two_g)}")

    j = (two_g.bit_length() + 1) // 2
    while (central := comb(2 * j, j)) < two_g:
        j += 1
    scan = [(CartanType("A", 2 * j - 1), j)] if central == two_g else []  # (type, witness r)
    m = _exact_log2(two_g)
    if m is not None and m >= 2:
        scan += [(CartanType("B", m), m), (CartanType("D", m + 1), m + 1)]
    if two_g >= 4:
        scan.append((CartanType("C", two_g // 2), two_g // 2))

    found = [
        Candidate(rep.cartan_type, rep.weight_index, rep.name, witness)
        for t, witness in scan
        for rep in [_rep(t, j) for j in _minuscule_indices(t)]
        if rep.dimension == two_g and rep.sign == -1
    ]
    return CandidateList(two_g, tuple(sorted(found, key=lambda c: c.cartan_type.family)))
