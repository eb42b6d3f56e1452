"""Cartan types, and the positive roots of the classical families in closed form.

A classical root has simple-root coordinates, which index and sort the
positive system, and an integer epsilon vector (Bourbaki, ch. VI, Plates
I-IV), which the CLI's mnemonics name and on which mtkit.minuscule and
mtkit.oracle pair roots with weights; the weights are in doubled epsilon
coordinates, so spin weights stay integral.  An exceptional type has a label
and a root count but no roots: the simple factors of a Mumford-Tate group
are classical (Deligne, Varietes de Shimura, section 1.3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

from .errors import InvalidCartanType, PreconditionError, printable

CLASSICAL_FAMILIES = ("A", "B", "C", "D")
EXCEPTIONAL_FAMILIES = ("E6", "E7", "F4", "G2")
FAMILIES = CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_FIXED_RANK = {"E6": 6, "E7": 7, "F4": 4, "G2": 2}

# Largest positive system build_root_datum will list (2^16 roots, C256);
# the count has a closed form, so larger systems are refused before building.
ROOT_BUDGET = 2**16


@dataclass(frozen=True)
class CartanType:
    """A Dynkin family label plus rank, e.g. ("B", 4)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if type(self.rank) is not int:  # bool and float are refused too
            raise InvalidCartanType(f"rank must be an int, got {printable(self.rank)}")
        if self.family not in FAMILIES:
            raise InvalidCartanType(
                f"unknown family {printable(self.family)}; expected one of {FAMILIES}")
        fixed = _FIXED_RANK.get(self.family)
        if fixed is not None and self.rank != fixed:
            raise InvalidCartanType(
                f"{self.family} has fixed rank {fixed}, got {printable(self.rank)}")
        if fixed is None and self.rank < _MIN_RANK[self.family]:
            raise InvalidCartanType(f"family {self.family} requires rank >= "
                                    f"{_MIN_RANK[self.family]}, got {printable(self.rank)}")

    @property
    def is_classical(self) -> bool:
        return self.family in CLASSICAL_FAMILIES

    def __str__(self) -> str:
        if self.family in _FIXED_RANK:
            return self.family
        return f"{self.family}{printable(self.rank)}"


@dataclass(frozen=True)
class RootDatum:
    """The positive roots of a classical type, in the simple-root basis, with their length classes.

    The roots are sorted lexicographically, so every derived ordering is
    reproducible bit for bit; ``length_class[k]`` is "long" or "short"
    ("long" throughout for the simply-laced A and D).
    """

    cartan_type: CartanType
    positive_roots: tuple[tuple[int, ...], ...]
    length_class: tuple[str, ...]


def positive_root_count(t: CartanType) -> int:
    """Number of positive roots of t, in closed form."""
    n = t.rank
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E6": 36, "E7": 63, "F4": 24, "G2": 6}[t.family]


def _require_root_budget(t: CartanType) -> None:
    """Raise PreconditionError when t has more than ROOT_BUDGET positive roots."""
    count = positive_root_count(t)
    if count > ROOT_BUDGET:
        raise PreconditionError(f"{t} has {printable(count)} positive roots, "
                                f"more than the root budget of {ROOT_BUDGET} roots")


def build_root_datum(t: CartanType) -> RootDatum:
    """The positive roots of a classical t in closed form, sorted, with their length classes.

    They are e_i - e_j (A) or e_i +- e_j (B, C, D) for i < j, and e_i (B) or
    2 e_i (C) (Bourbaki, ch. VI, Plates I-IV), taken to simple-root
    coordinates; the long class is the largest epsilon norm.  Raises
    PreconditionError before listing any root when t is exceptional or has
    more than ROOT_BUDGET positive roots.
    """
    _require_root_budget(t)
    if not t.is_classical:
        raise PreconditionError(f"root datums are built for classical types only, not {t}")
    fam = t.family
    m = t.rank + 1 if fam == "A" else t.rank

    def root(*terms):  # simple-root coordinates and epsilon norm of the sum of c e_k over (k, c)
        v = [0] * m
        for k, c in terms:
            v[k] = c
        return _simple_root_coords(t, v), sum(c * c for _, c in terms)

    signs = (-1,) if fam == "A" else (-1, 1)
    roots = [root((i, 1), (j, s)) for i in range(m) for j in range(i + 1, m) for s in signs]
    if fam in ("B", "C"):
        roots += [root((i, 1 if fam == "B" else 2)) for i in range(m)]
    roots.sort()
    positives, norms = zip(*roots)
    long_norm = max(norms)
    return RootDatum(t, positives, tuple("long" if x == long_norm else "short" for x in norms))


# --- epsilon coordinates -------------------------------------------------------
#
# Root specs like "e1-e2", "e3", "2e4" are offered to humans by the CLI.
# The classical simple roots are e_i - e_(i+1) for i < n, and last
# e_n - e_(n+1) (A), e_n (B), 2e_n (C) or e_(n-1) + e_n (D), so a vector's
# simple-root coordinates are its partial sums, corrected at the last node,
# and a root's epsilon vector is the differences of its simple-root
# coordinates, corrected the same way.

_SPEC_RE = re.compile(r"[+-]?\d*e\d+(?:[+-]\d*e\d+)*")
_TERM_RE = re.compile(r"([+-]?)(\d*)e(\d+)")


def _positive_root(t: CartanType, spec: str) -> tuple[int, ...]:
    """Epsilon vector of the positive root (build_root_datum's closed form) a mnemonic names."""
    if not isinstance(spec, str):
        raise PreconditionError(f"a root spec is a str like 'e1-e2', got {printable(spec)}")
    m = t.rank + 1 if t.family == "A" else t.rank
    s = spec.replace(" ", "")
    if not _SPEC_RE.fullmatch(s):
        raise PreconditionError(f"malformed root spec {spec!r}")
    try:
        terms = [(int(idx), int(sign + (coeff or "1"))) for sign, coeff, idx in _TERM_RE.findall(s)]
    except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
        raise PreconditionError(f"malformed root spec {spec!r}: too many digits") from None
    out = [0] * m
    for k, c in terms:
        if not 1 <= k <= m:
            raise PreconditionError(f"epsilon index e{k} out of range 1..{m} for {t}")
        out[k - 1] += c
    if not t.is_classical:  # a spec is parsed before this refusal
        raise PreconditionError(f"epsilon mnemonics cover classical types only, not {t}")
    if _is_positive_root(t, out):
        return tuple(out)
    raise PreconditionError(f"{spec!r} is not a positive root of {t}")


def _is_positive_root(t: CartanType, v) -> bool:
    """Whether the epsilon vector v is a positive root of the classical t, in closed form."""
    first, *rest = [c for c in v if c] or [0]  # the entries of e_i before those of e_j
    return (first == 1 and len(rest) == 1 and rest[0] in ((-1,) if t.family == "A" else (-1, 1))
            or not rest and first == {"B": 1, "C": 2}.get(t.family))


def _simple_root_coords(t: CartanType, v: tuple[int, ...]) -> tuple[int, ...]:
    """Simple-root coordinates of the epsilon vector v of a root of the classical t."""
    sums = list(accumulate(v))
    if t.family == "A":
        return tuple(sums[:-1])
    if t.family == "B":
        return tuple(sums)
    if t.family == "D":
        sums[-2] = (sums[-2] - v[-1]) // 2
    sums[-1] //= 2
    return tuple(sums)


def _epsilon_vector(t: CartanType, c: tuple[int, ...]) -> tuple[int, ...]:
    """Epsilon vector of the root with simple-root coordinates c; _simple_root_coords inverts it."""
    v = [b - a for a, b in zip((0, *c), (*c, 0))]
    if t.family == "A":
        return tuple(v)
    v.pop()
    if t.family == "C":
        v[-1] += c[-1]
    elif t.family == "D":
        v[-2] += c[-1]
    return tuple(v)
