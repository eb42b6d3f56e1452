"""Exact root-system combinatorics for the classical and exceptional families.

All arithmetic is plain integer arithmetic in two coordinate systems:

* roots and coroots carry coordinates in the simple-root / simple-coroot
  basis, with the Cartan matrix convention fixed once:
  ``A[i][j] = <alpha_j, alpha_i_coroot>``;
* a root of a classical type also has an integer epsilon vector
  (Bourbaki, ch. VI, Plates I-IV), which the CLI's mnemonics name and on
  which mtkit.minuscule and mtkit.oracle pair roots with weights.  The
  weights of the classical minuscule modules are materialized in doubled
  epsilon coordinates (mtkit.minuscule), so spin weights stay integral.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .errors import InvalidCartanType, PreconditionError

CLASSICAL_FAMILIES = ("A", "B", "C", "D")
EXCEPTIONAL_FAMILIES = ("E6", "E7", "F4", "G2")
FAMILIES = CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_FIXED_RANK = {"E6": 6, "E7": 7, "F4": 4, "G2": 2}

# Largest positive system build_root_datum will generate (2^16 roots, C256);
# the count has a closed form, so larger systems are refused before building.
ROOT_BUDGET = 2**16


@dataclass(frozen=True)
class CartanType:
    """A Dynkin family label plus rank, e.g. ("B", 4)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidCartanType(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family in _FIXED_RANK:
            if self.rank != _FIXED_RANK[self.family]:
                raise InvalidCartanType(
                    f"{self.family} has fixed rank {_FIXED_RANK[self.family]}, got {self.rank}"
                )
        elif self.rank < _MIN_RANK[self.family]:
            raise InvalidCartanType(
                f"family {self.family} requires rank >= {_MIN_RANK[self.family]}, got {self.rank}"
            )

    @property
    def is_classical(self) -> bool:
        return self.family in CLASSICAL_FAMILIES

    def __str__(self) -> str:
        if self.family in _FIXED_RANK:
            return self.family
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootDatum:
    """Cartan matrix plus the full positive system with coroots and length classes.

    ``positive_roots[k]`` is in the simple-root basis, ``coroots[k]`` is the
    corresponding coroot in the simple-coroot basis, and ``length_class[k]``
    is "long" or "short" ("long" throughout for simply-laced types).  The
    positive roots are sorted lexicographically, so every derived ordering
    is reproducible bit for bit.
    """

    cartan_type: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    length_class: tuple[str, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def classes(self) -> tuple[str, ...]:
        return ("long",) if "short" not in self.length_class else ("long", "short")


def _cartan_matrix(t: CartanType) -> list[list[int]]:
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(pairs):
        for i, j in pairs:
            a[i][j] = -1
            a[j][i] = -1

    fam = t.family
    if fam in ("A", "B", "C"):
        chain((i, i + 1) for i in range(n - 1))
        if fam == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n short: <alpha_{n-1}, alpha_n_coroot> = -2
        if fam == "C" and n >= 2:
            a[n - 2][n - 1] = -2  # alpha_n long: <alpha_n, alpha_{n-1}_coroot> = -2
    elif fam == "D":
        chain((i, i + 1) for i in range(n - 2))
        chain([(n - 3, n - 1)])
    elif fam == "E6":
        chain([(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    elif fam == "E7":
        chain([(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)])
    elif fam == "F4":
        chain([(0, 1), (1, 2), (2, 3)])
        a[2][1] = -2  # alpha_3, alpha_4 short
    elif fam == "G2":
        a[0][1] = -3
        a[1][0] = -1
    return a


def _symmetrizer(t: CartanType) -> list[int]:
    """d_i with d_i * A[i][j] symmetric; d_i = 1 on the shortest simple roots."""
    n = t.rank
    if t.family == "B":
        return [2] * (n - 1) + [1]
    if t.family == "C":
        return [1] * (n - 1) + [2]
    if t.family == "F4":
        return [2, 2, 1, 1]
    if t.family == "G2":
        return [1, 3]
    return [1] * n


def _sparse_columns(a) -> list[list[tuple[int, int]]]:
    """Column i of the Cartan matrix a as its nonzero (row, entry) pairs."""
    return [[(k, row[i]) for k, row in enumerate(a) if row[i]] for i in range(len(a))]


def positive_root_count(t: CartanType) -> int:
    """Number of positive roots of t, in closed form."""
    n = t.rank
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E6": 36, "E7": 63, "F4": 24, "G2": 6}[t.family]


def _require_root_budget(t: CartanType) -> None:
    """Raise PreconditionError when t has more than ROOT_BUDGET positive roots."""
    count = positive_root_count(t)
    if count > ROOT_BUDGET:
        raise PreconditionError(
            f"{t} has {count} positive roots, more than the root budget of {ROOT_BUDGET} roots"
        )


def build_root_datum(t: CartanType) -> RootDatum:
    """Generate the positive roots level by level in height, along alpha_i-strings.

    A positive root beta other than alpha_i extends to the root beta + alpha_i
    exactly when r_i(beta) - <beta, alpha_i_coroot> > 0, where r_i(beta) is
    the length of the alpha_i-string below beta (the largest r with
    beta - r alpha_i a root).  r_i is recorded on beta + alpha_i when beta is
    extended, so every root of height h has its full string data once level
    h - 1 is done.  Each root carries its nonzero simple-coroot pairings as
    a sparse map; adding alpha_i updates it from the sparse column i of the
    Cartan matrix, and the sorted map is the root's identity (the Cartan
    matrix is invertible), so a new root costs O(1) dictionary operations
    plus one copy of its parent's simple-root coordinates.

    Every root is checked to have a positive even norm and an integral
    coroot.  Raises PreconditionError before generating anything when the
    positive system has more than ROOT_BUDGET roots.
    """
    _require_root_budget(t)
    n = t.rank
    a = _cartan_matrix(t)
    d = _symmetrizer(t)
    cols = _sparse_columns(a)

    roots = []  # (simple-root coordinates, half norm)
    # a level holds (coordinates, {i: <beta, alpha_i_coroot>}, {i: r_i(beta)}), nonzero only
    level = [(tuple(int(j == i) for j in range(n)), dict(cols[i]), {}) for i in range(n)]
    while level:
        found: dict[tuple, tuple] = {}  # sorted pairings -> next-level entry
        for c, p, r in level:
            tot = sum(c[i] * d[i] * v for i, v in p.items())
            if tot <= 0 or tot % 2:
                raise AssertionError(f"root norm {tot} not a positive even integer for {c}")
            roots.append((c, tot // 2))
            ups = [i for i, v in p.items() if v < 0 and i not in r]
            ups += [i for i, ri in r.items() if ri > p.get(i, 0)]
            for i in ups:
                q = dict(p)
                for k, v in cols[i]:
                    s = q.get(k, 0) + v
                    if s:
                        q[k] = s
                    else:
                        del q[k]
                key = tuple(sorted(q.items()))
                up = found.get(key)
                if up is None:
                    cc = list(c)
                    cc[i] += 1
                    up = found[key] = (tuple(cc), q, {})
                up[2][i] = r.get(i, 0) + 1
        level = list(found.values())

    positives, halves = zip(*sorted(roots))
    long_half = max(halves)
    classes = tuple("long" if h == long_half else "short" for h in halves)

    unit = all(x == 1 for x in d)
    coroots = []
    for c, h in zip(positives, halves):
        cv = c if unit else tuple(map(mul, c, d))
        if h > 1:
            if any(map(h.__rmod__, cv)):
                raise AssertionError(f"non-integral coroot coordinate for root {c}")
            cv = tuple(map(h.__rfloordiv__, cv))
        coroots.append(cv)

    return RootDatum(
        cartan_type=t,
        cartan_matrix=tuple(tuple(row) for row in a),
        positive_roots=positives,
        coroots=tuple(coroots),
        length_class=classes,
    )


# --- epsilon coordinates -------------------------------------------------------
#
# Root specs like "e1-e2", "e3", "2e4" are offered to humans by the CLI.
# The classical simple roots are e_i - e_(i+1) for i < n, and last
# e_n - e_(n+1) (A), e_n (B), 2e_n (C) or e_(n-1) + e_n (D), so a vector's
# simple-root coordinates are its partial sums, corrected at the last node,
# and a root's epsilon vector is the differences of its simple-root
# coordinates, corrected the same way.  Only A/B/C/D have them (the drop
# machinery does not cover exceptional types).

_SPEC_RE = re.compile(r"[+-]?\d*e\d+(?:[+-]\d*e\d+)*")
_TERM_RE = re.compile(r"([+-]?)(\d*)e(\d+)")


def parse_epsilon_spec(t: CartanType, spec: str) -> tuple[int, ...]:
    """Parse a mnemonic like "e1-e2" or "2e3" into an epsilon vector."""
    m = t.rank + 1 if t.family == "A" else t.rank
    s = spec.replace(" ", "")
    if not _SPEC_RE.fullmatch(s):
        raise PreconditionError(f"malformed root spec {spec!r}")
    out = [0] * m
    for sign, coeff, idx in _TERM_RE.findall(s):
        k = int(idx)
        if not 1 <= k <= m:
            raise PreconditionError(f"epsilon index e{k} out of range 1..{m} for {t}")
        out[k - 1] += int(sign + (coeff or "1"))
    return tuple(out)


def _simple_root_coords(t: CartanType, v: tuple[int, ...]) -> tuple[int, ...] | None:
    """Simple-root coordinates of the epsilon vector v; None off the root lattice."""
    if not t.is_classical:
        raise PreconditionError(f"epsilon mnemonics cover classical types only, not {t}")
    sums = list(accumulate(v))
    if t.family == "A":
        return tuple(sums[:-1]) if sums[-1] == 0 else None
    if t.family == "B":
        return tuple(sums)
    if sums[-1] % 2:
        return None
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


def find_positive_root(d: RootDatum, spec: str) -> int:
    """Index in d.positive_roots of the root named by an epsilon mnemonic; raises if absent."""
    t = d.cartan_type
    coords = _simple_root_coords(t, parse_epsilon_spec(t, spec))
    try:
        return d.positive_roots.index(coords)
    except ValueError:
        raise PreconditionError(f"{spec!r} is not a positive root of {t}") from None
