"""Exact root-system combinatorics for the classical and exceptional families.

All arithmetic is plain integer arithmetic in two coordinate systems:

* roots and coroots carry coordinates in the simple-root / simple-coroot
  basis,
* weights carry coordinates in the fundamental-weight basis,

so the pairing of a weight with the i-th simple coroot is simply
``w.coords[i]``.  The Cartan matrix convention is fixed once:
``A[i][j] = <alpha_j, alpha_i_coroot>``, which makes the simple root
alpha_j, written in the fundamental-weight basis, the j-th *column* of A.
Epsilon coordinates (which would need half-integers for spin weights)
are never materialized internally; they only appear in the mnemonic
parser used by the CLI to let humans name roots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import add, itemgetter, mul

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


@dataclass(frozen=True, slots=True)
class Weight:
    """Integer coefficient vector in the fundamental-weight basis."""

    coords: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class RootDatum:
    """Cartan matrix plus the full positive system with coroots and length classes.

    ``positive_roots[k]`` is in the simple-root basis, ``coroots[k]`` is the
    corresponding coroot in the simple-coroot basis, and ``length_class[k]``
    is "long" or "short" ("long" throughout for simply-laced types).  The
    positive roots are sorted lexicographically, so every derived ordering
    is reproducible bit for bit.  ``highest_coroot`` is the positive coroot
    of largest height and ``two_rho_coroot`` the sum of all positive
    coroots, both in the simple-coroot basis.
    """

    cartan_type: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    length_class: tuple[str, ...]
    highest_coroot: tuple[int, ...]
    two_rho_coroot: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def classes(self) -> tuple[str, ...]:
        return ("long",) if "short" not in self.length_class else ("long", "short")

    def simple_root_weight_coords(self, i: int) -> tuple[int, ...]:
        """Simple root alpha_i in the fundamental-weight basis (column i of A)."""
        return tuple(row[i] for row in self.cartan_matrix)

    def root_weight_coords(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Convert simple-root coordinates to fundamental-weight coordinates."""
        return tuple([sum(map(mul, row, root)) for row in self.cartan_matrix])


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
    coroot.  The datum also records the highest coroot (the positive coroot
    of largest height) and 2 rho_coroot (the sum of the positive coroots).
    Raises PreconditionError before generating anything when the positive
    system has more than ROOT_BUDGET roots.
    """
    count = positive_root_count(t)
    if count > ROOT_BUDGET:
        raise PreconditionError(
            f"{t} has {count} positive roots, more than the root budget of {ROOT_BUDGET} roots"
        )
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
        highest_coroot=max(coroots, key=sum),
        two_rho_coroot=tuple(map(sum, zip(*coroots))),
    )


def pair_with_coroot(coroot: tuple[int, ...], coords: tuple[int, ...]) -> int:
    """Pairing of fundamental-weight coordinates with simple-coroot coordinates."""
    return sum(map(mul, coroot, coords))


def pairing(d: RootDatum, w: Weight, coroot_index: int) -> int:
    """Exact integer pairing of w with the coroot at the given positive-root index."""
    if not 0 <= coroot_index < len(d.coroots):
        raise PreconditionError(
            f"coroot index {coroot_index} out of range [0, {len(d.coroots)})"
        )
    return pair_with_coroot(d.coroots[coroot_index], w.coords)


def simple_reflection(d: RootDatum, w: Weight, i: int) -> Weight:
    """s_i(w) = w - <w, alpha_i_coroot> alpha_i, in fundamental-weight coordinates."""
    if not 0 <= i < d.rank:
        raise PreconditionError(f"simple reflection index {i} out of range [0, {d.rank})")
    c = w.coords[i]
    if c == 0:
        return w
    col = d.simple_root_weight_coords(i)
    return Weight(tuple(w.coords[k] - c * col[k] for k in range(d.rank)))


def reflect_in_root(d: RootDatum, w: Weight, root_index: int) -> Weight:
    """Reflection of w in the positive root at root_index."""
    c = pairing(d, w, root_index)
    if c == 0:
        return w
    rw = d.root_weight_coords(d.positive_roots[root_index])
    return Weight(tuple(w.coords[k] - c * rw[k] for k in range(d.rank)))


def weyl_orbit(d: RootDatum, w: Weight) -> tuple[Weight, ...]:
    """Full Weyl-group orbit of a dominant weight, walked downward level by level.

    From mu the walk steps only down, to nu = s_i(mu) = mu - c alpha_i for
    each i with c = <mu, alpha_i_coroot> > 0; nu is mu minus c times the
    sparse column i of the Cartan matrix.  The walk is complete: every orbit
    weight mu other than the dominant w has a negative coordinate i, and is
    then one downward step below s_i(mu).  Each downward step raises the
    length in W/W_w by exactly one, so level k holds exactly the weights of
    length k and every weight appears on one level only.  Duplicates are
    therefore removed within the next level alone: the walk keeps no set of
    every weight seen, only the current level and the next.

    Returns the orbit sorted lexicographically on coordinates, duplicate
    free; the traversal order never leaks into the result.
    """
    if not w.is_dominant:
        raise PreconditionError(
            "weyl_orbit requires a dominant weight; take the dominant representative first"
        )
    cols = _sparse_columns(d.cartan_matrix)
    orbit: list[tuple[int, ...]] = []
    level = [w.coords]
    while level:
        orbit += level
        below = set()
        for mu in level:
            for i, c in enumerate(mu):
                if c > 0:
                    nu = list(mu)
                    for k, x in cols[i]:
                        nu[k] -= c * x
                    below.add(tuple(nu))
        level = below
    orbit.sort()
    return tuple(map(Weight, orbit))


def coroot_pairings(d: RootDatum, w: Weight) -> list[int]:
    """<w, beta_coroot> for every positive coroot, one support coordinate of w at a time."""
    pairs = [0] * len(d.coroots)
    for i, c in enumerate(w.coords):
        if c:
            pairs = list(map(add, pairs, map(c.__mul__, map(itemgetter(i), d.coroots))))
    return pairs


def weyl_dimension(d: RootDatum, w: Weight) -> int:
    """Dimension of the irreducible representation with dominant highest weight w.

    Weyl's formula prod <w + rho, beta_coroot> / <rho, beta_coroot> over the
    positive coroots, in exact integers; <rho, beta_coroot> is the sum of
    beta_coroot's simple-coroot coordinates, and coroots orthogonal to w
    contribute a factor of one.  For a minuscule w this is the orbit size,
    known before any orbit is expanded.
    """
    if not w.is_dominant:
        raise PreconditionError("weyl_dimension requires a dominant weight")
    pairs = coroot_pairings(d, w)
    num = den = 1
    for cr, p in zip(compress(d.coroots, pairs), filter(None, pairs)):
        h = sum(cr)
        num *= p + h
        den *= h
    return num // den


def dual_weight(d: RootDatum, w: Weight) -> Weight:
    """Highest weight of the dual representation: the negated antidominant orbit element.

    Reflecting in any simple root with a positive coordinate steps down the
    orbit, ending at the unique antidominant element.  A reflection in
    alpha_i changes only the entries of the sparse column i of the Cartan
    matrix, so a worklist of coordinates that may be positive suffices.
    """
    if not w.is_dominant:
        raise PreconditionError("dual_weight requires a dominant weight")
    cols = _sparse_columns(d.cartan_matrix)
    mu = list(w.coords)
    todo = [i for i, c in enumerate(mu) if c > 0]
    while todo:
        i = todo.pop()
        c = mu[i]
        if c > 0:
            for k, x in cols[i]:
                mu[k] -= c * x
                if mu[k] > 0:
                    todo.append(k)
    return Weight(tuple(-x for x in mu))


# --- epsilon-coordinate mnemonics -------------------------------------------
#
# Root specs like "e1-e2", "e3", "2e4" are offered to humans by the CLI.
# Internally each classical simple root has a fixed epsilon expansion; a
# parsed mnemonic is matched against the epsilon vectors of the positive
# roots.  Only A/B/C/D support this (the drop machinery does not cover
# exceptional types).

_TERM_RE = re.compile(r"^(\d*)e(\d+)$")


def _epsilon_dim(t: CartanType) -> int:
    return t.rank + 1 if t.family == "A" else t.rank


def _simple_root_epsilons(t: CartanType) -> list[tuple[int, ...]]:
    if not t.is_classical:
        raise PreconditionError(f"epsilon mnemonics cover classical types only, not {t}")
    n, m = t.rank, _epsilon_dim(t)

    def vec(items: dict[int, int]) -> tuple[int, ...]:
        return tuple(items.get(k, 0) for k in range(m))

    rows = [vec({i: 1, i + 1: -1}) for i in range(n - 1)]
    if t.family == "A":
        rows.append(vec({n - 1: 1, n: -1}))
    elif t.family == "B":
        rows.append(vec({n - 1: 1}))
    elif t.family == "C":
        rows.append(vec({n - 1: 2}))
    else:
        rows.append(vec({n - 2: 1, n - 1: 1}))
    return rows


def parse_epsilon_spec(t: CartanType, spec: str) -> tuple[int, ...]:
    """Parse a mnemonic like "e1-e2" or "2e3" into an epsilon vector."""
    m = _epsilon_dim(t)
    s = spec.replace(" ", "")
    if not s:
        raise PreconditionError("empty root spec")
    out = [0] * m
    sign = 1
    for chunk in re.split(r"([+-])", s):
        if chunk == "":
            continue
        if chunk == "+":
            sign = 1
            continue
        if chunk == "-":
            sign = -1
            continue
        match = _TERM_RE.match(chunk)
        if not match:
            raise PreconditionError(f"malformed root spec term {chunk!r} in {spec!r}")
        coeff = int(match.group(1) or "1")
        idx = int(match.group(2))
        if not 1 <= idx <= m:
            raise PreconditionError(f"epsilon index e{idx} out of range 1..{m} for {t}")
        out[idx - 1] += sign * coeff
        sign = 1
    return tuple(out)


@lru_cache(maxsize=None)
def _positive_root_epsilon_index(t: CartanType) -> dict[tuple[int, ...], int]:
    d = build_root_datum(t)
    rows = _simple_root_epsilons(t)
    m = _epsilon_dim(t)
    table: dict[tuple[int, ...], int] = {}
    for idx, root in enumerate(d.positive_roots):
        eps = [0] * m
        for k, ck in enumerate(root):
            if ck:
                for j in range(m):
                    eps[j] += ck * rows[k][j]
        table[tuple(eps)] = idx
    return table


def find_positive_root(t: CartanType, spec: str) -> int:
    """Index of the positive root named by an epsilon mnemonic; raises if absent."""
    eps = parse_epsilon_spec(t, spec)
    table = _positive_root_epsilon_index(t)
    if eps not in table:
        raise PreconditionError(f"{spec!r} is not a positive root of {t}")
    return table[eps]
