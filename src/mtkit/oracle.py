"""Brute-force exact-matrix layer: representation matrices, unipotence, tensor checks.

Everything here is deliberately independent of the weight-counting route
in mtkit.drops: matrices are built entry by entry, ranks come from
Gaussian elimination, unipotence degrees from repeated multiplication.
Arithmetic is exact throughout -- every matrix has integer entries, read
over the rationals or reduced mod p over a prime field.  No floats anywhere.
"""

from __future__ import annotations

import random
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, count, permutations
from math import gcd
from operator import attrgetter, itemgetter, lshift, mul
from types import MappingProxyType

from .errors import FieldMismatch, NotUnipotent, PreconditionError
from .minuscule import MinusculeRep
from .roots import pair_with_coroot

DEFAULT_PRIME = 10007  # large enough that desk-scale tensor degrees never degrade

# Miller-Rabin with the first thirteen prime bases is exact below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# Largest module build_root_element writes out as a dense matrix: its rows
# take at least 8 n^2 bytes (134 MB at 4096), so the 8192-dimensional
# half-spin modules of D14 are refused before their orbit or any row is built.
MATRIX_BUDGET = 4096

# Largest estimated cost of a verify_tensor_lemma run: trials times
# n^2 (k1 + k2 - 1) (n (d1 + d2) + 1000) + 500,000 for n = d1 * d2, a fit to
# 47 timed trial shapes (n <= 128, over Q and F_p) in which a unit took at
# most 0.98 ns on a 2-vCPU host, so no accepted run takes much above 50 s.
RUN_BUDGET = 5 * 10**10


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < _MR_BOUND."""
    if p < 2:
        return False
    if p in _MR_BASES:
        return True
    if any(p % b == 0 for b in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=128, typed=True)
def _require_prime(p: int) -> int:
    """Return p if it is a prime the primality test can certify; raise otherwise."""
    if not isinstance(p, int):  # typed cache: 7.0 must not hit the entry for 7
        raise PreconditionError(f"prime must be an integer, got {p!r}")
    if p >= _MR_BOUND:
        raise PreconditionError(
            f"prime must be below {_MR_BOUND}, the range of the deterministic "
            f"primality test, got {p}"
        )
    if not _is_prime(p):
        raise PreconditionError(f"prime must be a prime >= 2, got {p}")
    return p


# --- the product kernel: Kronecker substitution --------------------------------
# A row x of n integers packs into the one int sum_c x_c 2^(w c), with signed
# slots of w = 8 * size bits.  size comes from an a-priori bound on |x_c|
# (n max|A| max|B| for a product row), so |x_c| < 2^(w-1) and a packed row is
# 0 exactly when the row is.  Row i of A @ B packs to sum_k A_ik packed(B_k)
# over the nonzero A_ik: one big-int multiply-add per coefficient.
_FMT = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


def _slot_size(bound: int) -> int:
    """Bytes per signed slot, a power of two, holding every |x| <= bound."""
    return 1 << ((bound.bit_length() + 8) // 8 - 1).bit_length()


def _times(terms, packed, op=mul) -> list[int]:
    """Packed rows of A @ B, from the nonzero entries of A and the packed rows of B."""
    out = [0] * len(packed)
    for i, coeffs, cols in terms:
        out[i] = sum(map(op, coeffs, map(packed.__getitem__, cols)))
    return out


def _pack(terms, n: int, size: int) -> list[int]:
    # A @ 1, with row k of 1 packed to 2^(w k)
    return _times(terms, range(0, 8 * size * n, 8 * size), lshift)


def _bias(n: int, size: int) -> int:
    # 2^(w-1) in each of n slots: adding it keeps the slots from borrowing
    # from each other, and xor-ing it away leaves each slot's two's complement
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _pack_rows(rows, size: int) -> list[int]:
    """The packed rows of dense integer rows, read from their slot bytes."""
    n = len(rows)
    bias, fmt = _bias(n, size), _FMT.get(size)
    raw = [struct.pack(f"<{n}{fmt}", *row) if fmt else b"".join(
        [x.to_bytes(size, "little", signed=True) for x in row]) for row in rows]
    return [(int.from_bytes(b, "little") ^ bias) - bias for b in raw]


def _unpack(packed: list[int], size: int, p: int | None = None) -> list[tuple]:
    """The rows of these packed rows, reduced mod p."""
    n = len(packed)
    bias, fmt = _bias(n, size), _FMT.get(size)
    raw = [((v + bias) ^ bias).to_bytes(n * size, "little") for v in packed]
    slots = range(0, n * size, size)
    rows = [tuple(memoryview(b).cast(fmt)) if fmt else tuple(
        [int.from_bytes(b[i:i + size], "little", signed=True) for i in slots]) for b in raw]
    return [tuple([x % p for x in row]) for row in rows] if p else rows


def _nonzero(rows, among=None) -> tuple[list[tuple[int, list, list[int]]], int]:
    """Each nonzero row i (of among, default all) as (i, its nonzero entries, their
    columns), and max |entry| (1 for a zero matrix: a product's slots hold the other)."""
    cols = range(len(rows))
    among = cols if among is None else among
    terms = [(i, list(compress(rows[i], rows[i])), list(compress(cols, rows[i])))
             for i in compress(among, map(any, map(rows.__getitem__, among)))]
    return terms, max(map(abs, chain.from_iterable([c for _, c, _ in terms])), default=1)


@dataclass(frozen=True, slots=True)
class ExactMatrix:
    """Immutable dense square integer matrix, over Q (prime=None) or over F_p.

    rows is a tuple of row tuples.  Caller-supplied rows are checked once,
    here: square shape, int entries, a certified prime, entries reduced mod p.
    Matrices the class derives from checked ones (products, Kronecker
    products, M - 1, identities, root elements) skip the re-scan.

    _form memoizes _nonzero(rows) outside ==, hash and repr, for products,
    rank and nilpotency_degree; identity, build_root_element and sub_identity
    (of M with a known form and no zero row) seed it.

    Hot paths build tuples from lists, not generators: CPython allocates a
    tuple built from a generator at a guessed size and resizes it, so once
    freed such tuples pile up on its per-size free lists instead of being
    reused, which shows as resident memory.
    """

    rows: tuple[tuple, ...]
    prime: int | None = None
    _form: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple([tuple(row) for row in self.rows])
        n = len(rows)
        p = self.prime
        for row in rows:
            if len(row) != n:
                raise PreconditionError("ExactMatrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise PreconditionError(
                        "floating point entries are not allowed" if isinstance(x, float)
                        else f"entries must be int, got {x!r}"
                    )
        if p is not None:
            _require_prime(p)
            rows = tuple([tuple([x % p for x in row]) for row in rows])
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _derived(cls, rows: tuple[tuple, ...], prime: int | None, form=None) -> "ExactMatrix":
        """Wrap rows built from checked entries, without checking them again."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "prime", prime)
        object.__setattr__(m, "_form", form)
        return m

    def _sparse(self) -> tuple[list[tuple[int, list, list[int]]], int]:
        if self._form is None:
            object.__setattr__(self, "_form", _nonzero(self.rows))
        return self._form

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int, prime: int | None = None) -> "ExactMatrix":
        if prime is not None:
            _require_prime(prime)
        # row i is a window of one tuple that holds a single 1 in its middle
        e, one = (0,) * (n - 1) + (1,) + (0,) * (n - 1), [1]
        return cls._derived(tuple([e[n - 1 - i:2 * n - 1 - i] for i in range(n)]), prime,
                            ([(i, one, [i]) for i in range(n)], 1))

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def is_identity(self) -> bool:
        return self.rows == ExactMatrix.identity(self.dim).rows

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Product by Kronecker substitution: each row of other packs into one int."""
        if self.prime != other.prime:
            raise FieldMismatch("cannot multiply matrices over different fields")
        if self.dim != other.dim:
            raise PreconditionError("dimension mismatch in matrix product")
        a, ma = self._sparse()
        b, mb = other._sparse()
        size = _slot_size(self.dim * ma * mb)
        rows = _unpack(_times(a, _pack(b, self.dim, size)), size, self.prime)
        return ExactMatrix._derived(tuple(rows), self.prime)

    def sub_identity(self) -> "ExactMatrix":
        """M - 1, the nilpotent part candidate.  If M has a known form and no
        zero row, its rows equal to those of 1, each the one term (i, [1], [i]),
        become one shared zero row."""
        p, rows, form, n = self.prime, self.rows, self._form, self.dim
        sparse = form is not None and len(form[0]) == n
        changed = [i for i, c, k in form[0] if k[0] != i or len(k) > 1 or c[0] != 1
                   ] if sparse else range(n)
        out = [(0,) * n] * n
        for i in changed:
            row = list(rows[i])
            row[i] = (row[i] - 1) % p if p else row[i] - 1
            out[i] = tuple(row)
        return ExactMatrix._derived(tuple(out), p, _nonzero(out, changed) if sparse else None)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product: row (i, j) packs to packed(other_j) times row i
        of self packed into slots dim(other) times as wide."""
        if self.prime != other.prime:
            raise FieldMismatch("cannot tensor matrices over different fields")
        a, ma = self._sparse()
        b, mb = other._sparse()
        size = _slot_size(ma * mb)
        spread = _pack(a, self.dim, size * other.dim)
        packed = _pack(b, other.dim, size)
        rows = _unpack([x * y for x in spread for y in packed], size, self.prime)
        return ExactMatrix._derived(tuple(rows), self.prime)

    def rank(self) -> int:
        """Exact rank by elimination: each nonzero row is reduced by the kept row
        that leads in its leading column until it vanishes or leads in a new one.

        Over Q it is fraction-free: a row that leads with v, against the pivot
        and g = gcd(v, pivot), becomes (pivot/g) row - (v/g) kept row divided
        by the gcd of its entries.
        """
        p, rows = self.prime, self.rows
        kept: dict[int, tuple | list] = {}  # leading column -> row
        for i, _, cols in self._sparse()[0]:
            row, lead = rows[i], cols[0]
            while (prow := kept.get(lead)) is not None:
                v, pivot = row[lead], prow[lead]
                if p:
                    f = v * pow(pivot, -1, p) % p
                    row = [(x - f * y) % p for x, y in zip(row, prow)]
                else:
                    g = gcd(v, pivot)
                    a, b = pivot // g, v // g
                    row = [a * x - b * y for x, y in zip(row, prow)]
                    if (g := gcd(*row)) > 1:
                        row = [x // g for x in row]
                if (lead := next(compress(count(), row), None)) is None:
                    break
            else:
                kept[lead] = row
        return len(kept)


@dataclass(frozen=True)
class UnipotenceReport:
    """Degree k with (M-1)^k = 0 != (M-1)^{k-1}, plus the drop rank(M-1)."""

    degree: int
    drop: int
    dim: int
    quadratic: bool
    prime: int | None = None

    def to_dict(self) -> dict:
        return {"degree": self.degree, "drop": self.drop, "dim": self.dim,
                "quadratic": self.quadratic, "prime": self.prime}


def nilpotency_degree(nil: ExactMatrix) -> int:
    """Smallest k >= 1 with nil^k = 0; raises NotUnipotent when none exists.

    nil^(k+1) = nil nil^k stays packed; a power is unpacked only to reduce it
    mod p, or to widen the slots when the bound on the next one outgrows them."""
    n, p = nil.dim, nil.prime
    terms, bound = nil._sparse()  # bound: on the entries of the current power
    if not terms:
        return 1
    step = n * bound  # the next power's entries are at most step * bound
    size = _slot_size(step * bound)
    packed = _pack(terms, n, size)
    for k in range(2, n + 1):
        packed = _times(terms, packed)
        bound *= step
        if p or (any(packed) and _slot_size(step * bound) > size):
            power = _unpack(packed, size, p)
            # reduced mod p, every entry lies in [0, p - 1]: only a power over Q is scanned
            bound = p - 1 if p else max(max(map(max, power)), -min(map(min, power)))
            size = _slot_size(step * bound)
            packed = _pack_rows(power, size)
        if not any(packed):
            return k
    raise NotUnipotent(f"(M - 1)^{n} != 0, so M is not unipotent")


def unipotence(m: ExactMatrix) -> UnipotenceReport:
    nil = m.sub_identity()
    degree = nilpotency_degree(nil)
    return UnipotenceReport(degree, nil.rank(), m.dim, degree <= 2, m.prime)


def build_root_element(
    rep: MinusculeRep,
    root_indices: list[int],
    prime: int | None = None,
) -> ExactMatrix:
    """Matrix of the product of root elements x_alpha(1) in the weight basis.

    Each x_alpha sends v_mu to v_mu + v_{mu+alpha} when <mu, alpha_coroot>
    is -1, and fixes v_mu otherwise: every cocycle sign is +1.  Ranks and
    unipotence degrees over the rationals do not depend on that choice; the
    test suite flips the signs by the parity of the orbit positions and
    asserts it.

    Multiple roots must be distinct and pairwise orthogonal; the product is
    taken in the given order.  Single-root elements are certified quadratic;
    products are exploratory (the sign convention is not certified to define
    a group representation).  Modules of dimension above MATRIX_BUDGET are refused.
    """
    if prime is not None:
        _require_prime(prime)
    if not root_indices:
        raise PreconditionError("at least one root is required")
    if rep.dimension > MATRIX_BUDGET:
        raise PreconditionError(
            f"{rep.name} of {rep.cartan_type} has dimension {rep.dimension}, "
            f"more than the matrix budget of {MATRIX_BUDGET} rows"
        )
    d = rep.datum
    for k, idx in enumerate(root_indices):
        if type(idx) is not int or not 0 <= idx < len(d.positive_roots):
            raise PreconditionError(
                f"root index must be an int in [0, {len(d.positive_roots)}), got {idx!r}")
        if idx in root_indices[:k]:
            raise PreconditionError(
                f"root {d.positive_roots[idx]} is repeated; the roots must be distinct"
            )
    for a, b in permutations(root_indices, 2):
        if pair_with_coroot(d.coroots[b], d.root_weight_coords(d.positive_roots[a])):
            raise PreconditionError(
                f"roots {d.positive_roots[a]} and {d.positive_roots[b]} are not orthogonal"
            )

    # <mu, alpha coroot> sums mu's coordinates over the coroot's simple coroots with
    # multiplicity.  x_alpha moves each mu pairing to -1 to mu + alpha, which pairs to
    # +1; the orbit is sorted and + alpha keeps the order, so the k-th goes to the k-th.
    identity = ExactMatrix.identity(rep.dimension, prime)
    product: ExactMatrix | None = None
    for idx in root_indices:
        ks = [k for k, c in enumerate(d.coroots[idx]) for _ in range(c)]
        coords = map(itemgetter(*ks), map(attrgetter("coords"), rep.orbit))
        pairings = list(coords if len(ks) == 1 else map(sum, coords))
        rows, terms = list(identity.rows), list(identity._form[0])
        for src, dst in zip(compress(count(), map((-1).__eq__, pairings)),
                            compress(count(), map((1).__eq__, pairings)), strict=True):
            row = list(rows[dst])
            row[src] = 1
            rows[dst] = tuple(row)
            terms[dst] = (dst, [1, 1], [src, dst] if src < dst else [dst, src])
        m = ExactMatrix._derived(tuple(rows), prime, (terms, 1))
        product = m if product is None else product @ m
    return product


# --- randomized tensor-lemma verification ------------------------------------


@dataclass(frozen=True)
class TensorLemmaReport:
    """Outcome of seeded random trials of degree additivity for tensor products.

    For k1-unipotent g1 and k2-unipotent g2, the tensor g1 (x) g2 must be
    exactly (k1 + k2 - 1)-unipotent over the rationals; over F_p with small p
    the degree can drop, which is recorded in char_deviations rather than
    counted as a failure.  corollary_violations records any quadratic tensor
    whose factors are both different from the identity (there must be none).
    The report is read-only: degree_counts and the records are read-only
    mappings, and the record lists are tuples.
    """

    k1: int
    k2: int
    dims: tuple[int, int]
    trials: int
    seed: int
    prime: int | None
    expected_degree: int
    degree_counts: Mapping[int, int] = field(default_factory=dict)
    failures: tuple[Mapping, ...] = ()
    char_deviations: tuple[Mapping, ...] = ()
    corollary_violations: tuple[Mapping, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree_counts", MappingProxyType(dict(self.degree_counts)))
        for name in ("failures", "char_deviations", "corollary_violations"):
            records = tuple([MappingProxyType(dict(r)) for r in getattr(self, name)])
            object.__setattr__(self, name, records)

    @property
    def passed(self) -> bool:
        return not self.failures and not self.corollary_violations

    def to_dict(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "dims": list(self.dims),
            "trials": self.trials,
            "seed": self.seed,
            "prime": self.prime,
            "expected_degree": self.expected_degree,
            "degree_counts": {str(k): v for k, v in sorted(self.degree_counts.items())},
            "failures": [dict(r) for r in self.failures],
            "char_deviations": [dict(r) for r in self.char_deviations],
            "corollary_violations": [dict(r) for r in self.corollary_violations],
            "passed": self.passed,
        }


def _unit_lower_inverse(l_rows: list[list[int]]) -> list[list[int]]:
    # forward substitution; unit triangular integer matrices invert over Z
    n = len(l_rows)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            s = sum(l_rows[i][j] * inv[j][c] for j in range(c, i) if l_rows[i][j])
            inv[i][c] = -s
    return inv


def random_unipotent(dim: int, k: int, rng: random.Random, prime: int | None = None) -> ExactMatrix:
    """Random k-unipotent dim x dim matrix: a conjugated Jordan-shaped seed.

    Jordan blocks form a random partition of dim with largest part exactly k;
    the conjugator is a product of random unit-triangular integer matrices,
    so the result is integral and stays invertible mod every prime.
    """
    if k < 1:
        raise PreconditionError("unipotence degree must be >= 1")
    if dim < k:
        raise PreconditionError(f"dimension {dim} cannot host a {k}-unipotent element")
    parts = [k]
    rem = dim - k
    while rem:
        p = rng.randint(1, min(k, rem))
        parts.append(p)
        rem -= p

    def wrap(rows) -> ExactMatrix:
        return ExactMatrix._derived(tuple([tuple(row) for row in rows]), None)

    lo, lo2 = ([[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(dim)]
                for i in range(dim)] for _ in range(2))
    conj = wrap(lo) @ wrap(zip(*lo2))
    conj_inv = wrap(zip(*_unit_lower_inverse(lo2))) @ wrap(_unit_lower_inverse(lo))
    # column j of the Jordan seed J is e_j, plus e_(j-1) when j is inside a block
    link = [i > 0 for part in parts for i in range(part)]
    m = wrap([[row[j] + link[j] * row[j - 1] for j in range(dim)] for row in conj.rows]) @ conj_inv
    return ExactMatrix(m.rows, prime) if prime is not None else m


def verify_tensor_lemma(
    k1: int,
    k2: int,
    dims: tuple[int, int],
    trials: int,
    seed: int,
    prime: int | None = None,
) -> TensorLemmaReport:
    """Seeded random verification that tensoring adds unipotence degrees minus one.

    Over the rationals every trial must give degree exactly k1 + k2 - 1 and
    no quadratic tensor may have two non-identity factors; any miss lands in
    failures / corollary_violations.  Over F_p mismatches are recorded as
    characteristic deviations instead of failures (small p genuinely lowers
    degrees; p >= k1 + k2 - 1 avoids that).
    """
    if prime is not None:
        _require_prime(prime)
    if k1 < 1 or k2 < 1:
        raise PreconditionError("unipotence degrees must be >= 1")
    if trials <= 0:
        raise PreconditionError("trials must be positive")
    d1, d2 = dims
    if d1 < k1 or d2 < k2:
        raise PreconditionError(f"dims {dims} too small for degrees ({k1}, {k2})")
    n = d1 * d2
    per_trial = n * n * (k1 + k2 - 1) * (n * (d1 + d2) + 1000) + 500_000
    if trials * per_trial > RUN_BUDGET:
        raise PreconditionError(
            f"{trials} trials at degrees ({k1}, {k2}) on dims {dims} are over the run budget, "
            f"which allows {RUN_BUDGET // per_trial} such trials"
        )

    expected = k1 + k2 - 1
    counts: dict[int, int] = {}
    failures, deviations, violations = [], [], []
    base = random.Random(seed)
    for t in range(trials):
        rng = random.Random(base.randrange(2**63))
        m1 = random_unipotent(d1, k1, rng, prime)
        m2 = random_unipotent(d2, k2, rng, prime)
        deg = nilpotency_degree(m1.kron(m2).sub_identity())
        counts[deg] = counts.get(deg, 0) + 1
        if deg != expected:
            record = {"trial": t, "degree": deg, "expected": expected}
            (failures if prime is None else deviations).append(record)
        if deg <= 2 and not m1.is_identity() and not m2.is_identity():
            violations.append({"trial": t, "degree": deg})
    return TensorLemmaReport(
        k1=k1, k2=k2, dims=(d1, d2), trials=trials, seed=seed, prime=prime,
        expected_degree=expected, degree_counts=counts, failures=failures,
        char_deviations=deviations, corollary_violations=violations,
    )
