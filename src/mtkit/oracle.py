"""Brute-force exact-matrix layer: representation matrices, unipotence, tensor checks.

Everything here is deliberately independent of the weight-counting route
in mtkit.drops: matrices are built entry by entry, ranks come from
Gaussian elimination, unipotence degrees from repeated multiplication.
Arithmetic is exact throughout -- Python ints / fractions over the
rationals, machine ints mod p over a prime field.  No floats anywhere.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from operator import mul
from types import MappingProxyType

from .errors import FieldMismatch, NotUnipotent, PreconditionError
from .minuscule import MinusculeRep
from .roots import pair_with_coroot

DEFAULT_PRIME = 10007  # large enough that desk-scale tensor degrees never degrade

# Miller-Rabin with the first thirteen prime bases is exact below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

SIGN_CONVENTIONS = ("plus", "alternating")

# Largest module build_root_element writes out as a dense matrix: its rows
# take at least 8 n^2 bytes (134 MB at 4096), so the 8192-dimensional
# half-spin modules of D14 are refused before their orbit or any row is built.
MATRIX_BUDGET = 4096


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


@dataclass(frozen=True, slots=True)
class ExactMatrix:
    """Immutable dense square matrix over the rationals (prime=None) or over F_p.

    rows is a tuple of row tuples.  Caller-supplied rows are checked once,
    here: square shape, int entries (or Fraction entries over Q), a
    certified prime, entries reduced mod p.  Matrices the class derives
    from checked ones (products, Kronecker products, M - 1, identities,
    root elements) skip the re-scan.

    Hot paths build tuples from lists, not generators: CPython allocates a
    tuple built from a generator at a guessed size and resizes it, so once
    freed such tuples pile up on its per-size free lists instead of being
    reused, which shows as resident memory.
    """

    rows: tuple[tuple, ...]
    prime: int | None = None

    def __post_init__(self) -> None:
        rows = tuple([tuple(row) for row in self.rows])
        n = len(rows)
        p = self.prime
        exact = int if p is not None else (int, Fraction)
        for row in rows:
            if len(row) != n:
                raise PreconditionError("ExactMatrix must be square")
            for x in row:
                if not isinstance(x, exact):
                    raise PreconditionError(
                        "floating point entries are not allowed" if isinstance(x, float)
                        else f"entries must be int{'' if p else ' or Fraction'}, got {x!r}"
                    )
        if p is not None:
            _require_prime(p)
            rows = tuple([tuple([x % p for x in row]) for row in rows])
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _derived(cls, rows: tuple[tuple, ...], prime: int | None) -> "ExactMatrix":
        """Wrap rows built from checked entries, without checking them again."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "prime", prime)
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int, prime: int | None = None) -> "ExactMatrix":
        if prime is not None:
            _require_prime(prime)
        # row i is a window of one tuple that holds a single 1 in its middle
        e = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
        return cls._derived(tuple([e[n - 1 - i:2 * n - 1 - i] for i in range(n)]), prime)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def is_identity(self) -> bool:
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Product; a row with fewer than n/4 nonzeros combines rows of other,
        a denser one takes dot products with the columns of other."""
        if self.prime != other.prime:
            raise FieldMismatch("cannot multiply matrices over different fields")
        if self.dim != other.dim:
            raise PreconditionError("dimension mismatch in matrix product")
        n = self.dim
        b = other.rows
        p = self.prime
        cols = None
        out = []
        for arow in self.rows:
            if 4 * (n - arow.count(0)) < n:
                acc = None
                for k in compress(range(n), arow):
                    a = arow[k]
                    if acc is None:
                        acc = b[k] if a == 1 else [a * y for y in b[k]]
                    else:
                        acc = [x + a * y for x, y in zip(acc, b[k])]
                if acc is None:
                    out.append((0,) * n)
                    continue
            else:
                if cols is None:
                    cols = list(zip(*b))
                acc = [sum(map(mul, arow, col)) for col in cols]
            out.append(tuple([x % p for x in acc]) if p else tuple(acc))
        return ExactMatrix._derived(tuple(out), p)

    def sub_identity(self) -> "ExactMatrix":
        """M - 1, the nilpotent part candidate."""
        p = self.prime
        rows = tuple([
            row[:i] + (((row[i] - 1) % p if p else row[i] - 1),) + row[i + 1:]
            for i, row in enumerate(self.rows)
        ])
        return ExactMatrix._derived(rows, p)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.prime != other.prime:
            raise FieldMismatch("cannot tensor matrices over different fields")
        zero = (0,) * other.dim
        p = self.prime
        rows = []
        for arow in self.rows:
            for brow in other.rows:
                row = []
                for a in arow:
                    if a:
                        row.extend((a * bb) % p if p else a * bb for bb in brow)
                    else:
                        row.extend(zero)
                rows.append(tuple(row))
        return ExactMatrix._derived(tuple(rows), p)

    def rank(self) -> int:
        """Exact rank by elimination: each row is reduced by the kept row that
        leads in its leading column until it vanishes or leads in a new one.

        Over Q a row stays integral while the pivot divides the entry it
        clears; only otherwise does the multiplier become a Fraction.
        """
        p = self.prime
        kept: dict[int, tuple | list] = {}  # leading column -> row
        for row in self.rows:
            while (lead := next(compress(count(), row), None)) is not None:
                prow = kept.get(lead)
                if prow is None:
                    kept[lead] = row
                    break
                v, pivot = row[lead], prow[lead]
                if p:
                    f = v * pow(pivot, -1, p) % p
                    row = [(x - f * y) % p for x, y in zip(row, prow)]
                else:
                    f, rest = divmod(v, pivot)
                    if rest:
                        f = Fraction(v) / Fraction(pivot)
                    row = [x - f * y for x, y in zip(row, prow)]
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
        return {
            "degree": self.degree,
            "drop": self.drop,
            "dim": self.dim,
            "quadratic": self.quadratic,
            "prime": self.prime,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "UnipotenceReport":
        return cls(
            degree=d["degree"],
            drop=d["drop"],
            dim=d["dim"],
            quadratic=d["quadratic"],
            prime=d.get("prime"),
        )


def nilpotency_degree(nil: ExactMatrix) -> int:
    """Smallest k >= 1 with nil^k = 0; raises NotUnipotent when none exists."""
    if nil.is_zero():
        return 1
    power = nil
    k = 1
    while k < nil.dim:
        power = power @ nil
        k += 1
        if power.is_zero():
            return k
    raise NotUnipotent(f"(M - 1)^{nil.dim} != 0, so M is not unipotent")


def unipotence(m: ExactMatrix) -> UnipotenceReport:
    nil = m.sub_identity()
    degree = nilpotency_degree(nil)
    drop = nil.rank()
    return UnipotenceReport(
        degree=degree, drop=drop, dim=m.dim, quadratic=degree <= 2, prime=m.prime
    )


def tensor(m1: ExactMatrix, m2: ExactMatrix) -> ExactMatrix:
    """Kronecker product, in the standard row-major block ordering."""
    return m1.kron(m2)


def build_root_element(
    rep: MinusculeRep,
    root_indices: list[int],
    prime: int | None = None,
    signs: str = "plus",
) -> ExactMatrix:
    """Matrix of the product of root elements x_alpha(1) in the weight basis.

    Each x_alpha sends v_mu to v_mu + c v_{mu+alpha} when <mu, alpha_coroot>
    is -1, and fixes v_mu otherwise.  The cocycle sign c is +-1 under a fixed
    deterministic convention ("plus": always +1; "alternating": parity of the
    source and target orbit positions); ranks and unipotence degrees over the
    rationals do not depend on the choice, which the test suite asserts.

    Multiple roots must be pairwise orthogonal; the product is taken in the
    given order.  Single-root elements are certified quadratic; products are
    exploratory (the sign convention is not certified to define a group
    representation).  Modules of dimension above MATRIX_BUDGET are refused.
    """
    if prime is not None:
        _require_prime(prime)
    if not root_indices:
        raise PreconditionError("at least one root is required")
    if signs not in SIGN_CONVENTIONS:
        raise PreconditionError(f"unknown sign convention {signs!r}")
    if rep.dimension > MATRIX_BUDGET:
        raise PreconditionError(
            f"{rep.name} of {rep.cartan_type} has dimension {rep.dimension}, "
            f"more than the matrix budget of {MATRIX_BUDGET} rows"
        )
    d = rep.datum
    for idx in root_indices:
        if not 0 <= idx < len(d.positive_roots):
            raise PreconditionError(f"root index {idx} out of range")
    for a in root_indices:
        for b in root_indices:
            if a == b:
                continue
            wa = d.root_weight_coords(d.positive_roots[a])
            if pair_with_coroot(d.coroots[b], wa):
                raise PreconditionError(
                    f"roots {d.positive_roots[a]} and {d.positive_roots[b]} are not orthogonal"
                )

    order = {mu.coords: i for i, mu in enumerate(rep.orbit)}
    identity = ExactMatrix.identity(rep.dimension, prime).rows
    product: ExactMatrix | None = None
    for idx in root_indices:
        cr = d.coroots[idx]
        alpha_w = d.root_weight_coords(d.positive_roots[idx])
        rows = list(identity)
        for src, mu in enumerate(rep.orbit):
            if pair_with_coroot(cr, mu.coords) != -1:
                continue
            target = tuple([x + y for x, y in zip(mu.coords, alpha_w)])
            dst = order.get(target)
            if dst is None:
                raise AssertionError(
                    f"weight {target} fell outside the orbit; minuscule bookkeeping broken"
                )
            c = 1 if signs == "plus" else (-1 if (src + dst) % 2 else 1)
            row = list(rows[dst])
            row[src] = c % prime if prime else c
            rows[dst] = tuple(row)
        m = ExactMatrix._derived(tuple(rows), prime)
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

    @classmethod
    def from_dict(cls, d: dict) -> "TensorLemmaReport":
        return cls(
            k1=d["k1"],
            k2=d["k2"],
            dims=tuple(d["dims"]),
            trials=d["trials"],
            seed=d["seed"],
            prime=d.get("prime"),
            expected_degree=d["expected_degree"],
            degree_counts={int(k): v for k, v in d["degree_counts"].items()},
            failures=d["failures"],
            char_deviations=d["char_deviations"],
            corollary_violations=d["corollary_violations"],
        )


def _unit_lower_inverse(l_rows: list[list[int]]) -> list[list[int]]:
    # forward substitution; unit triangular integer matrices invert over Z
    n = len(l_rows)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            s = sum(l_rows[i][j] * inv[j][c] for j in range(c, i) if l_rows[i][j])
            inv[i][c] = -s
    return inv


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


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

    jordan = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    pos = 0
    for part in parts:
        for i in range(part - 1):
            jordan[pos + i][pos + i + 1] = 1
        pos += part

    lo = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(dim)] for i in range(dim)]
    up = _transpose(
        [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(dim)] for i in range(dim)]
    )
    lo_inv = _unit_lower_inverse(lo)
    up_inv = _transpose(_unit_lower_inverse(_transpose(up)))

    conj = ExactMatrix(lo, None) @ ExactMatrix(up, None)
    conj_inv = ExactMatrix(up_inv, None) @ ExactMatrix(lo_inv, None)
    m = conj @ ExactMatrix(jordan, None) @ conj_inv
    if prime is not None:
        return ExactMatrix(m.rows, prime)
    return m


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

    expected = k1 + k2 - 1
    counts: dict[int, int] = {}
    failures, deviations, violations = [], [], []
    base = random.Random(seed)
    trial_seeds = [base.randrange(2**63) for _ in range(trials)]
    for t, ts in enumerate(trial_seeds):
        rng = random.Random(ts)
        m1 = random_unipotent(d1, k1, rng, prime)
        m2 = random_unipotent(d2, k2, rng, prime)
        deg = nilpotency_degree(tensor(m1, m2).sub_identity())
        counts[deg] = counts.get(deg, 0) + 1
        if deg != expected:
            record = {"trial": t, "degree": deg, "expected": expected}
            if prime is None:
                failures.append(record)
            else:
                deviations.append(record)
        if deg <= 2 and not m1.is_identity() and not m2.is_identity():
            violations.append({"trial": t, "degree": deg})
    return TensorLemmaReport(
        k1=k1, k2=k2, dims=(d1, d2), trials=trials, seed=seed, prime=prime,
        expected_degree=expected, degree_counts=counts, failures=failures,
        char_deviations=deviations, corollary_violations=violations,
    )
