"""Brute-force exact-matrix layer: representation matrices, unipotence, tensor checks.

Everything here is deliberately independent of the weight-counting route
in mtkit.drops: matrices are built entry by entry, ranks come from
Gaussian elimination on the rows of the nonzero form, unipotence degrees
from repeated multiplication.
Arithmetic is exact throughout -- every matrix has integer entries, read
over the rationals or reduced mod p over a prime field.  No floats anywhere.
The matrix type, ExactMatrix, and the packed kernel are in mtkit.matrix.

Unipotence degrees come from products of nonzero forms, except in the
tensor trials, whose dense powers run on packed rows and never form the
n x n tensor: N = g1 (x) g2 - 1 acts as N P = (g1 (x) 1) ((1 (x) g2) P) - P
through the two factors' nonzero forms.  Over Q a power stays packed while a
test of each packed row (add 2^b to every slot, mask the bits above b) shows
room for the next product; a nonzero power is unpacked only to reduce it
mod p or to widen the slots.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count
from operator import add, mul, sub
from types import MappingProxyType

from .errors import NotUnipotent, PreconditionError, printable
from .matrix import (ExactMatrix, _nonzero, _pack_rows, _require_prime, _slot_size, _times,
                     _unpack)
from .minuscule import MinusculeRep
from .roots import _epsilon_vector, _is_positive_root, _positive_root

DEFAULT_PRIME = 10007  # large enough that desk-scale tensor degrees never degrade

# Largest estimated cost of a verify_tensor_lemma run: trials times
# n^2 (k1 + k2 - 1) (n (d1 + d2) + 1000) + 500,000 for n = d1 * d2.  It was
# fitted to trials that took dense n x n powers, at most 0.98 ns a unit on a
# 2-vCPU host; powers through the two factors are no slower, so it is an
# upper bound, and no accepted run takes much above 50 s.
RUN_BUDGET = 5 * 10**10


def _require_int(name: str, value) -> int:
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an int, got {printable(value)}")
    return value


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


def _room(n: int, size: int, step: int) -> tuple[int, int]:
    # 2^b, and bits b + 1 to w - 1, in each of n slots, for the largest b with
    # step 2^b < 2^(w-1).  A packed row v whose entries all lie in [-2^b, 2^b)
    # has slots v + 2^b in [0, 2^(b+1)), so none of those bits set; the lowest
    # slot out of that range sets one, bit w - 1 if it is negative.
    w, b = 8 * size, 8 * size - 1 - step.bit_length()
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    return ones << b, ones * ((1 << w) - (2 << b))


def nilpotency_degree(nil: ExactMatrix) -> int:
    """Smallest k >= 1 with nil^k = 0; raises NotUnipotent when none exists.

    nil^(k+1) = nil @ nil^k on the nonzero forms: cheap for the sparse M - 1
    of root elements and their products, 6 to 15 times slower than packed
    rows for a dense nil, which is why the tensor trials keep their own loop."""
    power, k = nil, 1
    while not power.is_zero():
        if k == nil.dim:
            raise NotUnipotent(f"(M - 1)^{k} != 0, so M is not unipotent")
        power, k = nil @ power, k + 1
    return k


def _tensor_factors(m1: ExactMatrix, m2: ExactMatrix) -> list:
    """The nonzero forms of m1 (x) 1 and 1 (x) m2, leaving out a factor that is
    the identity, read off the rows of m1 and m2: their product is m1 (x) m2."""
    d1, d2 = m1.dim, m2.dim
    factors = []
    if not m1.is_identity():  # row (i, j) of m1 (x) 1: row i of m1, in the columns (c, j)
        factors.append({i * d2 + j: {c * d2 + j: x for c, x in row.items()}
                        for i, row in m1._form.items() for j in range(d2)})
    if not m2.is_identity():  # row (i, j) of 1 (x) m2: row j of m2, in the columns (i, c)
        factors.append({i * d2 + j: {i * d2 + c: x for c, x in row.items()}
                        for i in range(d1) for j, row in m2._form.items()})
    return factors


def _largest(m: ExactMatrix) -> int:
    # max |entry| of m, 1 for the zero matrix
    return max([abs(x) for row in m._form.values() for x in row.values()], default=1)


def _tensor_degree(m1: ExactMatrix, m2: ExactMatrix) -> int:
    """nilpotency_degree(m1.kron(m2).sub_identity()), without the n x n tensor.

    N = m1 (x) m2 - 1 acts as N P = (m1 (x) 1) ((1 (x) m2) P) - P, a power
    costing n (d1 + d2 + 1) multiply-adds for dense factors instead of n^2,
    with |entries of N P| <= step max |entries of P|.  The powers start from
    the packed identity, in slots that first hold step^2, the a-priori bound
    on N^2, and are widened when the test of _room fails."""
    n, p, factors = m1.dim * m2.dim, m1.prime, _tensor_factors(m1, m2)
    step = n * _largest(m1) * _largest(m2) + 1
    size = _slot_size(step * step)
    add, mask = _room(n, size, step)
    power = [1 << (8 * size * i) for i in range(n)]
    for k in range(1, n + 1):
        product = power
        for form in reversed(factors):
            product = _times(form, product)
        power = list(map(sub, product, power))
        if any(power) and (p or any(map(mask.__and__, map(add.__add__, power)))):
            rows = _unpack(power, size, p)
            # reduced mod p, every entry lies in [0, p - 1]: only a power over Q is scanned
            bound = p - 1 if p else max(max(map(max, rows)), -min(map(min, rows)))
            if (fit := _slot_size(step * bound)) != size:
                size, (add, mask) = fit, _room(n, fit, step)
            power = _pack_rows(rows, size)
        if not any(power):
            return k
    raise NotUnipotent(f"(M - 1)^{n} != 0, so M is not unipotent")


def unipotence(m: ExactMatrix) -> UnipotenceReport:
    nil = m.sub_identity()
    degree = nilpotency_degree(nil)
    return UnipotenceReport(degree, nil.rank(), m.dim, degree <= 2, m.prime)


def build_root_element(
    rep: MinusculeRep,
    roots: list[str | int],
    prime: int | None = None,
) -> ExactMatrix:
    """Matrix of the product of root elements x_alpha(1) on the weight basis rep.orbit.

    Each root is an epsilon mnemonic of a positive root, like "e1-e2" or
    "2e3", paired with the weights on its epsilon vector.  With mu in
    doubled epsilon coordinates, <mu, alpha_coroot> = (mu, alpha) / (alpha, alpha), so
    x_alpha sends v_mu to v_mu + v_{mu+alpha} when (mu, alpha) = -(alpha, alpha),
    and fixes v_mu otherwise: every cocycle sign is +1.  Ranks and
    unipotence degrees over the rationals do not depend on that choice; the
    test suite flips the signs by the parity of the orbit positions and
    asserts it.

    An int is an index into rep.datum.positive_roots, the one read of rep.datum:
    the benchmark (perfbench/worker.py) names roots so and reads their length
    classes there.  This branch, _epsilon_vector, RootDatum, build_root_datum,
    MinusculeRep.datum and minuscule_rep's datum build leave src/ together once
    the benchmark names its roots by mnemonic.

    Multiple roots must be distinct and strongly orthogonal: their epsilon
    dot product is 0 and their sum is no root, which refuses two short roots
    e_i, e_j of B and e_i - e_j, e_i + e_j of C.  The product is taken in the
    given order.  Such x_alpha commute, and each moves a weight to at most one
    other, so on the weights the moves join, the signs of the Chevalley root
    vectors form a coboundary: the +1 product is a diagonal +-1 conjugate of
    the group element, of the same degree and drop.  rep.orbit is read first:
    it refuses the exceptional types and modules of dimension above
    MATRIX_BUDGET before any weight is listed.
    """
    _require_prime(prime)
    if not isinstance(roots, (list, tuple)) or not roots:
        raise PreconditionError(f"roots must be a nonempty list, got {printable(roots)}")
    n, orbit, t = rep.dimension, rep.orbit, rep.cartan_type
    alphas = []
    for root in roots:
        if type(root) is not int:
            alphas.append(_positive_root(t, root))
        elif 0 <= root < len(rep.datum.positive_roots):
            alphas.append(_epsilon_vector(t, rep.datum.positive_roots[root]))
        else:
            raise PreconditionError(f"root index must be an int in "
                                    f"[0, {len(rep.datum.positive_roots)}), got {printable(root)}")
    for (a, x), (b, y) in combinations(zip(roots, alphas), 2):
        if x == y:
            raise PreconditionError(f"root {printable(b)} is repeated; the roots must be distinct")
        if sum(map(mul, x, y)):
            raise PreconditionError(f"roots {printable(a)} and {printable(b)} are not orthogonal")
        if _is_positive_root(t, z := tuple(map(add, x, y))):
            name = "".join(f"{'-+'[c > 0]}{abs(c) if abs(c) > 1 else ''}e{k + 1}"
                           for k, c in enumerate(z) if c)
            raise PreconditionError(f"roots {printable(a)} and {printable(b)} are not strongly "
                                    f"orthogonal: their sum {name[1:]} is a root")

    # An epsilon vector of a classical root has one or two nonzero entries.  x_alpha
    # moves each mu with (mu, alpha) = -(alpha, alpha) to mu + alpha, with (mu + alpha,
    # alpha) = +(alpha, alpha); the weights are sorted and + alpha keeps the order, so
    # the k-th that moves goes to the k-th.
    product: ExactMatrix | None = None
    for alpha in alphas:
        (k, a), *rest = [(k, a) for k, a in enumerate(alpha) if a]
        if rest:
            ((l, b),) = rest
            pairings = [a * mu[k] + b * mu[l] for mu in orbit]
        else:
            pairings = [a * mu[k] for mu in orbit]
        norm = sum(map(mul, alpha, alpha))
        form = {i: {i: 1} for i in range(n)}
        for src, dst in zip(compress(count(), map((-norm).__eq__, pairings)),
                            compress(count(), map(norm.__eq__, pairings)), strict=True):
            form[dst] = {src: 1, dst: 1}
        m = ExactMatrix._derived(prime, form, n)
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
    whose factors are both different from the identity: over the rationals
    there are none.  Over F_2 they are expected: for quadratic factors,
    (u - 1)^2 = 2 X (x) Y with X = g1 - 1 and Y = g2 - 1, which vanishes mod
    2, so every such trial is quadratic (the 20 trials of
    tests/golden/oracle_tensor_2_2_seed7_p2.json all are).  passed states
    the claim over Q, no failure and no corollary violation, and so reads
    false on such a run.  The report is read-only: degree_counts and the
    records are read-only mappings, and the record lists are tuples.
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


def random_unipotent(dim: int, k: int, rng: random.Random, prime: int | None = None) -> ExactMatrix:
    """Random k-unipotent dim x dim matrix M = C J C^-1, J a Jordan-shaped seed.

    Jordan blocks form a random partition of dim with largest part exactly k;
    C = lo lo2^T is a product of random unit-triangular integer matrices, so M
    is integral and stays invertible mod every prime.  M^T solves lo2 (lo^T M^T)
    = (C J)^T by forward and back substitution on packed rows, in slots for
    |M| <= 8 dim 9^dim (|C J| <= 8 dim; a unit-triangular solve with entries in
    [-2, 2] grows a bound at most 3^dim): no inverse, no product of matrices.  A
    dim with dim^4 above RUN_BUDGET (one tensor trial on dims (dim, 1) costs
    more), a prime that is not one and an rng that is not a random.Random are
    refused before any draw.
    """
    _require_prime(prime)
    if _require_int("unipotence degree", k) < 1:
        raise PreconditionError("unipotence degree must be >= 1")
    if _require_int("dimension", dim) < k:
        raise PreconditionError(
            f"dimension {printable(dim)} cannot host a {printable(k)}-unipotent element")
    if dim**4 > RUN_BUDGET:
        raise PreconditionError(
            f"dimension {printable(dim)} is over the run budget: dim^4 > {RUN_BUDGET}")
    if not isinstance(rng, random.Random):
        raise PreconditionError(f"rng must be a random.Random, got {printable(rng)}")
    # the Jordan blocks: column j of the seed J is e_j, plus e_(j-1) when j is inside a block
    link = [i > 0 for i in range(k)]
    while len(link) < dim:
        link += [i > 0 for i in range(rng.randint(1, min(k, dim - len(link))))]
    lo, lo2 = ([[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(dim)]
                for i in range(dim)] for _ in range(2))
    size, lo_t, low = _slot_size(8 * dim * 9**dim), list(zip(*lo)), _nonzero(lo2)
    cols = _times(low, _pack_rows(lo_t, size))  # the columns of C, rows of lo2 lo^T
    sol = [c + cols[j - 1] if inside else c for j, (c, inside) in enumerate(zip(cols, link))]
    for i, row in chain(low.items(), reversed(_nonzero(lo_t).items())):
        del row[i]  # forward through lo2, then back through lo^T, off the diagonal 1
        sol[i] -= sum(map(mul, row.values(), map(sol.__getitem__, row)))
    rows = list(zip(*_unpack(sol, size, prime)))  # sol holds the rows of M^T
    return ExactMatrix._derived(prime, _nonzero(rows), dim)


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
    degrees; p >= k1 + k2 - 1 avoids that).  Quadratic tensors of
    non-identity factors are still recorded as corollary violations over
    F_p, where small p can make them (every trial of two quadratics over
    F_2 is one), so the report's passed, the claim over Q, can read false.

    A trial's degree is nilpotency_degree(g1.kron(g2).sub_identity()), taken
    without the tensor: the powers of N = g1 (x) g2 - 1 go through the
    sparse factors g1 (x) 1 and 1 (x) g2, n (d1 + d2 + 1) multiply-adds each
    instead of n^2, and over Q stay packed while the room test passes.
    """
    if not isinstance(dims, (tuple, list)) or len(dims) != 2:
        raise PreconditionError(f"dims must be a pair of ints, got {printable(dims)}")
    d1, d2 = (_require_int("dims entry", d) for d in dims)
    if _require_int("k1", k1) < 1 or _require_int("k2", k2) < 1:
        raise PreconditionError("unipotence degrees must be >= 1")
    if _require_int("trials", trials) <= 0:
        raise PreconditionError("trials must be positive")
    if d1 < k1 or d2 < k2:
        raise PreconditionError(f"dims ({printable(d1)}, {printable(d2)}) too small for "
                                f"degrees ({printable(k1)}, {printable(k2)})")
    n = d1 * d2
    per_trial = n * n * (k1 + k2 - 1) * (n * (d1 + d2) + 1000) + 500_000
    if trials * per_trial > RUN_BUDGET:
        raise PreconditionError(
            f"{printable(trials)} trials at degrees ({printable(k1)}, {printable(k2)}) on dims "
            f"({printable(d1)}, {printable(d2)}) are over the run budget, "
            f"which allows {RUN_BUDGET // per_trial} such trials"
        )

    expected = k1 + k2 - 1
    counts: dict[int, int] = {}
    failures, deviations, violations = [], [], []
    base = random.Random(_require_int("seed", seed))
    for t in range(trials):
        rng = random.Random(base.randrange(2**63))
        m1 = random_unipotent(d1, k1, rng, prime)
        m2 = random_unipotent(d2, k2, rng, prime)
        deg = _tensor_degree(m1, m2)
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
