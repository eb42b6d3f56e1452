from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import mul

from hypothesis import HealthCheck, settings

from mtkit import (
    CartanType,
    EndoType,
    ExceptionalInstance,
    MtQuery,
    MtVerdict,
    PreconditionError,
    Status,
    TensorLemmaReport,
    Witness,
)

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# Readers of the JSON that the to_dict methods (and the CLI) write: the
# library itself never reads its records back, so these live with the tests.
def query_from_dict(d: dict) -> MtQuery:
    return MtQuery(d["g"], d["s"], EndoType(d["endo"]))


def witness_from_dict(d: dict) -> Witness:
    return Witness(d["family"], d["r_or_t"], d["g"], d["s"])


def verdict_from_dict(d: dict) -> MtVerdict:
    return MtVerdict(
        Status(d["status"]),
        d.get("target_group"),
        witness_from_dict(d["witness"]) if d.get("witness") else None,
        d.get("explanation", ""),
        tuple(d.get("citations", ())),
        tuple(d.get("notes", ())),
    )


def exceptional_instance_from_dict(d: dict) -> ExceptionalInstance:
    return ExceptionalInstance(d["g"], d["s"], d["family"], d["r_or_t"],
                               tuple(d.get("notes", ())))


def tensor_report_from_dict(d: dict) -> TensorLemmaReport:
    return TensorLemmaReport(
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


# The reference root datum, for every family: the Cartan matrix, and the
# positive roots, coroots and length classes from closing the simple roots
# under the simple reflections.  The library lists the classical positive
# roots in closed form and has no Cartan matrix, coroot or exceptional root.
def cartan_matrix(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """A[i][j] = <alpha_j, alpha_i_coroot>, simple roots numbered as in Bourbaki's plates."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(pairs):
        for i, j in pairs:
            a[i][j] = -1
            a[j][i] = -1

    fam = t.family
    if fam in ("A", "B", "C"):
        chain((i, i + 1) for i in range(n - 1))
        if fam == "B":
            a[n - 1][n - 2] = -2  # alpha_n short: <alpha_{n-1}, alpha_n_coroot> = -2
        if fam == "C":
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
    return tuple(map(tuple, a))


def _symmetrizer_from_cartan(a):
    """d_i with d_i a_ij = d_j a_ji, read off the Cartan matrix along the Dynkin graph."""
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if a[i][j] and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                stack.append(j)
    lo = min(d)
    return [int(x / lo) for x in d]


def _reflection_closure(a):
    """Positive roots, coroots and length classes by closing the simple roots
    under all simple reflections (negative roots included), keyed by their
    dense simple-root coordinates."""
    n = len(a)
    d = _symmetrizer_from_cartan(a)
    cols = [[(k, a[k][j]) for k in range(n) if a[k][j]] for j in range(n)]
    # root -> its nonzero pairings {i: <root, alpha_i_coroot>}
    seen = {tuple(1 if j == i else 0 for j in range(n)): dict(cols[i]) for i in range(n)}
    frontier = list(seen)
    while frontier:
        new = []
        for c in frontier:
            p = seen[c]
            for i, delta in p.items():
                cc = list(c)
                cc[i] -= delta
                cc = tuple(cc)
                if cc not in seen:
                    q = dict(p)
                    for k, x in cols[i]:
                        q[k] = q.get(k, 0) - delta * x
                    seen[cc] = {k: v for k, v in q.items() if v}
                    new.append(cc)
        frontier = new
    positives = sorted(c for c in seen if min(c) >= 0)
    halves = []
    for c in positives:
        norm = sum(c[i] * d[i] * v for i, v in seen[c].items())
        assert norm > 0 and norm % 2 == 0
        halves.append(norm // 2)
    coroots = [tuple(cj * dj // h for cj, dj in zip(c, d)) for c, h in zip(positives, halves)]
    long_half = max(halves)
    classes = tuple("long" if h == long_half else "short" for h in halves)
    return tuple(positives), tuple(coroots), classes


@dataclass(frozen=True)
class ReferenceDatum:
    """Cartan matrix plus the positive roots, in the simple-root basis and sorted,
    with their coroots in the simple-coroot basis and their length classes."""

    cartan_type: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    length_class: tuple[str, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank


@cache
def reference_datum(t: CartanType) -> ReferenceDatum:
    a = cartan_matrix(t)
    return ReferenceDatum(t, a, *_reflection_closure(a))


# The root-datum reference for the minuscule table and its weights.  The
# library reads every row off a closed form or a constant, and lists the
# weights of a classical module in doubled epsilon coordinates; these derive
# the same facts from a root datum, with weights in the fundamental-weight
# basis: the pairing of a weight with the i-th simple coroot is coords[i],
# and the Weyl orbit of a dominant weight is walked down from it.
@dataclass(frozen=True, slots=True)
class Weight:
    """Integer coefficient vector in the fundamental-weight basis."""

    coords: tuple[int, ...]

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


def pair_with_coroot(coroot: tuple[int, ...], coords: tuple[int, ...]) -> int:
    """Pairing of fundamental-weight coordinates with simple-coroot coordinates."""
    return sum(map(mul, coroot, coords))


def root_weight_coords(d, root: tuple[int, ...]) -> tuple[int, ...]:
    """Simple-root coordinates to fundamental-weight coordinates: alpha_j is column j of A."""
    return tuple([sum(map(mul, row, root)) for row in d.cartan_matrix])


def weyl_orbit(d, w: Weight) -> tuple[Weight, ...]:
    """Full Weyl-group orbit of a dominant weight, walked downward level by level.

    From mu the walk steps only down, to nu = s_i(mu) = mu - c alpha_i for
    each i with c = <mu, alpha_i_coroot> > 0.  Each downward step raises the
    length in W/W_w by exactly one, so level k holds exactly the weights of
    length k and duplicates are removed within the next level alone.
    Returns the orbit sorted lexicographically on coordinates.
    """
    if not w.is_dominant:
        raise PreconditionError(
            "weyl_orbit requires a dominant weight; take the dominant representative first"
        )
    cols = [[(k, row[i]) for k, row in enumerate(d.cartan_matrix) if row[i]]
            for i in range(d.rank)]
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


@cache
def bourbaki_simple_roots(t: CartanType) -> list[tuple[int, ...]]:
    """Epsilon vectors of the simple roots (Bourbaki, ch. VI, Plates I-IV)."""
    n = t.rank
    m = n + 1 if t.family == "A" else n

    def vec(*terms):
        return tuple(sum(c for k, c in terms if k == j) for j in range(m))

    last = {"A": vec((n - 1, 1), (n, -1)), "B": vec((n - 1, 1)),
            "C": vec((n - 1, 2)), "D": vec((n - 2, 1), (n - 1, 1))}[t.family]
    return [vec((i, 1), (i + 1, -1)) for i in range(n - 1)] + [last]


def reference_epsilon_roots(t: CartanType) -> list[tuple[int, ...]]:
    """Epsilon vectors of reference_datum(t).positive_roots, in its order."""
    simple = bourbaki_simple_roots(t)
    return [tuple(sum(c * s[j] for c, s in zip(root, simple)) for j in range(len(simple[0])))
            for root in reference_datum(t).positive_roots]


def epsilon_spec(v: tuple[int, ...]) -> str:
    """Mnemonic of an epsilon vector: "e1-e2", "2e3", "-e1+2e4"; "0e1" for zero."""
    terms = "".join(f"{'-' if c < 0 else '+'}{abs(c) if abs(c) != 1 else ''}e{k + 1}"
                    for k, c in enumerate(v) if c)
    return terms.removeprefix("+") or "0e1"


def to_fundamental(t: CartanType, mu: tuple[int, ...]) -> tuple[int, ...]:
    """Fundamental-weight coordinates of a weight in doubled epsilon coordinates.

    <mu, alpha_i_coroot> = 2 (mu, alpha_i) / (alpha_i, alpha_i), and mu is doubled."""
    out = []
    for a in bourbaki_simple_roots(t):
        num, norm = sum(map(mul, mu, a)), sum(map(mul, a, a))
        assert num % norm == 0, (t, mu, a)
        out.append(num // norm)
    return tuple(out)


def reference_orbit(rep) -> tuple[Weight, ...]:
    """The walked orbit of the rep's highest weight."""
    return weyl_orbit(reference_datum(rep.cartan_type),
                      fundamental(rep.cartan_type.rank, rep.weight_index))


def fundamental(rank: int, j: int) -> Weight:
    return Weight(tuple(int(k == j - 1) for k in range(rank)))


def coroot_pairings(d, w) -> list[int]:
    return [pair_with_coroot(cr, w.coords) for cr in d.coroots]


def scan_is_minuscule(d, w) -> bool:
    return all(p in (0, 1) for p in coroot_pairings(d, w))


def simple_reflection(d, w, i) -> Weight:
    """s_i(w) = w - <w, alpha_i_coroot> alpha_i; alpha_i is column i of the Cartan matrix."""
    c = w.coords[i]
    return Weight(tuple(x - c * row[i] for x, row in zip(w.coords, d.cartan_matrix)))


def reflect_in_root(d, w, root_index) -> Weight:
    c = pair_with_coroot(d.coroots[root_index], w.coords)
    rw = root_weight_coords(d, d.positive_roots[root_index])
    return Weight(tuple(x - c * y for x, y in zip(w.coords, rw)))


def dual_weight(d, w) -> Weight:
    """The highest weight of the dual of the rep with dominant highest weight w:
    reflect down the orbit to its antidominant weight and negate that."""
    while (i := next((k for k, c in enumerate(w.coords) if c > 0), None)) is not None:
        w = simple_reflection(d, w, i)
    return Weight(tuple(-x for x in w.coords))


def scan_duality_sign(d, w) -> int:
    """Frobenius-Schur sign of a minuscule w: 0 unless self-dual, else the
    parity of <w, 2 rho_coroot>, the sum of its coroot pairings."""
    if dual_weight(d, w) != w:
        return 0
    return -1 if sum(coroot_pairings(d, w)) % 2 else 1


def weyl_dimension(d, w) -> int:
    """Weyl's formula: prod <w + rho, beta_coroot> / <rho, beta_coroot>."""
    num = den = 1
    for cr in d.coroots:
        h = sum(cr)
        num *= pair_with_coroot(cr, w.coords) + h
        den *= h
    return num // den


# The four-product construction of random_unipotent, as it stood before the
# library formed conj J by a column shift-add and wrapped its own integer
# rows without re-checking them, and before it solved for M = C J C^-1 by
# substitution instead of inverting C: the draws and the matrix must not change.
def _unit_lower_inverse(l_rows):
    # forward substitution; unit triangular integer matrices invert over Z
    n = len(l_rows)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            inv[i][c] = -sum(l_rows[i][j] * inv[j][c] for j in range(c, i) if l_rows[i][j])
    return inv


def reference_random_unipotent(dim, k, rng, prime=None):
    from mtkit import ExactMatrix

    def transpose(rows):
        return [list(col) for col in zip(*rows)]

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
    lo, lo2 = ([[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(dim)]
                for i in range(dim)] for _ in range(2))
    conj = ExactMatrix(lo) @ ExactMatrix(transpose(lo2))
    conj_inv = ExactMatrix(transpose(_unit_lower_inverse(lo2))) @ ExactMatrix(_unit_lower_inverse(lo))
    m = conj @ ExactMatrix(jordan, None) @ conj_inv
    return ExactMatrix(m.rows, prime) if prime is not None else m


def shift_pack(form, n, size):
    """The packed rows of a nonzero form, A @ 1 with row k of 1 packed to 2^(w k)."""
    from mtkit.matrix import _times

    return _times(form, [1 << (8 * size * k) for k in range(n)])


# nilpotency_degree as it stood before it took p - 1 for the bound on a power
# over F_p and before it multiplied nonzero forms: the powers run on packed
# rows, and every repacked power is scanned for its largest |entry|.
def scan_nilpotency_degree(nil):
    from mtkit.errors import NotUnipotent
    from mtkit.matrix import _nonzero, _pack_rows, _slot_size, _times, _unpack

    n, p = nil.dim, nil.prime
    form = _nonzero(nil.rows)
    if not form:
        return 1
    bound = max(abs(x) for row in form.values() for x in row.values())
    step = n * bound
    size = _slot_size(step * bound)
    packed = shift_pack(form, n, size)
    for k in range(2, n + 1):
        packed = _times(form, packed)
        bound *= step
        if p or (any(packed) and _slot_size(step * bound) > size):
            power = _unpack(packed, size, p)
            bound = max(max(map(max, power)), -min(map(min, power)))
            size = _slot_size(step * bound)
            packed = _pack_rows(power, size)
        if not any(packed):
            return k
    raise NotUnipotent(f"(M - 1)^{n} != 0, so M is not unipotent")


# build_root_element, sub_identity and rank as they stood before a matrix
# carried its nonzero form and before the weights were listed in epsilon
# coordinates: on the walked orbit, every weight is paired with the coroot one
# call at a time, its image is looked up by coordinates, and M - 1 and the
# elimination walk every dense row.  The library's matrices are these
# conjugated by the basis permutation walk_positions gives.
def reference_build_root_element(rep, root_indices, prime=None):
    from mtkit import ExactMatrix

    d = reference_datum(rep.cartan_type)
    orbit = reference_orbit(rep)
    order = {mu.coords: i for i, mu in enumerate(orbit)}
    identity = ExactMatrix.identity(rep.dimension, prime).rows
    product = None
    for idx in root_indices:
        cr = d.coroots[idx]
        alpha_w = root_weight_coords(d, d.positive_roots[idx])
        rows = list(identity)
        for src, mu in enumerate(orbit):
            if pair_with_coroot(cr, mu.coords) != -1:
                continue
            dst = order[tuple([x + y for x, y in zip(mu.coords, alpha_w)])]
            row = list(rows[dst])
            row[src] = 1
            rows[dst] = tuple(row)
        m = ExactMatrix(rows, prime)
        product = m if product is None else product @ m
    return product


def walk_positions(rep) -> list[int]:
    """The position in reference_orbit(rep) of each weight of rep.orbit, in order."""
    walk = {mu.coords: i for i, mu in enumerate(reference_orbit(rep))}
    return [walk[to_fundamental(rep.cartan_type, mu)] for mu in rep.orbit]


def in_walk_basis(m, positions):
    """m with basis vector k renamed positions[k]: P m P^-1 for that permutation."""
    from mtkit import ExactMatrix

    rows = [None] * m.dim
    for k, row in enumerate(m.rows):
        moved = [0] * m.dim
        for c, x in enumerate(row):
            moved[positions[c]] = x
        rows[positions[k]] = tuple(moved)
    return ExactMatrix(rows, m.prime)


def reference_sub_identity(m):
    from mtkit import ExactMatrix

    p = m.prime
    return ExactMatrix([
        row[:i] + (((row[i] - 1) % p if p else row[i] - 1),) + row[i + 1:]
        for i, row in enumerate(m.rows)
    ], p)


def reference_rank(m):
    from itertools import compress, count
    from math import gcd

    p = m.prime
    kept = {}
    for row in m.rows:
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
                g = gcd(v, pivot)
                a, b = pivot // g, v // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                if (g := gcd(*row)) > 1:
                    row = [x // g for x in row]
    return len(kept)


# Certified root vectors on the classical minuscule modules, with signs the
# library does not use: fermion words on subsets for A_n w_j (j-subsets of n + 1
# modes), B_n spin (all subsets of n modes) and the D_n half-spins (subsets of
# the parity of j): E_(e_i - e_k) = a_i^+ a_k, E_(e_i + e_k) = a_i^+ a_k^+, and
# E_(e_i) = a_i^+ (-1)^N for the short roots of B (Fulton-Harris, section 20);
# the Sp_2n and SO_2n root vectors for C_n std and D_n std on v_(+-i) of weight
# +-e_i, with v_i paired to v_(-i) (Fulton-Harris, sections 16 and 18).
# test_oracle certifies them: each squares to 0, preserves the form, and
# [E_alpha, E_beta] is a nonzero multiple of E_(alpha + beta) exactly when
# alpha + beta is a root (Humphreys, section 18).
def _fermion(op, k, state, sign):
    """(state, sign) after a_k^+ ("create"), a_k ("annihilate") or (-1)^N ("parity");
    None where it vanishes.  A state is a sorted tuple of occupied modes."""
    if op == "parity":
        return state, sign * (-1) ** len(state)
    if (k in state) == (op == "create"):
        return None
    sign *= (-1) ** sum(s < k for s in state)
    return tuple(sorted(set(state) ^ {k})), sign


def _certified_basis(rep):
    """The states of rep, each with its weight in doubled epsilon coordinates."""
    t, j = rep.cartan_type, rep.weight_index
    n = t.rank
    if t.family == "A":
        return [(s, tuple(2 * (k in s) for k in range(n + 1)))
                for s in combinations(range(n + 1), j)]
    if j == 1 and t.family in ("C", "D"):  # v_(+-(i+1)) is (+-1, i)
        return [((x, i), tuple(2 * x * (k == i) for k in range(n)))
                for i in range(n) for x in (1, -1)]
    return [(s, tuple(1 if k in s else -1 for k in range(n)))
            for r in range(n + 1) for s in combinations(range(n), r)
            if t.family == "B" or r % 2 == j % 2]


def certified_root_vector(rep, alpha) -> dict[int, tuple[int, int]]:
    """E_alpha, for the epsilon vector alpha of a positive root, as {source: (target, sign)}
    on the positions of rep.orbit."""
    t, states = rep.cartan_type, _certified_basis(rep)
    at = {mu: p for p, mu in enumerate(rep.orbit)}
    (i, _), *rest = [(k, c) for k, c in enumerate(alpha) if c]
    k, c = rest[0] if rest else (None, 0)  # e_i + c e_k, or e_i / 2e_i alone
    moves = {}
    if rep.weight_index == 1 and t.family in ("C", "D"):
        if not rest:  # 2e_i: v_(-i) -> v_i
            moves[-1, i] = (1, i), 1
        elif c < 0:  # e_i - e_k: v_k -> v_i, v_(-i) -> -v_(-k)
            moves[1, k], moves[-1, i] = ((1, i), 1), ((-1, k), -1)
        else:  # e_i + e_k: v_(-k) -> v_i, v_(-i) -> -+v_k (- for SO_2n)
            moves[-1, k], moves[-1, i] = ((1, i), 1), ((1, k), 1 if t.family == "C" else -1)
    else:
        word = [("create", i), ("annihilate" if c < 0 else "create", k) if rest else ("parity", None)]
        for s, _ in states:
            image = (s, 1)
            for op, mode in reversed(word):
                image = image and _fermion(op, mode, *image)
            if image:
                moves[s] = image
    weight = dict(states)
    return {at[weight[s]]: (at[weight[dst]], sign) for s, (dst, sign) in moves.items()}


def certified_root_element(rep, alphas, prime=None):
    """The product, in the given order, of the x_alpha(1) = 1 + E_alpha of certified_root_vector."""
    from mtkit import ExactMatrix

    product = None
    for alpha in alphas:
        rows = [[int(r == c) for c in range(rep.dimension)] for r in range(rep.dimension)]
        for src, (dst, sign) in certified_root_vector(rep, alpha).items():
            rows[dst][src] = sign
        m = ExactMatrix(rows, prime)
        product = m if product is None else product @ m
    return product
