"""Exact matrices, unipotence, root-element construction, tensor trials."""

import json
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import (
    CartanType,
    ExactMatrix,
    FieldMismatch,
    NotUnipotent,
    PreconditionError,
    build_root_element,
    find_positive_root,
    minuscule_rep,
    nilpotency_degree,
    random_unipotent,
    root_element_drop,
    tensor,
    unipotence,
    verify_tensor_lemma,
)
from mtkit.oracle import _is_prime


def jordan(sizes, prime=None):
    n = sum(sizes)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            rows[pos + i][pos + i + 1] = 1
        pos += s
    return ExactMatrix(rows, prime)


def test_identity_unipotence():
    report = unipotence(ExactMatrix.identity(5))
    assert (report.degree, report.drop, report.quadratic) == (1, 0, True)


def test_single_jordan_block_of_size_three():
    report = unipotence(jordan([3]))
    assert (report.degree, report.drop) == (3, 2)


def test_non_unipotent_rejected():
    with pytest.raises(NotUnipotent):
        unipotence(ExactMatrix([[2, 0], [0, 1]]))


def test_floats_rejected():
    with pytest.raises(PreconditionError):
        ExactMatrix([[1.0, 0.0], [0.0, 1.0]])


def test_rank_with_fractions():
    m = ExactMatrix([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
    assert m.rank() == 1


def test_rank_mod_p():
    m = ExactMatrix([[1, 2], [3, 1]], prime=5)  # det = -5, zero mod 5
    assert m.rank() == 1
    m = ExactMatrix([[1, 2], [3, 2]], prime=5)  # det = -4, a unit mod 5
    assert m.rank() == 2


def test_tensor_with_identity_is_identity_on_blocks():
    m = jordan([2, 1])
    assert tensor(ExactMatrix.identity(1), m).rows == m.rows


def test_tensor_two_quadratics_is_cubic():
    t = tensor(jordan([2, 2]), jordan([2, 2]))
    assert unipotence(t).degree == 3


def test_tensor_jordan3_jordan2_degree_four():
    t = tensor(jordan([3]), jordan([2]))
    assert unipotence(t).degree == 4


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatch):
        tensor(jordan([2]), jordan([2], prime=7))


def test_c2_std_long_root_is_a_transvection():
    rep = minuscule_rep(CartanType("C", 2), 1)
    idx = rep.datum.length_class.index("long")
    m = build_root_element(rep, [idx])
    off = [(i, j) for i in range(4) for j in range(4) if i != j and m.rows[i][j]]
    assert len(off) == 1 and m.rows[off[0][0]][off[0][1]] == 1
    assert unipotence(m).drop == 1


def test_a5_middle_highest_root_drop():
    rep = minuscule_rep(CartanType("A", 5), 3)
    theta = max(
        range(len(rep.datum.positive_roots)),
        key=lambda i: sum(rep.datum.positive_roots[i]),
    )
    m = build_root_element(rep, [theta])
    assert m.dim == 20
    assert m.sub_identity().rank() == 6


def test_b4_spin_short_root_degree_and_drop():
    rep = minuscule_rep(CartanType("B", 4), 4)
    idx = rep.datum.length_class.index("short")
    report = unipotence(build_root_element(rep, [idx]))
    assert (report.degree, report.drop) == (2, 8)


def test_root_element_orthogonality_enforced():
    rep = minuscule_rep(CartanType("D", 6), 6)
    e12 = find_positive_root(CartanType("D", 6), "e1-e2")
    e23 = find_positive_root(CartanType("D", 6), "e2-e3")
    with pytest.raises(PreconditionError):
        build_root_element(rep, [e12, e23])


def test_halfspin_product_of_orthogonal_roots_builds():
    t = CartanType("D", 6)
    rep = minuscule_rep(t, 6)
    idxs = [find_positive_root(t, "e1-e2"), find_positive_root(t, "e3-e4")]
    m = build_root_element(rep, idxs)
    report = unipotence(m)
    assert m.dim == 32
    assert report.degree <= 3  # product of two commuting quadratics


def test_sign_convention_does_not_change_rank_or_degree():
    for t, j in [(CartanType("A", 4), 2), (CartanType("B", 3), 3),
                 (CartanType("C", 3), 1), (CartanType("D", 4), 4)]:
        rep = minuscule_rep(t, j)
        for idx in range(len(rep.datum.positive_roots)):
            a = build_root_element(rep, [idx], signs="plus")
            b = build_root_element(rep, [idx], signs="alternating")
            ra, rb = unipotence(a), unipotence(b)
            assert (ra.degree, ra.drop) == (rb.degree, rb.drop)


def test_oracle_agrees_with_weight_count_on_sample():
    for t, j in [(CartanType("A", 6), 3), (CartanType("B", 5), 5),
                 (CartanType("C", 5), 1), (CartanType("D", 5), 4)]:
        rep = minuscule_rep(t, j)
        for idx in range(len(rep.datum.positive_roots)):
            cls = rep.datum.length_class[idx]
            m = build_root_element(rep, [idx])
            assert m.sub_identity().rank() == root_element_drop(rep, cls)


def test_random_unipotent_has_requested_degree():
    import random

    rng = random.Random(11)
    for k in (1, 2, 3, 4):
        m = random_unipotent(6, k, rng)
        assert nilpotency_degree(m.sub_identity()) == k


def test_verify_tensor_lemma_identity_factor():
    report = verify_tensor_lemma(1, 5, (3, 5), 20, 99)
    assert report.degree_counts == {5: 20}
    assert report.passed


def test_verify_tensor_lemma_three_three():
    report = verify_tensor_lemma(3, 3, (3, 3), 30, 7)
    assert report.degree_counts == {5: 30}
    assert report.passed


def test_verify_tensor_lemma_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        verify_tensor_lemma(2, 2, (4, 4), 0, 1)
    with pytest.raises(PreconditionError):
        verify_tensor_lemma(3, 2, (2, 2), 5, 1)


def test_verify_tensor_lemma_reproducible_reports():
    a = verify_tensor_lemma(2, 3, (4, 4), 15, 123)
    b = verify_tensor_lemma(2, 3, (4, 4), 15, 123)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_small_characteristic_records_deviations_without_failing():
    # p = 2 < k1 + k2 - 1 = 3: degree drops are recorded, not failed
    report = verify_tensor_lemma(2, 2, (4, 4), 20, 5, prime=2)
    assert not report.failures
    assert report.char_deviations or report.degree_counts == {3: 20}


@given(
    st.integers(1, 3), st.integers(1, 3),
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 10**6),
)
@settings(max_examples=20)
def test_tensor_degree_additivity_property(k1, k2, pad1, pad2, seed):
    import random

    rng = random.Random(seed)
    m1 = random_unipotent(k1 + pad1, k1, rng)
    m2 = random_unipotent(k2 + pad2, k2, rng)
    assert nilpotency_degree(tensor(m1, m2).sub_identity()) == k1 + k2 - 1


@pytest.mark.parametrize("p", [-7, 0, 1, 4, 9, 561, 2047, 3215031751])
def test_non_prime_field_rejected(p):
    with pytest.raises(PreconditionError, match="prime >= 2"):
        ExactMatrix([[1]], prime=p)
    with pytest.raises(PreconditionError, match="prime >= 2"):
        verify_tensor_lemma(2, 2, (4, 4), 1, 1, prime=p)
    rep = minuscule_rep(CartanType("C", 2), 1)
    with pytest.raises(PreconditionError, match="prime >= 2"):
        build_root_element(rep, [0], prime=p)


def test_primality_test_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert [n for n in range(-5, 5000) if _is_prime(n)] == [n for n in range(-5, 5000) if trial(n)]
    # strong pseudoprimes to the first few prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(10007) and _is_prime(2**61 - 1)


def test_prime_beyond_certified_range_rejected():
    with pytest.raises(PreconditionError, match="primality test"):
        ExactMatrix([[1]], prime=2**89 - 1)


# --- immutability and validation at the boundary -----------------------------


def test_exact_matrix_is_immutable():
    rep = minuscule_rep(CartanType("C", 2), 1)
    m = ExactMatrix([[1, 0], [0, 1]])
    derived = [m, m @ m, m.kron(m), m.sub_identity(), ExactMatrix.identity(3, 7),
               build_root_element(rep, [0])]
    for d in derived:
        with pytest.raises(TypeError):
            d.rows[0][0] = 99
        with pytest.raises(TypeError):
            d.rows[0] = (99,) * d.dim
        with pytest.raises(FrozenInstanceError):
            d.rows = ((99,),)
        with pytest.raises(FrozenInstanceError):
            d.prime = 3
    assert m.rows == ((1, 0), (0, 1))


def test_floats_rejected_at_every_entry_point():
    import random

    m = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(PreconditionError, match="floating point"):
        ExactMatrix(((1, 0.5), (0, 1)), 7)  # tuple rows, as a re-wrap passes them
    with pytest.raises(PreconditionError, match="floating point"):
        ExactMatrix((m.rows[0], (3.0, 4)))
    # a float prime would turn every reduced entry into a float
    with pytest.raises(PreconditionError, match="integer"):
        ExactMatrix(m.rows, 7.0)
    with pytest.raises(PreconditionError, match="integer"):
        random_unipotent(4, 2, random.Random(1), prime=7.0)
    assert ExactMatrix(m.rows, 7).rows == ((1, 2), (3, 4))
    # only int entries, and Fraction entries over Q
    for bad in (1j, "a", None):
        with pytest.raises(PreconditionError, match="entries must be int or Fraction"):
            ExactMatrix([[bad]])
    with pytest.raises(PreconditionError, match="entries must be int, got Fraction"):
        ExactMatrix([[Fraction(1, 2)]], 7)
    assert ExactMatrix([[Fraction(1, 2)]]).rows == ((Fraction(1, 2),),)


def test_reports_are_frozen():
    report = unipotence(jordan([2, 1]))
    with pytest.raises(FrozenInstanceError):
        report.degree = 99
    passing = verify_tensor_lemma(2, 3, (4, 4), 5, 1)
    with pytest.raises(FrozenInstanceError):
        passing.failures = ()
    with pytest.raises(AttributeError):
        passing.failures.append({"trial": 0})
    with pytest.raises(TypeError):
        passing.degree_counts[4] = 0
    assert passing.passed and passing.degree_counts == {4: 5}
    tensor_report = verify_tensor_lemma(2, 2, (4, 4), 20, 5, prime=2)
    with pytest.raises(TypeError):
        tensor_report.char_deviations[0]["degree"] = 3
    # to_dict gives plain, JSON-ready dicts and lists
    d = tensor_report.to_dict()
    assert type(d["degree_counts"]) is dict and type(d["failures"]) is list
    assert type(d["char_deviations"][0]) is dict
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize("p", [0, 1, 4, 561])
def test_non_prime_rejected_by_identity(p):
    with pytest.raises(PreconditionError, match="prime >= 2"):
        ExactMatrix.identity(3, p)


# --- the product, the rank and is_zero against textbook references ----------


def _textbook_product(a, b, p):
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(tuple(x % p for x in row) if p else tuple(row) for row in out)


def _random_rows(rng, n, fractions):
    """Rows of mixed kinds: zero, sparse (< n/4 nonzeros) and dense, with 0/1,
    negative and (optionally) Fraction entries."""
    def entry():
        if fractions and rng.random() < 0.3:
            return Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 7))
        return rng.choice((1, 1, rng.randint(-50, 50) or -1))

    rows = []
    for _ in range(n):
        kind = rng.choice(("zero", "sparse", "dense", "dense"))
        if kind == "zero":
            count = 0
        elif kind == "sparse":
            count = rng.randint(1, max(1, (n - 1) // 4))
        else:
            count = rng.randint(-(-n // 4), n)
        row = [0] * n
        for j in rng.sample(range(n), count):
            row[j] = entry()
        rows.append(row)
    return rows


@pytest.mark.parametrize("prime", [None, 2, 10007])
def test_product_matches_textbook_triple_loop(prime):
    import random

    rng = random.Random(prime or 1)
    for n in range(1, 41):
        fractions = prime is None and n % 6 == 1 and n < 20  # Fraction products are slow
        a = ExactMatrix(_random_rows(rng, n, fractions), prime)
        b = ExactMatrix(_random_rows(rng, n, fractions), prime)
        assert (a @ b).rows == _textbook_product(a.rows, b.rows, prime)
        if n % 3:
            continue
        # a root-element-shaped factor: identity plus a few 0/1 entries
        rows = [list(r) for r in ExactMatrix.identity(n, prime).rows]
        for _ in range(n // 3):
            rows[rng.randrange(n)][rng.randrange(n)] = 1
        e = ExactMatrix(rows, prime)
        assert (e @ b).rows == _textbook_product(e.rows, b.rows, prime)
        assert (b @ e).rows == _textbook_product(b.rows, e.rows, prime)


def _reference_rank(rows, p):
    """Row echelon form with Fraction (or mod p) arithmetic throughout."""
    m = [[x % p if p else Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m)):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * pow(m[r][c], -1, p) if p else m[i][c] / m[r][c]
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_matches_fraction_elimination_on_deficient_products():
    import random

    rng = random.Random(5)
    for trial in range(300):
        n = rng.randint(1, 10)
        k = rng.randint(0, n)  # rank(A B) <= k
        fractions = trial % 3 == 0

        def entry():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if fractions else rng.randint(-3, 3)

        a = [[entry() for _ in range(k)] for _ in range(n)]
        b = [[entry() for _ in range(n)] for _ in range(k)]
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(n)]
                for i in range(n)]
        m = ExactMatrix(rows)
        assert m.rank() == _reference_rank(rows, None) <= k
        if not fractions:
            for p in (2, 3, 10007):
                assert ExactMatrix(rows, p).rank() == _reference_rank(rows, p)


def test_is_zero_on_zero_and_single_entry_matrices():
    for n in range(1, 6):
        for prime in (None, 2, 7):
            assert ExactMatrix([[0] * n for _ in range(n)], prime).is_zero()
            for i in range(n):
                for j in range(n):
                    for x in (1, -1, Fraction(1, 3)) if prime is None else (1, 3):
                        rows = [[0] * n for _ in range(n)]
                        rows[i][j] = x
                        assert not ExactMatrix(rows, prime).is_zero()
    assert ExactMatrix([[2, 0], [0, 4]], 2).is_zero()  # reduced mod 2
