"""Exact matrices, unipotence, root-element construction, tensor trials."""

import json
import re
import runpy
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul
from pathlib import Path

import pytest
from conftest import (
    reference_build_root_element,
    reference_random_unipotent,
    reference_rank,
    reference_sub_identity,
    scan_nilpotency_degree,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import (
    CartanType,
    ExactMatrix,
    FieldMismatch,
    NotUnipotent,
    PreconditionError,
    build_root_element,
    enumerate_minuscule,
    find_positive_root,
    minuscule_rep,
    nilpotency_degree,
    random_unipotent,
    root_element_drop,
    unipotence,
    verify_tensor_lemma,
)
from mtkit import oracle
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
    # [[1/2, 1], [1/4, 1/2]] scaled by its common denominator 4: the rank over
    # Q is unchanged, and the pivot 2 does not divide the entry 1 it clears
    assert ExactMatrix([[2, 4], [1, 2]]).rank() == 1
    assert ExactMatrix([[2, 4], [1, 3]]).rank() == 2
    for prime in (None, 7):
        with pytest.raises(PreconditionError, match=r"^entries must be int, got Fraction\(1, 2\)$"):
            ExactMatrix([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]], prime)


def test_rank_mod_p():
    m = ExactMatrix([[1, 2], [3, 1]], prime=5)  # det = -5, zero mod 5
    assert m.rank() == 1
    m = ExactMatrix([[1, 2], [3, 2]], prime=5)  # det = -4, a unit mod 5
    assert m.rank() == 2


def test_tensor_with_identity_is_identity_on_blocks():
    m = jordan([2, 1])
    assert ExactMatrix.identity(1).kron(m).rows == m.rows


def test_tensor_two_quadratics_is_cubic():
    t = jordan([2, 2]).kron(jordan([2, 2]))
    assert unipotence(t).degree == 3


def test_tensor_jordan3_jordan2_degree_four():
    t = jordan([3]).kron(jordan([2]))
    assert unipotence(t).degree == 4


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatch):
        jordan([2]).kron(jordan([2], prime=7))


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
    e12 = find_positive_root(rep.datum, "e1-e2")
    e23 = find_positive_root(rep.datum, "e2-e3")
    with pytest.raises(PreconditionError):
        build_root_element(rep, [e12, e23])
    # a repeated root is not orthogonal to itself
    e34 = find_positive_root(rep.datum, "e3-e4")
    with pytest.raises(PreconditionError, match=r"root \(1, 0, 0, 0, 0, 0\) is repeated"):
        build_root_element(rep, [e12, e34, e12])


def test_root_index_must_be_a_plain_int():
    rep = minuscule_rep(CartanType("C", 3), 1)
    for bad in (1.0, "1", True, None, -1, 9):
        with pytest.raises(PreconditionError, match=re.escape(f"got {bad!r}")):
            build_root_element(rep, [bad])
        with pytest.raises(PreconditionError, match=re.escape(f"got {bad!r}")):
            build_root_element(rep, [0, bad])
    assert build_root_element(rep, [8]) == reference_build_root_element(rep, [8])


# every (rep, positive root) of the classical minuscule reps to rank 7 with
# dimension <= 128, the E6 and E7 reps, and the products of the survey script
CLASSICAL_TO_RANK_7 = [(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                       for n in range(lo, 8)]
SURVEY_PRODUCTS = {4: [["e1-e2", "e3-e4"], ["e1-e2", "e1+e2"]],  # from this D rank on
                   6: [["e1-e2", "e3-e4", "e5-e6"], ["e1-e2", "e1+e2", "e3-e4", "e3+e4"]]}


def _root_element_cases():
    reps = [minuscule_rep(r.cartan_type, r.weight_index) for f, n in CLASSICAL_TO_RANK_7
            for r in enumerate_minuscule(CartanType(f, n)) if r.dimension <= 128]
    reps += [minuscule_rep(CartanType("E6", 6), 1), minuscule_rep(CartanType("E7", 7), 7)]
    for rep in reps:
        yield from ((rep, [i]) for i in range(len(rep.datum.positive_roots)))
    for n in range(4, 9):
        rep = minuscule_rep(CartanType("D", n), n)
        for specs in [c for lo, combos in SURVEY_PRODUCTS.items() if n >= lo for c in combos]:
            yield rep, [find_positive_root(rep.datum, s) for s in specs]


@pytest.mark.parametrize("prime", [None, 2])
def test_root_elements_match_the_dense_reference(prime):
    cases = 0
    for rep, idxs in _root_element_cases():
        m = build_root_element(rep, idxs, prime)
        ref = reference_build_root_element(rep, idxs, prime)
        single = len(idxs) == 1  # a product of root elements is not seeded
        assert m.rows == ref.rows
        assert m._form == (oracle._nonzero(m.rows) if single else None)
        nil, ref_nil = m.sub_identity(), reference_sub_identity(ref)
        assert nil.rows == ref_nil.rows
        assert nil._form == (oracle._nonzero(nil.rows) if single else None)
        assert nilpotency_degree(nil) == scan_nilpotency_degree(ref_nil)
        assert nil.rank() == reference_rank(ref_nil)
        cases += 1
    assert cases == 1070 + 36 + 63 + 16


def test_seeded_forms_equal_a_fresh_scan():
    import random

    rng = random.Random(3)
    rep = minuscule_rep(CartanType("D", 5), 5)
    e12, e34 = (find_positive_root(rep.datum, s) for s in ("e1-e2", "e3-e4"))
    made = []
    for prime in (None, 7):
        base = [ExactMatrix([[2, 0, 1], [0, 1, 0], [1, 1, 1]], prime),  # no zero row
                ExactMatrix([[0, 0, 1], [0, 0, 0], [1, 1, 1]], prime),  # a zero row
                ExactMatrix([[3, 0, 0], [0, 1, 0], [0, 0, -1]], prime),  # diagonal
                ExactMatrix.identity(3, prime), ExactMatrix.identity(0, prime),
                random_unipotent(5, 3, rng, prime),
                build_root_element(rep, [e12], prime), build_root_element(rep, [e12, e34], prime)]
        a, b, _, one, _, u, root, _ = base
        assert all(m._form is not None for m in (one, root, root.sub_identity(), one.sub_identity()))
        base += [a @ one, one @ b, a.kron(b), u.kron(one), root @ root]
        assert all(m._form is None for m in base[-5:])  # products are not seeded
        for m in base:
            made += [m, m.sub_identity()]  # M - 1 of M as it was built
            m._sparse()
            nil = m.sub_identity()  # with M's form known: seeded unless M has a zero row
            assert (nil._form is not None) == (len(m._form[0]) == m.dim)
            assert nil.rows == reference_sub_identity(m).rows
            made += [nil, nil.sub_identity()]
    for m in made:
        fresh = oracle._nonzero(m.rows)
        if m._form is not None:
            assert m._form == fresh
        assert m._sparse() == fresh
        plain = ExactMatrix(m.rows, m.prime)
        assert plain._form is None
        assert m == plain and hash(m) == hash(plain)
        assert repr(m) == repr(plain) == f"ExactMatrix(rows={m.rows!r}, prime={m.prime!r})"
        with pytest.raises(FrozenInstanceError):
            m._form = None


def test_halfspin_product_of_orthogonal_roots_builds():
    t = CartanType("D", 6)
    rep = minuscule_rep(t, 6)
    idxs = [find_positive_root(rep.datum, "e1-e2"), find_positive_root(rep.datum, "e3-e4")]
    m = build_root_element(rep, idxs)
    report = unipotence(m)
    assert m.dim == 32
    assert report.degree <= 3  # product of two commuting quadratics


def test_sign_convention_does_not_change_rank_or_degree():
    for t, j in [(CartanType("A", 4), 2), (CartanType("B", 3), 3),
                 (CartanType("C", 3), 1), (CartanType("D", 4), 4)]:
        rep = minuscule_rep(t, j)
        for idx in range(len(rep.datum.positive_roots)):
            a = build_root_element(rep, [idx])
            # the same element with the sign of entry (dst, src) flipped when src + dst is odd
            b = ExactMatrix([[-x if (dst + src) % 2 else x for src, x in enumerate(row)]
                             for dst, row in enumerate(a.rows)])
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


@pytest.mark.parametrize("prime", [None, 7])
def test_random_unipotent_matches_four_product_reference(prime):
    import random

    for dim in range(1, 9):
        for k in range(1, dim + 1):
            for seed in range(5):
                rng, ref = random.Random(seed), random.Random(seed)
                m = random_unipotent(dim, k, rng, prime)
                want = reference_random_unipotent(dim, k, ref, prime)
                assert (m.rows, m.prime) == (want.rows, want.prime)
                assert rng.getstate() == ref.getstate()  # the same draws


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


def test_verify_tensor_lemma_refuses_dims_over_budget_before_any_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("built a matrix")

    monkeypatch.setattr(oracle, "random_unipotent", no_matrix)
    with pytest.raises(PreconditionError, match=r"1 trials at degrees \(2, 2\) on dims \(1000000, 2\) "
                                                 r"are over the run budget, which allows 0 such trials"):
        verify_tensor_lemma(2, 2, (1000000, 2), 1, 1)
    # one trial at the slowest 128-dimensional shape fits, two do not; reaching a draw means accepted
    with pytest.raises(AssertionError, match="built a matrix"):
        verify_tensor_lemma(128, 1, (128, 1), 1, 1)
    with pytest.raises(PreconditionError, match="which allows 1 such trials"):
        verify_tensor_lemma(128, 1, (128, 1), 2, 1)
    with pytest.raises(PreconditionError, match="run budget"):
        verify_tensor_lemma(64, 2, (64, 2), 10_000, 1)
    with pytest.raises(AssertionError, match="built a matrix"):
        verify_tensor_lemma(4, 4, (6, 6), 200, 1)  # the largest run of acceptance criterion 4
    monkeypatch.undo()
    # one trial of degrees (1, 1) on n = d1 * d2 = 2 costs 2^2 * 1 * (2 * 3 + 1000) + 500,000
    monkeypatch.setattr(oracle, "RUN_BUDGET", 504_024)
    assert verify_tensor_lemma(1, 1, (2, 1), 1, 1).passed
    assert verify_tensor_lemma(1, 1, (1, 2), 1, 1).passed
    with pytest.raises(PreconditionError, match="which allows 0 such trials"):
        verify_tensor_lemma(1, 1, (3, 1), 1, 1)


def test_verify_tensor_lemma_refuses_trials_over_budget_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a seed")

    monkeypatch.setattr(oracle.random, "Random", no_draw)
    with pytest.raises(PreconditionError, match=r"1000000000 trials at degrees \(2, 2\) on dims \(6, 6\) "
                                                 r"are over the run budget"):
        verify_tensor_lemma(2, 2, (6, 6), 10**9, 1)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "RUN_BUDGET", 3 * 501_002)  # three trials of degrees (1, 1) on 1 x 1
    assert verify_tensor_lemma(1, 1, (1, 1), 3, 1).passed
    with pytest.raises(PreconditionError, match="4 trials at degrees .* which allows 3 such trials"):
        verify_tensor_lemma(1, 1, (1, 1), 4, 1)


def test_trial_seeds_are_drawn_in_order_one_per_trial(monkeypatch):
    import random

    base = random.Random(5)
    want = [random.Random(base.randrange(2**63)).getstate() for _ in range(6)]
    got = []
    draw = oracle.random_unipotent

    def recording(d, k, rng, prime):
        got.append(rng.getstate())
        return draw(d, k, rng, prime)

    monkeypatch.setattr(oracle, "random_unipotent", recording)
    verify_tensor_lemma(2, 2, (3, 3), 6, 5)
    assert got[::2] == want  # each trial's first draw starts from its own seed


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
    assert nilpotency_degree(m1.kron(m2).sub_identity()) == k1 + k2 - 1


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
    # only int entries, over Q as over F_p
    for prime in (None, 7):
        for bad in (1j, "a", None, Fraction(1, 2), Fraction(2, 1)):
            with pytest.raises(PreconditionError, match=re.escape(f"entries must be int, got {bad!r}")):
                ExactMatrix([[bad]], prime)


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


def _scaled(rows):
    """Rows with Fraction entries, scaled by their common denominator to ints."""
    d = lcm(*[Fraction(x).denominator for row in rows for x in row])
    return [[int(x * d) for x in row] for row in rows]


def _random_rows(rng, n, fractions):
    """Rows of mixed kinds: zero, sparse (< n/4 nonzeros) and dense, with 0/1
    and negative entries; optionally some are drawn as Fractions and the rows
    are scaled by their common denominator, which gives entries with common
    factors and pivots that do not divide."""
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
    return _scaled(rows) if fractions else rows


@pytest.mark.parametrize("prime", [None, 2, 10007])
def test_product_matches_textbook_triple_loop(prime):
    import random

    rng = random.Random(prime or 1)
    for n in range(1, 41):
        fractions = prime is None and n % 6 == 1
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
        rows = _scaled([[sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(n)]
                        for i in range(n)])
        m = ExactMatrix(rows)
        assert m.rank() == _reference_rank(rows, None) <= k
        for p in (2, 3, 10007):
            assert ExactMatrix(rows, p).rank() == _reference_rank(rows, p)


def test_rank_over_q_matches_fraction_elimination_on_dense_integer_matrices():
    # entries up to 50 in size: the pivots rarely divide the entries they
    # clear, so rows grow by cross-multiplying and shrink by their gcd
    import random

    rng = random.Random(18)
    for n in (1, 2, 3, 5, 8, 13, 21, 30, 40):
        full = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        k = rng.randint(0, n - 1)  # rank(A B) <= k < n
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        deficient = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                     for i in range(n)]
        if n > 2:
            assert any(row[0] % full[0][0] for row in full[1:])
        for rows in (full, deficient):
            assert ExactMatrix(rows).rank() == _reference_rank(rows, None)
        assert ExactMatrix(deficient).rank() <= k


def test_is_zero_on_zero_and_single_entry_matrices():
    for n in range(1, 6):
        for prime in (None, 2, 7):
            assert ExactMatrix([[0] * n for _ in range(n)], prime).is_zero()
            for i in range(n):
                for j in range(n):
                    for x in (1, -1, 3):
                        rows = [[0] * n for _ in range(n)]
                        rows[i][j] = x
                        assert not ExactMatrix(rows, prime).is_zero()
    assert ExactMatrix([[2, 0], [0, 4]], 2).is_zero()  # reduced mod 2


# --- the packed kernel against the row-adaptive product it replaced ----------


def _row_adaptive_product(a, b, p):
    """The product before the packed kernel: a row with fewer than n/4
    nonzeros combines rows of b, a denser one takes dot products with the
    columns of b."""
    n = len(a)
    cols = None
    out = []
    for arow in a:
        if 4 * (n - arow.count(0)) < n:
            acc = None
            for k in compress(range(n), arow):
                x = arow[k]
                if acc is None:
                    acc = b[k] if x == 1 else [x * y for y in b[k]]
                else:
                    acc = [s + x * y for s, y in zip(acc, b[k])]
            if acc is None:
                out.append((0,) * n)
                continue
        else:
            if cols is None:
                cols = list(zip(*b))
            acc = [sum(map(mul, arow, col)) for col in cols]
        out.append(tuple([x % p for x in acc]) if p else tuple(acc))
    return tuple(out)


def _reference_degree(nil):
    """nilpotency_degree by repeated row-adaptive products power @ nil."""
    if nil.is_zero():
        return 1
    power = nil.rows
    k = 1
    while k < nil.dim:
        power = _row_adaptive_product(power, nil.rows, nil.prime)
        k += 1
        if not any(map(any, power)):
            return k
    raise NotUnipotent(f"(M - 1)^{nil.dim} != 0, so M is not unipotent")


def _degree_or_message(f, nil):
    try:
        return f(nil)
    except NotUnipotent as exc:
        return str(exc)


def _nilpotent_rows(rng, n, entry):
    """A strictly upper triangular matrix with zero, sparse and dense rows,
    its rows and columns permuted: nilpotent in every characteristic."""
    upper = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        count = rng.choice((0, 1, n - 1 - i, rng.randint(0, n - 1 - i)))
        for j in rng.sample(range(i + 1, n), count):
            upper[i][j] = entry()
    perm = rng.sample(range(n), n)
    return [[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


PRIMES = [None, 2, 3, 10007, 2**61 - 1]


@pytest.mark.parametrize("prime", PRIMES)
def test_product_matches_row_adaptive_reference(prime):
    import random

    rng = random.Random(prime or 3)
    for n in range(1, 25):
        fractions = prime is None and n % 4 == 1
        big = rng.choice((1, 2**40 + 3, -(2**61) - 5))
        a = _random_rows(rng, n, fractions)
        b = [[x * big for x in row] for row in _random_rows(rng, n, fractions)]
        a, b = ExactMatrix(a, prime), ExactMatrix(b, prime)
        assert (a @ b).rows == _row_adaptive_product(a.rows, b.rows, prime)
        assert (b @ a).rows == _row_adaptive_product(b.rows, a.rows, prime)


@pytest.mark.parametrize("prime", PRIMES)
def test_kron_matches_entrywise_products(prime):
    import random

    rng = random.Random(prime or 5)
    for n1, n2 in [(1, 1), (1, 4), (4, 1), (2, 5), (5, 3), (6, 6)]:
        big = rng.choice((1, 2**40 + 3, -(2**61) - 5))
        a = ExactMatrix(_random_rows(rng, n1, prime is None), prime)
        b = ExactMatrix([[x * big for x in row] for row in _random_rows(rng, n2, prime is None)], prime)
        want = tuple(tuple(x * y % prime if prime else x * y for x in arow for y in brow)
                     for arow in a.rows for brow in b.rows)
        assert a.kron(b).rows == want


@pytest.mark.parametrize("prime", PRIMES)
def test_nilpotency_degree_matches_repeated_products(prime):
    import random

    rng = random.Random(prime or 4)
    entries = [lambda: rng.choice((1, -1, rng.randint(-50, 50) or 7)),
               lambda: rng.choice((1, -1)) * rng.randint(2**40, 2**45)]
    if prime is None:
        entries.append(lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))
    for n in range(1, 13):
        for entry in entries:
            nil = ExactMatrix(_scaled(_nilpotent_rows(rng, n, entry)), prime)
            assert nilpotency_degree(nil) == _reference_degree(nil)
        # dense, with negative entries, and the same scaled past 2^40
        k = rng.randint(1, n)
        nil = random_unipotent(n, k, rng).sub_identity()
        for scale in (1, 2**40 + 1):
            scaled = ExactMatrix([[x * scale for x in row] for row in nil.rows], prime)
            assert nilpotency_degree(scaled) == _reference_degree(scaled)
            if prime is None:
                assert nilpotency_degree(scaled) == k


def test_large_entries_widen_the_slots(monkeypatch):
    import random

    nil = random_unipotent(6, 6, random.Random(2)).sub_identity()
    big = ExactMatrix([[x * 2**40 for x in row] for row in nil.rows])
    unpacked = []
    unpack = oracle._unpack
    monkeypatch.setattr(oracle, "_unpack", lambda *args: unpacked.append(1) or unpack(*args))
    assert nilpotency_degree(big) == 6
    assert unpacked  # over Z only a widening unpacks a power


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32])
def test_slots_hold_their_bound_with_a_sign_bit(size):
    top = 2 ** (8 * size - 1) - 1  # the largest |x| a signed slot of this size holds
    assert oracle._slot_size(top) == size
    assert oracle._slot_size(top + 1) == 2 * size
    rows = [(top, -top, 0, 1), (0, 0, 0, 0), (-1, top, -top, -1), (-top, 0, 0, top)]
    terms = oracle._nonzero(rows)[0]
    packed = oracle._pack(terms, 4, size)
    assert packed[1] == 0 and all(packed[i] for i in (0, 2, 3))
    assert oracle._unpack(packed, size) == rows
    # dense rows pack again from their slot bytes: struct up to 8 bytes,
    # to_bytes above
    assert oracle._pack_rows(rows, size) == packed
    assert oracle._unpack(oracle._pack_rows(rows, size), size) == rows


@pytest.mark.parametrize("prime", [None, 2**61 - 1])
@pytest.mark.parametrize("big", [2**7, 2**15, 2**40, 2**61])
def test_a_zero_factor_leaves_room_in_the_slots_for_the_other(prime, big, monkeypatch):
    import random

    rng = random.Random(big)
    pack, packs = oracle._pack, []
    monkeypatch.setattr(oracle, "_pack", lambda *args: packs.append(args) or pack(*args))
    for n1, n2 in [(1, 1), (3, 3), (2, 5), (5, 2)]:
        zero = ExactMatrix([[0] * n1 for _ in range(n1)], prime)
        b = ExactMatrix([[rng.choice((big, -big, 0, 1)) for _ in range(n2)] for _ in range(n2)], prime)
        if n1 == n2:
            assert (zero @ b).is_zero() and (b @ zero).is_zero()
        assert zero.kron(b).is_zero() and b.kron(zero).is_zero()
    # every factor packed on the way round-trips through its slots
    for terms, n, size in packs:
        rows = [[0] * n for _ in range(n)]
        for i, coeffs, cols in terms:
            for x, c in zip(coeffs, cols):
                rows[i][c] = x
        assert oracle._unpack(pack(terms, n, size), size) == [tuple(r) for r in rows]


@pytest.mark.parametrize("prime", PRIMES)
def test_zero_one_by_one_and_non_nilpotent_against_reference(prime):
    import random

    rng = random.Random(6)
    cases = [[[0]], [[1]], [[-3]], [[0] * 4 for _ in range(4)], [[1, 1], [0, 0]],
             [[0, 2**50], [1, 0]], [[6, -4], [9, -6]]]  # the last is nilpotent over Z
    cases += [_random_rows(rng, n, prime is None) for n in range(1, 9)]
    for rows in cases:
        nil = ExactMatrix(rows, prime)
        assert _degree_or_message(nilpotency_degree, nil) == _degree_or_message(_reference_degree, nil)
    assert nilpotency_degree(ExactMatrix([[0] * 3 for _ in range(3)], prime)) == 1
    with pytest.raises(NotUnipotent, match=r"^\(M - 1\)\^2 != 0, so M is not unipotent$"):
        nilpotency_degree(ExactMatrix([[1, 1], [0, 0]], prime))


@pytest.mark.parametrize("prime", [2, 7, 10007])
def test_prime_field_bound_matches_the_scanning_reference(prime, monkeypatch):
    # over F_p a repacked power takes p - 1 for its bound instead of a scan of
    # its entries: the degrees agree with the scanning version on seeded
    # tensor-shaped, Jordan-shaped, sparse and non-nilpotent inputs, and every
    # power packed on the way round-trips through its slots
    import random

    rng = random.Random(prime)
    pack_rows, repacked = oracle._pack_rows, []
    monkeypatch.setattr(oracle, "_pack_rows",
                        lambda rows, size: repacked.append((rows, size)) or pack_rows(rows, size))
    nils = []
    for _ in range(8):
        k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
        m1 = random_unipotent(rng.randint(k1, 6), k1, rng, prime)
        m2 = random_unipotent(rng.randint(k2, 6), k2, rng, prime)
        nils.append(m1.kron(m2).sub_identity())
    for n in range(1, 13):
        nils.append(random_unipotent(n, rng.randint(1, n), rng, prime).sub_identity())
        nils.append(ExactMatrix(_nilpotent_rows(rng, n, lambda: rng.randrange(1, prime)), prime))
        nils.append(ExactMatrix([[x % prime for x in row] for row in _random_rows(rng, n, False)],
                                prime))
    for nil in nils:
        assert _degree_or_message(nilpotency_degree, nil) == _degree_or_message(
            scan_nilpotency_degree, nil)
    assert len(repacked) > 100
    for rows, size in repacked:
        assert oracle._unpack(pack_rows(rows, size), size) == rows


def test_halfspin_product_survey_matches_golden(capsys, monkeypatch):
    # products of several root elements over Q, F2, F3 and F5
    root = Path(__file__).parent
    script = root.parent / "scripts" / "halfspin_product_survey.py"
    monkeypatch.setattr(sys, "argv", [str(script), "8"])
    runpy.run_path(str(script), run_name="__main__")
    golden = root / "golden" / "halfspin_product_survey_8.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()
