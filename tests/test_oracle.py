"""Exact matrices, unipotence, root-element construction, tensor trials."""

import contextlib
import functools
import json
import re
import runpy
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import chain, combinations, compress
from math import lcm
from operator import add, mul
from pathlib import Path

import pytest
from conftest import (
    certified_root_element,
    certified_root_vector,
    epsilon_spec,
    fundamental,
    in_walk_basis,
    pair_with_coroot,
    reference_build_root_element,
    reference_datum,
    reference_epsilon_roots,
    reference_orbit,
    reference_random_unipotent,
    reference_rank,
    reference_sub_identity,
    scan_nilpotency_degree,
    shift_pack,
    walk_positions,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkit import (
    MATRIX_BUDGET,
    CartanType,
    ExactMatrix,
    FieldMismatch,
    NotUnipotent,
    PreconditionError,
    build_root_element,
    enumerate_minuscule,
    minuscule_rep,
    nilpotency_degree,
    random_unipotent,
    root_element_drop,
    unipotence,
    verify_tensor_lemma,
)
from mtkit import matrix, oracle
from mtkit.matrix import _is_prime
from mtkit.roots import _epsilon_vector, _positive_root


@contextlib.contextmanager
def no_dense_rows():
    """Fail any read of ExactMatrix.rows made inside the block."""
    def refuse(m):
        raise AssertionError("wrote out the dense rows of a matrix")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactMatrix, "rows", property(refuse))
        yield


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


@pytest.mark.parametrize("prime", [None, 7])
def test_kron_over_the_matrix_budget_is_refused(prime):
    # the product's dim1 * dim2 rows are checked against MATRIX_BUDGET before
    # any is built: 64 * 64 is the budget, 65 * 65 and 4096 * 4096 are over it
    one = functools.partial(ExactMatrix.identity, prime=prime)
    assert one(64).kron(one(64)) == one(MATRIX_BUDGET)
    assert one(MATRIX_BUDGET).kron(one(1)).is_identity()
    for n1, n2 in [(65, 65), (MATRIX_BUDGET, 2), (2, 2049), (MATRIX_BUDGET, MATRIX_BUDGET)]:
        with pytest.raises(PreconditionError, match=rf"kron dimension {n1} \* {n2} is over "
                                                    rf"MATRIX_BUDGET \({MATRIX_BUDGET}\)"):
            one(n1).kron(one(n2))


def test_product_with_a_non_matrix_is_a_type_error():
    # @ returns NotImplemented for an operand that is not an ExactMatrix, as
    # == does, and kron refuses one with the TypeError that @ ends in
    m = ExactMatrix.identity(2)
    for other in (3, None, [[1]]):
        assert m.__matmul__(other) is NotImplemented
        with pytest.raises(TypeError):
            m @ other
        with pytest.raises(TypeError):
            other @ m
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for kron: "
                                            rf"'ExactMatrix' and '{type(other).__name__}'$"):
            m.kron(other)


def test_c2_std_long_root_is_a_transvection():
    rep = minuscule_rep(CartanType("C", 2), 1)
    m = build_root_element(rep, ["2e1"])
    off = [(i, j) for i in range(4) for j in range(4) if i != j and m.rows[i][j]]
    assert len(off) == 1 and m.rows[off[0][0]][off[0][1]] == 1
    assert unipotence(m).drop == 1


def test_a5_middle_highest_root_drop():
    rep = minuscule_rep(CartanType("A", 5), 3)
    m = build_root_element(rep, ["e1-e6"])
    assert m.dim == 20
    assert m.sub_identity().rank() == 6


def test_b4_spin_short_root_degree_and_drop():
    rep = minuscule_rep(CartanType("B", 4), 4)
    report = unipotence(build_root_element(rep, ["e1"]))
    assert (report.degree, report.drop) == (2, 8)


def test_root_element_orthogonality_enforced():
    rep = minuscule_rep(CartanType("D", 6), 6)
    with pytest.raises(PreconditionError, match="roots 'e1-e2' and 'e2-e3' are not orthogonal"):
        build_root_element(rep, ["e1-e2", "e2-e3"])
    # a repeated root is not orthogonal to itself; the message names it as given
    with pytest.raises(PreconditionError, match="root 'e1 - e2' is repeated"):
        build_root_element(rep, ["e1-e2", "e3-e4", "e1 - e2"])
    e12 = rep.datum.positive_roots.index((1, 0, 0, 0, 0, 0))
    with pytest.raises(PreconditionError, match=f"root {e12} is repeated"):
        build_root_element(rep, ["e1-e2", e12])


def _classical_reps(bound):
    """(rep, epsilon vectors of its positive roots) for every classical minuscule rep to rank bound."""
    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, bound + 1):
            for r in enumerate_minuscule(CartanType(f, n)):
                yield minuscule_rep(r.cartan_type, r.weight_index), reference_epsilon_roots(r.cartan_type)


def _bracket(x, y):
    """[X, Y] of two maps {source: (target, sign)}, as {(source, target): entry}."""
    out = {}
    for first, then, f in ((y, x, 1), (x, y, -1)):
        for src, (mid, s) in first.items():
            if mid in then:
                dst, t = then[mid]
                out[src, dst] = out.get((src, dst), 0) + f * s * t
    return {k: v for k, v in out.items() if v}


def test_certified_root_vectors_satisfy_the_chevalley_relations():
    # to rank 4: each E_alpha moves v_mu to +-v_(mu + alpha) and squares to 0,
    # the Sp_2n and SO_2n vectors preserve their forms, and [E_alpha, E_beta]
    # is c E_(alpha + beta), c != 0, exactly when alpha + beta is a root
    pairs = 0
    for rep, roots in _classical_reps(4):
        orbit, vectors = rep.orbit, {a: certified_root_vector(rep, a) for a in roots}
        for a, e in vectors.items():
            assert e and not e.keys() & {dst for dst, _ in e.values()}, (rep, a)
            assert all(orbit[dst] == tuple(m + 2 * x for m, x in zip(orbit[src], a))
                       for src, (dst, _) in e.items())
            if rep.weight_index == 1 and rep.cartan_type.family in ("C", "D"):
                # (v_mu, v_-mu) is 1 for mu = 2e_i, and -1 (C) or 1 (D) for mu = -2e_i
                def form(p, q):
                    if orbit[p] != tuple(-x for x in orbit[q]):
                        return 0
                    return 1 if sum(orbit[p]) > 0 or rep.cartan_type.family == "D" else -1

                def pair(p, q):  # (E v_p, v_q) + (v_p, E v_q)
                    return ((e[p][1] * form(e[p][0], q) if p in e else 0)
                            + (e[q][1] * form(p, e[q][0]) if q in e else 0))

                assert not any(pair(p, q) for p in range(rep.dimension)
                               for q in range(rep.dimension)), (rep, a)
        for a, b in combinations(roots, 2):
            got, e = _bracket(vectors[a], vectors[b]), vectors.get(tuple(map(add, a, b)), {})
            target = {(src, dst): sign for src, (dst, sign) in e.items()}
            assert got.keys() == target.keys(), (rep, a, b)
            assert len({got[k] * target[k] for k in target}) <= 1, (rep, a, b)
            pairs += 1
    assert pairs == 798


@pytest.mark.parametrize("prime", [None, 3])
def test_strongly_orthogonal_root_products_match_the_certified_elements(prime):
    # every set of 1-3 strongly orthogonal roots on every classical minuscule
    # rep to rank 5: the +1 product has the degree and drop of the group element
    cases = 0
    for rep, roots in _classical_reps(5):
        roots_ = set(roots)
        strong = {(a, b) for a, b in combinations(roots, 2)
                  if not sum(map(mul, a, b)) and tuple(map(add, a, b)) not in roots_}
        for r in (1, 2, 3):
            for alphas in combinations(roots, r):
                if all(pair in strong for pair in combinations(alphas, 2)):
                    got = unipotence(build_root_element(rep, list(map(epsilon_spec, alphas)), prime))
                    want = unipotence(certified_root_element(rep, alphas, prime))
                    assert (got.degree, got.drop) == (want.degree, want.drop), (rep, alphas)
                    cases += 1
    assert cases == 1908


def test_roots_whose_sum_is_a_root_are_refused():
    # every orthogonal pair of roots whose sum is a root to rank 5 (two short
    # roots of B, e_i - e_j and e_i + e_j of C) is refused in either order,
    # naming the sum; the product of the two +1 elements misses the group
    # element's degree or drop, over Q and over F_3
    pairs = 0
    for rep, roots in _classical_reps(5):
        for a, b in combinations(roots, 2):
            if sum(map(mul, a, b)) or (total := tuple(map(add, a, b))) not in roots:
                continue
            pairs += 1
            for x, y in ((a, b), (b, a)):
                with pytest.raises(PreconditionError, match=re.escape(
                        f"roots {epsilon_spec(x)!r} and {epsilon_spec(y)!r} are not strongly "
                        f"orthogonal: their sum {epsilon_spec(total)} is a root")):
                    build_root_element(rep, [epsilon_spec(x), epsilon_spec(y)])
            for prime in (None, 3):
                plus = unipotence(build_root_element(rep, [epsilon_spec(a)], prime)
                                  @ build_root_element(rep, [epsilon_spec(b)], prime))
                true = unipotence(certified_root_element(rep, (a, b), prime))
                assert (plus.degree, plus.drop) != (true.degree, true.drop), (rep, a, b, prime)
    assert pairs == 40


def test_root_index_must_be_a_plain_int():
    rep = minuscule_rep(CartanType("C", 3), 1)
    for bad in (1.0, True, None, -1, 9):
        with pytest.raises(PreconditionError, match=re.escape(f"got {bad!r}")):
            build_root_element(rep, [bad])
        with pytest.raises(PreconditionError, match=re.escape(f"got {bad!r}")):
            build_root_element(rep, [0, bad])
    # a str is read as a mnemonic, never as an index
    with pytest.raises(PreconditionError, match="malformed root spec '1'"):
        build_root_element(rep, ["1"])
    m = build_root_element(rep, [8])
    assert in_walk_basis(m, walk_positions(rep)) == reference_build_root_element(rep, [8])


# every (rep, positive root) of the classical minuscule reps to rank 7 with
# dimension <= 128, and the products of the survey script
CLASSICAL_TO_RANK_7 = [(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                       for n in range(lo, 8)]
SURVEY_PRODUCTS = {4: [["e1-e2", "e3-e4"], ["e1-e2", "e1+e2"]],  # from this D rank on
                   6: [["e1-e2", "e3-e4", "e5-e6"], ["e1-e2", "e1+e2", "e3-e4", "e3+e4"]]}


def _root_element_cases():
    """(rep, mnemonics, the indices of their roots in reference_datum) for each case."""
    reps = [minuscule_rep(r.cartan_type, r.weight_index) for f, n in CLASSICAL_TO_RANK_7
            for r in enumerate_minuscule(CartanType(f, n)) if r.dimension <= 128]
    for rep in reps:
        roots = reference_epsilon_roots(rep.cartan_type)
        yield from ((rep, [epsilon_spec(v)], [i]) for i, v in enumerate(roots))
    for n in range(4, 9):
        rep = minuscule_rep(CartanType("D", n), n)
        roots = reference_epsilon_roots(rep.cartan_type)
        for specs in [c for lo, combos in SURVEY_PRODUCTS.items() if n >= lo for c in combos]:
            yield rep, specs, [roots.index(_positive_root(rep.cartan_type, s)) for s in specs]


@pytest.mark.parametrize("prime", [None, 2, 3])
def test_root_elements_match_the_dense_reference(prime, monkeypatch):
    # the matrices on the epsilon weights are the walked-orbit reference's,
    # conjugated by the permutation between the two sorted bases
    degree, nils = oracle.nilpotency_degree, []
    monkeypatch.setattr(oracle, "nilpotency_degree", lambda nil: nils.append(nil) or degree(nil))
    cases = 0
    positions = {}
    for rep, specs, idxs in _root_element_cases():
        # building x_alpha(1), or a product of several, certifying it and
        # comparing it and the M - 1 whose degree and drop it takes with their
        # twins writes out no dense row
        with no_dense_rows():
            m = build_root_element(rep, specs, prime)
            report = unipotence(m)
            assert m == build_root_element(rep, specs, prime) and nils[-1] == m.sub_identity()
        ref = reference_build_root_element(rep, idxs, prime)
        nil, ref_nil = m.sub_identity(), reference_sub_identity(ref)
        if rep not in positions:
            positions[rep] = walk_positions(rep)
        assert in_walk_basis(m, positions[rep]) == ref
        assert in_walk_basis(nil, positions[rep]) == ref_nil
        assert m._form == matrix._nonzero(m.rows) and nil._form == matrix._nonzero(nil.rows)
        assert report.degree == degree(nil) == scan_nilpotency_degree(ref_nil)
        assert report.drop == nil.rank() == reference_rank(ref_nil)
        cases += 1
    assert cases == 1070 + 16


@pytest.mark.parametrize("prime", [None, 2])
def test_a_root_named_by_mnemonic_is_the_root_of_its_index(prime):
    # every positive root of every classical minuscule rep to rank 7: the
    # mnemonic and the index into rep.datum build the same matrix
    cases = 0
    for f, n in CLASSICAL_TO_RANK_7:
        for rep in enumerate_minuscule(CartanType(f, n)):
            for i, root in enumerate(rep.datum.positive_roots):
                spec = epsilon_spec(_epsilon_vector(rep.cartan_type, root))
                by_spec, by_index = (build_root_element(rep, [r], prime) for r in (spec, i))
                assert by_spec._form == by_index._form and by_spec == by_index, (rep, spec)
                cases += 1
    assert cases == 1070


@pytest.mark.parametrize("t, j, drop", [(CartanType("E6", 6), 1, 6), (CartanType("E6", 6), 6, 6),
                                        (CartanType("E7", 7), 7, 12)], ids=str)
def test_walked_exceptional_root_elements_match_the_constant_rows(t, j, drop):
    # the library builds no E root element; on the walked orbit, the reference
    # has the constant row's dimension, and every root element is quadratic
    # with the double count dim * N1 / (2 N+) of the datum as its drop
    rep = minuscule_rep(t, j)
    d = reference_datum(t)
    assert len(reference_orbit(rep)) == rep.dimension
    n_1 = sum(pair_with_coroot(cr, fundamental(t.rank, j).coords) == 1 for cr in d.coroots)
    assert rep.dimension * n_1 == drop * 2 * len(d.positive_roots)
    for i in range(len(d.positive_roots)):
        ref_nil = reference_sub_identity(reference_build_root_element(rep, [i]))
        assert (scan_nilpotency_degree(ref_nil), reference_rank(ref_nil)) == (2, drop), i


@pytest.mark.parametrize("t", [CartanType("E6", 6), CartanType("E7", 7)], ids=str)
def test_exceptional_root_elements_are_refused_by_name_before_any_weight(t, monkeypatch):
    from mtkit import minuscule

    def no_weights(u, j):
        raise AssertionError(f"listed the weights of w{j} of {u}")

    monkeypatch.setattr(minuscule, "_epsilon_weights", no_weights)
    for j in [r.weight_index for r in enumerate_minuscule(t)]:
        rep = minuscule_rep(t, j)
        for prime in (None, 2):
            with pytest.raises(PreconditionError, match=f"classical types only, not {t}"):
                build_root_element(rep, [0], prime)
        assert "orbit" not in vars(rep)


def _constructions(prime):
    """(name, build) for every way a matrix is made."""
    import random

    rep = minuscule_rep(CartanType("D", 5), 5)
    made = {
        "no zero row": lambda: ExactMatrix([[2, 0, 1], [0, 1, 0], [1, 1, 1]], prime),
        "a zero row": lambda: ExactMatrix([[0, 0, 1], [0, 0, 0], [1, 1, 1]], prime),
        "diagonal": lambda: ExactMatrix([[3, 0, 0], [0, 1, 0], [0, 0, -1]], prime),
        "identity": lambda: ExactMatrix.identity(3, prime),
        "empty identity": lambda: ExactMatrix.identity(0, prime),
        "random unipotent": lambda: random_unipotent(5, 3, random.Random(3), prime),
        "root element": lambda: build_root_element(rep, ["e1-e2"], prime),
        "root product": lambda: build_root_element(rep, ["e1-e2", "e3-e4"], prime),
        "zero": lambda: ExactMatrix([[0] * 3 for _ in range(3)], prime),
        "big": lambda: ExactMatrix([[2**61, -(2**61), 0], [0, 1, 2**40], [0, 0, 0]], prime),
        # in their product, entry (0, 1) is 1 - 1 and entry (1, 2) is 3 + 4:
        # zero over Q and over F_7 the one, over F_7 only the other.  Row 2
        # meets its columns in the order 1, 2, 0
        "cancels": lambda: ExactMatrix([[1, 1, 0], [3, 4, 0], [0, 1, 1]], prime),
        "cancels against": lambda: ExactMatrix([[0, 1, 1], [0, -1, 1], [2, 0, 0]], prime),
    }
    a, b, one, u, root, zero, big = (made[k] for k in (
        "no zero row", "a zero row", "identity", "random unipotent", "root element", "zero", "big"))
    made |= {
        "a @ 1": lambda: a() @ one(), "1 @ b": lambda: one() @ b(),
        "a (x) b": lambda: a().kron(b()), "u (x) 1": lambda: u().kron(one()),
        "1 (x) root": lambda: one().kron(root()), "root @ root": lambda: root() @ root(),
        "empty (x) a": lambda: made["empty identity"]().kron(a()),
        "cancelling product": lambda: made["cancels"]() @ made["cancels against"](),
        # a zero factor makes a zero product, next to any other
        "zero @ big": lambda: zero() @ big(), "big @ zero": lambda: big() @ zero(),
        "zero (x) big": lambda: zero().kron(big()), "b (x) zero": lambda: b().kron(zero()),
    }
    for name, build in list(made.items()):
        yield name, build
        yield f"{name} - 1", lambda build=build: build().sub_identity()
        yield f"{name} - 2", lambda build=build: build().sub_identity().sub_identity()


def test_seeded_forms_equal_a_fresh_scan():
    import copy
    import pickle

    checks = {
        "==": lambda m, twin: m == twin and twin == m and not m != twin,
        "hash": lambda m, twin: hash(m) == hash(twin),
        "repr": lambda m, twin: repr(m) == repr(twin)
        == f"ExactMatrix(rows={twin.rows!r}, prime={twin.prime!r})",
        "pickle": lambda m, twin: pickle.loads(pickle.dumps(m)) == twin,
        "copy": lambda m, twin: copy.copy(m) == twin,
        "deepcopy": lambda m, twin: copy.deepcopy(m) == twin,
    }
    made = [(prime, c) for prime in (None, 7) for c in _constructions(prime)]
    for prime in (None, 7):
        built = dict(_constructions(prime))
        for name in ("zero @ big", "big @ zero", "zero (x) big", "b (x) zero"):
            assert built[name]().is_zero(), name
        # the cancelling product keeps no zero sum
        cancelled = built["cancelling product"]()
        assert cancelled.rows == ((0, 0, 2), (0, -1, 7), (2, -1, 1)) if prime is None else (
            (0, 0, 2), (0, 6, 0), (2, 6, 1))
        assert {i: sorted(row) for i, row in cancelled._form.items()} == (
            {0: [2], 1: [1, 2], 2: [0, 1, 2]} if prime is None else {0: [2], 1: [1], 2: [0, 1, 2]})
    for prime, (name, build) in made:
        twin = ExactMatrix(build().rows, prime)  # built from rows
        for read_first in (True, False):
            for what, check in checks.items():
                m = build()
                if read_first:
                    assert m.rows == twin.rows
                assert check(m, twin), (name, what, read_first)
        # every matrix is its nonzero form {i: {c: x}}: no empty row, no zero
        # entry, every entry reduced mod p, every row and column in range
        m = build()
        form = m._form
        assert all(row and all(row.values()) for row in form.values()), name
        assert prime is None or all(0 < x < prime for row in form.values() for x in row.values()), name
        assert set(form) | {c for row in form.values() for c in row} <= set(range(m.dim)), name
        assert m._form == matrix._nonzero(m.rows) == twin._form, name
        assert m.sub_identity() == reference_sub_identity(twin), name
        assert m.is_zero() == twin.is_zero() and m.is_identity() == twin.is_identity(), name
        for field in (*ExactMatrix.__slots__, "rows"):
            with pytest.raises(FrozenInstanceError):
                setattr(m, field, None)
            with pytest.raises(FrozenInstanceError):
                delattr(m, field)


D13_SIX_ROOTS = ["e1-e2", "e3-e4", "e5-e6", "e7-e8", "e9-e10", "e11-e12"]


def test_equality_and_hash_read_the_form():
    # a form holds only nonzero rows and nonzero entries, so it is canonical:
    # == and hash compare dim, prime and form, and write out no dense row
    with no_dense_rows():
        zero2, zero3 = ExactMatrix([[0] * 2] * 2), ExactMatrix([[0] * 3] * 3)
        assert zero2 != zero3 and zero2.is_zero() and zero3.is_zero()
        assert ExactMatrix([[1, 2], [0, 3]]) != ExactMatrix([[1, 2], [0, 3]], 7)
        assert ExactMatrix.identity(4) != ExactMatrix.identity(4, 7)
        rep = minuscule_rep(CartanType("D", 13), 13)
        a, b = (build_root_element(rep, D13_SIX_ROOTS) for _ in range(2))
        assert a == b and hash(a) == hash(b) and a != a.sub_identity()
    # row 2 of the cancelling product meets its columns as 1, 2, 0, and its
    # twin's scan as 0, 1, 2: == and hash do not see the order
    m = dict(_constructions(None))["cancelling product"]()
    twin = ExactMatrix(m.rows)
    assert list(m._form[2]) == [1, 2, 0] and list(twin._form[2]) == [0, 1, 2]
    assert m == twin and hash(m) == hash(twin)


@pytest.mark.parametrize("rank, roots, prime, report", [
    (12, ["e1-e2", "e3-e4"], None, (3, 768, 2048)), (12, ["e1-e2", "e3-e4"], 2, (2, 768, 2048)),
    (13, D13_SIX_ROOTS, None, (7, 2380, 4096)), (13, D13_SIX_ROOTS, 2, (2, 2016, 4096)),
], ids=["None-3", "2-2", "D13-None-7", "D13-2-2"])
def test_a_halfspin_product_at_scale_stays_in_its_nonzero_form(rank, roots, prime, report,
                                                                 monkeypatch):
    # D12's half-spin module has dimension 2048, D13's 4096, the matrix
    # budget: the product of root elements, its M - 1, their degree and drop
    # run on nonzero forms, with no call into the packed kernel and no dense
    # row written out
    def refuse(*args):
        raise AssertionError("called the packed kernel")

    for name in ("_times", "_unpack", "_pack_rows"):
        for module in (matrix, oracle):
            monkeypatch.setattr(module, name, refuse)
    degree_of, nils = oracle.nilpotency_degree, []
    monkeypatch.setattr(oracle, "nilpotency_degree", lambda nil: nils.append(nil) or degree_of(nil))
    with no_dense_rows():
        m = build_root_element(minuscule_rep(CartanType("D", rank), rank), roots, prime)
        got = unipotence(m)
        assert nils == [m.sub_identity()]
    assert (got.degree, got.drop, got.dim) == report


def test_halfspin_product_of_orthogonal_roots_builds():
    t = CartanType("D", 6)
    rep = minuscule_rep(t, 6)
    m = build_root_element(rep, ["e1-e2", "e3-e4"])
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
    # every shape up to dim 8 (slots of at most 8 bytes), and dims whose slots
    # for |M| <= 8 dim 9^dim are 16 and 24 bytes wide
    import random

    shapes = [(dim, k, seed) for dim in range(1, 9) for k in range(1, dim + 1) for seed in range(5)]
    shapes += [(dim, k, seed) for dim in (20, 33, 48) for k in (1, 3, dim) for seed in (0, 1)]
    for dim, k, seed in shapes:
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


@pytest.mark.parametrize("n", [-2, -1, 2.0, True, "3", None])
def test_identity_refuses_a_dimension_that_is_not_a_non_negative_int(n):
    with pytest.raises(PreconditionError, match=re.escape(f"non-negative int, got {n!r}")):
        ExactMatrix.identity(n)


def test_random_unipotent_and_tensor_trials_refuse_arguments_that_are_not_ints():
    import random

    for dim, k, message in [(3.0, 2, "dimension must be an int, got 3.0"),
                            (3, 2.0, "unipotence degree must be an int, got 2.0"),
                            (True, 1, "dimension must be an int, got True")]:
        with pytest.raises(PreconditionError, match=re.escape(message)):
            random_unipotent(dim, k, random.Random(1))
    bad = [((1.0, 1, (2, 2), 1), "k1 must be an int, got 1.0"),
           ((1, "1", (2, 2), 1), "k2 must be an int, got '1'"),
           ((1, 1, (2, 2), 1.5), "trials must be an int, got 1.5"),
           ((1, 1, (2, 2.0), 1), "dims entry must be an int, got 2.0"),
           ((1, 1, (2,), 1), "dims must be a pair of ints, got (2,)"),
           ((1, 1, (2, 2, 2), 1), "dims must be a pair of ints, got (2, 2, 2)"),
           ((1, 1, 4, 1), "dims must be a pair of ints, got 4")]
    for (k1, k2, dims, trials), message in bad:
        with pytest.raises(PreconditionError, match=re.escape(message)):
            verify_tensor_lemma(k1, k2, dims, trials, 0)
    assert verify_tensor_lemma(1, 1, [2, 2], 1, 0).dims == (2, 2)
    # the seed is echoed in the report, so only an int is taken
    for seed in ([3], 1.5, True, None):
        with pytest.raises(PreconditionError, match=re.escape(f"seed must be an int, got {seed!r}")):
            verify_tensor_lemma(1, 1, (2, 2), 1, seed)


@pytest.mark.parametrize("prime", [[3], {}, (3,), 7.0])
def test_a_prime_that_is_not_hashable_or_not_an_int_is_refused(prime):
    # the primality test is cached; the type is checked before anything is hashed
    import random

    rep = minuscule_rep(CartanType("C", 2), 1)
    for call in [lambda: ExactMatrix([[1]], prime), lambda: ExactMatrix.identity(2, prime),
                 lambda: build_root_element(rep, [0], prime),
                 lambda: random_unipotent(3, 2, random.Random(1), prime),
                 lambda: verify_tensor_lemma(2, 2, (2, 2), 1, 1, prime)]:
        with pytest.raises(PreconditionError, match="prime must be an integer"):
            call()


def test_identity_refuses_a_dimension_over_the_matrix_budget_before_building_it():
    assert ExactMatrix.identity(MATRIX_BUDGET).dim == MATRIX_BUDGET
    for n in (MATRIX_BUDGET + 1, 10**5000):
        with pytest.raises(PreconditionError, match="is over MATRIX_BUDGET"):
            ExactMatrix.identity(n)


@pytest.mark.parametrize("rows", [None, 3, [3], [[1], 2]])
def test_rows_that_are_not_iterable_are_refused(rows):
    with pytest.raises(PreconditionError, match="rows must be rows of ints"):
        ExactMatrix(rows)


def test_random_unipotent_refuses_a_dimension_over_the_run_budget_before_any_draw(monkeypatch):
    # dim^4 <= RUN_BUDGET admits 472, the largest factor dimension an accepted
    # tensor run draws: reaching a draw means accepted
    import random

    def no_matrix(*args):
        raise AssertionError("built a matrix")

    assert 472**4 <= oracle.RUN_BUDGET < 473**4
    monkeypatch.setattr(oracle, "random_unipotent", no_matrix)
    with pytest.raises(AssertionError, match="built a matrix"):
        verify_tensor_lemma(1, 1, (472, 1), 1, 1)
    with pytest.raises(PreconditionError, match="run budget"):
        verify_tensor_lemma(1, 1, (473, 1), 1, 1)
    monkeypatch.undo()
    for dim in (473, 10**5000):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(PreconditionError, match=r"over the run budget: dim\^4 > 50000000000"):
            random_unipotent(dim, 1, rng)
        assert rng.getstate() == state


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
        for p in (None, 2, 3, 10007):
            assert ExactMatrix(rows, p).rank() == _reference_rank(rows, p) <= n
        assert ExactMatrix(rows).rank() <= k


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
    for n in range(0, 6):
        for prime in (None, 2, 7):
            zero = ExactMatrix.identity(n, prime).sub_identity()
            assert zero.is_zero() and ExactMatrix([[0] * n for _ in range(n)], prime).is_zero()
            for i in range(n):
                for j in range(n):
                    for x in (1, -1, 3):  # none is 0 mod 2 or mod 7
                        rows = [[0] * n for _ in range(n)]
                        rows[i][j] = x
                        assert not ExactMatrix(rows, prime).is_zero()
    assert ExactMatrix([[2, 0], [0, 4]], 2).is_zero()  # reduced mod 2


def test_is_identity_on_both_kinds_of_matrix():
    # the identity built as a form, and its rows through the checked constructor
    for n in range(0, 6):
        for prime in (None, 2, 7):
            one = ExactMatrix.identity(n, prime)
            for m in (one, ExactMatrix(one.rows, prime)):
                assert m.is_identity() and m.is_zero() == (n == 0)
            assert one.sub_identity().is_identity() == (n == 0)
            for i in range(n):
                for j in range(n):
                    for x in (1, -1, 3):  # none is 0 mod 2 or mod 7
                        rows = [list(r) for r in one.rows]
                        rows[i][j] += x
                        assert not ExactMatrix(rows, prime).is_identity()
                        rows = [[0] * n for _ in range(n)]
                        rows[i][j] = x
                        m = ExactMatrix(rows, prime)
                        assert m.is_identity() == (m.rows == ((1,),))
    assert ExactMatrix([[3, 0], [0, 9]], 2).is_identity()  # reduced mod 2


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
        for x, y in [(a, b), (b, a)]:
            assert (x @ y).rows == _row_adaptive_product(x.rows, y.rows, prime)


@pytest.mark.parametrize("prime", PRIMES)
def test_kron_matches_entrywise_products(prime):
    import random

    rng = random.Random(prime or 5)
    for n1, n2 in [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (2, 5), (5, 3), (6, 6)]:
        big = rng.choice((1, 2**40 + 3, -(2**61) - 5))
        a = ExactMatrix(_random_rows(rng, n1, prime is None), prime)
        b = ExactMatrix([[x * big for x in row] for row in _random_rows(rng, n2, prime is None)], prime)
        want = tuple(tuple(x * y % prime if prime else x * y for x in arow for y in brow)
                     for arow in a.rows for brow in b.rows)
        t = a.kron(b)
        assert t.rows == want and t._form == matrix._nonzero(want)


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
            want = _reference_degree(nil)
            assert nilpotency_degree(nil) == want
        # dense, with negative entries, and the same scaled past 2^40
        k = rng.randint(1, n)
        nil = random_unipotent(n, k, rng).sub_identity()
        for scale in (1, 2**40 + 1):
            scaled = ExactMatrix([[x * scale for x in row] for row in nil.rows], prime)
            assert nilpotency_degree(scaled) == _reference_degree(scaled)
            if prime is None:
                assert nilpotency_degree(scaled) == k


def test_large_entries_widen_the_slots(monkeypatch):
    # the tensor trials' power loop on factors 1 + 2^40 N: over Z a power is
    # unpacked only when the room test fails, and here each is then repacked
    # in wider slots
    import random

    def big(dim, k, seed):
        nil = random_unipotent(dim, k, random.Random(seed)).sub_identity()
        return ExactMatrix([[(i == j) + x * 2**40 for j, x in enumerate(row)]
                            for i, row in enumerate(nil.rows)])

    m1, m2 = big(6, 6, 2), big(3, 3, 3)
    sizes, unpack, pack_rows = [], oracle._unpack, oracle._pack_rows

    def spy(fn, what):
        def call(*args):
            if sys._getframe(1).f_code is oracle._tensor_degree.__code__:
                sizes.append((what, args[1]))
            return fn(*args)
        return call

    monkeypatch.setattr(oracle, "_unpack", spy(unpack, "unpack"))
    monkeypatch.setattr(oracle, "_pack_rows", spy(pack_rows, "pack"))
    assert oracle._tensor_degree(m1, m2) == 6 + 3 - 1
    monkeypatch.undo()
    assert nilpotency_degree(m1.kron(m2).sub_identity()) == 8
    step = 18 * max(map(abs, chain(*m1.rows))) * max(map(abs, chain(*m2.rows))) + 1
    assert sizes[0] == ("unpack", matrix._slot_size(step * step))
    assert [what for what, _ in sizes] == ["unpack", "pack"] * (len(sizes) // 2)
    assert all(b > a for (_, a), (_, b) in zip(sizes[::2], sizes[1::2])), sizes


# --- tensor trials through the factors m1 (x) 1 and 1 (x) m2 -----------------

TENSOR_PRIMES = [None, 2, 3, 10007]


def _tensor_pairs(rng, prime):
    """For every d1, d2 <= 6: random unipotents of random degrees (the 1 x 1
    and degree-1 ones are identities), then two general matrices."""
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            yield (random_unipotent(d1, rng.randint(1, d1), rng, prime),
                   random_unipotent(d2, rng.randint(1, d2), rng, prime))
            yield (ExactMatrix(_random_rows(rng, d1, False), prime),
                   ExactMatrix(_random_rows(rng, d2, False), prime))


@pytest.mark.parametrize("prime", TENSOR_PRIMES)
def test_tensor_factors_multiply_to_the_kronecker_product(prime):
    import random

    rng = random.Random(prime or 11)
    seen_identity = False
    for m1, m2 in _tensor_pairs(rng, prime):
        n = m1.dim * m2.dim
        factors = oracle._tensor_factors(m1, m2)
        # an identity factor is left out; the others keep the nonzeros of the rows they copy
        kept = [m for m in (m1, m2) if not m.is_identity()]
        seen_identity |= len(kept) < 2
        assert len(factors) == len(kept)
        for form, m in zip(factors, kept):
            assert sum(map(len, form.values())) == n // m.dim * sum(map(len, m._form.values()))
        product = ExactMatrix.identity(n, prime)
        for form in factors:
            product = product @ ExactMatrix._derived(prime, form, n)
        assert product.rows == m1.kron(m2).rows
    assert seen_identity


@pytest.mark.parametrize("prime", TENSOR_PRIMES)
def test_tensor_degree_matches_the_dense_tensor(prime):
    import random

    rng = random.Random(prime or 12)
    for m1, m2 in _tensor_pairs(rng, prime):
        nil = m1.kron(m2).sub_identity()
        want = _degree_or_message(nilpotency_degree, nil)
        assert want == _degree_or_message(scan_nilpotency_degree, nil)
        assert _degree_or_message(lambda _: oracle._tensor_degree(m1, m2), nil) == want


def jordan_tensor_degree(k1, k2, p=None):
    """d(k1, k2, p): the least m with (x + y + xy)^m = 0 in Z[x, y]/(x^k1, y^k2), mod p.

    For single nilpotent Jordan blocks X and Y of sizes k1 and k2,
    (1 + X) (x) (1 + Y) - 1 = X (x) 1 + 1 (x) Y + X (x) Y, and the X^i (x) Y^j
    with i < k1 and j < k2 are linearly independent: the powers of u - 1 are
    those of x + y + xy in that ring, coefficient by coefficient."""
    power, m = [[int(i == j == 0) for j in range(k2)] for i in range(k1)], 0
    while any(map(any, power)):
        power = [[(power[i - 1][j] if i else 0) + (power[i][j - 1] if j else 0)
                  + (power[i - 1][j - 1] if i and j else 0) for j in range(k2)] for i in range(k1)]
        power = [[x % p for x in row] for row in power] if p else power
        m += 1
    return m


def test_tensor_lemma_over_q_is_exact_on_jordan_blocks():
    # the coefficient of x^(k1-1) y^(k2-1) in (x + y + xy)^(k1+k2-2) is
    # C(k1+k2-2, k1-1) != 0, and every term of the next power has total degree
    # at least k1 + k2 - 1
    for k1 in range(1, 13):
        for k2 in range(1, 13):
            assert jordan_tensor_degree(k1, k2) == k1 + k2 - 1


@pytest.mark.parametrize("prime", [None, 2, 3, 5, 7])
def test_tensor_degree_of_jordan_blocks_matches_the_polynomial_reference(prime):
    # p >= k1 + k2 - 1 keeps the degree: C(k1+k2-2, k1-1) has no prime factor
    # that large.  A smaller p can lower it (not when a factor is the identity)
    lowered = set()
    for k1 in range(1, 9):
        for k2 in range(1, 9):
            d = jordan_tensor_degree(k1, k2, prime)
            assert oracle._tensor_degree(jordan([k1], prime), jordan([k2], prime)) == d
            if prime is None or prime >= k1 + k2 - 1:
                assert d == k1 + k2 - 1
            elif d < k1 + k2 - 1:
                lowered.add((k1, k2))
    assert (prime is None) == (not lowered)


@pytest.mark.parametrize("prime", [None, 2, 3, 5, 7])
def test_every_seeded_trial_has_the_jordan_degree(prime):
    # a trial's factors are conjugates, invertible mod every prime, of Jordan
    # seeds whose largest blocks have sizes k1 and k2; the degree of
    # J_a (x) J_b - 1 grows with a and b, so every trial has degree d(k1, k2, p)
    for k1 in range(1, 6):
        for k2 in range(1, 6):
            report = verify_tensor_lemma(k1, k2, (k1 + 1, k2 + 1), 2, 10 * k1 + k2, prime)
            assert report.degree_counts == {jordan_tensor_degree(k1, k2, prime): 2}


def test_tensor_trials_never_form_the_dense_tensor(monkeypatch):
    import random

    def refuse(*args):
        raise AssertionError("formed the dense tensor or its M - 1")

    cases = [(1, 1, (1, 1), None), (1, 5, (3, 5), None), (3, 2, (4, 3), None), (4, 4, (6, 6), None),
             (2, 2, (4, 4), 2), (3, 3, (5, 3), 3), (4, 3, (6, 6), 10007)]
    monkeypatch.setattr(ExactMatrix, "kron", refuse)
    monkeypatch.setattr(ExactMatrix, "sub_identity", refuse)
    reports = [verify_tensor_lemma(k1, k2, dims, 6, 21, prime) for k1, k2, dims, prime in cases]
    monkeypatch.undo()
    for (k1, k2, dims, prime), report in zip(cases, reports):
        # the same trials through the dense tensor
        base, counts = random.Random(21), {}
        for _ in range(6):
            rng = random.Random(base.randrange(2**63))
            m1 = random_unipotent(dims[0], k1, rng, prime)
            m2 = random_unipotent(dims[1], k2, rng, prime)
            deg = nilpotency_degree(m1.kron(m2).sub_identity())
            counts[deg] = counts.get(deg, 0) + 1
        assert dict(report.degree_counts) == counts
        assert report.passed or prime == 2


@pytest.mark.parametrize("size, step", [(size, step) for size in (1, 2, 4, 8, 16)
                                        for step in (1, 2, 3, 37, 2**20 + 1) if step < 2 ** (8 * size - 1)])
def test_room_test_accepts_exactly_the_entries_in_its_range(size, step):
    # b is the largest exponent with step 2^b < 2^(w-1); a packed power passes
    # the test exactly when every entry lies in [-2^b, 2^b)
    w, n = 8 * size, 3
    b = w - 1 - step.bit_length()
    assert step * 2**b < 2 ** (w - 1) <= step * 2 ** (b + 1)
    add, mask = oracle._room(n, size, step)
    edges = [-(2**b), 2**b - 1, 2**b, -(2**b) - 1, 0, -1, 1]
    rows = [(x, y, z) for x in edges for y in edges for z in edges]
    for i in range(0, len(rows) - n + 1, n):  # n rows at a time, as a power's n x n
        block = rows[i:i + n]
        packed = matrix._pack_rows(block, size)
        assert matrix._unpack(packed, size) == block
        for row, v in zip(block, packed):
            fits = all(-(2**b) <= x < 2**b for x in row)
            assert (not (v + add) & mask) == fits, (row, size, step)
    # negative and out-of-range top slots over clean and out-of-range lower ones
    for row in [(0, 0, -1), (1, 2**b - 1, -(2**b) - 1), (-(2**b), 0, 2**b), (-1, 0, 0)]:
        (v, *_) = matrix._pack_rows([row, (0,) * n, (0,) * n], size)
        assert (not (v + add) & mask) == all(-(2**b) <= x < 2**b for x in row)


@pytest.mark.parametrize("prime", [None, 10007])
def test_power_slots_hold_their_bound_and_round_trip(prime):
    # the fewest bytes of 1, 2, 4 or 8, and past that the fewest whole
    # multiples of 8 bytes, that hold the bound with a sign bit
    for bits in range(1, 400):
        for bound in (2 ** (bits - 1), 2**bits - 1):
            size = matrix._slot_size(bound)
            assert bound < 2 ** (8 * size - 1)
            if size <= 8:
                assert size in (1, 2, 4, 8) and (size == 1 or bound >= 2 ** (4 * size - 1))
            else:
                assert size % 8 == 0 and bound >= 2 ** (8 * size - 65)
    import random

    rng = random.Random(9)
    for bits in (60, 64, 100, 200, 333):
        bound = 2**bits - 1
        size = matrix._slot_size(bound)
        rows = [tuple(rng.choice((bound, -bound, 0, 1, -1)) for _ in range(5)) for _ in range(5)]
        assert matrix._unpack(matrix._pack_rows(rows, size), size) == rows
    nil = random_unipotent(8, 8, rng).sub_identity()
    big = ExactMatrix([[x << 90 for x in row] for row in nil.rows], prime)
    assert nilpotency_degree(big) == _reference_degree(big)


def test_tensor_trials_over_q_unpack_no_power(monkeypatch):
    # the benchmark's shape: 6 x 6 factors of every degree pair up to 4;
    # over F_p every nonzero power is unpacked to reduce it.  The spy counts the
    # power loop's unpacks only, not the one that ends each random_unipotent draw
    unpacked = []
    unpack = oracle._unpack

    def spy(*args):
        if sys._getframe(1).f_code is oracle._tensor_degree.__code__:
            unpacked.append(args[2])
        return unpack(*args)

    monkeypatch.setattr(oracle, "_unpack", spy)
    for k1 in range(1, 5):
        for k2 in range(1, 5):
            assert verify_tensor_lemma(k1, k2, (6, 6), 12, 100 * k1 + k2).passed
    assert not unpacked
    verify_tensor_lemma(3, 3, (6, 6), 2, 1, 10007)
    assert unpacked and set(unpacked) == {10007}


@pytest.mark.parametrize("prime", [2, 3])
def test_root_elements_over_f_p_unpack_no_power(prime, monkeypatch):
    # the degree of N = x_alpha(1) - 1 comes from products of nonzero forms,
    # reduced mod p entry by entry: nothing is packed, so nothing is unpacked
    unpacked = []
    unpack = oracle._unpack

    def spy(*args):
        unpacked.append(args)
        return unpack(*args)

    monkeypatch.setattr(oracle, "_unpack", spy)
    monkeypatch.setattr(matrix, "_unpack", spy)
    for t, j, specs in [(CartanType("B", 8), 8, ["e1", "e1-e2", "e7+e8"]),
                        (CartanType("D", 8), 8, ["e1-e2", "e7+e8"]),
                        (CartanType("D", 7), 6, ["e1-e2", "e6+e7"])]:
        rep = minuscule_rep(t, j)
        for spec in specs:
            report = unipotence(build_root_element(rep, [spec], prime))
            assert (report.degree, report.drop) == (2, root_element_drop(
                rep, "short" if spec == "e1" else "long")), (t, spec)
    assert unpacked == []


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32])
def test_slots_hold_their_bound_with_a_sign_bit(size):
    top = 2 ** (8 * size - 1) - 1  # the largest |x| a signed slot of this size holds
    assert matrix._slot_size(top) == size
    # a power of two up to 8 bytes, then 8 bytes more
    assert matrix._slot_size(top + 1) == (2 * size if size < 8 else size + 8)
    rows = [(top, -top, 0, 1), (0, 0, 0, 0), (-1, top, -top, -1), (-top, 0, 0, top)]
    packed = shift_pack(matrix._nonzero(rows), 4, size)
    assert packed[1] == 0 and all(packed[i] for i in (0, 2, 3))
    assert matrix._unpack(packed, size) == rows
    # dense rows pack again from their slot bytes: struct up to 8 bytes,
    # to_bytes above
    assert matrix._pack_rows(rows, size) == packed
    assert matrix._unpack(matrix._pack_rows(rows, size), size) == rows


@pytest.mark.parametrize("prime", [None, 2, 10007])
def test_packing_from_row_bytes_matches_packing_by_shifts(prime):
    # both packers agree on dense tensors, root elements and their M - 1, at
    # the slots of their entries, of a product, of dim times as wide and of
    # entries past 8 bytes
    import random

    rng = random.Random(prime or 8)
    ms = []
    for k1, k2 in [(1, 1), (2, 3), (4, 2)]:
        t = random_unipotent(rng.randint(k1, 6), k1, rng, prime).kron(
            random_unipotent(rng.randint(k2, 6), k2, rng, prime))
        ms += [t, t.sub_identity(), ExactMatrix([[x << 70 for x in row] for row in t.rows], prime)]
    for t, j in [(CartanType("A", 5), 3), (CartanType("D", 5), 5), (CartanType("B", 4), 4)]:
        rep = minuscule_rep(t, j)
        for i in rng.sample(range(len(rep.datum.positive_roots)), 3):
            m = build_root_element(rep, [i], prime)
            ms += [m, m.sub_identity()]
    for m in ms:
        bound = max(map(abs, chain(*m.rows))) or 1
        narrow = matrix._slot_size(bound)
        for size in {narrow, matrix._slot_size(m.dim * bound * bound), narrow * 6, narrow * 24}:
            assert matrix._pack_rows(m.rows, size) == shift_pack(m._form, m.dim, size)


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
    # over F_p the tensor trials' repacked power takes p - 1 for its bound
    # instead of a scan of its entries: their degrees agree with the scanning
    # version on seeded tensor-shaped inputs, and every power packed on the way
    # round-trips through its slots.  The degrees of Jordan-shaped, sparse and
    # non-nilpotent inputs, from products of nonzero forms, agree with it too
    import random

    rng = random.Random(prime)
    pack_rows, repacked = oracle._pack_rows, []

    def spy(rows, size):
        if sys._getframe(1).f_code is oracle._tensor_degree.__code__:
            repacked.append((rows, size))
        return pack_rows(rows, size)

    monkeypatch.setattr(oracle, "_pack_rows", spy)
    for _ in range(8):
        k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
        m1 = random_unipotent(rng.randint(k1, 6), k1, rng, prime)
        m2 = random_unipotent(rng.randint(k2, 6), k2, rng, prime)
        nil = m1.kron(m2).sub_identity()
        assert _degree_or_message(lambda _: oracle._tensor_degree(m1, m2), nil) == (
            _degree_or_message(scan_nilpotency_degree, nil))
    assert len(repacked) > 20
    for rows, size in repacked:  # the unpacked powers, lists of rows
        assert matrix._unpack(pack_rows(rows, size), size) == rows
    nils = []
    for n in range(1, 13):
        nils.append(random_unipotent(n, rng.randint(1, n), rng, prime).sub_identity())
        nils.append(ExactMatrix(_nilpotent_rows(rng, n, lambda: rng.randrange(1, prime)), prime))
        nils.append(ExactMatrix([[x % prime for x in row] for row in _random_rows(rng, n, False)],
                                prime))
    for nil in nils:
        assert _degree_or_message(nilpotency_degree, nil) == _degree_or_message(
            scan_nilpotency_degree, nil)


def test_halfspin_product_survey_matches_golden(capsys, monkeypatch):
    # products of several root elements over Q, F2, F3 and F5
    root = Path(__file__).parent
    script = root.parent / "scripts" / "halfspin_product_survey.py"
    monkeypatch.setattr(sys, "argv", [str(script), "8"])
    runpy.run_path(str(script), run_name="__main__")
    golden = root / "golden" / "halfspin_product_survey_8.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()
