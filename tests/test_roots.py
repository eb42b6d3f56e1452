"""The closed-form root datum and epsilon vectors; the reference datum and its pairing, orbit, duality and dimension."""

from itertools import product
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    Weight,
    bourbaki_simple_roots,
    cartan_matrix,
    dual_weight,
    epsilon_spec,
    pair_with_coroot,
    reference_datum,
    reference_epsilon_roots,
    reflect_in_root,
    root_weight_coords,
    simple_reflection,
    weyl_dimension,
    weyl_orbit,
)
from mtkit import (
    ROOT_BUDGET,
    CartanType,
    InvalidCartanType,
    PreconditionError,
    build_root_datum,
)
from mtkit.roots import _epsilon_vector, _positive_root, _simple_root_coords, positive_root_count

POSITIVE_ROOT_COUNT = {
    ("A", 5): 15, ("A", 1): 1, ("B", 2): 4, ("B", 5): 25, ("C", 4): 16,
    ("D", 3): 6, ("D", 6): 30, ("E6", 6): 36, ("E7", 7): 63,
    ("F4", 4): 24, ("G2", 2): 6,
    # closed forms at high rank: n^2 for B/C, n(n+1)/2 for A, n(n-1) for D
    ("C", 126): 15876, ("A", 60): 1830, ("B", 60): 3600, ("C", 60): 3600,
    ("D", 60): 3540,
}

WEYL_ORDER = {
    "A": lambda n: _fact(n + 1),
    "B": lambda n: 2**n * _fact(n),
    "C": lambda n: 2**n * _fact(n),
    "D": lambda n: 2 ** (n - 1) * _fact(n),
    "E6": lambda n: 51840,
    "E7": lambda n: 2903040,
    "F4": lambda n: 1152,
    "G2": lambda n: 12,
}


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


SMALL_TYPES = [
    CartanType("A", 1), CartanType("A", 3), CartanType("A", 5),
    CartanType("B", 2), CartanType("B", 4), CartanType("C", 3),
    CartanType("C", 5), CartanType("D", 3), CartanType("D", 5),
    CartanType("F4", 4), CartanType("G2", 2),
]


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_ROOT_COUNT))
def test_positive_root_counts(family, rank):
    # the exceptional counts on the reference: the library lists no exceptional root
    t = CartanType(family, rank)
    d = build_root_datum(t) if t.is_classical else reference_datum(t)
    assert len(d.positive_roots) == POSITIVE_ROOT_COUNT[(family, rank)]
    assert positive_root_count(t) == POSITIVE_ROOT_COUNT[(family, rank)]


def test_root_budget_refuses_before_building():
    assert ROOT_BUDGET == 2**16  # C256 has exactly 2^16 positive roots
    # the first rank of each classical family over the budget, and C500000
    for family, rank, count in (("A", 362, 65703), ("B", 257, 66049), ("C", 257, 66049),
                                ("D", 257, 65792), ("C", 500000, 250000000000)):
        with pytest.raises(PreconditionError, match=f"{family}{rank} has {count} positive "
                                                    "roots, more than the root budget of 65536"):
            build_root_datum(CartanType(family, rank))


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_cartan_matrix_shape(t):
    d = reference_datum(t)
    for i, row in enumerate(d.cartan_matrix):
        assert row[i] == 2
        for j, x in enumerate(row):
            if i != j:
                assert x <= 0


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_coroots_pair_to_two_with_own_root(t):
    d = reference_datum(t)
    for root, cr in zip(d.positive_roots, d.coroots):
        wc = root_weight_coords(d, root)
        assert sum(a * b for a, b in zip(cr, wc)) == 2


def test_a1_smallest_case():
    d = build_root_datum(CartanType("A", 1))
    assert cartan_matrix(CartanType("A", 1)) == ((2,),)
    assert d.positive_roots == ((1,),)
    assert d.length_class == ("long",)


def test_b2_two_long_two_short():
    # reflection closure by hand: a1, a2, a1+a2, a1+2a2
    d = build_root_datum(CartanType("B", 2))
    assert d.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))
    assert sorted(d.length_class) == ["long", "long", "short", "short"]


def test_d6_thirty_roots_one_class():
    d = build_root_datum(CartanType("D", 6))
    assert len(d.positive_roots) == 30
    assert set(d.length_class) == {"long"}


@pytest.mark.parametrize(
    "family,rank,minr",
    [("A", 0, 1), ("B", 1, 2), ("C", 1, 2), ("D", 2, 3)],
)
def test_rank_bounds_rejected(family, rank, minr):
    with pytest.raises(InvalidCartanType):
        CartanType(family, rank)


def test_fixed_rank_families():
    with pytest.raises(InvalidCartanType):
        CartanType("E6", 5)
    with pytest.raises(InvalidCartanType):
        CartanType("Q", 3)


def _pairing(d, w, i):
    return pair_with_coroot(d.coroots[i], w.coords)


def test_pairing_a1_fundamental():
    d = reference_datum(CartanType("A", 1))
    assert _pairing(d, Weight((1,)), 0) == 1


def test_pairing_b3_spin_against_highest_root():
    # hand computation in epsilon coordinates: mu = (1/2,1/2,1/2), theta = e1+e2
    d = reference_datum(CartanType("B", 3))
    theta = max(range(len(d.positive_roots)), key=lambda i: sum(d.positive_roots[i]))
    assert d.positive_roots[theta] == (1, 2, 2)
    assert _pairing(d, Weight((0, 0, 1)), theta) == 1


def test_weight_has_slots_and_no_dict():
    assert not hasattr(Weight((1, 0)), "__dict__")


def test_pairing_zero_weight():
    d = reference_datum(CartanType("C", 4))
    for i in range(len(d.coroots)):
        assert _pairing(d, Weight((0, 0, 0, 0)), i) == 0


@given(st.data())
def test_pairing_linear(data):
    t = data.draw(st.sampled_from(SMALL_TYPES))
    d = reference_datum(t)
    coords = st.tuples(*[st.integers(-3, 3)] * t.rank)
    w1 = Weight(data.draw(coords))
    w2 = Weight(data.draw(coords))
    i = data.draw(st.integers(0, len(d.coroots) - 1))
    w12 = Weight(tuple(map(add, w1.coords, w2.coords)))
    assert _pairing(d, w12, i) == _pairing(d, w1, i) + _pairing(d, w2, i)


def test_orbit_a1():
    d = reference_datum(CartanType("A", 1))
    orb = weyl_orbit(d, Weight((1,)))
    assert {w.coords for w in orb} == {(1,), (-1,)}


def test_orbit_a5_middle():
    d = reference_datum(CartanType("A", 5))
    assert len(weyl_orbit(d, Weight((0, 0, 1, 0, 0)))) == 20


def test_orbit_b4_spin():
    d = reference_datum(CartanType("B", 4))
    assert len(weyl_orbit(d, Weight((0, 0, 0, 1)))) == 16


def test_orbit_requires_dominant():
    d = reference_datum(CartanType("A", 2))
    with pytest.raises(PreconditionError):
        weyl_orbit(d, Weight((-1, 0)))


def test_orbit_deterministic_and_sorted():
    d = reference_datum(CartanType("B", 3))
    orb1 = weyl_orbit(d, Weight((0, 0, 1)))
    orb2 = weyl_orbit(d, Weight((0, 0, 1)))
    assert orb1 == orb2
    assert list(orb1) == sorted(orb1, key=lambda w: w.coords)


DOMINANT_SMALL = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@given(st.sampled_from(SMALL_TYPES), st.data())
def test_orbit_closed_under_simple_reflections(t, data):
    d = reference_datum(t)
    coords = data.draw(st.tuples(*[st.integers(0, 2)] * t.rank))
    w = Weight(coords if any(coords) else (1,) + (0,) * (t.rank - 1))
    orb = set(weyl_orbit(d, w))
    for mu in orb:
        for i in range(t.rank):
            assert simple_reflection(d, mu, i) in orb


@given(st.sampled_from(SMALL_TYPES), st.data())
def test_orbit_closed_under_all_root_reflections(t, data):
    d = reference_datum(t)
    coords = data.draw(st.tuples(*[st.integers(0, 1)] * t.rank))
    w = Weight(coords if any(coords) else (1,) + (0,) * (t.rank - 1))
    orb = set(weyl_orbit(d, w))
    for mu in orb:
        for idx in range(len(d.positive_roots)):
            assert reflect_in_root(d, mu, idx) in orb


@given(st.sampled_from(SMALL_TYPES), st.data())
def test_orbit_size_divides_weyl_order(t, data):
    d = reference_datum(t)
    coords = data.draw(st.tuples(*[st.integers(0, 2)] * t.rank))
    w = Weight(coords if any(coords) else (1,) + (0,) * (t.rank - 1))
    order = WEYL_ORDER[t.family](t.rank)
    assert order % len(weyl_orbit(d, w)) == 0


def test_dual_examples():
    assert dual_weight(reference_datum(CartanType("C", 3)), Weight((1, 0, 0))) == Weight((1, 0, 0))
    assert dual_weight(reference_datum(CartanType("A", 4)), Weight((1, 0, 0, 0))) == Weight((0, 0, 0, 1))
    # half-spins swap for odd n
    assert dual_weight(reference_datum(CartanType("D", 5)), Weight((0, 0, 0, 0, 1))) == Weight((0, 0, 0, 1, 0))
    assert dual_weight(reference_datum(CartanType("D", 6)), Weight((0, 0, 0, 0, 0, 1))) == Weight((0, 0, 0, 0, 0, 1))


@given(st.sampled_from(SMALL_TYPES), st.data())
def test_dual_is_involution(t, data):
    d = reference_datum(t)
    coords = data.draw(st.tuples(*[st.integers(0, 2)] * t.rank))
    w = Weight(coords)
    assert dual_weight(d, dual_weight(d, w)) == w


def test_simple_roots_match_cartan_columns():
    # the stated convention: alpha_j in the weight basis is column j of A
    for t in SMALL_TYPES:
        d = reference_datum(t)
        for j in range(t.rank):
            simple = tuple(1 if k == j else 0 for k in range(t.rank))
            assert root_weight_coords(d, simple) == tuple(row[j] for row in d.cartan_matrix)


# --- the closed form against an independent reflection closure ---


REFERENCE_TYPES = (
    [CartanType("A", n) for n in range(1, 26)]
    + [CartanType("B", n) for n in range(2, 26)]
    + [CartanType("C", n) for n in range(2, 41)]
    + [CartanType("D", n) for n in range(3, 26)]
    + [CartanType(f, r) for f, r in (("E6", 6), ("E7", 7), ("F4", 4), ("G2", 2))]
)


def test_closed_form_matches_reflection_closure():
    # the same roots and classes in the same order: the order fixes every
    # root index, and through them the oracle benchmark's digest
    for t in REFERENCE_TYPES:
        if t.is_classical:
            d, ref = build_root_datum(t), reference_datum(t)
            assert (d.positive_roots, d.length_class) == (ref.positive_roots, ref.length_class), t


@pytest.mark.parametrize("t", [t for t in REFERENCE_TYPES if not t.is_classical], ids=str)
def test_exceptional_root_datum_is_refused_by_name(t):
    with pytest.raises(PreconditionError, match=f"root datums are built for classical types only, not {t}"):
        build_root_datum(t)


@pytest.mark.parametrize("t", REFERENCE_TYPES[::7], ids=str)
def test_highest_coroot_and_two_rho_coroot(t):
    # the highest coroot is the one positive coroot of largest height, and
    # 2 rho_coroot is the sum of all positive coroots
    d = reference_datum(t)
    heights = [sum(cr) for cr in d.coroots]
    assert heights.count(max(heights)) == 1
    highest_coroot = d.coroots[heights.index(max(heights))]
    two_rho_coroot = tuple(map(sum, zip(*d.coroots)))
    # <alpha_i, beta_coroot> = sum_j beta_coroot_j a_ji: theta_coroot is dominant
    # for the dual system and every simple root pairs to 2 with 2 rho_coroot
    a = d.cartan_matrix
    for i in range(d.rank):
        assert sum(x * a[j][i] for j, x in enumerate(highest_coroot)) >= 0
        assert sum(x * a[j][i] for j, x in enumerate(two_rho_coroot)) == 2


# --- the downward orbit walk against an independent breadth-first closure ---


def _bfs_orbit(d, w):
    """Orbit of a dominant weight by closing it under every simple reflection,
    upward and downward, with one set of every weight seen."""
    n = d.rank
    cols = [tuple(row[i] for row in d.cartan_matrix) for i in range(n)]
    seen = {w.coords}
    frontier = [w.coords]
    while frontier:
        new = []
        for mu in frontier:
            for i in range(n):
                ci = mu[i]
                if ci == 0:
                    continue
                col = cols[i]
                nu = tuple(mu[k] - ci * col[k] for k in range(n))
                if nu not in seen:
                    seen.add(nu)
                    new.append(nu)
        frontier = new
    return tuple(Weight(c) for c in sorted(seen))


RANK_4_TYPES = (
    [CartanType("A", n) for n in range(1, 5)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 5)]
    + [CartanType("D", n) for n in (3, 4)]
    + [CartanType("F4", 4), CartanType("G2", 2)]
)

FUNDAMENTAL_ORBIT_TYPES = (
    [CartanType(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 11)]
    + [CartanType("E6", 6), CartanType("E7", 7)]
)


@pytest.mark.parametrize("t", RANK_4_TYPES, ids=str)
def test_downward_walk_matches_bfs_on_small_dominant_weights(t):
    d = reference_datum(t)
    for coords in product(range(3), repeat=t.rank):
        if any(coords):
            w = Weight(coords)
            assert weyl_orbit(d, w) == _bfs_orbit(d, w), (t, coords)


@pytest.mark.parametrize("t", FUNDAMENTAL_ORBIT_TYPES, ids=str)
def test_downward_walk_matches_bfs_on_fundamental_weights(t):
    d = reference_datum(t)
    for i in range(t.rank):
        w = Weight(tuple(int(k == i) for k in range(t.rank)))
        assert weyl_orbit(d, w) == _bfs_orbit(d, w), (t, i + 1)


def test_dual_weight_negates_the_antidominant_orbit_weight():
    # reference: the one orbit weight with no positive coordinate
    def antidominant(d, w):
        (low,) = [mu for mu in weyl_orbit(d, w) if max(mu.coords) <= 0]
        return Weight(tuple(-x for x in low.coords))

    for t in RANK_4_TYPES:
        d = reference_datum(t)
        for coords in product(range(2), repeat=t.rank):
            w = Weight(coords)
            assert dual_weight(d, w) == antidominant(d, w), (t, coords)
    for t in FUNDAMENTAL_ORBIT_TYPES:
        if t.rank > 7:
            continue
        d = reference_datum(t)
        for i in range(t.rank):
            w = Weight(tuple(int(k == i) for k in range(t.rank)))
            assert dual_weight(d, w) == antidominant(d, w), (t, i + 1)


def test_weyl_dimension_small_cases():
    # the reference Weyl formula on textbook dimensions: the adjoint of A2 (8),
    # the 7-dimensional rep of G2, the 26 of F4, the 27 of E6
    assert weyl_dimension(reference_datum(CartanType("A", 2)), Weight((1, 1))) == 8
    assert weyl_dimension(reference_datum(CartanType("G2", 2)), Weight((1, 0))) == 7
    assert weyl_dimension(reference_datum(CartanType("F4", 4)), Weight((0, 0, 0, 1))) == 26
    assert weyl_dimension(reference_datum(CartanType("E6", 6)), Weight((1,) + (0,) * 5)) == 27
    assert weyl_dimension(reference_datum(CartanType("B", 3)), Weight((0, 0, 0))) == 1


CLASSICAL_TO_RANK_8 = [CartanType(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                       for n in range(lo, 9)]


@pytest.mark.parametrize("t", CLASSICAL_TO_RANK_8, ids=str)
def test_every_positive_root_mnemonic_resolves_and_nothing_else(t):
    d = build_root_datum(t)
    simple = bourbaki_simple_roots(t)
    m = len(simple[0])
    roots = set()
    for root in d.positive_roots:
        eps = tuple(sum(c * s[j] for c, s in zip(root, simple)) for j in range(m))
        assert _epsilon_vector(t, root) == eps
        roots.add(eps)
        assert _positive_root(t, epsilon_spec(eps)) == eps
    assert len(roots) == len(d.positive_roots)
    if m <= 5:
        for v in product(range(-2, 3), repeat=m):
            if v not in roots:
                with pytest.raises(PreconditionError, match="is not a positive root"):
                    _positive_root(t, epsilon_spec(v))


@pytest.mark.parametrize("t", [t for t in CLASSICAL_TO_RANK_8 if t.rank <= 5], ids=str)
def test_positive_root_accepts_exactly_the_reference_positive_roots(t):
    # the closed-form check against the reflection closure, on every epsilon
    # vector with entries in [-2, 2] and at most three nonzero entries
    expected = set(reference_epsilon_roots(t))
    accepted = set()
    for v in product(range(-2, 3), repeat=t.rank + (t.family == "A")):
        if sum(map(bool, v)) <= 3:
            try:
                assert _positive_root(t, epsilon_spec(v)) == v
                accepted.add(v)
            except PreconditionError as exc:
                assert str(exc) == f"{epsilon_spec(v)!r} is not a positive root of {t}"
    assert accepted == expected


CLASSICAL_TO_RANK_12 = [CartanType(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                        for n in range(lo, 13)]


def test_epsilon_vector_and_simple_root_coords_are_inverse_to_rank_12():
    # the forward map on every positive root, the inverse on its image; an
    # epsilon vector of a classical root has one or two nonzero entries
    for t in CLASSICAL_TO_RANK_12:
        d = build_root_datum(t)
        for root in d.positive_roots:
            v = _epsilon_vector(t, root)
            assert _simple_root_coords(t, v) == root, (t, root)
            assert 1 <= sum(map(bool, v)) <= 2, (t, root)
        simple = [tuple(int(k == i) for k in range(t.rank)) for i in range(t.rank)]
        assert [_epsilon_vector(t, c) for c in simple] == bourbaki_simple_roots(t), t
