"""Minuscule detection, enumeration, dimensions and signs."""

from dataclasses import FrozenInstanceError
from itertools import product
from math import comb

import pytest

from mtkit import (
    ORBIT_BUDGET,
    CartanType,
    PreconditionError,
    Weight,
    build_root_datum,
    dual_weight,
    duality_sign,
    enumerate_minuscule,
    is_minuscule,
    minuscule_rep,
    pairing,
    weyl_dimension,
    weyl_orbit,
)
from mtkit import minuscule
from mtkit.drops import drop_spectrum


def test_is_minuscule_c3_std():
    d = build_root_datum(CartanType("C", 3))
    assert is_minuscule(d, Weight((1, 0, 0)))


def test_is_minuscule_rejects_doubled_weight():
    d = build_root_datum(CartanType("A", 3))
    assert not is_minuscule(d, Weight((2, 0, 0)))


def test_is_minuscule_zero_weight_rejected():
    d = build_root_datum(CartanType("A", 3))
    with pytest.raises(PreconditionError):
        is_minuscule(d, Weight((0, 0, 0)))


def test_f4_has_no_minuscule_weight():
    d = build_root_datum(CartanType("F4", 4))
    for i in range(4):
        w = Weight(tuple(1 if k == i else 0 for k in range(4)))
        assert not is_minuscule(d, w)


def test_g2_has_no_minuscule_weight():
    d = build_root_datum(CartanType("G2", 2))
    assert not is_minuscule(d, Weight((1, 0)))
    assert not is_minuscule(d, Weight((0, 1)))


def test_enumerate_b4():
    reps = enumerate_minuscule(CartanType("B", 4))
    assert [(r.name, r.dimension, r.sign) for r in reps] == [("Spin", 16, 1)]


def test_enumerate_c5():
    reps = enumerate_minuscule(CartanType("C", 5))
    assert [(r.name, r.dimension, r.sign) for r in reps] == [("Std", 10, -1)]


def test_enumerate_d6():
    reps = enumerate_minuscule(CartanType("D", 6))
    assert [(r.name, r.dimension, r.sign) for r in reps] == [
        ("Std", 12, 1), ("Spin-", 32, -1), ("Spin+", 32, -1),
    ]


def test_enumerate_exceptional_types():
    e6 = enumerate_minuscule(CartanType("E6", 6))
    assert [(r.weight_index, r.dimension, r.sign) for r in e6] == [(1, 27, 0), (6, 27, 0)]
    e7 = enumerate_minuscule(CartanType("E7", 7))
    assert [(r.weight_index, r.dimension, r.sign) for r in e7] == [(7, 56, -1)]
    assert enumerate_minuscule(CartanType("F4", 4)) == []
    assert enumerate_minuscule(CartanType("G2", 2)) == []


def test_sign_c_family_always_symplectic():
    for n in range(2, 9):
        d = build_root_datum(CartanType("C", n))
        assert duality_sign(d, Weight((1,) + (0,) * (n - 1))) == -1


def test_sign_a3_w2_orthogonal():
    d = build_root_datum(CartanType("A", 3))
    assert duality_sign(d, Weight((0, 1, 0))) == 1


def test_sign_b5_spin_symplectic():
    d = build_root_datum(CartanType("B", 5))
    assert duality_sign(d, Weight((0, 0, 0, 0, 1))) == -1


def test_sign_rejects_non_minuscule():
    d = build_root_datum(CartanType("B", 3))
    with pytest.raises(PreconditionError):
        duality_sign(d, Weight((1, 0, 0)))


def test_rep_invariants_small_sweep():
    for t in [CartanType("A", 4), CartanType("B", 3), CartanType("C", 4), CartanType("D", 4)]:
        d = build_root_datum(t)
        for rep in enumerate_minuscule(t):
            assert rep.dimension == len(rep.orbit)
            assert (rep.sign == 0) == (dual_weight(d, rep.highest_weight) != rep.highest_weight)
            # minuscule orbits pair into {-1, 0, 1} with every coroot, both classes
            for mu in rep.orbit:
                for i in range(len(d.coroots)):
                    assert pairing(d, mu, i) in (-1, 0, 1)


def _assert_orbit_size(rep, closed_form):
    assert len(rep.orbit) == rep.dimension == closed_form
    assert weyl_dimension(rep.datum, rep.highest_weight) == closed_form


def test_closed_form_and_weyl_dimensions_to_rank_14():
    for n in range(1, 15):
        for rep in enumerate_minuscule(CartanType("A", n)):
            _assert_orbit_size(rep, comb(n + 1, rep.weight_index))
    for n in range(2, 15):
        (rep,) = enumerate_minuscule(CartanType("B", n))
        assert rep.weight_index == n
        _assert_orbit_size(rep, 2**n)
        (rep,) = enumerate_minuscule(CartanType("C", n))
        assert rep.weight_index == 1
        _assert_orbit_size(rep, 2 * n)
    for n in range(3, 15):
        std, minus, plus = enumerate_minuscule(CartanType("D", n))
        assert (std.weight_index, minus.weight_index, plus.weight_index) == (1, n - 1, n)
        _assert_orbit_size(std, 2 * n)
        _assert_orbit_size(minus, 2 ** (n - 1))
        _assert_orbit_size(plus, 2 ** (n - 1))
    for t, dim in ((CartanType("E6", 6), 27), (CartanType("E7", 7), 56)):
        for rep in enumerate_minuscule(t):
            _assert_orbit_size(rep, dim)


def test_quadratic_classes_is_read_only():
    report = drop_spectrum(minuscule_rep(CartanType("C", 3), 1))
    with pytest.raises(TypeError):
        report.quadratic["long"] = False
    assert report.quadratic == {"long": True, "short": True}


def test_minuscule_rep_is_frozen():
    rep = minuscule_rep(CartanType("C", 3), 1)
    with pytest.raises(FrozenInstanceError):
        rep.dimension = 99
    with pytest.raises(FrozenInstanceError):
        rep.sign = 1
    assert (rep.dimension, rep.sign) == (6, -1)


def test_orbit_budget_rejects_before_expanding(monkeypatch):
    assert ORBIT_BUDGET == 2**20
    # B20 spin has exactly 2^20 weights; B21 spin has twice the budget
    assert weyl_dimension(build_root_datum(CartanType("B", 20)), Weight((0,) * 19 + (1,))) == ORBIT_BUDGET

    def no_expansion(d, w):
        raise AssertionError(f"expanded {w} of {d.cartan_type}")

    monkeypatch.setattr(minuscule, "weyl_orbit", no_expansion)
    rep = minuscule_rep(CartanType("B", 21), 21)
    assert (rep.dimension, rep.sign) == (2**21, -1)
    with pytest.raises(PreconditionError, match=f"orbit budget of {ORBIT_BUDGET} weights"):
        rep.orbit


def test_orbit_budget_holds_per_type(monkeypatch):
    # A22: w1 to w9 fit the budget, w10 (C(23, 10) = 1144066 weights) does not;
    # enumerating A22 expands no orbit, and reading w10's orbit is refused
    def no_expansion(d, w):
        raise AssertionError(f"expanded {w} of {d.cartan_type}")

    monkeypatch.setattr(minuscule, "weyl_orbit", no_expansion)
    reps = enumerate_minuscule(CartanType("A", 22))
    assert [r.dimension for r in reps] == [comb(23, k) for k in range(1, 23)]
    assert [r.weight_index for r in reps if r.dimension <= ORBIT_BUDGET] == list(range(1, 10)) + list(range(14, 23))
    with pytest.raises(PreconditionError, match="w10 of A22 has 1144066 weights"):
        reps[9].orbit


def test_orbit_budget_holds_across_types(monkeypatch):
    # A21 fits the budget and B21 spin (2^21 weights) does not: enumerating
    # the whole sequence expands no orbit and builds each root datum once
    built = []

    def no_expansion(d, w):
        raise AssertionError(f"expanded {w} of {d.cartan_type}")

    def counting_datum(t):
        built.append(t)
        return build_root_datum(t)

    monkeypatch.setattr(minuscule, "weyl_orbit", no_expansion)
    monkeypatch.setattr(minuscule, "build_root_datum", counting_datum)
    types = [CartanType(f, n) for f in "AB" for n in range(2, 22)]
    reps = [r for t in types for r in enumerate_minuscule(t)]
    assert built == types
    over = [r for r in reps if r.dimension > ORBIT_BUDGET]
    assert [(r.cartan_type, r.weight_index) for r in over] == [(CartanType("B", 21), 21)]
    with pytest.raises(PreconditionError, match="w21 of B21 has 2097152 weights"):
        over[0].orbit


def test_orbit_is_expanded_once_on_first_read(monkeypatch):
    calls = []

    def counting_orbit(d, w):
        calls.append(w)
        return weyl_orbit(d, w)

    monkeypatch.setattr(minuscule, "weyl_orbit", counting_orbit)
    rep = minuscule_rep(CartanType("D", 5), 5)
    assert calls == []
    assert rep.orbit is rep.orbit and len(rep.orbit) == rep.dimension == 16
    assert calls == [rep.highest_weight]


# --- highest-coroot test and 2 rho_coroot parity against a scan of all coroots ---


def _scan_is_minuscule(d, w):
    return all(pairing(d, w, i) in (0, 1) for i in range(len(d.coroots)))


def _scan_duality_sign(d, w):
    if dual_weight(d, w) != w:
        return 0
    p = sum(pairing(d, w, i) for i in range(len(d.coroots)))
    return -1 if p % 2 else 1


def _assert_matches_scan(d, w):
    if _scan_is_minuscule(d, w):
        assert is_minuscule(d, w), (d.cartan_type, w)
        assert duality_sign(d, w) == _scan_duality_sign(d, w), (d.cartan_type, w)
    else:
        assert not is_minuscule(d, w), (d.cartan_type, w)
        with pytest.raises(PreconditionError):
            duality_sign(d, w)


SMALL_RANK_TYPES = (
    [CartanType("A", n) for n in range(1, 5)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 5)]
    + [CartanType("D", n) for n in (3, 4)]
    + [CartanType("F4", 4), CartanType("G2", 2)]
)


@pytest.mark.parametrize("t", SMALL_RANK_TYPES, ids=str)
def test_every_small_dominant_weight_matches_coroot_scan(t):
    d = build_root_datum(t)
    for coords in product(range(3), repeat=t.rank):
        if any(coords):
            _assert_matches_scan(d, Weight(coords))


@pytest.mark.parametrize("t", [CartanType("E6", 6), CartanType("E7", 7)], ids=str)
def test_every_0_1_weight_of_e6_e7_matches_coroot_scan(t):
    d = build_root_datum(t)
    for coords in product(range(2), repeat=t.rank):
        if any(coords):
            _assert_matches_scan(d, Weight(coords))


FUNDAMENTAL_TYPES = (
    [CartanType("A", n) for n in range(1, 13)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 13)]
    + [CartanType("D", n) for n in range(3, 13)]
    + [CartanType(f, r) for f, r in (("E6", 6), ("E7", 7), ("F4", 4), ("G2", 2))]
)


def test_every_fundamental_weight_to_rank_12_matches_coroot_scan():
    for t in FUNDAMENTAL_TYPES:
        d = build_root_datum(t)
        for i in range(t.rank):
            _assert_matches_scan(d, Weight(tuple(int(k == i) for k in range(t.rank))))
