"""Minuscule detection, enumeration, dimensions and signs."""

from itertools import product
from math import comb

import pytest

from mtkit import (
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
)
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
            for cls in d.classes:
                assert rep.quadratic_classes[cls] is True


def test_closed_form_dimensions_to_rank_six():
    for n in range(1, 7):
        for rep in enumerate_minuscule(CartanType("A", n)):
            assert rep.dimension == comb(n + 1, rep.weight_index)
    for n in range(2, 7):
        (rep,) = enumerate_minuscule(CartanType("B", n))
        assert (rep.weight_index, rep.dimension) == (n, 2**n)
        (rep,) = enumerate_minuscule(CartanType("C", n))
        assert (rep.weight_index, rep.dimension) == (1, 2 * n)
    for n in range(3, 7):
        std, minus, plus = enumerate_minuscule(CartanType("D", n))
        assert (std.weight_index, std.dimension) == (1, 2 * n)
        assert (minus.weight_index, minus.dimension) == (n - 1, 2 ** (n - 1))
        assert (plus.weight_index, plus.dimension) == (n, 2 ** (n - 1))


def test_quadratic_classes_is_read_only():
    rep = minuscule_rep(CartanType("C", 3), 1)
    with pytest.raises(TypeError):
        rep.quadratic_classes["long"] = False
    assert drop_spectrum(rep).quadratic == {"long": True, "short": True}


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
