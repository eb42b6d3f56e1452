"""The minuscule table and its weights: enumeration, dimensions and signs, held against the root datum."""

from dataclasses import FrozenInstanceError
from itertools import product
from math import comb

import pytest

from conftest import (
    Weight,
    coroot_pairings,
    dual_weight,
    fundamental,
    reference_datum,
    reference_orbit,
    scan_duality_sign,
    scan_is_minuscule,
    to_fundamental,
    weyl_dimension,
    weyl_orbit,
)
from mtkit import (
    MATRIX_BUDGET,
    CartanType,
    PreconditionError,
    build_root_datum,
    enumerate_minuscule,
    minuscule_rep,
)
from mtkit import minuscule
from mtkit.drops import drop_spectrum


def test_is_minuscule_c3_std():
    d = reference_datum(CartanType("C", 3))
    assert scan_is_minuscule(d, Weight((1, 0, 0)))
    assert [rep.weight_index for rep in enumerate_minuscule(CartanType("C", 3))] == [1]


def test_is_minuscule_rejects_doubled_weight():
    # the reference scan sees <2 w1, theta_coroot> = 2
    d = reference_datum(CartanType("A", 3))
    assert not scan_is_minuscule(d, Weight((2, 0, 0)))


def test_f4_has_no_minuscule_weight():
    d = reference_datum(CartanType("F4", 4))
    assert not any(scan_is_minuscule(d, fundamental(4, j)) for j in range(1, 5))
    assert enumerate_minuscule(CartanType("F4", 4)) == []


def test_g2_has_no_minuscule_weight():
    d = reference_datum(CartanType("G2", 2))
    assert not scan_is_minuscule(d, Weight((1, 0)))
    assert not scan_is_minuscule(d, Weight((0, 1)))
    assert enumerate_minuscule(CartanType("G2", 2)) == []


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
        t = CartanType("C", n)
        assert minuscule_rep(t, 1).sign == -1
        assert scan_duality_sign(reference_datum(t), fundamental(n, 1)) == -1


def test_sign_a3_w2_orthogonal():
    assert minuscule_rep(CartanType("A", 3), 2).sign == 1
    assert scan_duality_sign(reference_datum(CartanType("A", 3)), Weight((0, 1, 0))) == 1


def test_sign_b5_spin_symplectic():
    assert minuscule_rep(CartanType("B", 5), 5).sign == -1
    assert scan_duality_sign(reference_datum(CartanType("B", 5)), fundamental(5, 5)) == -1


def test_sign_rejects_non_minuscule():
    with pytest.raises(PreconditionError, match="w1 is not minuscule for B3"):
        minuscule_rep(CartanType("B", 3), 1)


def test_rep_invariants_small_sweep():
    for t in [CartanType("A", 4), CartanType("B", 3), CartanType("C", 4), CartanType("D", 4)]:
        d = reference_datum(t)
        for rep in enumerate_minuscule(t):
            w = fundamental(t.rank, rep.weight_index)
            assert rep.dimension == len(rep.orbit)
            assert (rep.sign == 0) == (dual_weight(d, w) != w)
            # minuscule orbits pair into {-1, 0, 1} with every coroot, both classes
            for mu in rep.orbit:
                assert set(coroot_pairings(d, Weight(to_fundamental(t, mu)))) <= {-1, 0, 1}


CLASSICAL_TYPES_TO_RANK_14 = (
    [CartanType("A", n) for n in range(1, 15)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 15)]
    + [CartanType("D", n) for n in range(3, 15)]
)


@pytest.mark.parametrize("t", CLASSICAL_TYPES_TO_RANK_14, ids=str)
def test_closed_form_signs_match_the_datum_path_to_rank_14(t):
    # the closed-form sign against the dual weight and the 2 rho_coroot
    # parity on the root datum, for every minuscule weight of the type
    reps = enumerate_minuscule(t)
    assert reps
    for rep in reps:
        d, w = reference_datum(t), fundamental(t.rank, rep.weight_index)
        assert (rep.sign == 0) == (dual_weight(d, w) != w), (t, rep.name)
        assert rep.sign == scan_duality_sign(d, w), (t, rep.name)


def _assert_orbit_size(rep, closed_form):
    # the walked orbit and Weyl's formula; the listed weights up to MATRIX_BUDGET
    assert len(reference_orbit(rep)) == rep.dimension == closed_form
    w = fundamental(rep.cartan_type.rank, rep.weight_index)
    assert weyl_dimension(reference_datum(rep.cartan_type), w) == closed_form
    if rep.cartan_type.is_classical and closed_form <= MATRIX_BUDGET:
        assert len(rep.orbit) == closed_form


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


EXCEPTIONAL_TYPES = [CartanType(f, r) for f, r in (("E6", 6), ("E7", 7), ("F4", 4), ("G2", 2))]


@pytest.mark.parametrize("t", EXCEPTIONAL_TYPES, ids=str)
def test_exceptional_constant_rows_match_the_datum(t):
    # the constant rows against the root datum: the minuscule indices from the
    # coroot scan of every fundamental weight, the sign from the dual weight
    # and the coroot-sum parity, the dimension from the orbit and Weyl's formula
    d = reference_datum(t)
    weights = {j: fundamental(t.rank, j) for j in range(1, t.rank + 1)}
    expected = [(j, weyl_dimension(d, w), scan_duality_sign(d, w))
                for j, w in weights.items() if scan_is_minuscule(d, w)]
    reps = enumerate_minuscule(t)
    assert [(rep.weight_index, rep.dimension, rep.sign) for rep in reps] == expected
    for rep in reps:
        assert len(weyl_orbit(d, weights[rep.weight_index])) == rep.dimension


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


def test_orbit_is_built_once_sorted_and_leaves_equality_alone():
    rep = minuscule_rep(CartanType("D", 5), 5)
    fresh = minuscule_rep(CartanType("D", 5), 5)
    orbit = rep.orbit
    assert rep.orbit is orbit
    # sorted on coordinates: build_root_element pairs the weights it moves by position
    assert list(orbit) == sorted(orbit)
    assert "orbit" not in vars(fresh)
    assert rep == fresh and hash(rep) == hash(fresh)


def _no_expansion(t, j):
    raise AssertionError(f"listed the weights of w{j} of {t}")


def test_orbit_budget_rejects_before_expanding(monkeypatch):
    assert MATRIX_BUDGET == 4096
    # B12 spin has exactly 2^12 weights; B13 spin has twice the budget
    assert weyl_dimension(reference_datum(CartanType("B", 12)), fundamental(12, 12)) == MATRIX_BUDGET
    assert len(minuscule_rep(CartanType("B", 12), 12).orbit) == MATRIX_BUDGET

    monkeypatch.setattr(minuscule, "_epsilon_weights", _no_expansion)
    rep = minuscule_rep(CartanType("B", 13), 13)
    assert (rep.dimension, rep.sign) == (2**13, -1)
    with pytest.raises(PreconditionError, match=f"matrix budget of {MATRIX_BUDGET} weights"):
        rep.orbit


def test_orbit_budget_holds_per_type(monkeypatch):
    # A14: w1 to w5 fit the budget, w6 (C(15, 6) = 5005 weights) does not;
    # enumerating A14 lists no weights, and reading w6's weights is refused
    monkeypatch.setattr(minuscule, "_epsilon_weights", _no_expansion)
    reps = enumerate_minuscule(CartanType("A", 14))
    assert [r.dimension for r in reps] == [comb(15, k) for k in range(1, 15)]
    assert [r.weight_index for r in reps if r.dimension <= MATRIX_BUDGET] == list(range(1, 6)) + list(range(10, 15))
    with pytest.raises(PreconditionError, match="w6 of A14 has 5005 weights"):
        reps[5].orbit


def test_orbit_budget_holds_across_types(monkeypatch):
    # A13 fits the budget and B13 spin (2^13 weights) does not: enumerating
    # the whole sequence lists no weights and builds no root datum, and the
    # refusal of B13's weights builds none either
    built = []

    def counting_datum(t):
        built.append(t)
        return build_root_datum(t)

    monkeypatch.setattr(minuscule, "_epsilon_weights", _no_expansion)
    monkeypatch.setattr(minuscule, "build_root_datum", counting_datum)
    types = [CartanType(f, n) for f in "AB" for n in range(2, 14)]
    reps = [r for t in types for r in enumerate_minuscule(t)]
    assert built == []
    over = [r for r in reps if r.dimension > MATRIX_BUDGET]
    assert [(r.cartan_type, r.weight_index) for r in over] == [(CartanType("B", 13), 13)]
    with pytest.raises(PreconditionError, match="w13 of B13 has 8192 weights"):
        over[0].orbit
    assert built == []


def test_orbit_is_expanded_once_on_first_read(monkeypatch):
    calls = []

    def counting_weights(t, j):
        calls.append((t, j))
        return epsilon_weights(t, j)

    epsilon_weights = minuscule._epsilon_weights
    monkeypatch.setattr(minuscule, "_epsilon_weights", counting_weights)
    rep = minuscule_rep(CartanType("D", 5), 5)
    assert calls == []
    assert rep.orbit is rep.orbit and len(rep.orbit) == rep.dimension == 16
    assert calls == [(CartanType("D", 5), 5)]


@pytest.mark.parametrize("t", [CartanType("E6", 6), CartanType("E7", 7)], ids=str)
def test_exceptional_weights_are_refused_by_name_before_any_is_listed(t, monkeypatch):
    monkeypatch.setattr(minuscule, "_epsilon_weights", _no_expansion)
    for rep in enumerate_minuscule(t):
        with pytest.raises(PreconditionError, match=f"classical types only, not {t}"):
            rep.orbit


CLASSICAL_REPS_TO_RANK_12 = [
    rep for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 13)
    for rep in enumerate_minuscule(CartanType(f, n))
]


def test_closed_form_weights_are_the_walked_orbit_to_rank_12():
    # every classical minuscule rep to rank 12 (all within MATRIX_BUDGET, the
    # largest being B12 spin): the doubled epsilon weights, read in
    # fundamental-weight coordinates, are the orbit walked down from the
    # highest weight
    for rep in CLASSICAL_REPS_TO_RANK_12:
        walked = [mu.coords for mu in reference_orbit(rep)]
        listed = sorted(to_fundamental(rep.cartan_type, mu) for mu in rep.orbit)
        assert listed == walked, (rep.cartan_type, rep.name)


# --- the table against a scan of all coroots of the root datum ---


def _assert_rows_match_scan(t, weights):
    # every weight the scan finds minuscule is a row, with the scan's sign;
    # every row is found (each caller's weights include all fundamental ones)
    d = reference_datum(t)
    found = {w: scan_duality_sign(d, w) for w in weights if scan_is_minuscule(d, w)}
    assert found == {fundamental(t.rank, rep.weight_index): rep.sign
                     for rep in enumerate_minuscule(t)}, t


SMALL_RANK_TYPES = (
    [CartanType("A", n) for n in range(1, 5)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 5)]
    + [CartanType("D", n) for n in (3, 4)]
    + [CartanType("F4", 4), CartanType("G2", 2)]
)


@pytest.mark.parametrize("t", SMALL_RANK_TYPES, ids=str)
def test_every_small_dominant_weight_matches_coroot_scan(t):
    _assert_rows_match_scan(t, [Weight(c) for c in product(range(3), repeat=t.rank) if any(c)])


@pytest.mark.parametrize("t", [CartanType("E6", 6), CartanType("E7", 7)], ids=str)
def test_every_0_1_weight_of_e6_e7_matches_coroot_scan(t):
    _assert_rows_match_scan(t, [Weight(c) for c in product(range(2), repeat=t.rank) if any(c)])


FUNDAMENTAL_TYPES = (
    [CartanType("A", n) for n in range(1, 13)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 13)]
    + [CartanType("D", n) for n in range(3, 13)]
    + EXCEPTIONAL_TYPES
)


def test_every_fundamental_weight_to_rank_12_matches_coroot_scan():
    for t in FUNDAMENTAL_TYPES:
        _assert_rows_match_scan(t, [fundamental(t.rank, j) for j in range(1, t.rank + 1)])
