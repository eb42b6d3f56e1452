"""Drop computations and the symplectic-minuscule classifier."""

from dataclasses import FrozenInstanceError
from functools import partial
from math import comb

import pytest

from mtkit import (
    Candidate,
    CandidateList,
    CartanType,
    NoSuchLengthClass,
    PreconditionError,
    classify_symplectic_minuscule,
    drop_spectrum,
    enumerate_minuscule,
    minuscule_rep,
    root_element_drop,
)
from mtkit.roots import pair_with_coroot


def test_drop_report_and_candidate_list_are_frozen():
    report = drop_spectrum(minuscule_rep(CartanType("B", 3), 3))
    with pytest.raises(FrozenInstanceError):
        report.per_length_class = {}
    for field in (report.per_length_class, report.quadratic):
        with pytest.raises(TypeError):
            field["long"] = 0
    assert report.per_length_class == {"long": 2, "short": 4}
    found = classify_symplectic_minuscule(20)
    with pytest.raises(FrozenInstanceError):
        found.candidates = ()


def test_a5_middle_long_drop():
    assert root_element_drop(minuscule_rep(CartanType("A", 5), 3), "long") == 6


def test_c_std_long_drop_is_transvection():
    for g in (2, 3, 5, 8, 12):
        assert root_element_drop(minuscule_rep(CartanType("C", g), 1), "long") == 1


def test_b5_spin_both_classes():
    rep = minuscule_rep(CartanType("B", 5), 5)
    assert root_element_drop(rep, "short") == 16
    assert root_element_drop(rep, "long") == 8


def test_d6_halfspin_long_drop():
    assert root_element_drop(minuscule_rep(CartanType("D", 6), 6), "long") == 8


def test_c4_std_spectrum():
    report = drop_spectrum(minuscule_rep(CartanType("C", 4), 1))
    assert report.per_length_class == {"long": 1, "short": 2}
    assert report.quadratic == {"long": True, "short": True}


def test_a9_w5_spectrum():
    report = drop_spectrum(minuscule_rep(CartanType("A", 9), 5))
    assert report.per_length_class == {"long": 70}


def test_d6_std_spectrum():
    # Frozen from the defining weight count and the matrix oracle: exactly two
    # orbit weights (e1 and -e2) pair to +1 with the e1-e2 coroot, so the
    # minimal quadratic element of an even orthogonal standard rep has drop 2
    # (orthogonal groups have no transvections).
    report = drop_spectrum(minuscule_rep(CartanType("D", 6), 1))
    assert report.per_length_class == {"long": 2}


def test_missing_class_raises():
    rep = minuscule_rep(CartanType("A", 5), 3)
    with pytest.raises(NoSuchLengthClass):
        root_element_drop(rep, "short")
    with pytest.raises(NoSuchLengthClass):
        root_element_drop(rep, "medium")


def test_drop_bounds_when_quadratic():
    for t, j in [
        (CartanType("A", 6), 3), (CartanType("B", 5), 5),
        (CartanType("C", 6), 1), (CartanType("D", 5), 5),
    ]:
        rep = minuscule_rep(t, j)
        for cls, drop in drop_spectrum(rep).per_length_class.items():
            assert 1 <= drop <= rep.dimension // 2


def _weight_count(orbit_coords, coroot):
    # the drop by definition: orbit weights pairing to +1 with the coroot
    return list(map(partial(pair_with_coroot, coroot), orbit_coords)).count(1)


def test_representative_independence_up_to_rank_12():
    # every root of a length class gives the same orbit weight count, and the
    # closed form dim * N1 / (2 N+) divides exactly and equals it, on all 152
    # classical (rep, class) pairs up to rank 12
    types = (
        [CartanType("A", n) for n in range(1, 13)]
        + [CartanType("B", n) for n in range(2, 13)]
        + [CartanType("C", n) for n in range(2, 13)]
        + [CartanType("D", n) for n in range(3, 13)]
    )
    pairs = 0
    for t in types:
        for rep in enumerate_minuscule(t):
            d = rep.datum
            orbit_coords = [mu.coords for mu in rep.orbit]
            counts = {}
            for cr, cls in zip(d.coroots, d.length_class):
                counts.setdefault(cls, set()).add(_weight_count(orbit_coords, cr))
            for cls, seen in counts.items():
                assert len(seen) == 1, (t, rep.name, cls, seen)
                n_pos = d.length_class.count(cls)
                n_1 = sum(pair_with_coroot(cr, rep.highest_weight.coords) == 1
                          for cr, c in zip(d.coroots, d.length_class) if c == cls)
                assert rep.dimension * n_1 % (2 * n_pos) == 0, (t, rep.name, cls)
                assert seen == {root_element_drop(rep, cls)}
                pairs += 1
    assert pairs == 152


def _pairs(cl: CandidateList):
    return [(str(c.cartan_type), c.name) for c in cl.candidates]


def test_classify_20():
    assert _pairs(classify_symplectic_minuscule(20)) == [("A5", "Λ^3 Std"), ("C10", "Std")]


def test_classify_32():
    assert _pairs(classify_symplectic_minuscule(32)) == [
        ("B5", "Spin"), ("C16", "Std"), ("D6", "Spin-"), ("D6", "Spin+"),
    ]


def test_classify_8_excludes_orthogonal_spins():
    # B3 spin and D4 half-spins have sign +1 and must not appear
    assert _pairs(classify_symplectic_minuscule(8)) == [("C4", "Std")]


def test_classify_candidates_really_are_symplectic_of_that_dimension():
    for two_g in (2, 4, 6, 8, 12, 16, 20, 32, 64):
        cl = classify_symplectic_minuscule(two_g)
        for c in cl.candidates:
            rep = minuscule_rep(c.cartan_type, c.weight_index)
            assert rep.dimension == two_g
            assert rep.sign == -1


def _classify_reference(two_g):
    """Reference classifier: every family, C included, is built and filtered
    through enumerate_minuscule's dimension and sign; the A walk starts at 1."""
    scan = []
    j = 1
    while (central := comb(2 * j, j)) <= two_g:
        if central == two_g:
            scan.append(("A", 2 * j - 1, j))
        j += 1
    m = two_g.bit_length() - 1 if two_g & (two_g - 1) == 0 else None
    if m is not None and m >= 2:
        scan.append(("B", m, m))
    if two_g >= 4:
        scan.append(("C", two_g // 2, two_g // 2))
    if m is not None and m + 1 >= 3:
        scan.append(("D", m + 1, m + 1))
    found = []
    for family, rank, witness in sorted(scan):
        for rep in enumerate_minuscule(CartanType(family, rank)):
            if rep.dimension == two_g and rep.sign == -1:
                found.append(Candidate(rep.cartan_type, rep.weight_index, rep.name,
                                       witness if family != "A" else rep.weight_index))
    return CandidateList(two_g=two_g, candidates=tuple(found))


def test_classify_closed_form_c_row_matches_the_full_scan():
    for two_g in range(2, 129, 2):
        assert classify_symplectic_minuscule(two_g) == _classify_reference(two_g), two_g


def test_classify_rejects_odd():
    with pytest.raises(PreconditionError):
        classify_symplectic_minuscule(7)
    with pytest.raises(PreconditionError):
        classify_symplectic_minuscule(0)


def _symplectic_reps_up_to_dim(max_dim, c_ranks):
    """All symplectic minuscule reps of dimension <= max_dim.

    A: central-binomial middle powers; B: spins to 2^n <= max_dim; D: spins;
    C: the supplied rank list (the C family contributes one transvection rep
    per even dimension, so the sweep is capped and spot-checked).
    """
    reps = []
    j = 1
    while comb(2 * j, j) <= max_dim:
        reps.extend(enumerate_minuscule(CartanType("A", 2 * j - 1)))
        j += 1
    n = 2
    while 2**n <= max_dim:
        reps.extend(enumerate_minuscule(CartanType("B", n)))
        n += 1
    n = 3
    while 2 ** (n - 1) <= max_dim:
        reps.extend(enumerate_minuscule(CartanType("D", n)))
        n += 1
    for n in c_ranks:
        reps.extend(enumerate_minuscule(CartanType("C", n)))
    return [r for r in reps if r.sign == -1 and r.dimension <= max_dim]


# Spin_5 = Sp_4 and SL_2 = Sp_2: these reps are the symplectic standard
# representation in disguise, so their transvection classes are expected.
_SP_STD_IN_DISGUISE = {("A", 1, 1), ("B", 2, 2)}


def test_hall_consistency_drop_one_only_for_symplectic_std():
    # exhaustive for A/B/D up to dim 256; C exhaustive to rank 32 plus spot
    # ranks covering the upper dimension range
    reps = _symplectic_reps_up_to_dim(256, list(range(2, 33)) + [48, 64, 128])
    for rep in reps:
        t = rep.cartan_type
        is_sp_std = (t.family == "C" and rep.weight_index == 1) or (
            (t.family, t.rank, rep.weight_index) in _SP_STD_IN_DISGUISE
        )
        for cls, drop in drop_spectrum(rep).per_length_class.items():
            if drop == 1:
                assert is_sp_std, (t, rep.name, cls)


def test_minimal_drop_floor_six_outside_symplectic_std():
    reps = _symplectic_reps_up_to_dim(256, list(range(2, 33)))
    for rep in reps:
        t = rep.cartan_type
        if t.family == "C" or (t.family, t.rank, rep.weight_index) in _SP_STD_IN_DISGUISE:
            continue
        for drop in drop_spectrum(rep).per_length_class.values():
            assert drop >= 6, (t, rep.name)
