"""Pink gate, mt_check branching, exceptional enumeration, witness checks."""

from dataclasses import FrozenInstanceError
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtkit import (
    EndoType,
    MtQuery,
    MtVerdict,
    QueryInvalid,
    Status,
    enumerate_exceptional,
    mt_check,
    pink_gate,
)

Z, II, III = EndoType.TRIVIAL_Z, EndoType.QUATERNION_TYPE_II, EndoType.QUATERNION_TYPE_III


def test_pink_gate_examples():
    assert not pink_gate(4).proves  # 2g = 8 = 2^3
    assert not pink_gate(10).proves  # 2g = 20 = C(6,3)
    assert pink_gate(5).proves


def test_pink_gate_reasons_name_the_witness():
    assert "2^3" in pink_gate(4).reason
    assert "C(6, 3)" in pink_gate(10).reason


def test_query_invariants():
    with pytest.raises(QueryInvalid):
        mt_check(MtQuery(0, 0, Z))
    with pytest.raises(QueryInvalid):
        mt_check(MtQuery(5, 6, Z))
    with pytest.raises(QueryInvalid, match="Type II/III requires even s"):
        mt_check(MtQuery(7, 3, II))
    # s = 0 is allowed for II/III, and even s up to g
    mt_check(MtQuery(7, 0, III))


def test_exceptional_10_6():
    v = mt_check(MtQuery(10, 6, Z))
    assert v.status == Status.EXCEPTIONAL_CASE
    assert (v.witness.family, v.witness.parameter) == (1, 3)


def test_proved_10_4():
    v = mt_check(MtQuery(10, 4, Z))
    assert v.status == Status.PROVED_BY_MAIN_THEOREM
    assert v.target_group == "GSp_20"


def test_exceptional_16_8():
    v = mt_check(MtQuery(16, 8, Z))
    assert v.status == Status.EXCEPTIONAL_CASE
    assert (v.witness.family, v.witness.parameter) == (2, 4)


def test_noot_point_4_1():
    v = mt_check(MtQuery(4, 1, Z))
    assert v.status == Status.PROVED_BY_MAIN_THEOREM
    assert v.target_group == "GSp_8"


def test_type_ii_252_140():
    # witness fixed by direct evaluation: C(10,5) = 252, 2*C(8,4) = 140
    v = mt_check(MtQuery(252, 140, II))
    assert v.status == Status.EXCEPTIONAL_CASE
    assert (v.witness.family, v.witness.parameter) == (1, 5)


def test_pink_proves_without_bad_place():
    v = mt_check(MtQuery(5, 0, Z))
    assert v.status == Status.PROVED_BY_PINK
    assert v.target_group == "GSp_10"


def test_s_zero_routes_to_not_covered():
    assert mt_check(MtQuery(4, 0, Z)).status == Status.NOT_COVERED
    assert mt_check(MtQuery(16, 0, II)).status == Status.NOT_COVERED


def test_verdict_is_frozen():
    v = mt_check(MtQuery(10, 6, Z))
    with pytest.raises(FrozenInstanceError):
        v.status = Status.PROVED_BY_PINK


def test_exceptional_phrasing_never_claims_falsity():
    v = mt_check(MtQuery(10, 6, Z))
    assert "not proved by these theorems" in v.explanation
    assert "false" not in v.explanation


def test_type_ii_and_iii_targets():
    v = mt_check(MtQuery(6, 2, II))
    assert (v.status, v.target_group) == (Status.PROVED_BY_THEOREM_41, "GSp_6")
    v = mt_check(MtQuery(10, 2, III))
    assert (v.status, v.target_group) == (Status.PROVED_BY_THEOREM_41, "GSO_10")


def test_type_iii_smallest_family1():
    # even r = 2: g = C(4,2) = 6, s = 2*C(2,1) = 4
    v = mt_check(MtQuery(6, 4, III))
    assert v.status == Status.EXCEPTIONAL_CASE
    assert (v.witness.family, v.witness.parameter) == (1, 2)


def test_enumerate_exceptional_z_300():
    got = [(i.g, i.s, i.family, i.parameter) for i in enumerate_exceptional(300, Z)]
    assert got == [
        (10, 6, 1, 3), (16, 8, 2, 4), (16, 16, 2, 4), (32, 16, 2, 5),
        (32, 32, 2, 5), (126, 70, 1, 5), (256, 128, 2, 8), (256, 256, 2, 8),
    ]


def test_enumerate_exceptional_empty_below_ten():
    assert enumerate_exceptional(9, Z) == ()


def test_enumerate_exceptional_1716():
    inst = [i for i in enumerate_exceptional(2000, Z) if i.family == 1 and i.parameter == 7]
    assert [(i.g, i.s) for i in inst] == [(1716, 924)]


def test_enumerate_exceptional_type_ii_smallest():
    got = [(i.g, i.s, i.family, i.parameter) for i in enumerate_exceptional(64, II)]
    assert got == [(20, 12, 1, 3), (32, 16, 2, 5), (32, 32, 2, 5), (64, 32, 2, 6), (64, 64, 2, 6)]


def test_discrepancy_note_attached_for_84_and_126():
    for g, s in [(84, 70), (126, 70)]:
        v = mt_check(MtQuery(g, s, Z))
        assert any("(126, 70)" in note for note in v.notes)
    inst = next(i for i in enumerate_exceptional(200, Z) if i.g == 126)
    assert inst.notes
    # 84 itself is not exceptional: the equations do not produce it
    assert mt_check(MtQuery(84, 70, Z)).status != Status.EXCEPTIONAL_CASE


def test_family2_congruences_partition_against_signs():
    # each family-2 witness must match a spin rep of the right polarity:
    # Z uses the 2g-dimensional spin of B_{t+1} (symplectic), II the
    # g-dimensional spin of B_t (symplectic), III the same but orthogonal
    from mtkit import CartanType, Weight, build_root_datum, duality_sign

    def spin_sign(n):
        d = build_root_datum(CartanType("B", n))
        return duality_sign(d, Weight(tuple(0 if k < n - 1 else 1 for k in range(n))))

    for endo, bound in ((Z, 2**9), (II, 2**9), (III, 2**9)):
        for inst in enumerate_exceptional(bound, endo):
            if inst.family != 2:
                continue
            t = inst.parameter
            if endo == Z:
                assert spin_sign(t + 1) == -1
            elif endo == II:
                assert spin_sign(t) == -1
            else:
                assert spin_sign(t) == 1


@given(st.integers(1, 3000), st.integers(0, 40), st.sampled_from([Z, II, III]))
def test_verdict_serialization_round_trip(g, s, endo):
    s = min(s, g)
    if endo != Z and s % 2:
        s -= 1
    v = mt_check(MtQuery(g, s, endo))
    assert MtVerdict.from_dict(v.to_dict()) == v


# The closed forms of both families, written out independently of the engine.
def _family1_point(r, endo):
    if endo == Z:
        return comb(2 * r, r) // 2, comb(2 * r - 2, r - 1)
    return comb(2 * r, r), 2 * comb(2 * r - 2, r - 1)


FAMILY1_R = {Z: (3, 1), II: (3, 1), III: (2, 0)}  # smallest r, parity of r
FAMILY2_T = {Z: (4, {0, 1}), II: (5, {1, 2}), III: (4, {0, 3})}  # smallest t, t mod 4


@pytest.mark.parametrize("endo", [Z, II, III], ids=["Z", "II", "III"])
@given(g=st.integers(1, 5000))
def test_exceptional_witness_equations_hold(endo, g):
    for s in {1, 2, comb(4, 2), g // 2, g}:
        if not 0 <= s <= g or (endo != Z and s % 2):
            continue
        v = mt_check(MtQuery(g, s, endo))
        if v.status == Status.EXCEPTIONAL_CASE:
            w = v.witness
            assert (w.g, w.s) == (g, s)
            if w.family == 1:
                first, parity = FAMILY1_R[endo]
                assert w.parameter >= first and w.parameter % 2 == parity
                assert (w.g, w.s) == _family1_point(w.parameter, endo)
            else:
                first, classes = FAMILY2_T[endo]
                assert w.parameter >= first and w.parameter % 4 in classes
                assert w.g == 2**w.parameter
                assert w.s in (w.g, w.g // 2)


@pytest.mark.parametrize("endo", [Z, II, III], ids=["Z", "II", "III"])
def test_every_enumerated_instance_is_an_exceptional_case(endo):
    # Pink's gate leaves every type-Z family g open, and mt_check finds the
    # witness that enumerate_exceptional lists
    instances = enumerate_exceptional(10**12, endo)
    assert len(instances) > 20
    for inst in instances:
        v = mt_check(MtQuery(inst.g, inst.s, endo))
        assert v.status == Status.EXCEPTIONAL_CASE
        assert (v.witness.family, v.witness.parameter) == (inst.family, inst.parameter)
