"""Pink gate, mt_check branching, exceptional enumeration, witness checks."""

import runpy
import sys
from bisect import bisect_left
from dataclasses import FrozenInstanceError
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_datum, verdict_from_dict
from mtkit import (
    MATRIX_BUDGET,
    CartanType,
    EndoType,
    MtQuery,
    QueryInvalid,
    Status,
    build_root_element,
    enumerate_exceptional,
    enumerate_minuscule,
    minuscule_rep,
    mt_check,
    pink_gate,
    root_element_drop,
    unipotence,
)
from mtkit.decision import _FAMILY1_CACHE_SIZE, _FAMILY1_POINTS, _family1_from, _int_nth_root

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


def test_endo_given_as_its_value_string_is_answered():
    assert mt_check(MtQuery(10, 6, "Z")) == mt_check(MtQuery(10, 6, Z))
    assert MtQuery(10, 6, "Z").to_dict() == MtQuery(10, 6, Z).to_dict()
    assert mt_check(MtQuery(252, 140, "II")).status == Status.EXCEPTIONAL_CASE
    assert enumerate_exceptional(300, "Z") == enumerate_exceptional(300, Z)


@pytest.mark.parametrize("endo", ["X", "z", None, 1, ("Z",)])
def test_unknown_endo_is_rejected(endo):
    with pytest.raises(QueryInvalid, match="unknown endomorphism type"):
        mt_check(MtQuery(10, 6, endo))
    with pytest.raises(QueryInvalid, match="unknown endomorphism type"):
        enumerate_exceptional(300, endo)


@pytest.mark.parametrize("g, s", [
    (10.0, 6), (True, 0), ("10", 6), (10, 6.0), (10, True), (10, None),
])
def test_non_integer_g_or_s_is_rejected(g, s):
    with pytest.raises(QueryInvalid, match="must be"):
        mt_check(MtQuery(g, s, Z))


@pytest.mark.parametrize("g", [10.0, True, False, "10", None, 0, -4])
def test_pink_gate_and_enumerate_exceptional_refuse_what_a_query_refuses(g):
    with pytest.raises(QueryInvalid, match="^g must be a positive integer$"):
        pink_gate(g)
    with pytest.raises(QueryInvalid, match="^g_max must be a positive integer$"):
        enumerate_exceptional(g, Z)
    with pytest.raises(QueryInvalid, match="^g must be a positive integer$"):
        mt_check(MtQuery(g, 0, Z))


@pytest.mark.parametrize("query", [
    MtQuery(10**4400, 0, Z),  # Pink proves GSp_2g
    MtQuery(2**14999, 0, Z),  # Pink's reason prints 2g = (2^5000)^3
    MtQuery(2**15000, 2**15000, Z),  # family 2, t = 15000
    MtQuery(10**4400, 2, II),
    MtQuery(10**4400, 2, III),
])
def test_a_verdict_too_long_to_print_is_refused_by_name(query):
    # a verdict prints g or 2g; past sys.get_int_max_str_digits() digits
    # int -> str raises a bare ValueError, which the library names instead
    limit = sys.get_int_max_str_digits()
    with pytest.raises(QueryInvalid, match=rf"more than {limit} digits.*get_int_max_str_digits"):
        mt_check(query)
    # the longest 2g Python still writes out answers
    g = 5 * 10**(limit - 1) - 1
    assert len(str(2 * g)) == limit
    mt_check(MtQuery(g, 2, query.endo))


def test_pink_gate_refuses_a_reason_too_long_to_print():
    # 2g = (2^5000)^3 is Pink-inconclusive, and its reason would print 2g
    with pytest.raises(QueryInvalid, match=r"get_int_max_str_digits\(\)\)$"):
        pink_gate(2**14999)
    assert pink_gate(2**14999 - 1).proves  # an odd g prints nothing


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
    from conftest import fundamental, scan_duality_sign
    from mtkit import CartanType

    def spin_sign(n):
        return scan_duality_sign(reference_datum(CartanType("B", n)), fundamental(n, n))

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
    assert verdict_from_dict(v.to_dict()) == v


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


# Reference gate and family-1 walk that try every candidate: every odd k
# with 2**k <= n, and every family r from the first one.
def _reference_odd_power_witness(n):
    k = 3
    while 1 << k <= n:
        m = _int_nth_root(n, k)
        if m >= 2 and m**k == n:
            return m, k
        k += 2
    return None


def _reference_central_binomial_witness(n):
    m = 3
    while (c := comb(2 * m, m)) <= n:
        if c == n:
            return m
        m += 2
    return None


def _reference_pink_gate(g):
    n = 2 * g
    power = _reference_odd_power_witness(n)
    if power is not None:
        m, k = power
        return False, f"2g = {n} = {m}^{k} with odd exponent {k}"
    m = _reference_central_binomial_witness(n)
    if m is not None:
        return False, f"2g = {n} = C({2 * m}, {m}) with odd m = {m}"
    return True, None


def _reference_family1_from(g, endo):
    k = 1 if endo == Z else 2
    r = FAMILY1_R[endo][0]
    while (fg := k * comb(2 * r, r) // 2) < g:
        r += 2
    return r, fg, k * comb(2 * r - 2, r - 1)


def _gate_test_dimensions():
    gs = set(range(1, 5001))
    for k in range(3, 120, 2):
        top = _int_nth_root(2**120, k) // 2 * 2  # the largest even m with m**k <= 2**120
        for m in {*range(2, min(top, 98) + 1, 2), top}:
            gs.update(m**k // 2 + d for d in (-1, 0, 1))
    for m in range(1, 70):
        gs.update(c + d for c in (comb(2 * m, m) // 2, comb(2 * m, m)) for d in (-1, 0, 1))
    odd_parts = (1, 3, 5, 7, 9, 15, 21, 27, 3**5, 5**3, 3**7, 21**3, 15**5, 3**9, 3**15, 99**3)
    gs.update(2**j * odd for j in range(100) for odd in odd_parts)
    return sorted(gs - {0})


def test_pink_gate_and_family1_match_the_reference_walks():
    gs = _gate_test_dimensions()
    assert len(gs) > 8000
    for g in gs:
        got = pink_gate(g)
        assert (got.proves, got.reason) == _reference_pink_gate(g), g
        for endo in (Z, II, III):
            assert _family1_from(g, endo) == _reference_family1_from(g, endo), (g, endo)


def _clear_family1_cache():
    for points in _FAMILY1_POINTS.values():
        points.cache_clear()


def test_family1_cache_matches_the_closed_forms_at_every_bit_length():
    # every g must get the least point of the closed forms at or above it, over
    # more bit lengths than the cache holds, so that entries are evicted and
    # built again on the way down; near the points with r <= 80 the reference
    # walk gives the answer
    import random

    rng = random.Random(1100)
    gs = [g for b in range(1, 1101)
          for g in {1 << (b - 1), (1 << b) - 1, rng.randrange(1 << (b - 1), 1 << b)}]
    for endo in (Z, II, III):
        first, _ = FAMILY1_R[endo]
        points = [(first, *_family1_point(first, endo))]
        while points[-1][1] < 1 << 1100:
            r = points[-1][0] + 2
            points.append((r, *_family1_point(r, endo)))
        tops = [fg for _, fg, _ in points]
        _clear_family1_cache()
        for g in gs + gs[::-1]:
            assert _family1_from(g, endo) == points[bisect_left(tops, g)], (g, endo)
        for r, fg, _ in points:
            if r > 80:
                break
            for g in (fg - 1, fg, fg + 1):
                assert _family1_from(g, endo) == _reference_family1_from(g, endo), (g, endo)


def test_family1_cache_stays_within_its_size():
    _clear_family1_cache()
    for b in range(1, 2 * _FAMILY1_CACHE_SIZE + 2):
        for endo in (Z, II, III):
            _family1_from((1 << b) - 1, endo)
    for points in _FAMILY1_POINTS.values():
        info = points.cache_info()
        assert info.maxsize == _FAMILY1_CACHE_SIZE
        assert info.currsize == _FAMILY1_CACHE_SIZE


@pytest.mark.parametrize("endo", [Z, II, III], ids=["Z", "II", "III"])
@pytest.mark.parametrize("g", [2 * 10**3000, 2**4000 + 1], ids=["2e3000", "2^4000+1"])
def test_family1_walk_starts_near_huge_g(monkeypatch, endo, g):
    # a walk from the first r would take thousands of big binomials here;
    # from the bit length of 2g it takes a few, since
    # C(2r, r) >= 4**r / (2 sqrt(r)).  The cache is cleared first, so the
    # count is that of a cold call, walk and successor included.  The point
    # returned must be the least one at or above g, checked against r - 2
    # directly.
    import mtkit.decision

    _clear_family1_cache()
    binomials = []
    monkeypatch.setattr(mtkit.decision, "comb", lambda n, k: binomials.append(n) or comb(n, k))
    r, fg, fs = _family1_from(g, endo)
    assert len(binomials) <= 5
    monkeypatch.undo()
    first, parity = FAMILY1_R[endo]
    assert r > first and r % 2 == parity
    assert (fg, fs) == _family1_point(r, endo)
    assert fg >= g > _family1_point(r - 2, endo)[0]
    v = mt_check(MtQuery(fg, fs, endo))
    assert (v.status, v.witness.family, v.witness.parameter) == (Status.EXCEPTIONAL_CASE, 1, r)
    assert mt_check(MtQuery(g, 2, endo)).status in (
        Status.PROVED_BY_PINK, Status.PROVED_BY_MAIN_THEOREM, Status.PROVED_BY_THEOREM_41)


def test_not_covered_explanation_carries_the_pink_reason():
    for g in range(1, 5001):
        gate = pink_gate(g)
        if gate.proves:
            continue
        assert mt_check(MtQuery(g, 0, Z)).explanation == (
            f"Pink's criterion is inconclusive ({gate.reason}) and no bad semistable "
            "place is known (s = 0); the reduction-based criteria need one"
        ), g


@pytest.mark.parametrize("endo", [Z, II, III], ids=["Z", "II", "III"])
def test_enumerate_exceptional_matches_the_reference_walk(endo):
    g_max = 10**40
    want = []
    r, fg, fs = _reference_family1_from(1, endo)
    while fg <= g_max:
        want.append((fg, fs, 1, r))
        r, fg, fs = _reference_family1_from(fg + 1, endo)
    first, classes = FAMILY2_T[endo]
    for t in range(first, g_max.bit_length()):
        if t % 4 in classes:
            want += [(2**t, 2 ** (t - 1), 2, t), (2**t, 2**t, 2, t)]
    got = [(i.g, i.s, i.family, i.parameter) for i in enumerate_exceptional(g_max, endo)]
    assert got == sorted(want)


# The exceptional pairs derived from the representation engine: g (or 2g for
# End(A) = Z) is the dimension of a self-dual minuscule module of type
# A_{2j-1}, B_m or D_m, and s is the drop of one root element on it (twice
# the drop for types II and III).  Pairs the derivation yields but the
# family table does not, each with its reason:
DERIVED_ONLY = {
    II: {
        (2, 2): "A1 = C1: the A1 standard module is the C1 standard one, the target group GSp_2",
        (4, 2): "B2 = C2: the B2 spin module is the C2 standard one, the target group GSp_4",
        (4, 4): "B2 = C2: the B2 spin module is the C2 standard one, the target group GSp_4",
    },
    III: {
        (8, 4): "the 8-dimensional B3 spin and D4 half-spin modules, D4 triality coincidences",
        (8, 8): "the 8-dimensional B3 spin module, a D4 triality coincidence",
    },
}


def _self_dual_minuscule(bound):
    """Every self-dual minuscule module of dimension <= bound of the types
    A_{2j-1}, B_m and D_m, except the D_m standard modules (the target groups
    GSO); the ranks stop where the dimensions C(2j, j) and 2**m pass bound."""
    ranks = [("A", 2 * j - 1) for j in range(1, bound.bit_length()) if comb(2 * j, j) <= bound]
    ranks += [("B", m) for m in range(2, bound.bit_length())]
    ranks += [("D", m) for m in range(3, bound.bit_length() + 1)]
    for family, n in ranks:
        for rep in enumerate_minuscule(CartanType(family, n)):
            if rep.sign and rep.dimension <= bound and (family, rep.weight_index) != ("D", 1):
                yield rep


def test_exceptional_families_are_derived_from_the_representation_engine():
    g_max = 10**12
    reps = list(_self_dual_minuscule(2 * g_max))

    def drops(rep):
        return {root_element_drop(rep, c) for c in set(reference_datum(rep.cartan_type).length_class)}

    derived = {Z: {(rep.dimension // 2, s) for rep in reps
                   if rep.sign == -1 and not pink_gate(rep.dimension // 2).proves
                   for s in drops(rep)}}
    for endo, sign in ((II, -1), (III, 1)):
        derived[endo] = {(rep.dimension, 2 * s) for rep in reps
                         if rep.sign == sign and rep.dimension <= g_max for s in drops(rep)}
    for endo in (Z, II, III):
        listed = {(i.g, i.s) for i in enumerate_exceptional(g_max, endo)}
        only = DERIVED_ONLY.get(endo, {})
        assert len(listed) > 40
        assert only.keys() <= derived[endo] and not only.keys() & listed
        assert derived[endo] - only.keys() == listed


@pytest.mark.parametrize("prime", [None, 3])
def test_every_type_z_instance_within_the_matrix_budget_has_a_matrix_witness(prime):
    # family 1: a root of A_(2r-1) on w_r drops C(2r-2, r-1) = s; family 2:
    # on the B_(t+1) spin module a long root drops g/2 and a short root g.
    # Each root element is quadratic on a module of dimension 2g, over Q and
    # over F_3 (Premet-Suprunenko's quadratic modules are in odd characteristic)
    instances = enumerate_exceptional(MATRIX_BUDGET // 2, Z)
    assert len(instances) == 11
    for inst in instances:
        if inst.family == 1:
            r = inst.parameter
            rep, spec, length = minuscule_rep(CartanType("A", 2 * r - 1), r), "e1-e2", "long"
        else:
            n = inst.parameter + 1
            rep = minuscule_rep(CartanType("B", n), n)
            spec, length = ("e1-e2", "long") if 2 * inst.s == inst.g else ("e1", "short")
        report = unipotence(build_root_element(rep, [spec], prime))
        assert (report.dim, report.quadratic) == (2 * inst.g, True), inst
        assert report.drop == root_element_drop(rep, length) == inst.s, inst


@pytest.mark.parametrize("prime", [None, 3])
@pytest.mark.parametrize("endo, sign, count", [(II, -1, 11), (III, 1, 13)], ids=["II", "III"])
def test_every_type_ii_and_iii_instance_within_the_matrix_budget_has_a_matrix_witness(
        endo, sign, count, prime):
    # family 1: A_(2r-1) on w_r has dimension g = C(2r, r), and a root drops
    # C(2r-2, r-1) = s/2; family 2: the B_t spin module has dimension g = 2^t,
    # a long root drops g/4 (s = g/2) and a short root g/2 (s = g).  The
    # module is symplectic for II and orthogonal for III
    instances = enumerate_exceptional(MATRIX_BUDGET, endo)
    assert len(instances) == count
    for inst in instances:
        r = inst.parameter
        if inst.family == 1:
            rep, spec, length = minuscule_rep(CartanType("A", 2 * r - 1), r), "e1-e2", "long"
        else:
            rep = minuscule_rep(CartanType("B", r), r)
            spec, length = ("e1-e2", "long") if 2 * inst.s == inst.g else ("e1", "short")
        assert (rep.dimension, rep.sign) == (inst.g, sign), inst
        report = unipotence(build_root_element(rep, [spec], prime))
        assert (report.dim, report.quadratic) == (inst.g, True), inst
        assert 2 * report.drop == 2 * root_element_drop(rep, length) == inst.s, inst


DENSITY_SCRIPT = Path(__file__).parent.parent / "scripts" / "exceptional_density.py"


def test_exceptional_density_matches_golden(capsys, monkeypatch):
    # runs pink_gate on every g <= 5000
    monkeypatch.setattr(sys, "argv", [str(DENSITY_SCRIPT)])
    runpy.run_path(str(DENSITY_SCRIPT), run_name="__main__")
    golden = Path(__file__).parent / "golden" / "exceptional_density_5000.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("arg, message", [
    ("0", "g_max must be at least 1, got 0"),
    ("-3", "g_max must be at least 1, got -3"),
    ("abc", "g_max must be an integer, got 'abc'"),
])
def test_exceptional_density_refuses_bad_g_max(capsys, monkeypatch, arg, message):
    monkeypatch.setattr(sys, "argv", [str(DENSITY_SCRIPT), arg])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(DENSITY_SCRIPT), run_name="__main__")
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert message in err
