"""Tests of the benchmark itself: inputs, reference checkers, self-time arithmetic."""

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

from mtkit import cli  # noqa: E402


@pytest.fixture(scope="module")
def decide_inputs():
    return workloads.make_inputs("decide", 11)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return {"code": code, "stdout": buf.getvalue()}


def test_inputs_are_deterministic_per_seed(decide_inputs):
    assert workloads.make_inputs("oracle", 11) == workloads.make_inputs("oracle", 11)
    assert workloads.make_inputs("oracle", 11) != workloads.make_inputs("oracle", 12)
    assert workloads.make_inputs("decide", 11) == decide_inputs
    assert workloads.make_inputs("table", 1) == workloads.make_inputs("table", 2)


def test_frames_round_trip(decide_inputs):
    header, arrays = decide_inputs
    buf = io.BytesIO()
    workloads.write_frame(buf, header, arrays)
    buf.seek(0)
    assert workloads.read_frame(buf) == (header, arrays)


def test_classify_inputs_are_the_pink_open_g():
    assert reference.pink_open_g(126) == [4, 10, 16, 32, 64, 108, 126]


def test_decide_mix_reaches_every_status(decide_inputs):
    _, a = decide_inputs
    ref = reference.DecisionReference(workloads.DECIDE_G_MAX)
    status, _ = ref.expect_all(a["g"], a["s"], a["endo"])
    assert set(status) == set(range(len(reference.STATUSES) + 1))


def test_decide_reference_agrees_with_mt_check(decide_inputs):
    from mtkit import EndoType, MtQuery, QueryInvalid, mt_check

    _, a = decide_inputs
    ref = reference.DecisionReference(workloads.DECIDE_G_MAX)
    for g, s, e in list(zip(a["g"], a["s"], a["endo"]))[:3000]:
        try:
            v = mt_check(MtQuery(g, s, EndoType(reference.ENDO_TYPES[e])))
            got = (reference.STATUSES.index(v.status.value),
                   v.witness.family * 100 + v.witness.parameter if v.witness else 0)
        except QueryInvalid:
            got = (reference.REJECTED, 0)
        assert got == ref.expect(g, s, reference.ENDO_TYPES[e])


def test_table_checker_accepts_real_output_and_flags_an_off_by_one_drop():
    ops = [["table", "--max-rank", "8"]]
    out = _cli(ops[0])
    assert reference.check_cli(ops, [out]) == [None]
    payload = json.loads(out["stdout"])
    payload["rows"][5]["drops_long"] += 1
    corrupted = {"code": 0, "stdout": json.dumps(payload)}
    [reason] = reference.check_cli(ops, [corrupted])
    assert reason and "drops_long" in reason


def test_classify_checker_flags_a_wrong_candidate_and_a_bad_exit():
    ops = [["classify", "--two-g", "20"], ["classify", "--two-g", "64"]]
    outs = [_cli(argv) for argv in ops]
    assert reference.check_cli(ops, outs) == [None, None]
    payload = json.loads(outs[0]["stdout"])
    payload["candidates"][0]["witness_r"] += 1
    reasons = reference.check_cli(ops, [{"code": 0, "stdout": json.dumps(payload)},
                                        {"code": 2, "stdout": ""}])
    assert reasons[0] and reasons[1] == "exit code 2"


def _root_outputs(roots, drop_shift=0):
    outs = []
    for k, (family, n, j, i) in enumerate(roots):
        rep = next(r for r in reference.classical_minuscule(family, n) if r["j"] == j)
        cls = "long" if i < n else "short"      # C2: two long, two short roots
        drop = rep[cls] + (drop_shift if k == 0 else 0)
        outs.append({"report": {"degree": 2, "drop": drop, "dim": rep["dimension"],
                                "quadratic": True, "prime": None},
                     "length_class": cls, "weight_count_drop": drop})
    return outs


def test_oracle_checker_flags_an_off_by_one_drop():
    roots = [["C", 2, 1, i] for i in range(4)]
    assert reference.check_oracle([], roots, _root_outputs(roots)) == [None] * 4
    reasons = reference.check_oracle([], roots, _root_outputs(roots, drop_shift=1))
    assert reasons[0] and reasons[1:] == [None] * 3


def test_oracle_checker_flags_a_wrong_tensor_degree():
    trial = [2, 3, 7, None]
    report = {"k1": 2, "k2": 3, "dims": [6, 6], "trials": 1, "seed": 7, "prime": None,
              "expected_degree": 4, "degree_counts": {"4": 1}, "failures": [],
              "char_deviations": [], "corollary_violations": [], "passed": True}
    assert reference.check_oracle([trial], [], [{"report": report}]) == [None]
    report = {**report, "degree_counts": {"3": 1}}
    assert reference.check_oracle([trial], [], [{"report": report}])[0]


def test_decide_checker_flags_a_wrong_status(decide_inputs):
    _, a = decide_inputs
    ref = reference.DecisionReference(workloads.DECIDE_G_MAX)
    expected = ref.expect_all(a["g"], a["s"], a["endo"])
    ops = [["Z", workloads.DECIDE_G_MAX]]
    inst = [[g, s, f, p, int(g in (84, 126))]
            for g, s, f, p in reference.exceptional_points("Z", workloads.DECIDE_G_MAX)]
    outs = [{"instances": inst}]
    status, witness = expected
    reasons = reference.check_decide(a["g"], a["s"], a["endo"], expected, status, witness, ops, outs)
    assert not any(reasons)
    wrong = bytes([status[0] ^ 1]) + status[1:]
    reasons = reference.check_decide(a["g"], a["s"], a["endo"], expected, wrong, witness, ops, outs)
    assert reasons[0] and not any(reasons[1:])


def test_self_time_of_nested_spans():
    # a [0, 100] holds b [10, 30] and c [40, 90]; c holds b [50, 60];
    # a hook inside a cost 5 after its children closed.
    names = [0, 1, 2, 1]
    parents = [-1, 0, 0, 2]
    starts = [0, 10, 40, 50]
    ends = [100, 30, 90, 60]
    lost = [5, 0, 0, 0]
    assert self_times(names, parents, starts, ends, lost) == {
        0: [100 - 20 - 50 - 5, 1], 1: [20 + 10, 2], 2: [50 - 10, 1]}


def test_tracer_records_nested_calls():
    tracer = Tracer()

    def inner(x):
        time.sleep(0.002)
        return x

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: [inner(1), inner(2)])
    assert outer() == [1, 2]
    spans = tracer.summary()["spans"]
    assert spans["inner"][1] == 2 and spans["outer"][1] == 1
    assert spans["inner"][0] >= 0.004 > spans["outer"][0] >= 0


def test_speed_sampler_samples_while_active_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        t_end = time.perf_counter() + 0.05
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.samples) >= 5
    assert sampler.spent_ns >= sum(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
