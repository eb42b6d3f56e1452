"""The library surface the benchmark calls: perfbench/worker.py and perfbench/tracer.py.

The benchmark runs the checkout's own sources, so a rename or a removal that
these calls rely on would fail every benchmark op rather than a test.  These
tests make the same calls, in the same form, on small inputs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtkit
import mtkit.cli  # the worker imports both

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # tracer.py and reference.py import only the stdlib
    return module


# one rep per kind of classical minuscule module, as the oracle workload builds them
ORACLE_REPS = [("A", 4, 2), ("B", 3, 3), ("C", 3, 1), ("D", 4, 1), ("D", 4, 3), ("D", 5, 5)]


def test_oracle_ops_run_as_the_worker_makes_them():
    # prepare_oracle, run_oracle and oracle_outputs, and the tracer's drop hook
    for family, n, j in ORACLE_REPS:
        rep = mtkit.minuscule_rep(mtkit.CartanType(family, n), j)
        for i in range(len(rep.datum.positive_roots)):
            report = mtkit.oracle.unipotence(mtkit.oracle.build_root_element(rep, [i]))
            cls = rep.datum.length_class[i]
            assert report.to_dict() == {"degree": 2, "drop": mtkit.root_element_drop(rep, cls),
                                        "dim": rep.dimension, "quadratic": True, "prime": None}
        assert len(rep.orbit) == rep.dimension
    report = mtkit.oracle.verify_tensor_lemma(2, 3, (6, 6), trials=1, seed=1, prime=10007)
    assert report.to_dict()["passed"] is True


def test_tracer_wraps_what_it_names():
    tracer = _load("tracer")
    for method in tracer.MATRIX_METHODS:
        assert callable(vars(mtkit.ExactMatrix)[method]), method
    assert isinstance(vars(mtkit.ExactMatrix)["identity"], classmethod)
    for layer in tracer.LAYERS:
        assert f"mtkit.{layer}" in sys.modules, layer


def test_tracer_installs_and_records_the_oracle_spans():
    # in a fresh interpreter, as the worker does: install, then one product of
    # two orthogonal root elements, its degree, its drop and the weight-count drop
    src = str(Path(mtkit.__file__).resolve().parent.parent)
    code = """
import json, mtkit, mtkit.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
rep = mtkit.minuscule_rep(mtkit.CartanType("D", 4), 4)
report = mtkit.oracle.unipotence(mtkit.oracle.build_root_element(rep, ["e1-e2", "e3-e4"]))
mtkit.root_element_drop(rep, "long")
mtkit.ExactMatrix.identity(3)
print(json.dumps([report.to_dict(), tracer.summary()]))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(PERFBENCH)])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    report, summary = json.loads(out)
    assert (report["degree"], report["dim"]) == (3, 8)
    for span in ("oracle.build_root_element", "oracle.matmul", "oracle.unipotence",
                 "oracle.nilpotency_degree", "oracle.rank", "oracle.sub_identity",
                 "oracle.identity", "drops.root_element_drop"):
        assert summary["spans"][span][1] >= 1, span
    assert summary["counters"]["drops.weights_scanned"] == 8


def test_decide_ops_run_as_the_worker_makes_them():
    reference = _load("reference")
    endo_types = [mtkit.EndoType(e) for e in reference.ENDO_TYPES]
    codes = {mtkit.Status(name): i for i, name in enumerate(reference.STATUSES)}
    verdict = mtkit.decision.mt_check(mtkit.MtQuery(10, 6, endo_types[0]))
    assert verdict.status in codes
    assert (verdict.witness.family, verdict.witness.parameter) == (1, 3)
    with pytest.raises(mtkit.QueryInvalid):
        mtkit.decision.mt_check(mtkit.MtQuery(10, 11, endo_types[0]))
    found = mtkit.decision.enumerate_exceptional(300, endo_types[0])
    assert [(x.g, x.s, x.family, x.parameter, len(x.notes)) for x in found][0] == (10, 6, 1, 3, 0)


def test_cli_ops_run_as_the_worker_makes_them(capsys):
    assert mtkit.cli.run(["classify", "--two-g", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["two_g"] == 20
