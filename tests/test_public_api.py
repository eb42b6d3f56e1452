"""The public names of mtkit: what they export, what importing them loads, the arguments they refuse."""

import pytest

import mtkit


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mtkit import *", namespace)  # raises if a listed name is missing
    assert [name for name in mtkit.__all__ if name not in namespace] == []
    assert len(set(mtkit.__all__)) == len(mtkit.__all__), "duplicate names in __all__"


def test_import_loads_no_rational_arithmetic_modules():
    # every matrix is integral, so importing the package and its CLI pulls in
    # neither fractions nor decimal; a fresh interpreter shows what it loads
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(mtkit.__file__).resolve().parent.parent)
    code = "import sys, mtkit, mtkit.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_import_loads_only_the_standard_library():
    # mtkit has no dependency: every top-level module that importing the
    # package and its CLI loads in a fresh interpreter is mtkit or stdlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(mtkit.__file__).resolve().parent.parent)
    code = ("import sys; before = set(sys.modules); import mtkit, mtkit.cli; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True).stdout.split()
    assert "mtkit" in loaded
    assert [m for m in loaded if m != "mtkit" and m not in sys.stdlib_module_names] == []


def _minuscule_rep(j):
    return mtkit.minuscule_rep(mtkit.CartanType("C", 3), j)


@pytest.mark.parametrize("call, error", [
    (lambda: mtkit.CartanType("A", True), mtkit.InvalidCartanType),
    (lambda: mtkit.CartanType("A", 3.0), mtkit.InvalidCartanType),
    (lambda: mtkit.CartanType("A", "3"), mtkit.InvalidCartanType),
    (lambda: _minuscule_rep(True), mtkit.PreconditionError),
    (lambda: _minuscule_rep("2"), mtkit.PreconditionError),
    (lambda: mtkit.classify_symplectic_minuscule(20.0), mtkit.PreconditionError),
    (lambda: mtkit.build_root_element(_minuscule_rep(1), 5), mtkit.PreconditionError),
    (lambda: mtkit.build_root_element(_minuscule_rep(1), [5.0]), mtkit.PreconditionError),
], ids=["rank-bool", "rank-float", "rank-str", "weight-bool", "weight-str", "two-g-float",
        "root-indices-int", "root-float"])
def test_entry_points_refuse_wrong_argument_types(call, error):
    with pytest.raises(error):
        call()


HUGE = 10**5000  # 5001 digits, past CPython's default limit of 4300


@pytest.mark.parametrize("call", [
    lambda: mtkit.CartanType("E6", HUGE),
    lambda: mtkit.CartanType("A", -HUGE),
    lambda: mtkit.enumerate_minuscule(mtkit.CartanType("A", HUGE)),
    lambda: _minuscule_rep(HUGE),
    lambda: mtkit.classify_symplectic_minuscule(HUGE + 1),
    lambda: mtkit.ExactMatrix.identity(-HUGE),
    lambda: mtkit.ExactMatrix([[1]], HUGE),
    lambda: mtkit.random_unipotent(3, HUGE, None),
    lambda: mtkit.verify_tensor_lemma(1, 1, (2, 2), HUGE, 1),
    lambda: mtkit.verify_tensor_lemma(1, 1, (HUGE, 2), 1, 1),
    lambda: mtkit.build_root_element(_minuscule_rep(1), [HUGE]),
    lambda: mtkit.build_root_element(_minuscule_rep(1), HUGE),
    lambda: mtkit.verify_tensor_lemma(1, 1, (2, 2), [HUGE], 1),
    lambda: mtkit.verify_tensor_lemma(1, 1, (HUGE, 1, 1), 1, 1),
    lambda: mtkit.CartanType(HUGE, 3),
    lambda: mtkit.CartanType("A", [HUGE]),
    lambda: mtkit.build_root_element(_minuscule_rep(1), [[HUGE]]),
    lambda: mtkit.root_element_drop(_minuscule_rep(1), HUGE),
    lambda: mtkit.ExactMatrix([[[HUGE]]]),
    lambda: mtkit.enumerate_exceptional(10, HUGE),
], ids=["fixed-rank", "negative-rank", "root-budget", "weight-index", "two-g", "identity",
        "prime", "unipotence-degree", "trials", "dims", "root-index", "root-indices",
        "trials-list", "dims-triple", "family", "rank-list", "root-list", "length-class",
        "entry-list", "endo"])
def test_huge_ints_are_refused_with_their_domain_error(call):
    # an f-string of an int past sys.get_int_max_str_digits() digits raises a
    # bare ValueError; the refusal shows the int's bit length instead, or the
    # type of the list or tuple that holds it
    import sys

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(mtkit.DomainError, match=r"-bit int>|int too long to print>"):
            call()
    finally:
        sys.set_int_max_str_digits(limit)


# Each value stands in for one argument of a valid call at a time: other types,
# a bool, a float, containers, edge ints and ints past the int-to-str limit.
STAND_INS = [None, True, 1.5, "3", [3], {}, -1, 0, 2, HUGE, -HUGE, (2, 2), [HUGE]]

# Public names that hold what they are given and check nothing: records,
# enums and exceptions.  MtQuery is checked where it is used, by mt_check.
UNCHECKED = {"RootDatum", "MinusculeRep", "DropReport", "Candidate", "CandidateList",
             "UnipotenceReport", "TensorLemmaReport", "EndoType", "Status", "MtQuery",
             "MtVerdict", "Witness", "PinkResult", "ExceptionalInstance", "DomainError",
             "InvalidCartanType", "PreconditionError", "NoSuchLengthClass", "NotUnipotent",
             "FieldMismatch", "QueryInvalid"}


def _entry_points():
    """(name, callable, the arguments of one valid call) for each public entry point."""
    import random

    t = mtkit.CartanType("C", 3)
    rep = mtkit.minuscule_rep(t, 1)
    m = mtkit.ExactMatrix([[1, 0], [1, 1]])
    z = mtkit.EndoType.TRIVIAL_Z
    return [
        ("CartanType", mtkit.CartanType, ["C", 3]),
        ("build_root_datum", mtkit.build_root_datum, [t]),
        ("enumerate_minuscule", mtkit.enumerate_minuscule, [t]),
        ("minuscule_rep", mtkit.minuscule_rep, [t, 1]),
        ("root_element_drop", mtkit.root_element_drop, [rep, "long"]),
        ("drop_spectrum", mtkit.drop_spectrum, [rep]),
        ("classify_symplectic_minuscule", mtkit.classify_symplectic_minuscule, [20]),
        ("ExactMatrix", mtkit.ExactMatrix, [[[1, 0], [1, 1]], None]),
        ("ExactMatrix.identity", mtkit.ExactMatrix.identity, [2, None]),
        ("build_root_element", mtkit.build_root_element, [rep, ["e1-e2"], None]),
        ("unipotence", mtkit.unipotence, [m]),
        ("nilpotency_degree", mtkit.nilpotency_degree, [m.sub_identity()]),
        ("verify_tensor_lemma", mtkit.verify_tensor_lemma, [2, 2, (2, 2), 2, 1, None]),
        ("random_unipotent", mtkit.random_unipotent, [3, 2, random.Random(1), None]),
        ("pink_gate", mtkit.pink_gate, [10]),
        ("mt_check", lambda g, s, endo: mtkit.mt_check(mtkit.MtQuery(g, s, endo)), [10, 2, z]),
        ("enumerate_exceptional", mtkit.enumerate_exceptional, [10, z]),
    ]


def test_every_public_callable_is_an_entry_point_or_unchecked():
    named = {name for name, _, _ in _entry_points()} | UNCHECKED
    assert [n for n in mtkit.__all__ if callable(getattr(mtkit, n)) and n not in named] == []


def test_every_argument_stand_in_is_answered_or_refused_promptly():
    # one argument at a time, except the library objects (types, reps, data,
    # matrices), whose misuse is an AttributeError; each call gets one second
    import signal

    if not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")

    class Slow(Exception):
        pass

    def interrupt(*_):
        raise Slow

    objects = (mtkit.CartanType, mtkit.RootDatum, mtkit.MinusculeRep, mtkit.ExactMatrix)
    bad, previous = [], signal.signal(signal.SIGALRM, interrupt)
    try:
        for name, call, base in _entry_points():
            call(*base)
            for i in [i for i, arg in enumerate(base) if not isinstance(arg, objects)]:
                for value in STAND_INS:
                    args = base[:i] + [value] + base[i + 1:]
                    signal.setitimer(signal.ITIMER_REAL, 1.0)
                    try:
                        call(*args)
                    except mtkit.DomainError:
                        pass
                    except Exception as exc:  # a Slow too
                        bad.append(f"{name} argument {i} = {mtkit.errors.printable(value)}: "
                                   f"{type(exc).__name__}")
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert bad == []
