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
    (lambda: mtkit.find_positive_root(_minuscule_rep(1).datum, 5), mtkit.PreconditionError),
], ids=["rank-bool", "rank-float", "rank-str", "weight-bool", "weight-str", "two-g-float",
        "root-indices-int", "spec-int"])
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
    lambda: mtkit.find_positive_root(_minuscule_rep(1).datum, HUGE),
    lambda: mtkit.root_element_drop(_minuscule_rep(1), HUGE),
    lambda: mtkit.ExactMatrix([[[HUGE]]]),
    lambda: mtkit.enumerate_exceptional(10, HUGE),
], ids=["fixed-rank", "negative-rank", "root-budget", "weight-index", "two-g", "identity",
        "prime", "unipotence-degree", "trials", "dims", "root-index", "root-indices",
        "trials-list", "dims-triple", "family", "rank-list", "spec", "length-class",
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
