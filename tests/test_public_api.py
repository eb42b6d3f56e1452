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
