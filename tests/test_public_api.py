"""The public names of mtkit."""

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
