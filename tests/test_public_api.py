"""The public names of mtkit."""

import mtkit


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mtkit import *", namespace)  # raises if a listed name is missing
    assert [name for name in mtkit.__all__ if name not in namespace] == []
    assert len(set(mtkit.__all__)) == len(mtkit.__all__), "duplicate names in __all__"
