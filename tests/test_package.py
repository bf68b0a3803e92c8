"""The package's export list."""
import blesim


def test_every_exported_name_resolves_and_star_import_binds_it():
    assert not [name for name in blesim.__all__ if not hasattr(blesim, name)]
    namespace = {}
    exec("from blesim import *", namespace)
    for name in blesim.__all__:
        assert namespace[name] is getattr(blesim, name), name
