"""The package's public names: every entry of __all__ must resolve."""

import rstsim


def test_every_exported_name_resolves():
    missing = [name for name in rstsim.__all__ if not hasattr(rstsim, name)]
    assert not missing


def test_star_import_works():
    namespace: dict = {}
    exec("from rstsim import *", namespace)
    assert set(rstsim.__all__) <= set(namespace)
