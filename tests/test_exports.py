from __future__ import annotations

import beepsim


def test_every_exported_name_resolves_and_star_import_is_clean():
    assert len(set(beepsim.__all__)) == len(beepsim.__all__)
    assert [name for name in beepsim.__all__ if not hasattr(beepsim, name)] == []
    namespace: dict = {}
    exec("from beepsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(beepsim.__all__)
