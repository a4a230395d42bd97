from __future__ import annotations

import importlib
import pkgutil

import beepsim


def test_every_exported_name_resolves_and_star_import_is_clean():
    assert len(set(beepsim.__all__)) == len(beepsim.__all__)
    assert [name for name in beepsim.__all__ if not hasattr(beepsim, name)] == []
    namespace: dict = {}
    exec("from beepsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(beepsim.__all__)


def test_every_memo_cache_is_bounded():
    # A cache without a bound keeps every distinct word of a run, and DFS on
    # path:n=10000 passes the token with about 20,000 distinct control words.
    caches = {}
    for info in pkgutil.iter_modules(beepsim.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"beepsim.{info.name}")
            for obj in vars(module).values():
                if hasattr(obj, "cache_info"):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    assert {"beepsim.codec.match_word", "beepsim.traversal.parse_control_payload",
            "beepsim.waves._collection_slots"} <= caches.keys()
    assert [name for name, maxsize in caches.items() if maxsize is None] == []
