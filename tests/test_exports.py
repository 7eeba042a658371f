"""Every name a module exports through ``__all__`` must resolve on it."""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, f"stale __all__ entries: {missing}"
