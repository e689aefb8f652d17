"""The package surface: each submodule is reachable by its name, every
name a module exports in __all__ exists, and no name is in two modules'
__all__."""

import importlib
import pkgutil

import pytest

import gyrowheel

MODULES = sorted(info.name for info in pkgutil.iter_modules(gyrowheel.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_surface(name):
    module = importlib.import_module(f"gyrowheel.{name}")
    # no package-level name may shadow the submodule
    assert getattr(gyrowheel, name) is module
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from gyrowheel.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_each_public_name_has_one_home():
    # a name in two modules' __all__ is one fact exported twice
    homes: dict = {}
    for name in MODULES:
        for attr in getattr(importlib.import_module(f"gyrowheel.{name}"), "__all__", []):
            homes.setdefault(attr, []).append(name)
    assert {attr: mods for attr, mods in homes.items() if len(mods) > 1} == {}
