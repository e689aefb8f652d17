"""The package surface: each submodule is reachable by its name, and every
name a module exports in __all__ exists."""

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
