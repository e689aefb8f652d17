"""The package surface: each submodule is reachable by its name, every
name a module exports in __all__ exists, no name is in two modules'
__all__, and the package exports every name of the modules it imports."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gyrowheel

MODULES = sorted(info.name for info in pkgutil.iter_modules(gyrowheel.__path__))
# the command-line module is imported on its own, not by the package
IMPORTED = [name for name in MODULES if name != "cli"]


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


@pytest.mark.parametrize("name", IMPORTED)
def test_package_exports_the_modules_names(name):
    module = importlib.import_module(f"gyrowheel.{name}")
    assert module.__all__
    absent = [attr for attr in module.__all__
              if getattr(gyrowheel, attr, None) is not getattr(module, attr)]
    assert absent == []


def test_package_import_leaves_the_cli_out():
    code = "import sys, gyrowheel; print('gyrowheel.cli' in sys.modules)"
    # run from the directory that holds the package, so it is found without an install
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=Path(gyrowheel.__file__).parents[1])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
