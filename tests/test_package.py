"""The package surface: each submodule is reachable by its name, every
name a module exports in __all__ exists, no name is in two modules'
__all__, the package exports every name of the modules it imports,
PyYAML is imported only to parse scenario text, importing the package
loads neither dataclasses nor inspect, and every other import is at module
level. Every module the tests and the benchmark import is the standard
library's, the package's, their own, or declared in pyproject.toml."""

import ast
import importlib
import json
import pkgutil
import re
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


@pytest.mark.parametrize("module", ["gyrowheel", "gyrowheel.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # dataclasses imports inspect, ast, dis and tokenize: start-up every run, batch and
    # script would pay
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=Path(gyrowheel.__file__).parents[1])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_import_is_at_module_level():
    # a module's start-up imports are the ones at its top; PyYAML alone is
    # deferred, to the parse of scenario text
    deferred = set()
    for path in Path(gyrowheel.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        deferred.update((path.name, ast.unparse(node)) for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and node not in tree.body)
    assert deferred <= {("scenario.py", "import yaml")}


_IMPORT_SURFACE = """
import contextlib, io, json, sys
preloaded = "yaml" in sys.modules  # site may import PyYAML before any gyrowheel code runs
import gyrowheel, gyrowheel.cli
from gyrowheel import bundled_scenario_path, parse_scenario, run_closed_loop, scenario_from_mapping
mapping = {"kind": "balance", "t_end": 0.01, "initial": {"lean_offset": 0.05, "alpha_dot": 3.0}}
rows = run_closed_loop(scenario_from_mapping(mapping).config).row_count
with contextlib.redirect_stdout(io.StringIO()):
    listed = gyrowheel.cli.main(["list-channels"])
unparsed = "yaml" in sys.modules
path = bundled_scenario_path("balance_default")
parsed = parse_scenario(path)
loaded = "yaml" in sys.modules
import yaml
same = parsed == scenario_from_mapping(yaml.safe_load(path.read_text()), default_name=path.stem)
print(json.dumps([preloaded, rows, listed, unparsed, loaded, same]))
"""


def test_pyyaml_is_imported_only_to_parse_scenario_text():
    done = subprocess.run([sys.executable, "-c", _IMPORT_SURFACE], capture_output=True,
                          text=True, timeout=60, cwd=Path(gyrowheel.__file__).parents[1])
    assert done.returncode == 0, done.stderr
    preloaded, rows, listed, unparsed, loaded, same = json.loads(done.stdout)
    if preloaded:
        pytest.skip("the interpreter's site imported PyYAML before gyrowheel")
    assert (rows, listed) == (11, 0)
    # the package, the CLI module, a mapping's scenario, its run and list-channels read no YAML
    assert unparsed is False
    # one parse of scenario text loads it, and reads the text as yaml.safe_load does
    assert loaded is True
    assert same is True


# a distribution whose import name is not its own
_MODULE_OF = {"pyyaml": "yaml"}


def test_every_third_party_import_of_the_suite_is_declared():
    # tier-1 runs tests/ and perfbench/: a module they import that is neither
    # the standard library's nor local must be a dependency or in the test extra
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = set()
    for requirement in project["dependencies"] + project["optional-dependencies"]["test"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("-", "_")
        declared.add(_MODULE_OF.get(name, name))
    files = sorted([*(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")])
    local = {path.stem for path in files} | {"gyrowheel"}
    third_party = {}  # module -> the first file that imports it
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    third_party.setdefault(top, path.name)
    assert {"pytest", "hypothesis", "yaml"} <= third_party.keys()  # the scan sees them
    assert {m: f for m, f in third_party.items() if m not in declared} == {}
