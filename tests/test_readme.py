"""The README's contract tables against the code: the exit codes, the
channels of each kind, the bundled scenarios, the threshold defaults and
the keys of a report's certificate_decay block; and its Quick start
commands, run."""

import json
import re
import shlex
import shutil
from pathlib import Path

import gyrowheel
from gyrowheel import bundled_scenario_path, cli, decay_monitor, parse_scenario
from gyrowheel.simulate import _KINDS, CHANNEL_INFO, Thresholds

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _rows(text: str) -> list[list[str]]:
    """The body rows of the markdown tables in text, as lists of cells: every row
    but the rules and the headers above them."""
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in text.splitlines() if line.startswith("|")]
    rule = [set(row[0]) <= set("-:") for row in rows] + [False]
    return [row for i, row in enumerate(rows) if not (rule[i] or rule[i + 1])]


def _names(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


# a word of each exit code's row that names its meaning
EXIT_MEANINGS = {
    "EXIT_CONVERGED": "converged",
    "EXIT_NO_CONVERGENCE": "without convergence",
    "EXIT_TOPPLED": "toppled",
    "EXIT_INADMISSIBLE": "inadmissible",
    "EXIT_CONFIG": "configuration",
}


def test_exit_code_table_matches_the_cli():
    codes = {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    assert set(codes) == set(EXIT_MEANINGS)
    table = {int(row[0]): row[1] for row in _rows(_section("CLI reference"))
             if row[0].isdigit()}
    assert sorted(table) == sorted(codes.values())
    for name, code in codes.items():
        assert EXIT_MEANINGS[name] in table[code].lower(), (name, table[code])


def test_channel_list_matches_each_kind():
    text = " ".join(_section("Channels").split())
    common, tracking = text.split("Tracking kinds add")
    base = tuple(_names(common))
    assert _KINDS["balance"].channels == base
    shared, geometry = tracking.split("task geometry:")
    documented = {}
    for clause in geometry.split(".")[0].split(";"):
        names, kinds = clause.split(" for ")
        for kind in kinds.replace(" and ", ",").split(","):
            documented[kind.strip().replace("-", "_")] = base + tuple(_names(shared + names))
    assert documented == {kind: k.channels for kind, k in _KINDS.items() if kind != "balance"}
    named = set(_names(common + tracking)) - {"gyrowheel list-channels"}
    assert named == set(CHANNEL_INFO)


def test_bundled_scenario_table_matches_the_package():
    table = [row[0].strip("`") for row in _rows(_section("Bundled scenarios"))]
    shipped = Path(gyrowheel.__file__).parent / "scenarios"
    assert sorted(table) == sorted(p.stem for p in shipped.glob("*.yaml"))


def test_threshold_defaults_match_the_record():
    start = README.index("Threshold defaults:")
    text = README[start:README.index("\n\n", start)]
    documented = {name: float(value) for name, value in re.findall(r"`(\w+) ([^`]+)`", text)}
    defaults = Thresholds()
    assert documented == {name: getattr(defaults, name) for name in Thresholds._fields}


def test_decay_keys_match_a_report(tmp_path):
    start = README.index("Decay keys:")
    documented = _names(README[start:README.index(".", start)])
    cli.run_scenario(parse_scenario(bundled_scenario_path("balance_default")), tmp_path)
    block = json.loads((tmp_path / "report.json").read_text())["certificate_decay"]
    assert documented == list(block)
    assert list(decay_monitor([0.0, 1.0], [1.0, 0.5])) + ["channel"] == documented


def test_quick_start_commands_run(tmp_path, monkeypatch):
    block = _section("Quick start").split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("gyrowheel ")]
    assert {argv[0] for argv in commands} == {"run", "batch", "validate", "list-channels"}
    # a file of the checkout is read from there; my_scenario.yaml and experiments/
    # are copies of the bundled scenarios, and every output lands in tmp_path
    shipped = Path(gyrowheel.__file__).parent / "scenarios"
    (tmp_path / "experiments").mkdir()
    for path in shipped.glob("*.yaml"):
        shutil.copy(path, tmp_path / "experiments")
    shutil.copy(shipped / "balance_default.yaml", tmp_path / "my_scenario.yaml")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(ROOT / word) if (ROOT / word).is_file() else word for word in argv]
        assert cli.main(argv) == cli.EXIT_CONVERGED, argv
    assert (tmp_path / "runs" / "balance_default" / "report.json").is_file()
