"""The README's contract tables against the code: the exit codes, the
channels of each kind and the bundled scenarios."""

import re
from pathlib import Path

import gyrowheel
from gyrowheel import cli
from gyrowheel.simulate import _KINDS, CHANNEL_INFO

README = (Path(__file__).parents[1] / "README.md").read_text()


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
