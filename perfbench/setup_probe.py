"""Time one fresh interpreter's set-up: import gyrowheel.cli, then load a workload's inputs.

Usage:
    python3 perfbench/setup_probe.py <src dir> files <scenario file>...
    python3 perfbench/setup_probe.py <src dir> mappings <json list of mappings>

Prints the seconds from the first line of this script to the last input
loaded. Interpreter start-up before the script runs is not included.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import gyrowheel.cli  # noqa: F401  (the import is what is timed)
    from gyrowheel.scenario import ScenarioError, parse_scenario, scenario_from_mapping

    if sys.argv[2] == "files":
        for path in sys.argv[3:]:
            try:
                parse_scenario(path)
            except ScenarioError:
                pass  # the files meant to fail the schema still count as loaded
    else:
        import json

        with open(sys.argv[3]) as fh:
            for mapping in json.load(fh):
                scenario_from_mapping(mapping)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
