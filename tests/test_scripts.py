"""Smoke test of the studies in scripts/: each runs at its smallest setting.

Each script is started as a user starts it, in a fresh interpreter, and
must exit 0 and print exactly the stdout pinned below: the header and the
figures of every row. A reader that closes the pipe after the header, as
`| head -1` does, must make a script end with exit code 4, not a traceback,
and so must a flag the script does not know and a --help whose stdout is
closed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> (arguments of its smallest setting, its whole stdout there)
STUDIES = {
    "decay_rate_study.py": (
        ["--t-end", "1", "--k1", "1.0"],
        "   k1   fitted rate   predicted   max step increase\n"
        " 1.00       -2.0017       -2.00          -8.121e-06\n",
    ),
    "aiming_sensitivity.py": (
        ["--offsets", "0.005"],
        "offset [rad]  converged   time [s]   min e [m]   5sin|o|   path [m]\n"
        "       0.005       True      4.520      0.0500    0.0250      4.963\n",
    ),
    "chatter_comparison.py": (
        ["--sharpness", "20"],
        " switching  converged   time [s]  sign flips   variation    final d    final e\n"
        "      hard      False     60.000        2237    13422.00     4.9732     0.0007\n"
        "      k=20       True      6.767        6657      681.06     0.0499     0.0000\n",
    ),
}


@pytest.mark.parametrize("script", sorted(STUDIES))
def test_study_runs_at_its_smallest_setting(script):
    args, stdout = STUDIES[script]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == stdout


@pytest.mark.parametrize("script", sorted(STUDIES))
def test_study_exits_4_on_a_bad_flag(script):
    # argparse's usage error ends in run_command, as the CLI's does: exit 4, usage on stderr
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--no-such-flag"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(f"usage: {script}")
    assert done.stderr.endswith("error: unrecognized arguments: --no-such-flag\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("script", sorted(STUDIES))
def test_study_help_into_a_closed_stdout_exits_4(script, unbuffered):
    # stdout is a pipe whose reader is gone before the start: the help's write (or, when
    # buffered, the flush at the end) fails, and the study ends with 4 and nothing on stderr
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(write)
    assert done.returncode == 4, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("script", sorted(STUDIES))
def test_study_stops_quietly_when_stdout_closes_early(script):
    args, stdout = STUDIES[script]
    header = stdout.splitlines()[0]
    # unbuffered, so the header reaches the pipe before the first row is computed
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert proc.stdout.readline().rstrip("\n") == header
        proc.stdout.close()  # the next row is written into a closed pipe
        err = proc.stderr.read()
        proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 4, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
