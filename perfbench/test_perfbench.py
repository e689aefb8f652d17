"""Tests of the benchmark itself: short-horizon smoke runs of every workload.

Run with: python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import gyrowheel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02  # horizons cut to 2 %: every code path, a fraction of the rows


def _workload(name, tmp_path, seed=run.REFERENCE_SEED, scale=SCALE):
    wl = workloads.WORKLOADS[name](run.ROOT, tmp_path / name, seed, scale)
    wl.write_inputs()
    return wl


def _digests(results):
    return {r.op_id: r.digest for r in results}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_and_restores_names(name, tmp_path):
    wl = _workload(name, tmp_path)
    plain = wl.run_pass()
    wl.clean()
    assert [r.error for r in plain if r.error] == []
    assert all(r.digest for r in plain)

    originals = {mod: dict(vars(mod)) for mod in tracing._package_modules()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gyrowheel.simulate.lean_accel is not originals[gyrowheel.simulate]["lean_accel"]
        traced = wl.run_pass(tracer)
    finally:
        tracer.restore()
    wl.clean()

    assert _digests(traced) == _digests(plain)
    assert tracer.patched > 0
    assert tracer.unrestored() == []
    for mod, names in originals.items():
        for key, value in names.items():
            assert vars(mod)[key] is value, f"{mod.__name__}.{key} not restored"
    # every operation but a schema error reaches the loop, inadmissible ones too
    assert tracer.calls_of("simulate.run_closed_loop") == sum(
        1 for r in plain if r.exit_code != 4)
    rows = sum(r.rows for r in traced)
    assert tracer.calls_of("controllers.BalanceController.command",
                           "controllers.PositionController.command",
                           "controllers.LineController.command") == rows


def _inputs(name, tmp_path, seed):
    wl = _workload(name, tmp_path / str(seed), seed)
    if name == "batch_json":
        return [p.read_bytes() for p in wl.paths]
    return wl.inputs.read_bytes()


@pytest.mark.parametrize("name", ["sweep_closed_loop", "batch_json"])
def test_inputs_depend_on_the_seed_alone(name, tmp_path):
    first = _inputs(name, tmp_path / "a", 7)
    assert _inputs(name, tmp_path / "b", 7) == first
    assert _inputs(name, tmp_path / "c", 8) != first


def test_batch_files_meant_to_fail_exit_as_expected(tmp_path):
    wl = _workload("batch_json", tmp_path)
    results = {r.op_id: r for r in wl.run_pass()}
    failing = [s for s in wl.specs if s.expect != workloads.OK_CODES]
    assert {s.expect for s in failing} == {(3,), (4,)}
    for spec in failing:
        assert results[spec.op_id].exit_code in spec.expect
        assert results[spec.op_id].error == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_horizon_digests_match_the_reference(name, tmp_path):
    wl = _workload(name, tmp_path, scale=1.0)
    reference = json.loads(run.REFERENCE.read_text())[name]
    assert _digests(wl.run_pass()) == reference


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [k for k in run.UNITS if k != "failed_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.LAYER_UNITS[m["name"]]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
