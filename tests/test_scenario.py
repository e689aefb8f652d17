import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gyrowheel import scenario as scenario_module

from gyrowheel import (
    BalanceGains,
    PositionGains,
    ScenarioError,
    SimConfig,
    Smoothing,
    WheelState,
    bundled_scenario_path,
    parse_scenario,
    scenario_from_mapping,
)

from conftest import make_balance_mapping

BUNDLED = ("balance_default", "p2p_default", "line_5m", "corridor_demo")


def _p2p_mapping(**over):
    base = {
        "name": "p2p_case",
        "kind": "point_to_point",
        "dt": 1e-3,
        "t_end": 60.0,
        "initial": {
            "x_a": 3.0, "y_a": 4.0,
            "alpha": math.atan2(4.0, 3.0), "beta": math.pi / 2 + 0.02,
        },
        "target": {"x": 0.0, "y": 0.0},
        "gains": {"k3": 3.0, "k4": 1.0},
    }
    base.update(over)
    return base


def _line_mapping(**over):
    base = {
        "name": "line_case",
        "kind": "line",
        "dt": 1e-3,
        "t_end": 60.0,
        "initial": {"x_a": 0.0, "y_a": 0.0, "alpha": math.pi,
                    "beta": math.pi / 2 + 0.05},
        "waypoints": [[0.0, 0.0], [5.0, 0.0]],
        "gains": {"k3": 3.0, "k5": 1.5},
    }
    base.update(over)
    return base


class TestParsing:
    def test_balance_defaults(self):
        sc = scenario_from_mapping(make_balance_mapping())
        cfg = sc.config
        assert cfg.kind == "balance"
        assert cfg.mode == "torque"
        assert cfg.initial.beta == pytest.approx(math.pi / 2 + 0.1)
        assert cfg.gains.k1 == 1.0 and cfg.gains.k2 == 1.0
        # a minimal file: each field it leaves out is at its record's default
        minimal = {"kind": "balance", "t_end": 1.0, "initial": {"alpha_dot": 3.0, "beta": 1.6}}
        assert scenario_from_mapping(minimal).config == SimConfig(
            "balance", 1e-3, 1.0, WheelState(alpha_dot=3.0, beta=1.6), BalanceGains())

    def test_balance_lean_form_solves_rolling_rate(self):
        # gamma_dot0 chosen so the initial lean acceleration equals the
        # requested value through the gyroscopic coupling
        cfg = scenario_from_mapping(make_balance_mapping()).config
        assert cfg.initial.gamma_dot == pytest.approx(0.566514955703829, abs=1e-12)

    def test_balance_raw_form(self):
        m = make_balance_mapping()
        m["initial"] = {"beta": math.pi / 2 + 0.1, "beta_dot": 0.0,
                        "gamma_dot": 0.5, "alpha_dot": 1.0}
        cfg = scenario_from_mapping(m).config
        assert cfg.initial.gamma_dot == 0.5

    def test_balance_mixed_forms_rejected(self):
        m = make_balance_mapping()
        m["initial"]["beta"] = 1.6
        with pytest.raises(ScenarioError, match="lean"):
            scenario_from_mapping(m)

    def test_balance_zero_steering_rate_has_no_solvable_rolling_rate(self):
        m = make_balance_mapping(alpha_dot=0.0)
        with pytest.raises(ScenarioError):
            scenario_from_mapping(m)

    def test_velocity_mode_is_default_for_tracking(self):
        assert scenario_from_mapping(_p2p_mapping()).config.mode == "velocity"
        assert scenario_from_mapping(_line_mapping()).config.mode == "velocity"

    def test_tracking_initial_defaults(self):
        m = _p2p_mapping()
        m["initial"] = {"x_a": 3.0, "y_a": 4.0, "alpha": 0.9}
        cfg = scenario_from_mapping(m).config
        assert cfg.initial.beta == pytest.approx(math.pi / 2)
        assert cfg.initial.beta_dot == 0.0
        # a minimal file: each field it leaves out is at its record's default, but the
        # parser's hard_switching false keeps the smoothing that PositionGains leaves out
        minimal = {"kind": "point_to_point", "t_end": 1.0, "target": [1.0, 2.0],
                   "initial": {"x_a": 3.0, "y_a": 4.0, "alpha": 0.9}}
        assert scenario_from_mapping(minimal).config == SimConfig(
            "point_to_point", 1e-3, 1.0, WheelState(alpha=0.9, x_a=3.0, y_a=4.0),
            PositionGains(smoothing=Smoothing()), target=(1.0, 2.0))

    def test_smoothing_defaults(self):
        cfg = scenario_from_mapping(_p2p_mapping()).config
        assert cfg.gains.smoothing is not None
        assert cfg.gains.smoothing.k6 == 20.0
        assert cfg.gains.smoothing.k7 == 20.0

    def test_hard_switching_flag(self):
        m = _line_mapping(gains={"k3": 3.0, "k5": 1.5, "hard_switching": True})
        cfg = scenario_from_mapping(m).config
        assert cfg.gains.smoothing is None

    def test_hard_switching_excludes_slopes(self):
        m = _line_mapping(
            gains={"k3": 3.0, "k5": 1.5, "hard_switching": True, "k6": 20.0}
        )
        with pytest.raises(ScenarioError, match="hard_switching"):
            scenario_from_mapping(m)

    def test_gain_gate_message_names_constraint(self):
        m = _p2p_mapping(gains={"k3": 1.0, "k4": 1.0})
        with pytest.raises(ScenarioError, match=r"k3 > 2"):
            scenario_from_mapping(m)

    def test_distance_gain_window_gate(self):
        m = _p2p_mapping(gains={"k3": 3.0, "k4": 2.5})
        with pytest.raises(ScenarioError, match=r"k4 < k3 - 1"):
            scenario_from_mapping(m)

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "wobble_case.yaml"
        m = make_balance_mapping()
        del m["name"]
        path.write_text(yaml.safe_dump(m))
        assert parse_scenario(path).name == "wobble_case"


class TestRejection:
    def test_unknown_top_level_key(self):
        m = make_balance_mapping()
        m["velocity_limit"] = 3.0
        with pytest.raises(ScenarioError, match="velocity_limit"):
            scenario_from_mapping(m)

    def test_unknown_initial_key(self):
        m = make_balance_mapping()
        m["initial"]["tilt"] = 0.1
        with pytest.raises(ScenarioError, match="tilt"):
            scenario_from_mapping(m)

    def test_unknown_gain_key(self):
        m = make_balance_mapping()
        m["gains"]["k9"] = 1.0
        with pytest.raises(ScenarioError, match="k9"):
            scenario_from_mapping(m)

    def test_unknown_threshold_key(self):
        m = make_balance_mapping()
        m["thresholds"]["wobble"] = 1.0
        with pytest.raises(ScenarioError, match="wobble"):
            scenario_from_mapping(m)

    def test_kind_specific_gain_rejected(self):
        m = make_balance_mapping()
        m["gains"]["k5"] = 1.0
        with pytest.raises(ScenarioError, match="k5"):
            scenario_from_mapping(m)

    def test_bool_is_not_a_number(self):
        m = make_balance_mapping()
        m["dt"] = True
        with pytest.raises(ScenarioError, match="dt"):
            scenario_from_mapping(m)

    def test_unknown_kind(self):
        m = make_balance_mapping()
        m["kind"] = "spiral"
        with pytest.raises(ScenarioError):
            scenario_from_mapping(m)

    def test_target_only_for_point_to_point(self):
        m = make_balance_mapping()
        m["target"] = {"x": 0.0, "y": 0.0}
        with pytest.raises(ScenarioError, match="target"):
            scenario_from_mapping(m)
        missing = _p2p_mapping()
        del missing["target"]
        with pytest.raises(ScenarioError, match="target"):
            scenario_from_mapping(missing)

    def test_waypoints_only_for_line_kinds(self):
        m = _p2p_mapping(waypoints=[[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ScenarioError, match="waypoints"):
            scenario_from_mapping(m)

    def test_waypoints_need_two_points(self):
        m = _line_mapping(waypoints=[[0.0, 0.0]])
        with pytest.raises(ScenarioError, match="waypoints"):
            scenario_from_mapping(m)

    def test_coincident_waypoints_rejected(self):
        m = _line_mapping(waypoints=[[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ScenarioError, match=r"^waypoints\[1\]: coincides with waypoints\[0\]$"):
            scenario_from_mapping(m)

    def test_friction_only_in_torque_mode(self):
        m = _p2p_mapping(friction={"D": 0.05})
        with pytest.raises(ScenarioError, match="friction"):
            scenario_from_mapping(m)

    def test_actuator_lag_only_in_velocity_mode(self):
        m = make_balance_mapping()
        m["actuator_lag"] = 0.1
        with pytest.raises(ScenarioError, match="actuator_lag"):
            scenario_from_mapping(m)

    def test_rate_limit_gates(self):
        ok = _p2p_mapping(rate_limits={"alpha_dot_max": 4.0, "gamma_dot_max": 8.0})
        assert scenario_from_mapping(ok).rate_limits is not None
        tight = _p2p_mapping(rate_limits={"alpha_dot_max": 2.0, "gamma_dot_max": 9.0})
        with pytest.raises(ScenarioError, match="alpha_dot_max"):
            scenario_from_mapping(tight)
        slow_drive = _p2p_mapping(
            rate_limits={"alpha_dot_max": 4.0, "gamma_dot_max": 1.0}
        )
        with pytest.raises(ScenarioError, match="gamma_dot_max"):
            scenario_from_mapping(slow_drive)
        line_slow = _line_mapping(
            rate_limits={"alpha_dot_max": 4.0, "gamma_dot_max": 1.0}
        )
        with pytest.raises(ScenarioError, match="gamma_dot_max"):
            scenario_from_mapping(line_slow)

    def test_plot_channels_validated(self):
        m = make_balance_mapping()
        m["plot_channels"] = ["beta", "distance"]
        with pytest.raises(ScenarioError, match="distance"):
            scenario_from_mapping(m)

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_mapping([1, 2, 3])


def _p2p_gains(**gains):
    return _p2p_mapping(gains=gains)


def _line_gains(**gains):
    return _line_mapping(gains=gains)


def _with(mapping, **over):
    mapping.update(over)
    return mapping


# Exact texts, one fault per case; where a case has two faults, the text
# names the one checked first. `gyrowheel batch` prints these verbatim.
PINNED_ERRORS = {
    "k1": (make_balance_mapping(k1=-0.5),
           "gains.k1: constraint k1 >= 0 violated (got -0.5)"),
    "k2": (make_balance_mapping(k2=0.0),
           "gains.k2: constraint k2 > 0 violated (got 0.0)"),
    "k1_before_k2": (make_balance_mapping(k1=-0.5, k2=0.0),
                     "gains.k1: constraint k1 >= 0 violated (got -0.5)"),
    "k3": (_p2p_gains(k3=1.5, k4=1.0),
           "gains.k3: constraint k3 > 2 violated (got 1.5)"),
    "k4": (_p2p_gains(k3=3.0, k4=2.5),
           "gains.k4: constraint 0 < k4 < k3 - 1 violated (got 2.5)"),
    "k5": (_line_gains(k3=3.0, k5=0.0),
           "gains.k5: constraint k5 > 0 violated (got 0.0)"),
    "k6": (_line_gains(k3=3.0, k5=1.0, k6=0.0),
           "gains.k6: constraint k6 > 0 violated (got 0.0)"),
    "k7": (_line_gains(k3=3.0, k5=1.0, k7=-1.0),
           "gains.k7: constraint k7 > 0 violated (got -1.0)"),
    "k6_before_k3": (_p2p_gains(k3=1.5, k4=1.0, k6=-2.0),
                     "gains.k6: constraint k6 > 0 violated (got -2.0)"),
    "dt": (_with(make_balance_mapping(), dt=0),
           "dt: must be positive, got 0.0"),
    "t_end": (_with(make_balance_mapping(), dt=0.01, t_end=0.005),
              "t_end: must be at least dt, got 0.005"),
    "lag": (_p2p_mapping(actuator_lag=-1),
            "actuator_lag: must be non-negative, got -1.0"),
    "lag_in_torque_mode": (_with(make_balance_mapping(), actuator_lag=0.1),
                           "actuator_lag: applies to velocity (tracking) kinds only"),
    "friction_in_velocity_mode": (
        _p2p_mapping(friction={"D": 0.05}),
        "friction: joint friction applies in torque mode (balance runs) only"),
    "mode": (_p2p_mapping(mode="torque"),
             "mode: kind 'point_to_point' runs in 'velocity' mode, got 'torque'"),
    # the parser's own checks come before SimConfig's
    "stop_on_converged_before_lag": (
        _p2p_mapping(stop_on_converged="yes", actuator_lag=-1),
        "scenario.stop_on_converged: expected true/false, got 'yes'"),
    "plot_channel_before_lag": (
        _with(make_balance_mapping(), actuator_lag=0.1, plot_channels=["e"]),
        "plot_channels: unknown channel 'e' for kind 'balance'; valid channels: t, alpha, "
        "beta, gamma, alpha_dot, beta_dot, gamma_dot, beta_ddot, x_a, y_a, u_steer, "
        "u_drive, V"),
    "rate_limits_before_dt": (
        _p2p_mapping(dt=0, rate_limits={"alpha_dot_max": 2.0, "gamma_dot_max": 8.0}),
        "rate_limits.alpha_dot_max: steering commands reach k3 = 3.0, "
        "which exceeds alpha_dot_max = 2.0"),
}


@pytest.mark.parametrize("case", PINNED_ERRORS)
def test_error_text_is_pinned(case):
    mapping, text = PINNED_ERRORS[case]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_mapping(mapping)
    assert str(exc.value) == text


class TestFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="read"):
            parse_scenario(tmp_path / "absent.yaml")

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: [unclosed\n")
        with pytest.raises(ScenarioError):
            parse_scenario(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ScenarioError):
            parse_scenario(path)

    def test_scalar_document(self, tmp_path):
        path = tmp_path / "scalar.yaml"
        path.write_text("just a string\n")
        with pytest.raises(ScenarioError):
            parse_scenario(path)

    def test_bundled_paths_resolve(self):
        for name in BUNDLED:
            sc = parse_scenario(bundled_scenario_path(name))
            assert sc.name == name

    def test_bundled_unknown_name(self):
        with pytest.raises(ValueError, match="balance_default"):
            bundled_scenario_path("nonexistent")


class TestRoundTrip:
    # a mapping dumped to YAML text parses to the Scenario the mapping builds
    def test_serialize_parse_round_trip(self, tmp_path):
        m = _line_mapping(
            thresholds={"advance_radius": 0.4},
            rate_limits={"alpha_dot_max": 4.0, "gamma_dot_max": 9.0},
            actuator_lag=0.02,
            plot_channels=["beta", "d"],
        )
        path = tmp_path / "line_case.yaml"
        path.write_text(yaml.safe_dump(m))
        assert parse_scenario(path) == scenario_from_mapping(m)

    def test_round_trip_preserves_raw_balance_numbers(self, tmp_path):
        m = make_balance_mapping()
        m["initial"] = {"beta": math.pi / 2 + 0.1, "beta_dot": 0.1 + 0.2,
                        "gamma_dot": 0.566514955703829, "alpha_dot": 1.0 / 3.0}
        path = tmp_path / "balance_test.yaml"
        path.write_text(yaml.safe_dump(m))
        again = parse_scenario(path)
        assert {k: getattr(again.config.initial, k) for k in m["initial"]} == m["initial"]
        assert again == scenario_from_mapping(m)


# ------------------------------------------- libyaml against the pure loader
#
# parse_scenario loads with libyaml where it agrees with PyYAML's pure-Python
# loader, each refusing a mapping that repeats a key. Generated scenario text,
# valid and malformed, must give the same mapping or the same error through
# both, and the same Scenario or the same ScenarioError text through
# parse_scenario.

_BUNDLED_TEXT = [bundled_scenario_path(name).read_text() for name in BUNDLED]
_YAML_PIECES = (
    ":", "-", "[", "]", "{", "}", ",", "#", "'", '"', "\n", " ", "  ", "&a ", "*a", "? ",
    "<<: *a", "---", "...", "%YAML 1.1\n---\n", ".inf", ".nan", "-.inf", "1e400", "0x1F",
    "1_000", "yes", "~", "null", "2001-12-14", "\\", "\r\n", "- ", "\n  ", ": ", "{a: 1}",
    # text the two loaders read differently, which must go to the pure loader
    "\t", "!", "! ", "!!str ", "|", ">", ">#", "|-#", "\x85", "\u00e9", "\x00",
)


def _pure_load(text):
    return yaml.load(text, Loader=scenario_module._strict(yaml.SafeLoader))


def _outcome(load, text):
    try:
        return ("ok", repr(load(text)))
    except yaml.YAMLError as exc:
        return ("error", type(exc).__name__, str(exc))


def _parse_outcome(path):
    try:
        return ("ok", repr(parse_scenario(path)))
    except ScenarioError as exc:
        return ("error", str(exc))


@st.composite
def _scenario_mappings(draw):
    m = yaml.safe_load(draw(st.sampled_from(_BUNDLED_TEXT)))
    for block in ("initial", "gains"):
        for key in list(m.get(block, {})):
            if draw(st.booleans()):
                m[block][key] = draw(st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True), st.integers(-10, 10**20),
                    st.sampled_from([True, None, "x", [], {}]),
                ))
    if draw(st.booleans()):
        m["name"] = draw(st.text(max_size=8))
    return m


@st.composite
def _scenario_texts(draw):
    text = yaml.safe_dump(
        draw(_scenario_mappings()),
        sort_keys=draw(st.booleans()),
        default_flow_style=draw(st.sampled_from([False, True, None])),
        indent=draw(st.integers(2, 4)),
        allow_unicode=draw(st.booleans()),
    )
    for _ in range(draw(st.integers(0, 4))):  # malformed: edit the text
        i = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(_YAML_PIECES) | st.text(max_size=2))
        cut = draw(st.integers(0, 6))
        text = text[:i] + piece + text[i + cut:]
    return text


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_scenario_texts(), st.sampled_from(_BUNDLED_TEXT)))
def test_libyaml_and_the_pure_loader_agree_on_scenario_text(text):
    assert _outcome(scenario_module._load, text) == _outcome(_pure_load, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.yaml"
        path.write_text(text)
        fast = _parse_outcome(path)
        with mock.patch.object(scenario_module, "_load", _pure_load):
            assert _parse_outcome(path) == fast


@pytest.mark.parametrize("text", [
    "t_end: 1.0\t\n",  # libyaml accepts a tab after a value; the pure scanner refuses it
    "!",  # libyaml gives '', the pure loader None
    "name: >#x\n  y\n",  # libyaml accepts "#" right after a block scalar header
    "{n? ame: x}",  # libyaml reads a "?" inside a flow-style key as part of it
])
def test_text_the_loaders_read_differently_goes_to_the_pure_loader(text):
    fast = yaml.load(text, Loader=yaml.CSafeLoader) if yaml.__with_libyaml__ else None
    assert _outcome(scenario_module._load, text) == _outcome(yaml.safe_load, text)
    if yaml.__with_libyaml__:
        assert _outcome(lambda t: fast, text) != _outcome(yaml.safe_load, text)


_BALANCE_TEXT = "kind: balance\ninitial: {lean_offset: 0.05, alpha_dot: 3.0}\n"


@pytest.mark.parametrize("text, key", [
    (_BALANCE_TEXT + "t_end: 0.01\nt_end: 0.02\n", "t_end"),  # a top-level key
    (_BALANCE_TEXT + "t_end: 0.01\ngains: {k3: 3.0, k3: 2.5}\n", "k3"),  # a nested key
], ids=["top_level", "nested"])
def test_a_repeated_key_is_refused_by_both_loaders(text, key, tmp_path):
    # strict YAML: the later value must not silently replace the earlier one
    path = tmp_path / "repeated.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=f"found duplicate key '{key}'"):
        parse_scenario(path)
    outcome = _outcome(scenario_module._load, text)
    assert outcome[0] == "error" and outcome == _outcome(_pure_load, text)
    if yaml.__with_libyaml__:
        with pytest.raises(yaml.YAMLError, match=f"found duplicate key '{key}'"):
            yaml.load(text, Loader=scenario_module._strict(yaml.CSafeLoader))


def test_a_key_a_merge_brings_in_may_be_set_again():
    # only a mapping's own keys must be distinct: "<<" merges keys the mapping may override
    text = "a: &b {x: 1, y: 2}\nc: {<<: *b, x: 3}\n"
    assert scenario_module._load(text) == yaml.safe_load(text) == {
        "a": {"x": 1, "y": 2}, "c": {"x": 3, "y": 2}}
