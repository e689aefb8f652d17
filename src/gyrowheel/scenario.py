"""Scenario files: a strict YAML schema mapped onto SimConfig.

The schema is deliberately rigid. Unknown keys are rejected at every level
and gain constraints fail at parse time, so a typo'd experiment dies with a
diagnostic instead of silently running something else. Every number must
be finite: .inf, .nan and integers beyond the float range fail at parse time
with the key named. parse and serialize round-trip exactly: every number
passes through untouched.

Top-level keys::

    name              optional str, defaults to the file stem
    kind              balance | point_to_point | line | corridor
    mode              optional; must match the kind (balance -> torque,
                      tracking kinds -> velocity)
    dt                step size, default 0.001
    t_end             horizon, required
    stop_on_converged optional bool, default true
    params            optional robot parameter overrides (m, R, Ix, g, M22)
    initial           initial state block, see below
    gains             gain block, see below
    target            {x, y}, point_to_point only
    waypoints         list of [x, y], line and corridor only (>= 2 entries)
    friction          optional {mu_v, mu_d, mu_s, D}, balance (torque) only
    thresholds        optional overrides of event thresholds
    actuator_lag      optional first-order lag time constant, velocity kinds
    rate_limits       optional {alpha_dot_max, gamma_dot_max} capability gates
    plot_channels     optional list of channel names for plot_<channel>.csv

The balance initial block takes either lean data (lean_offset, lean_rate,
lean_accel) with the rolling rate derived to realize the requested lean
acceleration, or the raw state (beta, beta_dot, gamma_dot); alpha_dot is
required either way. Tracking initial blocks take pose data (x_a, y_a,
alpha) with optional beta, beta_dot, gamma.
"""

from __future__ import annotations

import math
import re
import reprlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import yaml

from .controllers import BalanceGains, LineGains, PositionGains, Smoothing
from .params import FrictionParams, RobotParams
from .simulate import _KIND_CHANNELS, _KIND_MODE, KINDS, SimConfig, Thresholds, WheelState

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_scenario",
    "scenario_from_mapping",
    "scenario_to_mapping",
    "serialize_scenario",
]

_TOP_KEYS = (
    "name", "kind", "mode", "dt", "t_end", "stop_on_converged", "params",
    "initial", "gains", "target", "waypoints", "friction", "thresholds",
    "actuator_lag", "rate_limits", "plot_channels",
)
# the keys of these blocks are the dataclasses' fields (RobotParams' derived Gm, Im, Jm excluded)
_PARAM_KEYS = tuple(f.name for f in fields(RobotParams) if f.init)
_FRICTION_KEYS = tuple(f.name for f in fields(FrictionParams))
_THRESHOLD_KEYS = tuple(f.name for f in fields(Thresholds))
_BALANCE_LEAN_KEYS = ("lean_offset", "lean_rate", "lean_accel")
_BALANCE_RAW_KEYS = ("beta", "beta_dot", "gamma_dot")
_BALANCE_COMMON_KEYS = ("alpha", "gamma", "alpha_dot", "x_a", "y_a")
_TRACKING_INITIAL_KEYS = ("x_a", "y_a", "alpha", "beta", "beta_dot", "gamma")
_GAIN_KEYS = {
    "balance": ("k1", "k2"),
    "point_to_point": ("k3", "k4", "k6", "k7", "hard_switching"),
    "line": ("k3", "k5", "k6", "k7", "hard_switching"),
    "corridor": ("k3", "k5", "k6", "k7", "hard_switching"),
}
_RATE_LIMIT_KEYS = ("alpha_dot_max", "gamma_dot_max")

_DEFAULT_PLOTS = {
    "balance": ("beta", "alpha_dot", "gamma_dot", "V"),
    "point_to_point": ("e", "psi", "beta", "V1"),
    "line": ("e", "d", "beta", "segment"),
    "corridor": ("e", "d", "beta", "segment"),
}


class ScenarioError(ValueError):
    """Scenario file is malformed or violates a schema constraint."""


@dataclass(frozen=True)
class Scenario:
    name: str
    config: SimConfig
    plot_channels: tuple[str, ...]
    rate_limits: tuple[float, float] | None = None


# A schema error echoes a value it refuses through _echo: a number keeps its
# full text, anything else is cut to a bounded length and nesting depth.
_BOUNDED = reprlib.Repr()
_BOUNDED.maxstring = _BOUNDED.maxother = 60


def _echo(value) -> str:
    return repr(value) if isinstance(value, (int, float)) else _BOUNDED.repr(value)


def _check_keys(block: dict, allowed, where: str) -> None:
    for key in block:
        if key not in allowed:
            raise ScenarioError(f"{where or 'scenario'}: unknown key {_echo(key)}")


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    return value


def _number(value, where: str) -> float:
    """The float of a YAML number; a non-number or a non-finite one fails at `where`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {_echo(value)}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return out


def _num(block: dict, key: str, where: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        return default
    return _number(block[key], f"{where}.{key}")


def _bool(block: dict, key: str, where: str, default: bool) -> bool:
    if key not in block:
        return default
    value = block[key]
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}.{key}: expected true/false, got {_echo(value)}")
    return value


def _triple(block: dict, key: str, where: str) -> tuple[float, float, float]:
    value = block.get(key)
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{where}.{key}: expected a list of three numbers")
    return tuple(_number(item, f"{where}.{key}[{i}]") for i, item in enumerate(value))


def _point(value, where: str) -> tuple[float, float]:
    if isinstance(value, dict):
        _check_keys(value, ("x", "y"), where)
        return (_num(value, "x", where), _num(value, "y", where))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return tuple(_number(item, f"{where}[{i}]") for i, item in enumerate(value))
    raise ScenarioError(f"{where}: expected {{x, y}} or [x, y]")


def _build(cls, where: str, **kwargs):
    """cls(**kwargs); the dataclass's own ValueError becomes a ScenarioError at `where`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}{exc}") from None


def _parse_block(data: dict, key: str, cls, keys: tuple):
    """cls from the block at `key`, whose keys are cls's fields; an absent block is empty.

    Values are read in the order of keys; a field whose default is a tuple
    takes a list of three numbers.
    """
    block = _require_mapping(data.get(key, {}), key)
    _check_keys(block, keys, key)
    kwargs = {k: (_triple if isinstance(getattr(cls, k), tuple) else _num)(block, k, key)
              for k in keys if k in block}
    return _build(cls, f"{key}: ", **kwargs)


def _parse_smoothing(block: dict, where: str) -> Smoothing | None:
    hard = _bool(block, "hard_switching", where, default=False)
    if hard:
        if "k6" in block or "k7" in block:
            raise ScenarioError(f"{where}: hard_switching excludes k6/k7")
        return None
    k6 = _num(block, "k6", where, 20.0)
    k7 = _num(block, "k7", where, 20.0)
    return _build(Smoothing, f"{where}.", k6=k6, k7=k7)


def _parse_gains(data: dict, kind: str):
    block = _require_mapping(data.get("gains", {}), "gains")
    _check_keys(block, _GAIN_KEYS[kind], "gains")
    if kind == "balance":
        k1 = _num(block, "k1", "gains", 1.0)
        k2 = _num(block, "k2", "gains", 1.0)
        return _build(BalanceGains, "gains.", k2=k2, k1=k1)
    smoothing = _parse_smoothing(block, "gains")
    k3 = _num(block, "k3", "gains", 3.0)
    if kind == "point_to_point":
        k4 = _num(block, "k4", "gains", 1.0)
        return _build(PositionGains, "gains.", k3=k3, k4=k4, smoothing=smoothing)
    k5 = _num(block, "k5", "gains", 1.0)
    return _build(LineGains, "gains.", k3=k3, k5=k5, smoothing=smoothing)


def _parse_initial(data: dict, kind: str, params: RobotParams) -> WheelState:
    block = _require_mapping(data.get("initial"), "initial")
    if kind == "balance":
        raw = [k for k in _BALANCE_RAW_KEYS if k in block]
        lean = [k for k in _BALANCE_LEAN_KEYS if k in block]
        if raw and lean:
            raise ScenarioError(
                f"initial: mixes raw state key {raw[0]!r} with lean data key {lean[0]!r}"
            )
        allowed = _BALANCE_COMMON_KEYS + (_BALANCE_RAW_KEYS if raw else _BALANCE_LEAN_KEYS)
        _check_keys(block, allowed, "initial")
        alpha_dot = _num(block, "alpha_dot", "initial")
        alpha = _num(block, "alpha", "initial", 0.0)
        gamma = _num(block, "gamma", "initial", 0.0)
        x_a = _num(block, "x_a", "initial", 0.0)
        y_a = _num(block, "y_a", "initial", 0.0)
        if raw:
            beta = _num(block, "beta", "initial")
            beta_dot = _num(block, "beta_dot", "initial", 0.0)
            gamma_dot = _num(block, "gamma_dot", "initial", 0.0)
            try:
                alpha_dot**2  # the lean dynamics square the steering rate
            except OverflowError:
                raise ScenarioError(
                    f"initial.alpha_dot: {alpha_dot!r} is too large: the lean "
                    "acceleration squares it beyond the float range"
                ) from None
        else:
            a = _num(block, "lean_offset", "initial", 0.0)
            b = _num(block, "lean_rate", "initial", 0.0)
            c = _num(block, "lean_accel", "initial", 0.0)
            beta = math.pi / 2.0 + a
            beta_dot = b
            # invert the lean dynamics for the rolling rate that realizes c
            Gm, Im, Jm = params.reduced()
            sb, cb = math.sin(beta), math.cos(beta)
            denom = Jm * sb * alpha_dot
            if denom == 0.0:
                raise ScenarioError(
                    "initial: alpha_dot must be nonzero (and beta away from 0, pi) "
                    "to realize the requested lean_accel"
                )
            try:
                gamma_dot = -(c + Gm * cb + Im * cb * sb * alpha_dot**2) / denom
            except OverflowError:
                gamma_dot = math.inf
            if not math.isfinite(gamma_dot):
                raise ScenarioError(
                    f"initial: alpha_dot = {alpha_dot!r} is too small or too large to "
                    "realize the requested lean_accel with a finite gamma_dot"
                )
        return WheelState(
            alpha=alpha, beta=beta, gamma=gamma,
            alpha_dot=alpha_dot, beta_dot=beta_dot, gamma_dot=gamma_dot,
            x_a=x_a, y_a=y_a,
        )
    _check_keys(block, _TRACKING_INITIAL_KEYS, "initial")
    return WheelState(
        alpha=_num(block, "alpha", "initial"),
        beta=_num(block, "beta", "initial", math.pi / 2.0),
        gamma=_num(block, "gamma", "initial", 0.0),
        alpha_dot=0.0,
        beta_dot=_num(block, "beta_dot", "initial", 0.0),
        gamma_dot=0.0,
        x_a=_num(block, "x_a", "initial"),
        y_a=_num(block, "y_a", "initial"),
    )


def _parse_rate_limits(data: dict, kind: str, gains, initial: WheelState, target):
    if "rate_limits" not in data:
        return None
    if kind == "balance":
        raise ScenarioError("rate_limits: applies to velocity (tracking) kinds only")
    block = _require_mapping(data["rate_limits"], "rate_limits")
    _check_keys(block, _RATE_LIMIT_KEYS, "rate_limits")
    a_max = _num(block, "alpha_dot_max", "rate_limits")
    g_max = _num(block, "gamma_dot_max", "rate_limits")
    for key, value in (("alpha_dot_max", a_max), ("gamma_dot_max", g_max)):
        if not value > 0.0:
            raise ScenarioError(
                f"rate_limits.{key}: constraint {key} > 0 violated (got {value})"
            )
    # the steering command is bounded by k3; the drive bound is checked where known
    if gains.k3 >= a_max:
        raise ScenarioError(
            f"rate_limits.alpha_dot_max: steering commands reach k3 = {gains.k3}, "
            f"which exceeds alpha_dot_max = {a_max}"
        )
    if kind == "point_to_point":
        e0 = math.hypot(initial.x_a - target[0], initial.y_a - target[1])
        if gains.k4 * e0 >= g_max:
            raise ScenarioError(
                f"rate_limits.gamma_dot_max: initial drive demand k4*e(0) = "
                f"{gains.k4 * e0} exceeds gamma_dot_max = {g_max}"
            )
    elif gains.k5 >= g_max:
        raise ScenarioError(
            f"rate_limits.gamma_dot_max: drive commands reach k5 = {gains.k5}, "
            f"which exceeds gamma_dot_max = {g_max}"
        )
    return (a_max, g_max)


def _parse_plot_channels(data: dict, kind: str) -> tuple[str, ...]:
    if "plot_channels" not in data:
        return _DEFAULT_PLOTS[kind]
    value = data["plot_channels"]
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError("plot_channels: expected a non-empty list of channel names")
    valid = _KIND_CHANNELS[kind]
    out = []
    for item in value:
        if not isinstance(item, str):
            raise ScenarioError(f"plot_channels: expected a name, got {_echo(item)}")
        if item not in valid:
            raise ScenarioError(
                f"plot_channels: unknown channel {_echo(item)} for kind {kind!r}; "
                f"valid channels: {', '.join(valid)}"
            )
        out.append(item)
    return tuple(out)


def scenario_from_mapping(data: dict, default_name: str = "scenario") -> Scenario:
    """Validate a parsed mapping and build the Scenario. Strict: unknown keys fail."""
    data = _require_mapping(data, "scenario")
    _check_keys(data, _TOP_KEYS, "")

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"name: expected a non-empty string, got {_echo(name)}")

    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind: expected one of {', '.join(KINDS)}, got {_echo(kind)}")

    required_mode = _KIND_MODE[kind]
    mode = data.get("mode", required_mode)
    if mode != required_mode:
        raise ScenarioError(
            f"mode: kind {kind!r} runs in {required_mode!r} mode, got {_echo(mode)}"
        )

    dt = _num(data, "dt", "scenario", default=1e-3)
    t_end = _num(data, "t_end", "scenario")
    params = _parse_block(data, "params", RobotParams, _PARAM_KEYS)
    gains = _parse_gains(data, kind)
    if "initial" not in data:
        raise ScenarioError("scenario: missing required key 'initial'")
    initial = _parse_initial(data, kind, params)

    target = (0.0, 0.0)
    if kind == "point_to_point":
        if "target" not in data:
            raise ScenarioError("scenario: missing required key 'target'")
        target = _point(data["target"], "target")
    elif "target" in data:
        raise ScenarioError(f"target: not used by kind {kind!r}")

    waypoints: tuple = ()
    if kind in ("line", "corridor"):
        wp = data.get("waypoints")
        if not isinstance(wp, (list, tuple)) or len(wp) < 2:
            raise ScenarioError("waypoints: expected a list of at least two [x, y] points")
        waypoints = tuple(_point(item, f"waypoints[{i}]") for i, item in enumerate(wp))
        for i in range(len(waypoints) - 1):
            a, b = waypoints[i], waypoints[i + 1]
            if math.hypot(b[0] - a[0], b[1] - a[1]) <= 1e-9:
                raise ScenarioError(f"waypoints[{i + 1}]: coincides with waypoints[{i}]")
    elif "waypoints" in data:
        raise ScenarioError(f"waypoints: not used by kind {kind!r}")

    friction = (_parse_block(data, "friction", FrictionParams, _FRICTION_KEYS)
                if "friction" in data else None)
    thresholds = _parse_block(data, "thresholds", Thresholds, _THRESHOLD_KEYS)
    stop_on_converged = _bool(data, "stop_on_converged", "scenario", default=True)
    actuator_lag = _num(data, "actuator_lag", "scenario", default=0.0)
    rate_limits = _parse_rate_limits(data, kind, gains, initial, target)
    plot_channels = _parse_plot_channels(data, kind)

    config = _build(
        SimConfig,
        "",
        kind=kind,
        dt=dt,
        t_end=t_end,
        initial=initial,
        gains=gains,
        params=params,
        target=target,
        waypoints=waypoints,
        friction=friction,
        thresholds=thresholds,
        stop_on_converged=stop_on_converged,
        actuator_lag=actuator_lag,
    )
    return Scenario(
        name=name, config=config, plot_channels=plot_channels, rate_limits=rate_limits
    )


_FAST_LOADER = getattr(yaml, "CSafeLoader", None)  # libyaml, when PyYAML was built with it
# libyaml accepts some text that PyYAML's pure-Python scanner refuses, or
# reads it differently: a tab after a value, an empty "!" node, a block
# scalar header followed by "#", a "?" inside a flow-style key. No scenario
# needs these, so text with a tab, a tag, a block scalar indicator, a "?" or
# a character outside printable ASCII goes to the pure-Python loader.
_PURE_ONLY = re.compile(r"[^\n\r -~]|[!|>?]")


def _load(text: str):
    """yaml.safe_load(text), parsed by libyaml where the two loaders agree.

    libyaml words its errors differently, so text it refuses is parsed again
    by the pure-Python loader, which raises the error yaml.safe_load would.
    """
    if _FAST_LOADER is not None and not _PURE_ONLY.search(text):
        try:
            return yaml.load(text, Loader=_FAST_LOADER)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


def parse_scenario(path) -> Scenario:
    """Load and validate one scenario file."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8 text
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from None
    try:
        data = _load(text)
    # ValueError: an integer past Python's int-string limit; RecursionError:
    # nesting deeper than the pure-Python loader's recursion reaches
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"{p}: malformed scenario file: {exc}") from None
    if data is None:
        raise ScenarioError(f"{p}: empty scenario file")
    if not isinstance(data, dict):
        raise ScenarioError(f"{p}: top level must be a mapping")
    return scenario_from_mapping(data, default_name=p.stem)


def _fields(obj, keys) -> dict:
    return {key: getattr(obj, key) for key in keys}


def scenario_to_mapping(sc: Scenario) -> dict:
    """Canonical mapping form; parse(serialize) round-trips exactly."""
    cfg = sc.config
    out: dict = {"name": sc.name, "kind": cfg.kind, "dt": cfg.dt, "t_end": cfg.t_end,
                 "stop_on_converged": cfg.stop_on_converged}
    out["params"] = _fields(cfg.params, _PARAM_KEYS)
    out["initial"] = _fields(cfg.initial, _BALANCE_COMMON_KEYS + _BALANCE_RAW_KEYS
                             if cfg.kind == "balance" else _TRACKING_INITIAL_KEYS)
    # a tracking law's smoothing gains stand beside k3; hard switching is their absence
    smoothing = getattr(cfg.gains, "smoothing", None)
    gains = {**vars(cfg.gains), **(vars(smoothing) if smoothing else {"hard_switching": True})}
    out["gains"] = {key: gains[key] for key in _GAIN_KEYS[cfg.kind] if key in gains}
    if cfg.kind == "point_to_point":
        out["target"] = {"x": cfg.target[0], "y": cfg.target[1]}
    if cfg.kind in ("line", "corridor"):
        out["waypoints"] = [[x, y] for x, y in cfg.waypoints]
    if cfg.friction is not None:
        out["friction"] = {k: list(v) if isinstance(v, tuple) else v
                           for k, v in _fields(cfg.friction, _FRICTION_KEYS).items()}
    out["thresholds"] = _fields(cfg.thresholds, _THRESHOLD_KEYS)
    if cfg.actuator_lag > 0.0:
        out["actuator_lag"] = cfg.actuator_lag
    if sc.rate_limits is not None:
        out["rate_limits"] = dict(zip(_RATE_LIMIT_KEYS, sc.rate_limits))
    out["plot_channels"] = list(sc.plot_channels)
    return out


def serialize_scenario(sc: Scenario) -> str:
    """YAML text whose parse equals sc."""
    return yaml.safe_dump(scenario_to_mapping(sc), sort_keys=False)
