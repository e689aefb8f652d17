"""Scenario files: a strict YAML schema mapped onto SimConfig.

The schema is deliberately rigid. Unknown or repeated keys are rejected at
every level and gain constraints fail at parse time, so a typo'd experiment
dies with a diagnostic instead of silently running something else. Every
number must be finite: .inf, .nan and integers beyond the float range fail
at parse time with the key named. A number reaches the configuration as the
float of its YAML value, unrounded.

Top-level keys::

    name              optional file name (no /, \\, NUL or lone surrogate; not
                      . or ..; at most 255 UTF-8 bytes), defaults to the
                      file stem
    kind              balance | point_to_point | line | corridor
    mode              optional; must match the kind (balance -> torque,
                      tracking kinds -> velocity)
    dt                step size, default 0.001
    t_end             horizon, required
    stop_on_converged optional bool
    params            optional robot parameter overrides (m, R, Ix, g, M22)
    initial           initial state block, see below
    gains             gain block, see below
    target            {x, y}, point_to_point only
    waypoints         list of [x, y], line and corridor only (>= 2 entries)
    friction          optional {mu_v, mu_d, mu_s, D}, balance (torque) only
    thresholds        optional overrides of event thresholds
    actuator_lag      optional first-order lag time constant, velocity kinds
    rate_limits       optional capability gates, _RATE_LIMIT_KEYS
    plot_channels     optional list of channel names for plot_<channel>.csv

An omitted key takes its record's default: SimConfig's, or for a key of a
block its record's (WheelState's for initial). The parser holds only the
defaults no record has: dt's, the lean form's zeros, hard_switching false,
the file-stem name and the kind's plot channels. Each form of the initial
block is one table of its keys, marking the required ones: _BALANCE_COMMON
with _BALANCE_LEAN (the rolling rate is derived to realize the requested
lean acceleration) or _BALANCE_RAW, and _TRACKING_INITIAL.
"""

from __future__ import annotations

import math
import re
import reprlib
from functools import cache
from pathlib import Path

from .controllers import Smoothing
from .dynamics import WheelState
from .params import FrictionParams, Record, RobotParams, replace
from .simulate import _KINDS, KINDS, SimConfig, Thresholds

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_scenario",
    "scenario_from_mapping",
]

_REQUIRED = object()  # a table's mark for a key the block must give
# each form of the initial block maps its keys, in read order, to _REQUIRED or,
# for an optional key, to None: its default is WheelState's, or 0.0 for a lean key
_BALANCE_COMMON = {"alpha_dot": _REQUIRED, "alpha": None, "gamma": None, "x_a": None, "y_a": None}
_BALANCE_RAW = {"beta": _REQUIRED, "beta_dot": None, "gamma_dot": None}
_BALANCE_LEAN = dict.fromkeys(("lean_offset", "lean_rate", "lean_accel"))
_TRACKING_INITIAL = {"alpha": _REQUIRED, "beta": None, "gamma": None, "beta_dot": None,
                     "x_a": _REQUIRED, "y_a": _REQUIRED}
_RATE_LIMIT_KEYS = ("alpha_dot_max", "gamma_dot_max")


class ScenarioError(ValueError):
    """Scenario file is malformed or violates a schema constraint."""


class Scenario(Record):
    name: str
    config: SimConfig
    plot_channels: tuple[str, ...]
    rate_limits: tuple[float, float] | None = None


_TOP_KEYS = (*SimConfig._fields, *(k for k in Scenario._fields if k != "config"), "mode")


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


def _num(block: dict, key: str, where: str) -> float:
    if key not in block:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return _number(block[key], f"{where}.{key}")


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true/false, got {_echo(value)}")
    return value


def _triple(block: dict, key: str, where: str) -> tuple[float, float, float]:
    value = block[key]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{where}.{key}: expected a list of three numbers")
    return tuple(_number(item, f"{where}.{key}[{i}]") for i, item in enumerate(value))


def _point(value, where: str) -> tuple[float, float]:
    if isinstance(value, dict):
        return tuple(_read(value, {"x": _REQUIRED, "y": _REQUIRED}, where).values())
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return tuple(_number(item, f"{where}[{i}]") for i, item in enumerate(value))
    raise ScenarioError(f"{where}: expected {{x, y}} or [x, y]")


def _build(cls, where: str, **kwargs):
    """cls(**kwargs); the record's own ValueError becomes a ScenarioError at `where`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}{exc}") from None


def _read(block, table: dict, where: str) -> dict:
    """The values a mapping gives for the keys of `table`, read in its order.

    `table` maps each key to _REQUIRED or, if optional, to its default or
    None. An absent optional key is left out, for its record to fill; a key
    whose default is a tuple takes a list of three numbers, any other a number.
    """
    block = _require_mapping(block, where)
    _check_keys(block, table, where)
    values = {}
    for key, default in table.items():
        if key in block or default is _REQUIRED:  # _num refuses an absent key
            read = _triple if isinstance(default, tuple) else _num
            values[key] = read(block, key, where)
    return values


def _parse_block(data: dict, key: str, cls):
    """cls from the block at `key`, whose keys are cls's fields."""
    return _build(cls, f"{key}: ", **_read(data[key], cls._defaults, key))


def _parse_smoothing(block: dict, where: str) -> Smoothing | None:
    hard = _bool(block.get("hard_switching", False), f"{where}.hard_switching")
    if hard:
        if "k6" in block or "k7" in block:
            raise ScenarioError(f"{where}: hard_switching excludes k6/k7")
        return None
    kwargs = {k: _num(block, k, where) for k in Smoothing._fields if k in block}
    return _build(Smoothing, f"{where}.", **kwargs)


def _parse_gains(data: dict, kind: str):
    """The kind's gains from the gains block, keyed by the class's fields.

    An absent key keeps the class default. Smoothing's flat keys are read
    first, then the others in name order, k1 before k2."""
    cls = _KINDS[kind].gains
    names = cls._fields
    keys = tuple(sorted(k for k in names if k != "smoothing"))
    block = _require_mapping(data.get("gains", {}), "gains")
    kwargs = {}
    if "smoothing" in names:
        # a tracking gains block holds Smoothing's fields flat, beside hard_switching
        _check_keys(block, keys + Smoothing._fields + ("hard_switching",), "gains")
        kwargs["smoothing"] = _parse_smoothing(block, "gains")
    else:
        _check_keys(block, keys, "gains")
    kwargs.update((k, _num(block, k, "gains")) for k in keys if k in block)
    return _build(cls, "gains.", **kwargs)


def _parse_initial(data: dict, kind: str, params: RobotParams) -> WheelState:
    block = _require_mapping(data.get("initial"), "initial")
    if kind != "balance":
        return WheelState(**_read(block, _TRACKING_INITIAL, "initial"))
    raw = [k for k in _BALANCE_RAW if k in block]
    lean = [k for k in _BALANCE_LEAN if k in block]
    if raw and lean:
        raise ScenarioError(
            f"initial: mixes raw state key {raw[0]!r} with lean data key {lean[0]!r}"
        )
    values = _read(block, {**_BALANCE_COMMON, **(_BALANCE_RAW if raw else _BALANCE_LEAN)},
                   "initial")
    if raw:  # SimConfig refuses an alpha_dot whose square overflows
        return WheelState(**values)
    a, b, c = (values.pop(k, 0.0) for k in _BALANCE_LEAN)
    st = WheelState(beta=math.pi / 2.0 + a, beta_dot=b, **values)
    # invert the lean dynamics for the rolling rate that realizes c
    Gm, Im, Jm = params.reduced()
    sb, cb = math.sin(st.beta), math.cos(st.beta)
    denom = Jm * sb * st.alpha_dot
    if denom == 0.0:
        raise ScenarioError(
            "initial: alpha_dot must be nonzero (and beta away from 0, pi) "
            "to realize the requested lean_accel"
        )
    try:
        gamma_dot = -(c + Gm * cb + Im * cb * sb * st.alpha_dot**2) / denom
    except OverflowError:
        gamma_dot = math.inf
    if not math.isfinite(gamma_dot):
        raise ScenarioError(
            f"initial: alpha_dot = {st.alpha_dot!r} is too small or too large to "
            "realize the requested lean_accel with a finite gamma_dot"
        )
    return replace(st, gamma_dot=gamma_dot)


def _parse_rate_limits(data: dict, kind: str, gains, initial: WheelState, target):
    if "rate_limits" not in data:
        return None
    if kind == "balance":
        raise ScenarioError("rate_limits: applies to velocity (tracking) kinds only")
    limits = _read(data["rate_limits"], dict.fromkeys(_RATE_LIMIT_KEYS, _REQUIRED), "rate_limits")
    for key, value in limits.items():
        if not value > 0.0:
            raise ScenarioError(
                f"rate_limits.{key}: constraint {key} > 0 violated (got {value})"
            )
    a_max, g_max = limits.values()
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
        return _KINDS[kind].plots
    value = data["plot_channels"]
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError("plot_channels: expected a non-empty list of channel names")
    valid = _KINDS[kind].channels
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
    # run writes to runs/<name>; a name absent from the file is the file's stem
    source = "" if "name" in data else " (no name key: the default taken from the file name)"
    # a lone surrogate (a YAML "\ud800" escape) has no UTF-8 form for the file system
    if name in (".", "..") or any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in name):
        raise ScenarioError(f"name: expected a plain file name, got {_echo(name)}{source}")
    size = len(name.encode())
    if size > 255:  # the longest file name of common file systems
        raise ScenarioError(f"name: expected at most 255 UTF-8 bytes, got {size}{source}")

    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind: expected one of {', '.join(KINDS)}, got {_echo(kind)}")

    required_mode = _KINDS[kind].mode
    mode = data.get("mode", required_mode)
    if mode != required_mode:
        raise ScenarioError(
            f"mode: kind {kind!r} runs in {required_mode!r} mode, got {_echo(mode)}"
        )

    dt = _num(data, "dt", "scenario") if "dt" in data else 1e-3
    t_end = _num(data, "t_end", "scenario")
    given = {}  # the optional fields of SimConfig that the file gives
    if "params" in data:
        given["params"] = _parse_block(data, "params", RobotParams)
    gains = _parse_gains(data, kind)
    if "initial" not in data:
        raise ScenarioError("scenario: missing required key 'initial'")
    initial = _parse_initial(data, kind, given.get("params", SimConfig.params))

    if kind == "point_to_point":
        if "target" not in data:
            raise ScenarioError("scenario: missing required key 'target'")
        given["target"] = _point(data["target"], "target")
    elif "target" in data:
        raise ScenarioError(f"target: not used by kind {kind!r}")

    if kind in ("line", "corridor"):
        wp = data.get("waypoints")
        if not isinstance(wp, (list, tuple)) or len(wp) < 2:
            raise ScenarioError("waypoints: expected a list of at least two [x, y] points")
        given["waypoints"] = tuple(_point(item, f"waypoints[{i}]") for i, item in enumerate(wp))
    elif "waypoints" in data:
        raise ScenarioError(f"waypoints: not used by kind {kind!r}")

    for key, cls in (("friction", FrictionParams), ("thresholds", Thresholds)):
        if key in data:
            given[key] = _parse_block(data, key, cls)
    if "stop_on_converged" in data:
        given["stop_on_converged"] = _bool(data["stop_on_converged"], "scenario.stop_on_converged")
    if "actuator_lag" in data:
        given["actuator_lag"] = _num(data, "actuator_lag", "scenario")
    rate_limits = _parse_rate_limits(data, kind, gains, initial, given.get("target"))
    plot_channels = _parse_plot_channels(data, kind)

    config = _build(SimConfig, "", kind=kind, dt=dt, t_end=t_end, initial=initial, gains=gains,
                    **given)
    return Scenario(
        name=name, config=config, plot_channels=plot_channels, rate_limits=rate_limits
    )


# libyaml accepts some text that PyYAML's pure-Python scanner refuses, or
# reads it differently: a tab after a value, an empty "!" node, a block
# scalar header followed by "#", a "?" inside a flow-style key. No scenario
# needs these, so text with a tab, a tag, a block scalar indicator, a "?" or
# a character outside printable ASCII goes to the pure-Python loader.
_PURE_ONLY = re.compile(r"[^\n\r -~]|[!|>?]")


@cache
def _strict(loader):
    """The PyYAML loader class ``loader``, refusing a mapping that repeats one of its own keys."""
    import yaml

    class Strict(loader):
        def construct_mapping(self, node, deep=False):
            own = list(node.value)  # its own pairs, before super() splices in a << merge's
            mapping = super().construct_mapping(node, deep)
            seen = []
            for key_node in (k for k, _ in own if k.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)  # built by the call above
                if key in seen:
                    raise yaml.constructor.ConstructorError("while constructing a mapping",
                        node.start_mark, f"found duplicate key {key!r}", key_node.start_mark)
                seen.append(key)
            return mapping

    return Strict


def _load(text: str):
    """yaml.safe_load(text) refusing a repeated key, parsed by libyaml where the loaders agree.

    libyaml words its errors differently, so text it refuses is parsed again
    by the pure-Python loader, which raises the error yaml.safe_load would.
    """
    import yaml

    fast = getattr(yaml, "CSafeLoader", None)  # libyaml, when PyYAML was built with it
    if fast is not None and not _PURE_ONLY.search(text):
        try:
            return yaml.load(text, Loader=_strict(fast))
        except yaml.YAMLError:
            pass
    return yaml.load(text, Loader=_strict(yaml.SafeLoader))


def parse_scenario(path) -> Scenario:
    """Load and validate one scenario file; the first call imports PyYAML."""
    import yaml

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
