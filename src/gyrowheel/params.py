"""Physical parameters of the wheel robot and the derived reduced coefficients.

The robot is a rolling disk with an internal spinning flywheel. Three angles
describe its attitude: the steering angle alpha (heading of the contact line),
the lean angle beta (pi/2 is upright), and the rolling angle gamma. The
parameters below feed every dynamics evaluation in the package. Record, the
base of the package's frozen records, and replace live here too, at the
bottom of the import graph.
"""

from __future__ import annotations

import math

__all__ = ["RobotParams", "FrictionParams", "replace"]


class Record:
    """Base of the package's frozen records.

    A subclass's fields are its own annotations, in order, and a class
    attribute of the same name is the field's default. A record is built by
    position or by keyword, and __post_init__ checks it on every build.
    Fields cannot be assigned to; == and hash compare the class and the
    field values, and repr reads Name(field=value, ...).
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if (len(args) > len(cls._fields) or not given.keys().isdisjoint(kwargs)
                or values.keys() != set(cls._fields)):
            raise TypeError(
                f"{cls.__name__}() takes the fields {', '.join(cls._fields)}; got "
                f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        pairs = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(pairs)})"


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with `changes`, built and checked anew."""
    return type(record)(**dict(zip(record._fields, record._values()), **changes))


class RobotParams(Record):
    """Physical constants of the wheel.

    Attributes:
        m: total mass in kg.
        R: wheel radius in m.
        Ix: transverse moment of inertia in kg m^2.
        g: gravitational acceleration in m/s^2.
        M22: lean-axis inertia in kg m^2. Defaults to Ix + m R^2, the
            lean inertia of a thin rolling disk about the contact line.
            Only the ratios Gm, Im, Jm depend on it.
        Gm, Im, Jm: the reduced lean-dynamics coefficients (gravity in 1/s^2,
            centrifugal, gyroscopic coupling), derived once at construction.
            All must be finite, and Jm positive.
    """

    m: float = 1.0
    R: float = 1.0
    Ix: float = 0.5
    g: float = 9.8
    M22: float | None = None

    def __post_init__(self) -> None:
        for name in ("m", "R", "Ix", "g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        try:
            mR2 = self.m * self.R**2
        except OverflowError:
            mR2 = math.inf
        if self.M22 is None:
            object.__setattr__(self, "M22", self.Ix + mR2)
        elif self.M22 <= 0.0:
            raise ValueError(f"M22 must be positive, got {self.M22}")
        object.__setattr__(self, "Gm", self.m * self.g * self.R / self.M22)
        object.__setattr__(self, "Im", (self.Ix + mR2) / self.M22)
        object.__setattr__(self, "Jm", (2.0 * self.Ix + mR2) / self.M22)
        if not all(map(math.isfinite, (self.M22, self.Gm, self.Im, self.Jm))):
            raise ValueError(
                f"the lean inertia M22 and the reduced coefficients Gm, Im, Jm must be "
                f"finite; m = {self.m}, R = {self.R}, Ix = {self.Ix}, g = {self.g} "
                f"give {self.M22}, {self.Gm}, {self.Im}, {self.Jm}"
            )
        if self.Jm <= 0.0:  # underflowed: the balance law and the drive floor divide by it
            raise ValueError(
                f"the reduced coefficient Jm must be positive; m = {self.m}, R = {self.R}, "
                f"Ix = {self.Ix}, M22 = {self.M22} give Jm = {self.Jm}"
            )

    def reduced(self) -> tuple[float, float, float]:
        """Return (Gm, Im, Jm)."""
        return (self.Gm, self.Im, self.Jm)


class FrictionParams(Record):
    """Joint friction model coefficients.

    Each coefficient is a pair over the (steering, rolling) joints: the
    lean axis is unactuated. mu_v is viscous (N m s/rad), mu_d and mu_s
    are dynamic and static levels (N m), and D is the rate scale (rad/s)
    of the exponential transition from static to dynamic friction.
    """

    mu_v: tuple[float, float] = (0.17, 0.09)
    mu_d: tuple[float, float] = (0.1, 0.07)
    mu_s: tuple[float, float] = (0.3, 0.1)
    D: float = 0.05

    def __post_init__(self) -> None:
        # written so that NaN fails each test
        if not self.D > 0.0:
            raise ValueError(f"D must be positive, got {self.D}")
        for name in ("mu_v", "mu_d", "mu_s"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must have two coefficients, got {getattr(self, name)}")
        for v, d, s in zip(self.mu_v, self.mu_d, self.mu_s):
            if not (v >= 0.0 and d >= 0.0):
                raise ValueError("friction coefficients must be non-negative")
            if not s >= d:
                raise ValueError("static level must be at least the dynamic level")
