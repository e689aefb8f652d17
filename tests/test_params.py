import math

import pytest

from gyrowheel import FrictionParams, RobotParams


def test_default_reduced_values():
    p = RobotParams()
    Gm, Im, Jm = p.reduced()
    assert Gm == pytest.approx(9.8 / 1.5, rel=1e-12)
    assert Im == pytest.approx(1.0, rel=1e-12)
    assert Jm == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_lean_inertia_defaults_to_disk_value():
    p = RobotParams()
    assert p.M22 == pytest.approx(p.Ix + p.m * p.R**2, rel=1e-15)


def test_lean_inertia_override_changes_reduced_params():
    p = RobotParams(M22=3.0)
    assert p.M22 == 3.0
    assert p.Gm == pytest.approx(9.8 / 3.0, rel=1e-12)


@pytest.mark.parametrize("field", ["m", "R", "Ix", "g"])
def test_nonpositive_physical_parameter_rejected(field):
    with pytest.raises(ValueError):
        RobotParams(**{field: 0.0})


def test_friction_defaults_match_tabulated_coefficients():
    f = FrictionParams()
    assert f.mu_v == (0.17, 0.15, 0.09)
    assert f.mu_d == (0.1, 0.1, 0.07)
    assert f.mu_s == (0.3, 0.25, 0.1)


def test_friction_static_must_dominate_dynamic():
    with pytest.raises(ValueError):
        FrictionParams(mu_s=(0.05, 0.25, 0.1))


def test_friction_rate_scale_must_be_positive():
    with pytest.raises(ValueError):
        FrictionParams(D=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("mu_v", (math.nan, 0.15, 0.09), "non-negative"),
    ("mu_d", (0.1, math.nan, 0.07), "non-negative"),
    ("mu_s", (0.3, 0.25, math.nan), "static level"),
    ("D", math.nan, "D must be positive"),
])
def test_nan_friction_coefficient_rejected(field, value, message):
    # a NaN rate scale would end the first friction step NonFinite
    with pytest.raises(ValueError, match=message):
        FrictionParams(**{field: value})


def test_params_are_immutable():
    p = RobotParams()
    with pytest.raises(AttributeError):
        p.m = 2.0
