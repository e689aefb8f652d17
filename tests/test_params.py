import math

import pytest

from gyrowheel import FrictionParams, LineGains, PositionGains, RobotParams, replace


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
    assert f.mu_v == (0.17, 0.09)
    assert f.mu_d == (0.1, 0.07)
    assert f.mu_s == (0.3, 0.1)


def test_friction_static_must_dominate_dynamic():
    with pytest.raises(ValueError):
        FrictionParams(mu_s=(0.05, 0.1))


def test_friction_rate_scale_must_be_positive():
    with pytest.raises(ValueError):
        FrictionParams(D=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("mu_v", (math.nan, 0.09), "non-negative"),
    ("mu_d", (0.1, math.nan), "non-negative"),
    ("mu_s", (0.3, math.nan), "static level"),
    ("D", math.nan, "D must be positive"),
])
def test_nan_friction_coefficient_rejected(field, value, message):
    # a NaN rate scale would end the first friction step NonFinite
    with pytest.raises(ValueError, match=message):
        FrictionParams(**{field: value})


@pytest.mark.parametrize("field", ["mu_v", "mu_d", "mu_s"])
@pytest.mark.parametrize("value", [(0.1,), (0.1, 0.1, 0.1)])
def test_friction_coefficients_must_be_three_long(field, value):
    # one coefficient per actuated joint (steering, rolling): a single one or a
    # triple would otherwise build and fail where the friction stepper unpacks it
    with pytest.raises(ValueError, match=f"^{field} must have two coefficients"):
        FrictionParams(**{field: value})


def test_params_are_immutable():
    p = RobotParams()
    with pytest.raises(AttributeError):
        p.m = 2.0


def test_records_compare_by_class_and_fields():
    p = RobotParams(2.0, R=0.5)
    # the derived coefficients are attributes, not fields
    assert RobotParams._fields == ("m", "R", "Ix", "g", "M22")
    assert repr(p) == "RobotParams(m=2.0, R=0.5, Ix=0.5, g=9.8, M22=1.0)"
    assert p == RobotParams(m=2.0, R=0.5, M22=1.0) and hash(p) == hash(RobotParams(2.0, 0.5))
    assert PositionGains(3.0, 1.0) != LineGains(3.0, 1.0)
    with pytest.raises(TypeError):
        iter(p)
    for build in (lambda: RobotParams(1.0, m=2.0), lambda: RobotParams(Gm=1.0),
                  lambda: RobotParams(1, 1, 1, 1, 1, 1)):
        with pytest.raises(TypeError):
            build()


def test_replace_builds_a_checked_record():
    p = RobotParams()
    q = replace(p, g=1.0)
    assert (q.g, q.Gm, p.g) == (1.0, 1.0 / 1.5, 9.8)
    with pytest.raises(ValueError, match="g must be positive, got -1.0"):
        replace(p, g=-1.0)
    with pytest.raises(TypeError):
        replace(p, Jm=1.0)
