import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrowheel import hard_sign, hard_step, smooth_sign, smooth_step


def test_hard_sign_zero_takes_upper_branch():
    assert hard_sign(0.0) == 1.0
    assert hard_sign(1e-300) == 1.0
    assert hard_sign(-1e-300) == -1.0


def test_hard_step_zero_takes_upper_branch():
    assert hard_step(0.0) == 1.0
    assert hard_step(-1e-300) == 0.0
    assert hard_step(2.0) == 1.0


def test_smooth_sign_matches_rational_form():
    for x in (-3.0, -0.2, 0.0, 0.4, 5.0):
        for k in (1.0, 20.0):
            expected = (1 - math.exp(-k * x)) / (1 + math.exp(-k * x))
            assert smooth_sign(x, k) == pytest.approx(expected, abs=1e-12)


def test_smooth_step_matches_logistic_form():
    for x in (-3.0, -0.2, 0.0, 0.4, 5.0):
        for k in (1.0, 20.0):
            assert smooth_step(x, k) == pytest.approx(
                1.0 / (1.0 + math.exp(-k * x)), abs=1e-12
            )


def test_smooth_forms_survive_extreme_arguments():
    # the naive logistic overflows near exp(710); these must not
    assert smooth_step(1e6, 20.0) == 1.0
    assert smooth_step(-1e6, 20.0) == 0.0
    assert smooth_sign(1e6, 20.0) == 1.0
    assert smooth_sign(-1e6, 20.0) == -1.0


@given(x=st.floats(-100, 100, allow_nan=False), k=st.floats(0.1, 100, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_smooth_forms_are_bounded_and_odd_symmetric(x, k):
    s = smooth_sign(x, k)
    t = smooth_step(x, k)
    assert -1.0 <= s <= 1.0
    assert 0.0 <= t <= 1.0
    assert smooth_sign(-x, k) == pytest.approx(-s, abs=1e-12)
    assert smooth_step(-x, k) == pytest.approx(1.0 - t, abs=1e-12)
    # the bipolar form is the affine image of the logistic at the same slope
    assert s == pytest.approx(2.0 * smooth_step(x, k) - 1.0, abs=1e-12)


def test_smooth_converges_to_hard_away_from_zero():
    for x in (-0.5, 0.5, 2.0):
        assert smooth_sign(x, 200.0) == pytest.approx(hard_sign(x), abs=1e-12)
        assert smooth_step(x, 200.0) == pytest.approx(hard_step(x), abs=1e-12)
