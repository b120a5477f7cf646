import math
import random

import pytest
from hypothesis import given, strategies as st

from trishape.angles import (
    PI,
    AngleModPi,
    angle_dist,
    reduce_mod_pi,
)


def test_wrap_into_range():
    for x in (0.0, 1.0, PI - 1e-15, PI, -PI, 3.7 * PI, -11.3):
        v = AngleModPi(x).value
        assert 0.0 <= v < PI


def test_wrap_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            AngleModPi(bad)


@given(st.floats(-100.0, 100.0))
def test_wrap_is_periodic(x):
    a = reduce_mod_pi(x)
    b = reduce_mod_pi(x + PI)
    assert angle_dist(a, b) < 1e-9


@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_addition_respects_classes(x, y):
    direct = reduce_mod_pi(x + y)
    staged = reduce_mod_pi(x) + reduce_mod_pi(y)
    assert angle_dist(direct, staged) < 1e-9


def test_negation_is_involution():
    rng = random.Random(3)
    for _ in range(200):
        a = reduce_mod_pi(rng.uniform(-10, 10))
        assert angle_dist(-(-a), a) < 1e-12


def test_angle_dist_range_and_symmetry():
    rng = random.Random(4)
    for _ in range(500):
        a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
        d = angle_dist(a, b)
        assert 0.0 <= d <= PI / 2 + 1e-12
        assert abs(d - angle_dist(b, a)) < 1e-12


def test_angle_dist_triangle_inequality():
    rng = random.Random(5)
    for _ in range(500):
        a, b, c = (rng.uniform(0, PI) for _ in range(3))
        assert angle_dist(a, c) <= angle_dist(a, b) + angle_dist(b, c) + 1e-12


@pytest.mark.parametrize(
    "x, expected",
    [
        (-0.0, -0.0),  # the sign of a zero is kept
        (-PI, -0.0),
        (PI, 0.0),
        (math.nextafter(PI, 0.0), math.nextafter(PI, 0.0)),
        (-1e-300, 0.0),  # pi - 1e-300 rounds to pi, which wraps to 0
        (1e17, math.fmod(1e17, PI)),
    ],
)
def test_wrap_edge_values(x, expected):
    v = AngleModPi(x).value
    assert v.hex() == expected.hex()
    assert 0.0 <= v < PI


def test_arithmetic_rejects_non_finite():
    a = AngleModPi(1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            a + bad
        with pytest.raises(ValueError):
            a - bad
        with pytest.raises(ValueError):
            angle_dist(a, bad)


@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_angle_dist_same_for_floats_and_angles(x, y):
    d = angle_dist(x, y)
    assert angle_dist(reduce_mod_pi(x), reduce_mod_pi(y)) == d
    assert angle_dist(reduce_mod_pi(x), y) == d
