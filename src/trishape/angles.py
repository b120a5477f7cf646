"""Arithmetic for angles modulo pi and points of the real projective line.

Directions of lines in the plane are angles mod pi.  The map ``rho`` sends a
projective point [x, y] to the argument of x + yi mod pi and is the bridge
between homogeneous direction coordinates and angle coordinates used
throughout the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PI = math.pi

#: Default comparison tolerance of the package, shared by every module.
DEFAULT_TOL = 1e-9


def _wrap_pi(x: float) -> float:
    """Map x into [0, pi)."""
    if 0.0 <= x < PI:  # fmod would return x itself; NaN and inf fail this test
        return x
    if not math.isfinite(x):
        raise ValueError(f"non-finite angle value: {x!r}")
    r = math.fmod(x, PI)
    if r < 0.0:
        r += PI
    # fmod of values just below a multiple of pi can land exactly on pi
    if r >= PI:
        r -= PI
    return r


@dataclass(frozen=True, slots=True)
class AngleModPi:
    """An angle modulo pi, stored by its representative in [0, pi)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _wrap_pi(float(self.value)))

    def __float__(self) -> float:
        return self.value

    def __add__(self, other: "AngleModPi | float") -> "AngleModPi":
        return AngleModPi(
            self.value + (other.value if isinstance(other, AngleModPi) else float(other))
        )

    def __sub__(self, other: "AngleModPi | float") -> "AngleModPi":
        return AngleModPi(
            self.value - (other.value if isinstance(other, AngleModPi) else float(other))
        )

    def __neg__(self) -> "AngleModPi":
        return AngleModPi(-self.value)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        v = self.value
        return v < tol or PI - v < tol


def reduce_mod_pi(x: float) -> AngleModPi:
    """Reduce a real number of radians to its class mod pi."""
    return AngleModPi(x)


@dataclass(frozen=True)
class ProjPoint1R:
    """A point [x, y] of P^1(R) in canonical form.

    Canonical form: max(|x|, |y|) == 1 and the first nonzero coordinate is
    positive, so projective equality is plain coordinate comparison.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        x, y = float(self.x), float(self.y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("non-finite projective coordinates")
        m = max(abs(x), abs(y))
        if m == 0.0:
            raise ValueError("(0, 0) is not a projective point")
        x, y = x / m, y / m
        lead = x if x != 0.0 else y
        if lead < 0.0:
            x, y = -x, -y
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def rho(p: ProjPoint1R) -> AngleModPi:
    """The direction angle of [x, y]: Arg(x + yi) mod pi.

    Independent of the chosen representative, since scaling by a nonzero
    real either fixes Arg or moves it by pi.
    """
    return AngleModPi(math.atan2(p.y, p.x))


def lift(xi: AngleModPi | float) -> ProjPoint1R:
    """The projective point [cos xi, sin xi]; inverse of rho."""
    v = float(xi)
    return ProjPoint1R(math.cos(v), math.sin(v))


def angle_dist(a: AngleModPi | float, b: AngleModPi | float) -> float:
    """Wraparound distance on R/pi, valued in [0, pi/2]."""
    x = a.value if isinstance(a, AngleModPi) else _wrap_pi(float(a))
    y = b.value if isinstance(b, AngleModPi) else _wrap_pi(float(b))
    d = abs(x - y)
    return min(d, PI - d)
