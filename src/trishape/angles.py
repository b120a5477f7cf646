"""Arithmetic for angles modulo pi.

Directions of lines in the plane are angles mod pi: a direction pair (x, y)
of a side has the angle Arg(x + yi) mod pi, whichever of the two opposite
representatives the side carries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PI = math.pi

#: The package's one comparison tolerance for unit-scale values (angles,
#: canonical side triples, defects relative to a scale).  Other literals
#: differ on purpose.  1e-12 and 1e-13 are rounding snaps: exact zero angles,
#: zero sides, unit length and r = R/2 up to a few ulps.  1e-6 only refuses a
#: ``ProjTripleC`` that does not close beyond input rounding, as closure is
#: then restored exactly.  The Poncelet tangency allows 1e-8 R for the
#: rounding of asin, exp and two chord intersections.
DEFAULT_TOL = 1e-9


def _wrap_pi(x: float) -> float:
    """Map x into [0, pi).  A -0.0 passes unchanged (0.0 <= -0.0) and is
    kept, as the golden files pin the sign of every zero angle."""
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
    """An angle modulo pi, stored by its representative in [0, pi), or -0.0
    (see :func:`_wrap_pi`)."""

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


def _interior(xa: float, xb: float, xc: float) -> tuple[AngleModPi, AngleModPi, AngleModPi]:
    """(alpha, beta, gamma) = (xi_b - xi_c, xi_c - xi_a, xi_a - xi_b) mod pi."""
    return (AngleModPi(xb - xc), AngleModPi(xc - xa), AngleModPi(xa - xb))


def _scaled(z: complex, k: int) -> complex:
    """z * 2^k, exact unless a part overflows or falls below the normal range."""
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def reduce_mod_pi(x: float) -> AngleModPi:
    """Reduce a real number of radians to its class mod pi."""
    return AngleModPi(x)


def angle_dist(a: AngleModPi | float, b: AngleModPi | float) -> float:
    """Wraparound distance on R/pi, valued in [0, pi/2]."""
    x = a.value if isinstance(a, AngleModPi) else _wrap_pi(float(a))
    y = b.value if isinstance(b, AngleModPi) else _wrap_pi(float(b))
    d = abs(x - y)
    return min(d, PI - d)
