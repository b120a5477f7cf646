"""Arithmetic for angles modulo pi.

Directions of lines in the plane are angles mod pi: a direction pair (x, y)
of a side has the angle Arg(x + yi) mod pi, whichever of the two opposite
representatives the side carries.
"""
from __future__ import annotations

import math
import operator

PI = math.pi

#: The package's one comparison tolerance for unit-scale values (angles,
#: canonical side triples, defects relative to a scale).  Other literals
#: differ on purpose.  ``ROUNDING_SNAP`` and shape's 1e-13 ``_ZERO_SNAP`` are
#: rounding snaps: exact zero angles, unit length, r = R/2 and zero sides up
#: to a few ulps.  1e-6 only refuses a ``ProjTripleC`` that does not close
#: beyond input rounding.  The Poncelet tangency allows 1e-8 R for the
#: rounding of asin, exp and two chord intersections.
DEFAULT_TOL = 1e-9

#: the snap that reads a unit-scale value within a few ulps of an exact one
#: as that value: a zero angle, a unit norm, r = R/2
ROUNDING_SNAP = 1e-12


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


def _number(v: object, field: str, kind: type = float) -> float | complex:
    """kind(v), with kind float or complex.  A value out of the float range,
    such as an int of 309 digits, raises a ``ValueError`` that names the
    field, not an ``OverflowError``, and does not print the value."""
    try:
        return kind(v)
    except OverflowError:
        raise ValueError(f"{field} is out of the float range") from None


#: sets a field of a value object past its refusing ``__setattr__``
_set = object.__setattr__


class _Value:
    """Base of the package's immutable value classes, each of which names
    its fields in ``__slots__``.  Equality, hash and repr are those of the
    field tuple, as for a frozen dataclass; assignment and ``del`` raise
    ``AttributeError``.  Copies and pickles restore the slots as they are,
    without running ``__init__`` again."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = operator.attrgetter(*cls.__slots__)
        # attrgetter of one name gives the bare value, not a 1-tuple
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._fields(self)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)


class AngleModPi(_Value):
    """An angle modulo pi, stored by its representative in [0, pi), or -0.0
    (see :func:`_wrap_pi`).  ``__post_init__`` runs once per construction,
    so a wrapper put on the class counts them."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        # _wrap_pi inline for a plain float in (-pi, 2 pi): its fmod there is x or x - pi
        if value.__class__ is not float:
            value = _wrap_pi(_number(value, "angle value"))
        elif not 0.0 <= value < PI:
            if -PI < value < 0.0:
                value += PI
                if value >= PI:  # a tiny negative x lands on pi, as in _wrap_pi
                    value -= PI
            else:
                value = value - PI if PI <= value < 2.0 * PI else _wrap_pi(value)
        _set(self, "value", value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The counting hook: the value is already wrapped."""

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
        if math.isnan(tol):
            raise ValueError("tol must not be NaN")
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
    x = a.value if isinstance(a, AngleModPi) else _wrap_pi(_number(a, "angle a"))
    y = b.value if isinstance(b, AngleModPi) else _wrap_pi(_number(b, "angle b"))
    d = abs(x - y)
    return min(d, PI - d)
