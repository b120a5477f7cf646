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
#: canonical side triples, defects relative to a scale).  The constants
#: below differ on purpose: ``ROUNDING_SNAP`` and shape's 1e-13
#: ``_ZERO_SNAP`` are rounding snaps, ``CLOSURE_BOUND`` and
#: ``TANGENCY_BOUND`` are looser bounds on a defect.
DEFAULT_TOL = 1e-9

#: the snap that reads a unit-scale value within a few ulps of an exact one
#: as that value: a zero angle, a unit norm, r = R/2
ROUNDING_SNAP = 1e-12

#: |a + b + c| over the largest modulus above which a ``ProjTripleC``
#: refuses its triple: it does not close beyond input rounding
CLOSURE_BOUND = 1e-6

#: distance of a Poncelet chord from the incircle, over the outcircle
#: radius R, that still counts as tangent: the rounding of asin, exp and
#: two chord intersections
TANGENCY_BOUND = 1e-8


def _wrap_pi(x: float) -> float:
    """Map x into [0, pi).  A -0.0 passes unchanged (0.0 <= -0.0) and is
    kept, as the golden files pin the sign of every zero angle."""
    if 0.0 <= x < PI:  # fmod would return x itself; NaN and inf fail this test
        return x
    if PI <= x < 2.0 * PI:
        return x - PI  # fmod(x, pi), exact
    if not -PI < x < 0.0:  # where fmod(x, pi) is not x itself
        if not math.isfinite(x):
            raise ValueError(f"non-finite angle value: {x!r}")
        x = math.fmod(x, PI)
        if x >= 0.0:
            return x
    x += PI
    # fmod of values just below a multiple of pi can land exactly on pi
    return x - PI if x >= PI else x


def _number(v: object, field: str, kind: type = float) -> float | complex:
    """kind(v), with kind float or complex.  A string, which kind would
    parse, a value kind refuses, or one out of the float range, such as an
    int of 309 digits, raises a ``ValueError`` that names the field and
    does not print the value."""
    if v.__class__ is kind:
        return v
    if not isinstance(v, (str, bytes, bytearray)):
        try:
            return kind(v)
        except OverflowError:
            raise ValueError(f"{field} is out of the float range") from None
        except TypeError:
            pass
    name = "real" if kind is float else "complex"
    raise ValueError(f"{field} must be a {name} number, not {type(v).__name__}")


#: sets a field of a value object past its refusing ``__setattr__``
_set = object.__setattr__
#: a value object built past its constructor, its slots set by their descriptors
_new = object.__new__


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
    (see :func:`_wrap_pi`).  The constructor converts and wraps;
    ``__post_init__`` does nothing and runs once per construction, so a
    wrapper put on the class counts them."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if value.__class__ is not float:
            value = _number(value, "angle value")
        _set_value(self, value if 0.0 <= value < PI else _wrap_pi(value))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The counting hook: the constructor has done all the work."""

    def __float__(self) -> float:
        return self.value

    def __add__(self, other: "AngleModPi | float") -> "AngleModPi":
        return _angle(
            self.value + (other.value if isinstance(other, AngleModPi) else float(other))
        )

    def __sub__(self, other: "AngleModPi | float") -> "AngleModPi":
        return _angle(
            self.value - (other.value if isinstance(other, AngleModPi) else float(other))
        )

    def __neg__(self) -> "AngleModPi":
        return _angle(-self.value)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        if math.isnan(tol):
            raise ValueError("tol must not be NaN")
        v = self.value
        return v < tol or PI - v < tol


_set_value = AngleModPi.value.__set__


def _angle(x: float) -> AngleModPi:
    """``AngleModPi(x)`` for a float x, past the constructor's type test, with
    _wrap_pi's (-pi, 0) branch inline, bar a tiny x that lands on pi."""
    o = _new(AngleModPi)
    _set_value(o, x if 0.0 <= x < PI else x + PI if -PI < x < 0.0 and x + PI < PI else _wrap_pi(x))
    o.__post_init__()
    return o


def _angles(x: float, y: float, z: float) -> tuple[AngleModPi, AngleModPi, AngleModPi]:
    """``(_angle(x), _angle(y), _angle(z))`` in one frame, written out: a loop is slower."""
    a = _new(AngleModPi)
    _set_value(a, x if 0.0 <= x < PI else x + PI if -PI < x < 0.0 and x + PI < PI else _wrap_pi(x))
    a.__post_init__()
    b = _new(AngleModPi)
    _set_value(b, y if 0.0 <= y < PI else y + PI if -PI < y < 0.0 and y + PI < PI else _wrap_pi(y))
    b.__post_init__()
    c = _new(AngleModPi)
    _set_value(c, z if 0.0 <= z < PI else z + PI if -PI < z < 0.0 and z + PI < PI else _wrap_pi(z))
    c.__post_init__()
    return a, b, c


def _interior(xa: float, xb: float, xc: float) -> tuple[AngleModPi, AngleModPi, AngleModPi]:
    """(alpha, beta, gamma) = (xi_b - xi_c, xi_c - xi_a, xi_a - xi_b) mod pi."""
    return _angles(xb - xc, xc - xa, xa - xb)


def _angle_field(name: str, v: AngleModPi | float) -> AngleModPi:
    """v itself if it is an ``AngleModPi``, else v wrapped into one; a value
    that is not a finite real raises a ``ValueError`` that names the field."""
    if isinstance(v, AngleModPi):
        return v
    try:
        return AngleModPi(_number(v, name))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a finite angle: {exc}") from None


def _dist2(x, y) -> float:
    """The squared angle_dist of two triples of angles, added by sum: each
    min(t, pi - t) on values already in [0, pi)."""
    (x0, x1, x2), (y0, y1, y2) = x, y
    t0, t1, t2 = abs(x0.value - y0.value), abs(x1.value - y1.value), abs(x2.value - y2.value)
    return sum((min(t0, PI - t0) ** 2, min(t1, PI - t1) ** 2, min(t2, PI - t2) ** 2))


def _apart(v, tol: float) -> bool:
    """Whether six sorted floats step by more than tol, and pi less their span is too."""
    return (v[1] - v[0] > tol and v[2] - v[1] > tol and v[3] - v[2] > tol
            and v[4] - v[3] > tol and v[5] - v[4] > tol and PI - (v[5] - v[0]) > tol)


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
