"""The two blowdown models of the moduli surface.

``to_sphere`` sends a similarity class to the unit sphere through a linear
change of side coordinates followed by the Hopf map; it separates simple
points but collapses each double-point fiber to one of three landmarks.
``to_torus`` keeps only the interior angles; it separates double points but
collapses every simple point to the origin.  ``torus_inverse`` recovers the
class away from that point, and ``torus_fiber_limit`` gives, in closed form,
the simple point that an approach direction picks out of the collapsed
fiber.
"""
from __future__ import annotations

import cmath
import enum
import itertools
import math
import operator
from typing import Sequence

from .angles import DEFAULT_TOL, PI, AngleModPi, _interior, _number, _scaled, _Value
from .angles import ROUNDING_SNAP, _wrap_pi, angle_dist
from .shape import ProjTripleC, ShapeClass
from .triangle import canonical_directions

_S3 = math.sqrt(3.0)
_K = 2.0 - _S3

#: Landmark images of the three double-point fibers.
DELTA_A = (-_S3 / 2.0, 0.0, 0.5)
DELTA_B = (_S3 / 2.0, 0.0, 0.5)
DELTA_C = (0.0, 0.0, -1.0)


class SpherePoint(_Value):
    """A point of the unit sphere."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        n = math.hypot(x, y, z)  # hypot does not overflow where x**2 would
        if not abs(n - 1.0) <= ROUNDING_SNAP:  # NaN fails this test too
            raise ValueError(f"not a unit vector: |({x}, {y}, {z})| = {n}")
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def sphere_dist(s1: SpherePoint, s2: SpherePoint) -> float:
    return math.dist(s1.as_tuple(), s2.as_tuple())


def _angle_field(name: str, v: AngleModPi | float) -> AngleModPi:
    """v itself if it is an ``AngleModPi``, else v wrapped into one; a value
    that is not a finite real raises a ``ValueError`` that names the field."""
    if isinstance(v, AngleModPi):
        return v
    try:
        return AngleModPi(_number(v, name))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a finite angle: {exc}") from None


class TorusPoint(_Value):
    """An angle triple (p, q, r) mod pi with p + q + r = 0 mod pi, each an
    ``AngleModPi`` or a finite real that is wrapped into one."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p: AngleModPi | float, q: AngleModPi | float,
                 r: AngleModPi | float) -> None:
        if not p.__class__ is q.__class__ is r.__class__ is AngleModPi:
            p, q, r = _angle_field("p", p), _angle_field("q", q), _angle_field("r", r)
        total = p.value + q.value + r.value
        w = _wrap_pi(total)  # angle_dist(total, 0.0) is min(w, pi - w)
        if w > DEFAULT_TOL and PI - w > DEFAULT_TOL:
            raise ValueError(f"angle triple does not sum to 0 mod pi: {total}")
        _set_p(self, p)
        _set_q(self, q)
        _set_r(self, r)

    def as_tuple(self) -> tuple[AngleModPi, AngleModPi, AngleModPi]:
        return (self.p, self.q, self.r)

    def is_origin(self, tol: float = DEFAULT_TOL) -> bool:
        return self.p.is_zero(tol) and self.q.is_zero(tol) and self.r.is_zero(tol)


def torus_dist(t1: TorusPoint, t2: TorusPoint) -> float:
    """Euclidean distance on the torus built from per-coordinate wraparound
    distances."""
    return math.sqrt(
        sum(angle_dist(u, v) ** 2 for u, v in zip(t1.as_tuple(), t2.as_tuple()))
    )


class SphereLocus(enum.Enum):
    DEGENERATE_CIRCLE = "DegenerateCircle"
    ISOSCELES_A = "IsoscelesA"
    ISOSCELES_B = "IsoscelesB"
    ISOSCELES_C = "IsoscelesC"
    RIGHT_A = "RightA"
    RIGHT_B = "RightB"
    RIGHT_C = "RightC"
    EQUILATERAL_PLUS = "EquilateralPlus"
    EQUILATERAL_MINUS = "EquilateralMinus"
    DOUBLE_A = "DoubleA"
    DOUBLE_B = "DoubleB"
    DOUBLE_C = "DoubleC"


_LOCI = tuple(SphereLocus)
#: the slot setters past _Value's refusing __setattr__
_set_x, _set_y, _set_z = SpherePoint.x.__set__, SpherePoint.y.__set__, SpherePoint.z.__set__
_set_p, _set_q, _set_r = TorusPoint.p.__set__, TorusPoint.q.__set__, TorusPoint.r.__set__


def hopf(u: complex, v: complex) -> SpherePoint:
    """The Hopf map on nonzero (u, v), scale-invariant for complex scalars.

    (u, v) -> (|u|^2 - |v|^2, -2 Im(conj(u) v), 2 Re(conj(u) v)) / (|u|^2 + |v|^2).

    Computed in units of 2^e near the inputs, an exact rescaling, so tiny
    and huge inputs neither underflow nor overflow.
    """
    if not u.__class__ is v.__class__ is complex:
        u, v = _number(u, "u", complex), _number(v, "v", complex)
    if not (cmath.isfinite(u) and cmath.isfinite(v)):
        raise ValueError(f"hopf needs finite input, got ({u}, {v})")
    e = math.frexp(max(abs(u.real), abs(u.imag), abs(v.real), abs(v.imag)))[1]
    if e:  # the rescaling is the identity at e = 0, where most to_sphere inputs lie
        u, v = _scaled(u, -e), _scaled(v, -e)
    uu, vv = abs(u) ** 2, abs(v) ** 2
    n = uu + vv
    if n == 0.0:
        raise ValueError("hopf is undefined at (0, 0)")
    w = u.conjugate() * v
    return SpherePoint((uu - vv) / n, -2.0 * w.imag / n, 2.0 * w.real / n)


def to_sphere(c: ShapeClass) -> SpherePoint:
    """Project a class to the sphere through its side triple alone."""
    a, b, _ = c.sides.as_tuple()
    return hopf(a + _K * b, _K * a + b)


def classify_sphere_locus(s: SpherePoint, tol: float = DEFAULT_TOL) -> frozenset[SphereLocus]:
    """Flags for every special locus the point lies on, within tol.

    Circle and great-circle membership is tested by the defining linear
    equation's residual; landmark membership by euclidean proximity.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    p = x, y, z = s.as_tuple()
    # the residuals in SphereLocus order; the odd-side-a circle passes
    # through the double landmark with a = 0, which fixes the sign pairing
    residuals = (abs(y), abs(x + _S3 * z), abs(x - _S3 * z), abs(x), abs(-_S3 * x + z + 1.0),
                 abs(_S3 * x + z + 1.0), abs(z - 0.5), math.dist(p, (0.0, -1.0, 0.0)),
                 math.dist(p, (0.0, 1.0, 0.0)), math.dist(p, DELTA_A), math.dist(p, DELTA_B),
                 math.dist(p, DELTA_C))
    return frozenset(itertools.compress(_LOCI, map(operator.lt, residuals, itertools.repeat(tol))))


def to_torus(c: ShapeClass) -> TorusPoint:
    """Project a class to the torus by forgetting its sides."""
    return TorusPoint(*c.angles)


def _torus_sides(alpha: float, beta: float) -> tuple[complex, complex, complex]:
    # vertices (e^{2 i beta}, e^{-2 i alpha}, 1) inscribed in the unit circle
    ea = cmath.exp(-2j * alpha)
    eb = cmath.exp(2j * beta)
    return (1.0 - ea, eb - 1.0, ea - eb)


def torus_inverse(t: TorusPoint) -> ShapeClass:
    """The class with interior angles t, for t away from the origin.

    Sides come from the triangle inscribed in the unit circle whose angles
    are t.  At the origin every simple point has been collapsed together,
    so no unique class exists there.
    """
    p, q, r = t.p.value, t.q.value, t.r.value
    # t.is_origin(), then the first of p, q, r.is_zero(ROUNDING_SNAP), on the floats
    if ((p < DEFAULT_TOL or PI - p < DEFAULT_TOL) and (q < DEFAULT_TOL or PI - q < DEFAULT_TOL)
            and (r < DEFAULT_TOL or PI - r < DEFAULT_TOL)):
        raise ValueError("blown-down point: no unique class over the torus origin")
    snap = ROUNDING_SNAP
    k = (0 if p < snap or PI - p < snap else 1 if q < snap or PI - q < snap
         else 2 if r < snap or PI - r < snap else -1)
    if k >= 0:
        # side k is 0 and the other two cancel: [0 : 1 : -1] rotated, in the form
        sides = [(0j, 1 + 0j, -1 + 0j), (1 + 0j, 0j, -1 + 0j), (1 + 0j, -1 + 0j, 0j)][k]
        return ShapeClass(sides=ProjTripleC(*sides), angles=t.as_tuple())
    raw = _torus_sides(p, q)
    angles = _interior(*map(_wrap_pi, map(cmath.phase, raw)))
    return ShapeClass(sides=ProjTripleC(*raw), angles=angles)


def torus_fiber_limit(direction: Sequence[float]) -> tuple[float, float, float]:
    """Approach direction of the torus origin, resolved into a side triple.

    Along t * direction the sides of :func:`torus_inverse`'s inscribed
    triangle are 2i t (d_a, d_b, -d_a - d_b) + O(t^2), so the limit is that
    real triple: largest modulus 1, first nonzero coordinate positive, mean
    removed.  The third coordinate is read mod pi, so only d_a and d_b
    enter.  The sum is tested to DEFAULT_TOL plus 4 ulps of the largest
    |d_i|, the rounding of a pi-shifted third coordinate and of the sum.
    """
    d = tuple(_number(v, "direction") for v in direction)
    if len(d) != 3:
        raise ValueError("direction must be a nonzero real triple")
    if angle_dist(sum(d), 0.0) > DEFAULT_TOL + 4 * math.ulp(max(map(abs, d))):
        raise ValueError(f"direction must sum to 0 mod pi: sum = {sum(d)}")
    if not (d[0] or d[1]):
        raise ValueError("direction must be a nonzero real triple")
    vals = canonical_directions((d[0], 0.0, d[1], 0.0, -d[0] - d[1], 0.0))[::2]
    mean = sum(vals) / 3.0
    return tuple(v - mean for v in vals)
