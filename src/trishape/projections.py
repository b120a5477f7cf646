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

from .angles import DEFAULT_TOL, PI, AngleModPi, _angle_field, _dist2, _new, _number
from .angles import ROUNDING_SNAP, _scaled, _Value, _wrap_pi, angle_dist
from .shape import ProjTripleC, ShapeClass, _set_angles, _set_sides
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
        _unit(self, x, y, z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def sphere_dist(s1: SpherePoint, s2: SpherePoint) -> float:
    return math.dist(s1.as_tuple(), s2.as_tuple())


class TorusPoint(_Value):
    """An angle triple (p, q, r) mod pi with p + q + r = 0 mod pi, each an
    ``AngleModPi`` or a finite real that is wrapped into one."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p: AngleModPi | float, q: AngleModPi | float,
                 r: AngleModPi | float) -> None:
        if not p.__class__ is q.__class__ is r.__class__ is AngleModPi:
            p, q, r = _angle_field("p", p), _angle_field("q", q), _angle_field("r", r)
        total = p.value + q.value + r.value
        # angle_dist(total, 0.0) is min(w, pi - w), w = _wrap_pi(total)
        w = total - PI if PI <= total < 2.0 * PI else _wrap_pi(total)
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
    return math.sqrt(_dist2((t1.p, t1.q, t1.r), (t2.p, t2.q, t2.r)))


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


def _unit(s: SpherePoint, x: float, y: float, z: float) -> SpherePoint:
    """s with the slots (x, y, z), which must be a unit vector."""
    n = math.hypot(x, y, z)  # hypot does not overflow where x**2 would
    if not abs(n - 1.0) <= ROUNDING_SNAP:  # NaN fails this test too
        raise ValueError(f"not a unit vector: |({x}, {y}, {z})| = {n}")
    _set_x(s, x)
    _set_y(s, y)
    _set_z(s, z)
    return s


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
    return _unit(_new(SpherePoint), (uu - vv) / n, -2.0 * w.imag / n, 2.0 * w.real / n)


def to_sphere(c: ShapeClass) -> SpherePoint:
    """Project a class to the sphere through its side triple alone."""
    a, b = c.sides.a, c.sides.b
    return hopf(a + _K * b, _K * a + b)


def classify_sphere_locus(s: SpherePoint, tol: float = DEFAULT_TOL) -> frozenset[SphereLocus]:
    """Flags for every special locus the point lies on, within tol.

    Circle and great-circle membership is tested by the defining linear
    equation's residual; landmark membership by euclidean proximity.  Every
    landmark has y = 0 or |y| = 1, so none is within tol of a point in the
    band 2 tol <= |y| <= 1 - 2 tol, whose distances are not computed.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    p = x, y, z = s.x, s.y, s.z
    ay = abs(y)
    # the residuals in SphereLocus order; the odd-side-a circle passes
    # through the double landmark with a = 0, which fixes the sign pairing
    residuals = (ay, abs(x + _S3 * z), abs(x - _S3 * z), abs(x), abs(-_S3 * x + z + 1.0),
                 abs(_S3 * x + z + 1.0), abs(z - 0.5))
    if not (2.0 * tol <= ay and 2.0 * tol <= 1.0 - ay):  # 1 - |y| is exact for |y| >= 1/2
        residuals += (math.dist(p, (0.0, -1.0, 0.0)), math.dist(p, (0.0, 1.0, 0.0)),
                      math.dist(p, DELTA_A), math.dist(p, DELTA_B), math.dist(p, DELTA_C))
    return frozenset(itertools.compress(_LOCI, map(operator.lt, residuals, itertools.repeat(tol))))


def to_torus(c: ShapeClass) -> TorusPoint:
    """Project a class to the torus by forgetting its sides."""
    return TorusPoint(*c.angles)


def _torus_sides(alpha: float, beta: float) -> tuple[complex, complex, complex]:
    """The sides 1 - e^{-2i alpha}, e^{2i beta} - 1 and e^{-2i alpha} - e^{2i beta}
    of the triangle (e^{2i beta}, e^{-2i alpha}, 1) inscribed in the unit
    circle, over 2i: sin(alpha) e^{-i alpha}, sin(beta) e^{i beta} and
    -sin(alpha + beta) e^{i(beta - alpha)}.  No direction comes from a
    difference of nearly equal numbers, so a side that tends to 0 keeps it."""
    ea, eb = cmath.exp(-1j * alpha), cmath.exp(1j * beta)
    # sin(alpha + beta) = Im(e^{i alpha} e^{i beta}), two products: sin of the
    # rounded alpha + beta would err by an ulp of pi where both sines are small
    return (math.sin(alpha) * ea, math.sin(beta) * eb, -(ea.conjugate() * eb).imag * (ea * eb))


def torus_inverse(t: TorusPoint) -> ShapeClass:
    """The class with interior angles t, for t away from the origin: t's own
    angle objects, so ``to_torus(torus_inverse(t))`` is t, and the sides of
    the triangle inscribed in the unit circle whose angles they are.  At
    the origin every simple point has been collapsed together, so no unique
    class exists there.
    """
    p, q, r = t.p.value, t.q.value, t.r.value
    # t.is_origin(), then the first of p, q, r.is_zero(ROUNDING_SNAP), on the floats
    if ((p < DEFAULT_TOL or PI - p < DEFAULT_TOL) and (q < DEFAULT_TOL or PI - q < DEFAULT_TOL)
            and (r < DEFAULT_TOL or PI - r < DEFAULT_TOL)):
        raise ValueError("blown-down point: no unique class over the torus origin")
    snap = ROUNDING_SNAP
    # at a zero slot that side is 0 and the other two cancel: [0 : 1 : -1] rotated
    if p < snap or PI - p < snap:
        sides = ProjTripleC(0j, 1 + 0j, -1 + 0j)
    elif q < snap or PI - q < snap:
        sides = ProjTripleC(1 + 0j, 0j, -1 + 0j)
    elif r < snap or PI - r < snap:
        sides = ProjTripleC(1 + 0j, -1 + 0j, 0j)
    else:
        sides = ProjTripleC(*_torus_sides(p, q))
    c = _new(ShapeClass)
    _set_sides(c, sides)
    _set_angles(c, t.as_tuple())
    return c


def torus_fiber_limit(direction: Sequence[float]) -> tuple[float, float, float]:
    """Approach direction of the torus origin, resolved into a side triple.

    Along t * direction the sides of :func:`torus_inverse`'s inscribed
    triangle, over 2i, are t (d_a, d_b, -d_a - d_b) + O(t^2), so the limit is that
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
