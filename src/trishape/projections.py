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
import math
from typing import Sequence

from .angles import DEFAULT_TOL, AngleModPi, _interior, _scaled, _set, _Value, _wrap_pi
from .angles import angle_dist
from .shape import ProjTripleC, ShapeClass
from .triangle import canonical_directions

_K = 2.0 - math.sqrt(3.0)

#: Landmark images of the three double-point fibers.
DELTA_A = (-math.sqrt(3.0) / 2.0, 0.0, 0.5)
DELTA_B = (math.sqrt(3.0) / 2.0, 0.0, 0.5)
DELTA_C = (0.0, 0.0, -1.0)


class SpherePoint(_Value):
    """A point of the unit sphere."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        n = math.hypot(x, y, z)  # hypot does not overflow where x**2 would
        if not abs(n - 1.0) <= 1e-12:  # NaN fails this test too
            raise ValueError(f"not a unit vector: |({x}, {y}, {z})| = {n}")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

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
        return AngleModPi(v)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a finite angle: {v!r}") from None


class TorusPoint(_Value):
    """An angle triple (p, q, r) mod pi with p + q + r = 0 mod pi, each an
    ``AngleModPi`` or a finite real that is wrapped into one."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p: AngleModPi | float, q: AngleModPi | float,
                 r: AngleModPi | float) -> None:
        p, q, r = _angle_field("p", p), _angle_field("q", q), _angle_field("r", r)
        total = p.value + q.value + r.value
        if angle_dist(total, 0.0) > DEFAULT_TOL:
            raise ValueError(f"angle triple does not sum to 0 mod pi: {total}")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)

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


def hopf(u: complex, v: complex) -> SpherePoint:
    """The Hopf map on nonzero (u, v), scale-invariant for complex scalars.

    (u, v) -> (|u|^2 - |v|^2, -2 Im(conj(u) v), 2 Re(conj(u) v)) / (|u|^2 + |v|^2).

    Computed in units of 2^e near the inputs, an exact rescaling, so tiny
    and huge inputs neither underflow nor overflow.
    """
    u, v = complex(u), complex(v)
    if not (cmath.isfinite(u) and cmath.isfinite(v)):
        raise ValueError(f"hopf needs finite input, got ({u}, {v})")
    e = math.frexp(max(abs(u.real), abs(u.imag), abs(v.real), abs(v.imag)))[1]
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
    x, y, z = s.as_tuple()
    s3 = math.sqrt(3.0)
    flags = set()
    if abs(y) < tol:
        flags.add(SphereLocus.DEGENERATE_CIRCLE)
    # The odd-side-a circle passes through the double landmark with a = 0,
    # which fixes the sign pairing below.
    if abs(x + s3 * z) < tol:
        flags.add(SphereLocus.ISOSCELES_A)
    if abs(x - s3 * z) < tol:
        flags.add(SphereLocus.ISOSCELES_B)
    if abs(x) < tol:
        flags.add(SphereLocus.ISOSCELES_C)
    if abs(-s3 * x + z + 1.0) < tol:
        flags.add(SphereLocus.RIGHT_A)
    if abs(s3 * x + z + 1.0) < tol:
        flags.add(SphereLocus.RIGHT_B)
    if abs(z - 0.5) < tol:
        flags.add(SphereLocus.RIGHT_C)
    if math.dist((x, y, z), (0.0, -1.0, 0.0)) < tol:
        flags.add(SphereLocus.EQUILATERAL_PLUS)
    if math.dist((x, y, z), (0.0, 1.0, 0.0)) < tol:
        flags.add(SphereLocus.EQUILATERAL_MINUS)
    for landmark, flag in (
        (DELTA_A, SphereLocus.DOUBLE_A),
        (DELTA_B, SphereLocus.DOUBLE_B),
        (DELTA_C, SphereLocus.DOUBLE_C),
    ):
        if math.dist((x, y, z), landmark) < tol:
            flags.add(flag)
    return frozenset(flags)


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
    if t.is_origin():
        raise ValueError("blown-down point: no unique class over the torus origin")
    raw = _torus_sides(t.p.value, t.q.value)
    zero = (t.p.is_zero(1e-12), t.q.is_zero(1e-12), t.r.is_zero(1e-12))
    if any(zero):
        k = zero.index(True)  # that side is 0j, and the other two cancel exactly
        s = raw[(k + 1) % 3]
        sides = [(0j, s, -s), (-s, 0j, s), (s, -s, 0j)][k]
        return ShapeClass(sides=ProjTripleC(*sides), angles=t.as_tuple())
    angles = _interior(*(_wrap_pi(cmath.phase(s)) for s in raw))
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
    d = tuple(float(v) for v in direction)
    if len(d) != 3:
        raise ValueError("direction must be a nonzero real triple")
    if angle_dist(sum(d), 0.0) > DEFAULT_TOL + 4 * math.ulp(max(map(abs, d))):
        raise ValueError(f"direction must sum to 0 mod pi: sum = {sum(d)}")
    if not (d[0] or d[1]):
        raise ValueError("direction must be a nonzero real triple")
    vals = canonical_directions((d[0], 0.0, d[1], 0.0, -d[0] - d[1], 0.0))[::2]
    mean = sum(vals) / 3.0
    return tuple(v - mean for v in vals)
