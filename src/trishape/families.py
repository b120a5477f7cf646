"""Parametrized families of triangles and their degenerate limits.

Poncelet families revolve a triangle between a fixed incircle and
outcircle.  The inscribed and constant-angle families move vertex A on the
unit circle over a chord ending at C = 1, toward a double point at C.  The
constant-angle and constant-ratio families degenerate in ways that exactly
one of the two blowdown models can still tell apart.
``limit_class`` extracts numeric limits and ``separation_test`` compares
them across models.
"""
from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, Sequence

from .angles import DEFAULT_TOL, AngleModPi, _number, _scaled, _set, _Value, _wrap_pi
from .angles import ROUNDING_SNAP, TANGENCY_BOUND, reduce_mod_pi
from .shape import ProjTripleC, ShapeClass, class_dist, class_of
from .triangle import DegeneracyType, TriangleVariable, classify, from_vertices
from .projections import sphere_dist, to_sphere, to_torus, torus_dist


#: Parameters, approaching 0, at which ``limit_class`` samples a family.
SCHEDULE = (1e-3, 1e-4, 1e-5, 1e-6)

#: Last step distance above which a growing limit sequence is refused.
LIMIT_TOL = 1e-6

#: Model-point distance above which limits count as separated.
SEPARATION_THRESHOLD = 1e-3


class PonceletConfig(_Value):
    """Inradius, circumradius, and center separation of a triangle.

    The three lengths are finite floats and always satisfy (R - r)^2 = r^2 + d^2,
    which is what makes the one-parameter revolving family close up.
    """

    __slots__ = ("r", "R", "d")

    def __init__(self, r: float, R: float, d: float) -> None:
        names = ("inradius r", "circumradius R", "center separation d")
        for slot, name, v in zip(self.__slots__, names, (r, R, d)):
            try:
                v = float(v)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name} must be a finite number: {exc}") from None
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite: {v}")
            _set(self, slot, v)
        r, R, d = self.r, self.R, self.d
        # r <= R/2 up to ROUNDING_SNAP R, so R > 0 below
        if not (0.0 < r <= R * (0.5 + ROUNDING_SNAP)):
            raise ValueError(f"inradius must satisfy 0 < r <= R/2: r={r}, R={R}")
        if d < 0.0:
            raise ValueError(f"center separation must be nonnegative: {d}")
        # |(R-r)^2 - r^2 - d^2| <= DEFAULT_TOL R^2, taken in units of R so
        # that nothing overflows: a huge d makes ds * ds infinite, which
        # fails the test (ds ** 2 would raise)
        rs, ds = r / R, d / R
        residual = abs((1.0 - rs) ** 2 - rs**2 - ds * ds)
        if residual > DEFAULT_TOL:
            raise ValueError(
                f"radii and separation are not a closed configuration: "
                f"|(R-r)^2 - r^2 - d^2| / R^2 = {residual:.3g} > {DEFAULT_TOL:g}"
            )

    @staticmethod
    def from_radii(r: float, R: float) -> "PonceletConfig":
        """The unique closed configuration with the given radii, whose
        incircle lies strictly inside the outcircle (R - d > r, Chapple), as
        :func:`poncelet_family` needs.

        d = sqrt(R (R - 2r)) is taken in units of 2^k near R: exact, so d
        keeps its bits at ordinary scales and neither overflows nor
        underflows at extreme ones.
        """
        k = math.frexp(R)[1]
        # an r above R is refused anyway; min keeps ldexp from overflowing first
        rs, Rs = math.ldexp(min(r, R), -k), math.ldexp(R, -k)
        cfg = PonceletConfig(r, R, math.ldexp(math.sqrt(max(0.0, Rs * (Rs - 2.0 * rs))), k))
        if cfg.R - cfg.d <= cfg.r:
            raise ValueError(f"incircle not strictly inside the outcircle: "
                             f"R - d = {cfg.R - cfg.d} <= r = {cfg.r}")
        return cfg


class Family(_Value):
    """A one-parameter family of triangles.

    ``eval`` is defined on the open ``domain``, whose lower end is 0, and
    raises ``ValueError`` where rounding leaves the family; the family
    degenerates as the parameter approaches 0.
    """

    __slots__ = ("label", "eval", "domain")

    def __init__(self, label: str, eval: Callable[[float], TriangleVariable],
                 domain: tuple[float, float]) -> None:
        for slot, v in zip(self.__slots__, (label, eval, domain)):
            _set(self, slot, v)


class Model(enum.Enum):
    DYCK = "Dyck"
    SPHERE = "Sphere"
    TORUS = "Torus"


class SeparationReport(_Value):
    """Two families' limits in one model, their distance and the verdict,
    "Separated" or "Merged"."""

    __slots__ = ("model", "limit1", "limit2", "distance", "verdict")

    def __init__(self, model: Model, limit1: tuple[float, ...], limit2: tuple[float, ...],
                 distance: float, verdict: str) -> None:
        for slot, v in zip(self.__slots__, (model, limit1, limit2, distance, verdict)):
            _set(self, slot, v)

    def to_json(self) -> dict:
        return {
            "model": self.model.value,
            "limit1": list(self.limit1),
            "limit2": list(self.limit2),
            "distance": self.distance,
            "verdict": self.verdict,
        }


def _circumcenter(A: complex, B: complex, C: complex) -> complex:
    ax, ay, bx, by, cx, cy = A.real, A.imag, B.real, B.imag, C.real, C.imag
    den = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    na, nb, nc = abs(A) ** 2, abs(B) ** 2, abs(C) ** 2
    ox = (na * (by - cy) + nb * (cy - ay) + nc * (ay - by)) / den
    oy = (na * (cx - bx) + nb * (ax - cx) + nc * (bx - ax)) / den
    return complex(ox, oy)


def incircle_outcircle(T: TriangleVariable) -> PonceletConfig:
    """Inradius, circumradius, and incenter-circumcenter distance of a
    nondegenerate triangle.

    Measured in units of 2^e near the largest vertex coordinate, so nothing
    underflows or overflows from 1e-200 to 1e200.  Scaling by a power of
    two is exact, so at ordinary scales the results keep their bits.
    """
    if classify(T) is not DegeneracyType.NONDEGENERATE:
        raise ValueError("incircle and outcircle require a nondegenerate triangle")
    A, B, C = T.vertices
    a, b, _ = T.sides
    e = math.frexp(max(abs(A.real), abs(A.imag), abs(B.real), abs(B.imag),
                       abs(C.real), abs(C.imag)))[1]
    A, B, C, a, b = _scaled(A, -e), _scaled(B, -e), _scaled(C, -e), _scaled(a, -e), _scaled(b, -e)
    la, lb, lc = abs(C - B), abs(A - C), abs(B - A)
    area = abs((a.conjugate() * b).imag) / 2.0
    perimeter = la + lb + lc
    r = 2.0 * area / perimeter
    R = la * lb * lc / (4.0 * area)
    incenter = (la * A + lb * B + lc * C) / perimeter
    d = abs(incenter - _circumcenter(A, B, C))
    try:
        return PonceletConfig(math.ldexp(r, e), math.ldexp(R, e), math.ldexp(d, e))
    except OverflowError:
        raise ValueError(f"circumradius too large to represent: {R} * 2^{e}") from None


def level_value(angles: Sequence[AngleModPi | float]) -> float:
    """r/R from interior angles alone: 4 sin(a/2) sin(b/2) sin(g/2).

    Accepts either orientation's mod-pi representatives; returns 0 for a
    degenerate (zero-angle) triple.
    """
    try:
        a, b, c = angles
    except ValueError:
        raise ValueError("expected an angle triple") from None
    # floats wrapped as AngleModPi wraps them; _number reads an angle's value
    a = _wrap_pi(_number(a, "angle"))
    b = _wrap_pi(_number(b, "angle"))
    c = _wrap_pi(_number(c, "angle"))
    # some angle_dist(v, 0.0) <= ROUNDING_SNAP, on values in [0, pi) or -0.0
    if min(a, b, c) <= ROUNDING_SNAP or math.pi - max(a, b, c) <= ROUNDING_SNAP:
        return 0.0
    total = sum((a, b, c))  # not a + b + c: from Python 3.12, sum compensates
    if abs(total - 2.0 * math.pi) < abs(total - math.pi):
        a, b, c = math.pi - a, math.pi - b, math.pi - c  # mirror to the positive lift
    return 4.0 * (math.sin(a / 2.0) * math.sin(b / 2.0) * math.sin(c / 2.0))


def level_curves(levels: Sequence[float], grid: int) -> list[tuple[float, ...]]:
    """Points (level, alpha, beta, gamma) of the r/R level curves at
    alpha = pi*i/grid, 0 < i < grid.

    r/R = 2s (cos((beta - gamma)/2) - s) with s = sin(alpha/2), so level L
    meets alpha iff u = L/(2s) + s <= 1, at beta = (pi - alpha)/2 -/+ acos(u),
    smaller beta first; at u = 1 the two points coincide.
    """
    rows = []
    for level in levels:
        if not 0.0 < level <= 0.5:
            raise ValueError(f"level must be finite and in (0, 0.5]: {level}")
        for i in range(1, grid):
            alpha = math.pi * i / grid
            s = math.sin(alpha / 2.0)
            u = level / (2.0 * s) + s
            if u > 1.0:
                continue
            half, delta = (math.pi - alpha) / 2.0, math.acos(u)
            for beta in (half - delta, half + delta):
                rows.append((level, alpha, beta, math.pi - alpha - beta))
    return rows


def _line_distance(P: complex, Q: complex, Z: complex) -> float:
    """Distance from Z to the line through P and Q, taken in units of 2^e
    near the points (exact) so that the product neither underflows nor
    overflows."""
    e = math.frexp(max(abs(P.real), abs(P.imag), abs(Q.real), abs(Q.imag),
                       abs(Z.real), abs(Z.imag)))[1]
    P, Q, Z = _scaled(P, -e), _scaled(Q, -e), _scaled(Z, -e)
    w = Q - P
    return math.ldexp(abs(((Z - P) * w.conjugate()).imag) / abs(w), e)


def _poncelet_vertices(cfg: PonceletConfig, theta: float) -> tuple[complex, complex, complex]:
    """Vertices (A, B, C) of the revolving-family triangle whose vertex A
    sits at angle theta on the outcircle.

    Outcircle: center 0, radius R.  Incircle: center (d, 0), radius r.
    B and C are the second outcircle intersections of the two tangent lines
    from A to the incircle; the closure theorem makes BC tangent as well,
    which is checked.
    """
    A = cfg.R * cmath.exp(1j * theta)
    center = complex(cfg.d, 0.0)
    w = center - A
    # Chapple guarantees R - d > r, so A is strictly outside the incircle
    n = abs(w)
    u, phi = w / n, math.asin(cfg.r / n)
    # the tangents from A run along u e^{+-i phi}; each meets |z| = R again at
    # A + s*direction, s = -2 Re(conj(A) direction).  The +phi one meets it
    # counterclockwise of the -phi one: naming them (C, B) keeps the
    # triangle positively oriented
    direction = u * cmath.exp(1j * phi)
    C = A + -2.0 * (A.conjugate() * direction).real * direction
    direction = u * cmath.exp(-1j * phi)
    B = A + -2.0 * (A.conjugate() * direction).real * direction
    residual = abs(_line_distance(B, C, center) - cfg.r)
    if residual > TANGENCY_BOUND * cfg.R:
        raise ValueError(f"third chord failed tangency: residual {residual}")
    return A, B, C


def poncelet_family(cfg: PonceletConfig, theta: float) -> TriangleVariable:
    """The triangle of the revolving family whose vertex A sits at angle
    theta on the outcircle: the vertices of :func:`_poncelet_vertices`."""
    return from_vertices(*_poncelet_vertices(cfg, theta))


def chord_tangency_residual(cfg: PonceletConfig, T: TriangleVariable) -> float:
    """How far the chord BC of a revolving-family triangle is from touching
    the incircle (center (d, 0), radius r)."""
    _, B, C = T.vertices
    return abs(_line_distance(B, C, complex(cfg.d, 0.0)) - cfg.r)


#: tangent direction of the unit circle at C = 1
_TANGENT_AT_C = reduce_mod_pi(math.pi / 2.0)


def _chord_triangle(A: complex, B: complex) -> TriangleVariable:
    """Triangle (A, B, C = 1) with A and B on the unit circle.

    When A reaches C the triangle is a double point whose free argument is
    the circle's tangent at C.
    """
    if abs(A - 1.0) <= DEFAULT_TOL:
        return from_vertices(1.0, B, 1.0, free_arguments={"b": _TANGENT_AT_C})
    return from_vertices(A, B, 1.0)


def inscribed_family() -> Family:
    """Vertex A = e^{it} revolving on the unit circle over the diameter
    from B = -1 to C = 1, so the angle at A is a right angle.

    At t = 0 the triangle is the double point at C whose free argument is
    the tangent direction there.
    """
    return Family(
        label="inscribed",
        eval=lambda t: _chord_triangle(cmath.exp(1j * t), -1.0),
        domain=(0.0, 2.0 * math.pi),
    )


def constant_angle_family(alpha0: AngleModPi | float) -> Family:
    """Classes with fixed interior angle alpha0 at vertex A.

    A = e^{2it} revolves on the unit circle over the chord from
    B = e^{-2 i alpha0} to C = 1; the inscribed-angle theorem keeps alpha
    constant.  At t = 0 A reaches C: a double point over [1, 0, -1].
    """
    a0 = float(reduce_mod_pi(_number(alpha0, "constant angle")))
    if a0 <= 0.0:
        raise ValueError("constant angle must be nonzero mod pi")
    B = cmath.exp(-2j * a0)
    return Family(
        label=f"constant-angle[{a0}]",
        eval=lambda t: _chord_triangle(cmath.exp(2j * t), B),
        domain=(0.0, math.pi - a0),
    )


def constant_ratio_family(ratio: float) -> Family:
    """Classes with fixed side-length ratio |c| = ratio * |b|.

    B = 0 and C = 1 are pinned; A = x(t) + i t descends to the segment,
    flattening to a simple point as t -> 0.  The limiting side triple is
    proportional to [1 + ratio, -1, -ratio].  ``eval`` raises
    ``ValueError`` where the built |c| / (ratio |b|) is off 1 by more than
    ``DEFAULT_TOL``, as where float vertices cannot hold the ratio.
    """
    rr = _number(ratio, "side ratio")
    if not 0.0 < rr < math.inf:
        raise ValueError(f"side ratio must be positive and finite, got {rr}")
    r2 = rr * rr
    if r2 == math.inf:
        raise ValueError(f"side ratio {rr} is too large: its square overflows")
    if r2 == 0.0:
        raise ValueError(f"side ratio {rr} is too small: its square underflows")

    def _eval(t: float) -> TriangleVariable:
        # |A| = ratio * |A - 1| with A = x + i t, solved in the form whose
        # denominator adds two positive terms, so no bits cancel
        x = (r2 - (1.0 - r2) * t**2) / (r2 + math.sqrt(r2 - ((1.0 - r2) * t) ** 2))
        T = from_vertices(complex(x, t), 0.0, 1.0)
        # the vertices hold the ratio only to their own rounding, so the
        # triangle is checked to be in the family
        _, b, c = T.sides
        if abs(abs(c) - rr * abs(b)) > DEFAULT_TOL * rr * abs(b):
            raise ValueError(f"side ratio {rr} is lost to rounding at t = {t}: "
                             f"|c| = {abs(c)!r} and |b| = {abs(b)!r}")
        return T

    t_max = 10.0 if rr == 1.0 else rr / abs(1.0 - r2)
    return Family(
        label=f"constant-ratio[{rr}]",
        eval=_eval,
        domain=(0.0, t_max),
    )


def _pivot(ma: float, mb: float, mc: float) -> int:
    """Index of the largest of three moduli, the first one on a tie."""
    if ma >= mb and ma >= mc:
        return 0
    return 1 if mb >= mc else 2


def limit_class(f: Family) -> ShapeClass:
    """Extrapolated limit of class_of(f.eval(t)) as t -> 0 along SCHEDULE.

    Sides are tracked in a fixed affine chart of the projective triple and
    angles as unwrapped real sequences; both get a last-two-point Richardson
    step, which knocks the leading O(t) error down to O(t^2).
    """
    lo, hi = f.domain
    for t in SCHEDULE:
        if not lo < t < hi:
            raise ValueError(f"{f.label}: sample point t = {t} is outside the domain {f.domain}")
    classes = [class_of(f.eval(t)) for t in SCHEDULE]
    pivot = _pivot(*classes[-1].sides.moduli())
    charts: list[tuple[complex, complex, complex]] = []
    angle_seqs: list[list[float]] = []
    for c in classes:
        v = c.sides.as_tuple()
        if abs(v[pivot]) == 0.0:
            raise ValueError("pivot side vanished along the schedule")
        charts.append(tuple(s / v[pivot] for s in v))
        reps = [float(x) for x in c.angles]
        if angle_seqs:
            prev = angle_seqs[-1]
            reps = [
                min((r + k * math.pi for k in (-1, 0, 1)), key=lambda w: abs(w - p))
                for r, p in zip(reps, prev)
            ]
        angle_seqs.append(reps)
    steps = [class_dist(c1, c2) for c1, c2 in zip(classes, classes[1:])]
    if steps[-1] > LIMIT_TOL and steps[-1] > steps[0]:
        raise ValueError(f"family limit not converging; step distances {steps}")
    ratio = SCHEDULE[-1] / SCHEDULE[-2]
    sides = tuple(
        (x2 - ratio * x1) / (1.0 - ratio) for x1, x2 in zip(charts[-2], charts[-1])
    )
    angles = tuple(
        reduce_mod_pi((x2 - ratio * x1) / (1.0 - ratio))
        for x1, x2 in zip(angle_seqs[-2], angle_seqs[-1])
    )
    return ShapeClass(sides=ProjTripleC(*sides), angles=angles)


def separation_test(f1: Family, f2: Family, model: Model) -> SeparationReport:
    """Compare the degenerate limits of two families inside one model."""
    c1, c2 = limit_class(f1), limit_class(f2)
    if model is Model.SPHERE:
        s1, s2 = to_sphere(c1), to_sphere(c2)
        p1, p2 = s1.as_tuple(), s2.as_tuple()
        distance = sphere_dist(s1, s2)
    elif model is Model.TORUS:
        t1, t2 = to_torus(c1), to_torus(c2)
        p1, p2 = (tuple(map(float, t.as_tuple())) for t in (t1, t2))
        distance = torus_dist(t1, t2)
    else:
        p1, p2 = (tuple(v for z in c.sides.as_tuple() for v in (z.real, z.imag))
                  + tuple(map(float, c.angles)) for c in (c1, c2))
        distance = class_dist(c1, c2)
    verdict = "Separated" if distance > SEPARATION_THRESHOLD else "Merged"
    return SeparationReport(
        model=model, limit1=p1, limit2=p2, distance=distance, verdict=verdict
    )
