"""The geometric variable for labeled, oriented, possibly-degenerate triangles.

A triangle is recorded redundantly as (basepoint; side-vectors; projective
direction sextuple; mod-pi arguments).  The redundancy is what keeps
degenerate configurations apart: a zero side-vector still carries a
direction through its argument, and a triple point still carries a
direction sextuple.
"""
from __future__ import annotations

import cmath
import enum
import itertools
import math
import operator
from typing import Sequence

from .angles import DEFAULT_TOL, PI, AngleModPi, _angle_field, _angle_value, _angles, _new
from .angles import _number, _set, _Value, angle_dist, reduce_mod_pi

SLOTS = ("a", "b", "c")


class DegeneracyType(enum.Enum):
    NONDEGENERATE = "Nondegenerate"
    SIMPLE = "Simple"
    DOUBLE = "Double"
    TRIPLE = "Triple"
    TRIPLED_SIMPLE = "TripledSimple"
    DOUBLED_SIMPLE = "DoubledSimple"
    TRIPLED_DOUBLE = "TripledDouble"
    TRIPLED_DOUBLED_SIMPLE = "TripledDoubledSimple"


class Orientation(enum.Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ZERO = "Zero"


def _canonical6(v0: float, v1: float, v2: float, v3: float, v4: float, v5: float) -> tuple:
    """Canonicalize a point of P^5(R) given by six floats: max-abs coordinate
    1, first nonzero coordinate positive."""
    m = max(abs(v0), abs(v1), abs(v2), abs(v3), abs(v4), abs(v5))
    if m == 0.0:
        raise ValueError("direction sextuple cannot be all zero")
    q0, q1, q2, q3, q4, q5 = v0 / m, v1 / m, v2 / m, v3 / m, v4 / m, v5 / m
    # -(v / m) is v / (-m) to the bit, zeros included
    if (q0 or q1 or q2 or q3 or q4 or q5) < 0.0:
        return (-q0, -q1, -q2, -q3, -q4, -q5)
    return (q0, q1, q2, q3, q4, q5)


def _direction_field(v: Sequence[float]) -> tuple[float, float, float, float, float, float]:
    """v as six floats, as a ``TriangleVariable`` stores its directions and
    from_sides reads a triple point's.  Other than six values, a value that
    is no real number (a string among them), or one that is not finite or
    whose pair's modulus is not, raises a ``ValueError`` naming directions."""
    try:
        d0, d1, d2, d3, d4, d5 = v
    except (TypeError, ValueError):
        raise ValueError("directions must be six coordinates") from None
    if any(isinstance(x, (str, bytes, bytearray)) for x in (d0, d1, d2, d3, d4, d5)):
        raise ValueError("directions must be real numbers")  # which float() would parse
    d = "a coordinate is out of the float range"  # until the floats replace it
    try:
        d = d0, d1, d2, d3, d4, d5 = tuple(map(float, (d0, d1, d2, d3, d4, d5)))
        finite = all(map(math.isfinite, (abs(complex(d0, d1)), abs(complex(d2, d3)),
                                         abs(complex(d4, d5)))))
    except (TypeError, ValueError):
        raise ValueError("directions must be real numbers") from None
    except OverflowError:  # float() or abs() over the float range, or abs() of a NaN
        finite = False     # part after a stale errno
    if not finite:
        raise ValueError(f"directions must be finite and canonical: {d}")
    return d


class TriangleVariable(_Value):
    """Full geometric variable of a labeled, oriented triangle.

    The constructor checks each field once and refuses a malformed one with
    a ``ValueError`` that names it: a finite complex basepoint, three finite
    complex sides whose moduli are finite, six finite real directions whose
    three pair moduli are finite, and three arguments, each an
    ``AngleModPi`` or a finite real, which it wraps.  The fields are stored converted (a real side as a
    complex, an int direction as a float), and the functions below read them
    as stored.  ``from_sides`` and ``act`` build their triangles past the
    constructor, and copies and pickles restore the fields unchecked.

    Invariants (checked by :func:`validate`):
      * sides sum to zero;
      * if the sides are not all zero, the direction sextuple is their
        canonical projectivization;
      * the argument of every nonzero direction pair equals the direction's
        angle mod pi (arguments of zero pairs are free).
    """

    __slots__ = ("basepoint", "sides", "directions", "arguments")

    def __init__(self, basepoint: complex, sides: tuple[complex, complex, complex],
                 directions: tuple[float, float, float, float, float, float],
                 arguments: tuple[AngleModPi, AngleModPi, AngleModPi]) -> None:
        try:
            a, b, c = sides
        except (TypeError, ValueError):
            raise ValueError("sides must be three side-vectors") from None
        basepoint, a, b, c = (_number(v, name, complex) for name, v in zip(
            ("basepoint", "side a", "side b", "side c"), (basepoint, a, b, c)))
        if not (cmath.isfinite(basepoint) and cmath.isfinite(a) and cmath.isfinite(b)
                and cmath.isfinite(c)):
            raise ValueError(f"basepoint and side-vectors must be finite: "
                             f"basepoint = {basepoint}, a = {a}, b = {b}, c = {c}")
        try:
            abs(a), abs(b), abs(c)  # validate's scale, as from_sides refuses
        except OverflowError:
            raise ValueError(f"side-vectors too long: a = {a}, b = {b}, c = {c}") from None
        _set_basepoint(self, basepoint)
        _set_sides(self, (a, b, c))
        _set_directions(self, _direction_field(directions))
        try:
            xa, xb, xc = arguments
        except (TypeError, ValueError):
            raise ValueError("arguments must be three angles") from None
        _set_arguments(self, tuple(_angle_field("arguments", x) for x in (xa, xb, xc)))

    @property
    def vertices(self) -> tuple[complex, complex, complex]:
        a, _b, c = self.sides
        return (self.basepoint - c, self.basepoint, self.basepoint + a)

    def direction_pairs(self) -> tuple[complex, complex, complex]:
        d = self.directions
        return (complex(d[0], d[1]), complex(d[2], d[3]), complex(d[4], d[5]))


def _side_record(a: complex, b: complex, c: complex, basepoint: complex = 0j,
                 directions=None, free_arguments=None):
    """:func:`from_sides`' tests, then its (c, directions, arguments): the
    exact closure c = -a - b, the canonical direction sextuple and the three
    atan2 values, not yet wrapped."""
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c)):
        raise ValueError(f"side-vectors must be finite: a = {a}, b = {b}, c = {c}")
    if not cmath.isfinite(basepoint):
        raise ValueError(f"basepoint must be finite: {basepoint}")
    if free_arguments is not None:  # checked whole, though only a zero side's is read
        if not isinstance(free_arguments, dict) or not free_arguments.keys() <= set(SLOTS):
            raise ValueError(f"free_arguments must be a dict with keys among 'a', 'b', 'c': "
                             f"{free_arguments!r}")
        free_arguments = {slot: _angle_value("free_arguments", x)
                          for slot, x in free_arguments.items()}
    try:
        scale = max(abs(a), abs(b), abs(c))
        if scale > 0.0 and abs(a + b + c) > DEFAULT_TOL * scale:
            raise ValueError(f"side-vectors do not close: a+b+c = {a + b + c}")
    except OverflowError:
        raise ValueError(f"side-vectors too long: a = {a}, b = {b}, c = {c}") from None
    if scale > 0.0:
        c = -a - b
        dirs = _canonical6(a.real, a.imag, b.real, b.imag, c.real, c.imag)
        d0, d1, d2, d3, d4, d5 = dirs
        if (d0 or d1) and (d2 or d3) and (d4 or d5):
            return c, dirs, (math.atan2(d1, d0), math.atan2(d3, d2), math.atan2(d5, d4))
    else:
        if directions is None:
            raise ValueError(
                "underdetermined triple point: zero side-vectors need an "
                "explicit direction sextuple"
            )
        dirs = _canonical6(*_direction_field(directions))
        s1 = dirs[0] + dirs[2] + dirs[4]
        s2 = dirs[1] + dirs[3] + dirs[5]
        if abs(s1) > DEFAULT_TOL or abs(s2) > DEFAULT_TOL:
            raise ValueError("direction triple violates a1+b1+c1 = a2+b2+c2 = 0")
    # a zero pair takes its free argument, else the line through the two
    # distinct vertices; the nonzero pairs of a double point are opposite,
    # so the first one gives the angle
    xi = [math.atan2(dirs[k + 1], dirs[k]) if dirs[k] or dirs[k + 1] else None
          for k in (0, 2, 4)]
    free = free_arguments or {}
    line = next(x for x in xi if x is not None)
    xi = [x if x is not None else free.get(slot, line) for slot, x in zip(SLOTS, xi)]
    return c, dirs, xi


def from_sides(
    a: complex,
    b: complex,
    c: complex,
    basepoint: complex = 0j,
    directions: Sequence[float] | None = None,
    free_arguments: dict[str, AngleModPi] | None = None,
) -> TriangleVariable:
    """Build a triangle variable from side-vectors.

    The closure defect a + b + c is checked against ``DEFAULT_TOL`` and then
    removed exactly by setting c = -a - b.  Zero sides get their argument from
    ``free_arguments``; unspecified free arguments default to the direction
    of the line through the remaining vertices.  A free argument for a
    nonzero side is checked and ignored.  Non-finite side-vectors or
    basepoint, side-vectors whose length overflows, a triple point's
    directions that ``TriangleVariable`` refuses and ``free_arguments``
    that is not a dict, or has a key other than a, b or c or a value that is
    not an angle or a finite real raise ``ValueError``.
    """
    if not a.__class__ is b.__class__ is c.__class__ is basepoint.__class__ is complex:
        a, b, c, basepoint = (_number(v, field, complex) for field, v in zip(
            ("side a", "side b", "side c", "basepoint"), (a, b, c, basepoint)))
    c, dirs, xi = _side_record(a, b, c, basepoint, directions, free_arguments)
    T = _new(TriangleVariable)
    _set_basepoint(T, basepoint)
    _set_sides(T, (a, b, c))
    _set_directions(T, dirs)
    _set_arguments(T, _angles(*xi))
    return T


def from_vertices(
    A: complex,
    B: complex,
    C: complex,
    directions: Sequence[float] | None = None,
    free_arguments: dict[str, AngleModPi] | None = None,
) -> TriangleVariable:
    """Triangle with vertices (A, B, C): a = C-B, b = A-C, c = B-A, basepoint B."""
    if not A.__class__ is B.__class__ is C.__class__ is complex:
        A, B, C = (_number(v, f"vertex {s}", complex) for s, v in zip("ABC", (A, B, C)))
    return from_sides(C - B, A - C, B - A, B, directions, free_arguments)


_set_basepoint, _set_sides, _set_directions, _set_arguments = (  # past _Value's __setattr__
    getattr(TriangleVariable, name).__set__ for name in TriangleVariable.__slots__)
#: the stratum of each (triple, double, simple) combination
_STRATA = {
    (False, False, False): DegeneracyType.NONDEGENERATE,
    (False, False, True): DegeneracyType.SIMPLE,
    (False, True, False): DegeneracyType.DOUBLE,
    (True, False, False): DegeneracyType.TRIPLE,
    (True, False, True): DegeneracyType.TRIPLED_SIMPLE,
    (False, True, True): DegeneracyType.DOUBLED_SIMPLE,
    (True, True, False): DegeneracyType.TRIPLED_DOUBLE,
    (True, True, True): DegeneracyType.TRIPLED_DOUBLED_SIMPLE,
}


def classify(T: TriangleVariable) -> DegeneracyType:
    """Degeneracy stratum of the triangle.

    Three conditions are tested on the canonical (unit-scale) data, within
    ``DEFAULT_TOL``: all side-vectors zero; some direction pair zero; all
    three lines parallel (equal arguments mod pi).  Their eight combinations
    name the strata.
    """
    a, b, c = T.sides
    d0, d1, d2, d3, d4, d5 = T.directions
    # abs of a complex, not math.hypot, which differs from it in the last bit
    dbl = (abs(complex(d0, d1)) <= DEFAULT_TOL or abs(complex(d2, d3)) <= DEFAULT_TOL
           or abs(complex(d4, d5)) <= DEFAULT_TOL)
    xa, xb, xc = T.arguments
    # each angle_dist <= tol, as t <= tol or pi - t <= tol on values in [0, pi)
    t0, t1, t2 = abs(xa.value - xb.value), abs(xb.value - xc.value), abs(xa.value - xc.value)
    smp = ((t0 <= DEFAULT_TOL or PI - t0 <= DEFAULT_TOL) and (t1 <= DEFAULT_TOL
           or PI - t1 <= DEFAULT_TOL) and (t2 <= DEFAULT_TOL or PI - t2 <= DEFAULT_TOL))
    return _STRATA[not (a or b or c), dbl, smp]


def orientation(T: TriangleVariable) -> Orientation:
    """Sign of the area, tested within ``DEFAULT_TOL`` on the unit-scale
    direction pairs, so it does not depend on the size of the triangle.  A
    triple point gets ZERO."""
    a, b, c = T.sides
    if not (a or b or c):
        return Orientation.ZERO
    d0, d1, d2, d3, d4, d5 = T.directions
    scale = max(abs(complex(d0, d1)), abs(complex(d2, d3)), abs(complex(d4, d5)))
    s2 = d0 * d3 + -d1 * d2  # Im(conj(pa) pb), as complex multiplication rounds it
    if s2 > DEFAULT_TOL * scale * scale:
        return Orientation.POSITIVE
    if s2 < -DEFAULT_TOL * scale * scale:
        return Orientation.NEGATIVE
    return Orientation.ZERO


def interior_angles(T: TriangleVariable) -> tuple[AngleModPi, AngleModPi, AngleModPi]:
    """Interior angles (alpha, beta, gamma) mod pi: differences of the side
    arguments, as ``angles._interior`` gives them."""
    xa, xb, xc = T.arguments
    return _angles(xb.value - xc.value, xc.value - xa.value, xa.value - xb.value)


def validate(T: TriangleVariable) -> list[str]:
    """Return a list of invariant violations (empty when consistent), at
    ``DEFAULT_TOL``."""
    problems: list[str] = []
    a, b, c = T.sides
    d0, d1, d2, d3, d4, d5 = T.directions
    scale = max(abs(a), abs(b), abs(c))
    if scale > 0.0 and abs(a + b + c) > DEFAULT_TOL * scale:
        problems.append("side-vectors do not sum to zero")
    if scale > 0.0:
        expected = _canonical6(a.real, a.imag, b.real, b.imag, c.real, c.imag)
        if any(abs(u - v) > DEFAULT_TOL for u, v in zip(expected, T.directions)):
            problems.append("direction sextuple inconsistent with side-vectors")
    if abs(d0 + d2 + d4) > DEFAULT_TOL or abs(d1 + d3 + d5) > DEFAULT_TOL:
        problems.append("direction triple violates a1+b1+c1=0 or a2+b2+c2=0")
    for slot, pair, xi in zip(SLOTS, T.direction_pairs(), T.arguments):
        if abs(pair) > DEFAULT_TOL:
            expected_xi = reduce_mod_pi(math.atan2(pair.imag, pair.real))
            if angle_dist(expected_xi, xi) > DEFAULT_TOL:
                problems.append(f"argument xi_{slot} inconsistent with direction")
    return problems


# ---------------------------------------------------------------------------
# D6 = S3 x Z2 symmetry


class GroupElement(_Value):
    """An element of the order-12 label/orientation symmetry group.

    ``perm`` relabels the alphabetical slots: slot i of the image is slot
    perm[i] of the source.  ``flip`` reverses orientation (mirror image).
    """

    __slots__ = ("perm", "flip")

    def __init__(self, perm: tuple[int, int, int], flip: bool) -> None:
        try:
            p = tuple(map(operator.index, perm))
        except TypeError:
            p = ()
        if sorted(p) != [0, 1, 2]:
            raise ValueError(f"perm is not a permutation of (0, 1, 2): {perm!r}")
        if flip not in (False, True):
            raise ValueError(f"flip must be True or False: {flip!r}")
        _set(self, "perm", p)
        _set(self, "flip", bool(flip))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        # act(self * other, T) == act(self, act(other, T))
        perm = tuple(other.perm[self.perm[i]] for i in range(3))
        return GroupElement(perm, self.flip ^ other.flip)

    @staticmethod
    def all_elements() -> list["GroupElement"]:
        return [
            GroupElement(p, f)
            for p in itertools.permutations(range(3))
            for f in (False, True)
        ]


def act(g: GroupElement, T: TriangleVariable) -> TriangleVariable:
    """Apply a symmetry to a triangle.

    The permutation shuffles the alphabetical slots of sides, direction
    pairs, and arguments.  The flip takes the mirror image (complex
    conjugation), which negates arguments mod pi and reverses orientation.
    """
    i, j, k = g.perm
    s, x, b, d, m = T.sides, T.arguments, T.basepoint, T.directions, 1.0
    s, x = (s[i], s[j], s[k]), (x[i], x[j], x[k])
    if g.flip:
        s = (s[0].conjugate(), s[1].conjugate(), s[2].conjugate())
        x = _angles(-x[0].value, -x[1].value, -x[2].value)
        b, m = b.conjugate(), -1.0
    image = _new(TriangleVariable)
    _set_basepoint(image, b)
    _set_sides(image, s)
    # m * v is v or -v to the bit, signed zeros included
    _set_directions(image, _canonical6(d[2 * i], m * d[2 * i + 1], d[2 * j],
                                       m * d[2 * j + 1], d[2 * k], m * d[2 * k + 1]))
    _set_arguments(image, x)
    return image


def vertex_angle(T: TriangleVariable, slot: int) -> AngleModPi:
    """Interior angle measured directly at a vertex (signed, mod pi).

    Independent oracle for :func:`interior_angles`; only defined when the
    two sides at the vertex are nonzero.
    """
    A, B, C = T.vertices
    if slot == 0:
        P, Q, R = A, B, C
    elif slot == 1:
        P, Q, R = B, C, A
    elif slot == 2:
        P, Q, R = C, A, B
    else:
        raise ValueError(f"slot must be 0, 1 or 2, got {slot!r}")
    u, v = Q - P, R - P
    if abs(u) == 0.0 or abs(v) == 0.0:
        raise ValueError("vertex angle undefined at a coincident vertex")
    w = u.conjugate() * v
    return reduce_mod_pi(math.atan2(w.imag, w.real))
