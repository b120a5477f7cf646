"""Similarity classes and their blowup coordinates.

A similarity class keeps two things: the projective triple of side
directions in P(X) and the interior angles mod pi.  The pair is enough to
separate every degenerate class.  ``phi``/``psi`` translate between classes
and blowup coordinates ([a,b,c]; [xi_a, xi_b, xi_c]) where the angle triple
is taken modulo a common additive shift.
"""
from __future__ import annotations

import cmath
import math

from .angles import DEFAULT_TOL, PI, AngleModPi, _interior, _number, _set, _Value, _wrap_pi
from .angles import angle_dist, reduce_mod_pi
from .triangle import SLOTS, GroupElement, TriangleVariable, _side_record
from .triangle import from_sides, interior_angles

#: a class's side at or below this fraction of its largest is zero to
#: lift_class, which then takes its argument from the stored angles
_ZERO_SNAP = 1e-13


def _pivot(ma: float, mb: float, mc: float) -> int:
    """Index of the largest of three moduli, the first one on a tie."""
    if ma >= mb and ma >= mc:
        return 0
    return 1 if mb >= mc else 2


class ProjTripleC(_Value):
    """A point [a, b, c] of P(X): complex triple, not all zero, a+b+c = 0.

    Canonical form divides by the first largest-modulus coordinate, which
    becomes exactly 1+0j; closure holds to rounding.  A triple holding a 1
    and no modulus above 1 + 2**-50 is kept, so the form is idempotent to
    the bit and kept by permuting and conjugating; on a tie such as
    (-1, 1, 0) the slot already 1 stays the pivot.  ``__post_init__`` runs
    once per construction, so a wrapper put on the class counts them.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: complex, b: complex, c: complex) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        self.__post_init__()

    def __post_init__(self) -> None:
        try:
            a, b, c = complex(self.a), complex(self.b), complex(self.c)
            ma, mb, mc = abs(a), abs(b), abs(c)
        except OverflowError:
            a, b, c = (_number(getattr(self, s), f"side {s}", complex) for s in SLOTS)
            slot = next(name for name, v in zip(SLOTS, (a, b, c))
                        if math.hypot(v.real, v.imag) == math.inf)
            raise ValueError(f"side {slot} is too long: its modulus overflows") from None
        if not math.isfinite(ma + mb + mc):
            # a NaN or infinite part, or three huge finite moduli whose sum
            # overflowed, which pass
            for slot, v in zip(SLOTS, (a, b, c)):
                if not cmath.isfinite(v):
                    raise ValueError(f"side {slot} must be finite: {v}")
        scale = max(ma, mb, mc)
        if scale == 0.0:
            raise ValueError("projective triple cannot be all zero")
        if abs(a + b + c) > 1e-6 * scale:
            raise ValueError(f"triple does not close: a+b+c = {0 + a + b + c}")
        if not (scale <= 1.0 + 2.0 ** -50 and (a == 1 or b == 1 or c == 1)):
            k = _pivot(ma, mb, mc)
            p = (a, b, c)[k]
            q = [a / p, b / p, c / p]
            q[k] = 1 + 0j  # complex p / p is not always 1+0j
            a, b, c = q
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.a, self.b, self.c)

    def moduli(self) -> tuple[float, float, float]:
        return (abs(self.a), abs(self.b), abs(self.c))

    def to_json(self) -> list[list[float]]:
        return [[v.real, v.imag] for v in self.as_tuple()]


def proj_dist(t1: ProjTripleC, t2: ProjTripleC) -> float:
    """Chordal distance between points of P(X), independent of representatives.

    sin of the Fubini-Study angle: 0 for equal points, 1 for orthogonal ones.
    """
    (x0, x1, x2), (y0, y1, y2) = t1.as_tuple(), t2.as_tuple()
    nx = math.sqrt(abs(x0) ** 2 + abs(x1) ** 2 + abs(x2) ** 2)
    ny = math.sqrt(abs(y0) ** 2 + abs(y1) ** 2 + abs(y2) ** 2)
    x0, x1, x2 = x0 / nx, x1 / nx, x2 / nx
    y0, y1, y2 = y0 / ny, y1 / ny, y2 / ny
    inner = y0.conjugate() * x0 + y1.conjugate() * x1 + y2.conjugate() * x2
    # norm of the component of x orthogonal to y: sin of the angle, computed
    # without the cancellation that sqrt(1 - cos^2) suffers near zero
    r0, r1, r2 = x0 - inner * y0, x1 - inner * y1, x2 - inner * y2
    return min(1.0, math.sqrt(abs(r0) ** 2 + abs(r1) ** 2 + abs(r2) ** 2))


class ShapeClass(_Value):
    """A similarity class: ([a, b, c]; (alpha, beta, gamma))."""

    __slots__ = ("sides", "angles")

    def __init__(self, sides: ProjTripleC,
                 angles: tuple[AngleModPi, AngleModPi, AngleModPi]) -> None:
        _set(self, "sides", sides)
        _set(self, "angles", angles)

    def to_json(self) -> dict:
        return {
            "sides": self.sides.to_json(),
            "angles": [float(x) for x in self.angles],
        }

    @staticmethod
    def from_json(data: dict) -> "ShapeClass":
        """Read back :meth:`to_json`; a malformed field, angles whose sum is
        not 0 mod pi, or angles off the interior angles of three sides above
        the zero snap raise ``ValueError`` that names it.  That last test
        allows for sides written by earlier versions, whose canonical form
        moved a side's argument by up to about 4 ulps of 1 over its share of
        the largest side: it allows 2**-46 (64 ulps) over the smallest share."""
        try:
            a, b, c = (complex(x, y) for x, y in data["sides"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValueError("'sides' must be three [re, im] pairs") from None
        try:
            alpha, beta, gamma = (reduce_mod_pi(v) for v in data["angles"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("'angles' must be three finite numbers") from None
        total = alpha.value + beta.value + gamma.value
        if angle_dist(total, 0.0) > DEFAULT_TOL:
            raise ValueError(f"'angles' must sum to 0 mod pi, not {total}")
        sides = ProjTripleC(a, b, c)
        m = sides.moduli()
        share = min(m) / max(m)
        if share > _ZERO_SNAP:
            a, b, c = sides.as_tuple()
            off = max(map(angle_dist, _interior(cmath.phase(a), cmath.phase(b), cmath.phase(c)),
                          (alpha, beta, gamma)))
            if off > DEFAULT_TOL + 2.0 ** -46 / share:
                raise ValueError(f"'angles' must be the interior angles of the sides, "
                                 f"not {off} off them")
        return ShapeClass(sides=sides, angles=(alpha, beta, gamma))


class BlowupCoord(_Value):
    """([a, b, c]; [xi_a, xi_b, xi_c]) with the additive diagonal relation.

    The stored representative pins the xi of the largest-modulus side to 0.
    """

    __slots__ = ("sides", "xi")

    def __init__(self, sides: ProjTripleC,
                 xi: tuple[AngleModPi, AngleModPi, AngleModPi]) -> None:
        _set(self, "sides", sides)
        _set(self, "xi", xi)


def _gauge_fix(
    sides: ProjTripleC, xi: tuple[float, float, float]
) -> tuple[AngleModPi, AngleModPi, AngleModPi]:
    """Shift the xi values, each in [0, pi), so the largest side's is 0."""
    shift = xi[_pivot(abs(sides.a), abs(sides.b), abs(sides.c))]
    return (AngleModPi(xi[0] - shift), AngleModPi(xi[1] - shift), AngleModPi(xi[2] - shift))


def class_of(T: TriangleVariable) -> ShapeClass:
    """Quotient map: forget the basepoint and projectivize the directions."""
    pa, pb, pc = T.direction_pairs()
    return ShapeClass(sides=ProjTripleC(pa, pb, pc), angles=interior_angles(T))


def class_of_vertices(A: complex, B: complex, C: complex) -> ShapeClass:
    """``class_of(from_vertices(A, B, C))`` to the bit, with no triangle built:
    the sides a = C - B, b = A - C, c = B - A go through from_sides' own
    record, its tests and errors included."""
    try:
        A, B, C = complex(A), complex(B), complex(C)
    except OverflowError:
        A, B, C = (_number(v, f"vertex {s}", complex) for s, v in zip("ABC", (A, B, C)))
    # finite sides imply a finite B, so the basepoint needs no test
    _, (d0, d1, d2, d3, d4, d5), x = _side_record(C - B, A - C, B - A)
    return ShapeClass(sides=ProjTripleC(complex(d0, d1), complex(d2, d3), complex(d4, d5)),
                      angles=_interior(_wrap_pi(x[0]), _wrap_pi(x[1]), _wrap_pi(x[2])))


def class_dist(c1: ShapeClass, c2: ShapeClass) -> float:
    """Distance on the moduli surface: chordal side distance plus the
    euclidean combination of per-angle wraparound distances."""
    d2 = sum(angle_dist(x, y) ** 2 for x, y in zip(c1.angles, c2.angles))
    return proj_dist(c1.sides, c2.sides) + math.sqrt(d2)


def class_equal(c1: ShapeClass, c2: ShapeClass, tol: float = DEFAULT_TOL) -> bool:
    """Equality in P(X) x T: projective sides and all three angles agree.
    The cheaper angles are tested first."""
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if not all(angle_dist(x, y) <= tol for x, y in zip(c1.angles, c2.angles)):
        return False
    return proj_dist(c1.sides, c2.sides) <= tol


def phi(c: ShapeClass) -> BlowupCoord:
    """Class to blowup coordinate: angles (alpha, beta, gamma) -> [0, -gamma, beta]."""
    _alpha, beta, gamma = c.angles
    xi = (0.0, _wrap_pi(-gamma.value), beta.value)
    return BlowupCoord(sides=c.sides, xi=_gauge_fix(c.sides, xi))


def psi(b: BlowupCoord) -> ShapeClass:
    """Blowup coordinate to class via the cross-product relation.

    Independent of the diagonal representative of [xi_a, xi_b, xi_c].
    """
    xi = b.xi
    return ShapeClass(sides=b.sides, angles=_interior(xi[0].value, xi[1].value, xi[2].value))


def blowup_dist(b1: BlowupCoord, b2: BlowupCoord) -> float:
    """Distance of blowup coordinates: chordal side distance plus the worst
    spread of the xi differences, which is 0 exactly when the xi triples
    differ by a constant diagonal shift."""
    diffs = [x - y for x, y in zip(b1.xi, b2.xi)]
    spread = max(angle_dist(diffs[0], d) for d in diffs[1:])
    return proj_dist(b1.sides, b2.sides) + spread


def lift_class(c: ShapeClass) -> TriangleVariable:
    """A triangle representing the class (basepoint 0, unit scale).

    Free arguments at a zero side are reconstructed from the stored angles
    so that class_of(lift_class(c)) == c.
    """
    sides, mods = c.sides.as_tuple(), c.sides.moduli()
    zero_tol = _ZERO_SNAP * max(mods)
    free: dict[str, AngleModPi] = {}
    for i, slot in enumerate(SLOTS):
        if mods[i] > zero_tol:
            continue
        # theta_m = xi_(m+1) - xi_(m+2), indices mod 3, with r the first other
        # slot and m the third; solved for the missing argument xi_i
        r, m = (1, 2) if i == 0 else (0, 3 - i)
        v = sides[r]
        xi_r = reduce_mod_pi(math.atan2(v.imag, v.real))
        theta = c.angles[m]
        free[slot] = xi_r + theta if i == (m + 1) % 3 else xi_r - theta
    snapped = [0j if mods[i] <= zero_tol else sides[i] for i in range(3)]
    if "c" in free and snapped[0] + snapped[1]:
        # from_sides resets c = -a - b, which must stay the snapped 0j
        snapped[1] = -snapped[0]
    return from_sides(*snapped, free_arguments=free or None)


#: (i, j, k, flip) of the 12 symmetries, in the order orbit lists their images
_GROUP = tuple((*g.perm, g.flip) for g in GroupElement.all_elements())
#: _MUL[e][h]: the index of _GROUP[e] * _GROUP[h], by GroupElement.__mul__'s
#: rule on the tuples (the 144 products of GroupElements take 10 times as long)
_MUL = tuple(tuple(_GROUP.index((q[p[0]], q[p[1]], q[p[2]], p[3] ^ q[3])) for q in _GROUP)
             for p in _GROUP)


def _images(c: ShapeClass) -> list[ShapeClass]:
    """The class's 12 images, in _GROUP order.  g = (i, j, k, flip) takes
    the angles (theta_i, theta_j, theta_k), negated mod pi when exactly one
    of the flip and an odd permutation holds, and the sides (z_i, z_j, z_k),
    conjugated on a flip, as they are: these moves keep ProjTripleC's
    canonical form.  z is the class's own side triple, or, at the zero
    snap, that of its lift's direction pairs, whose zero is 0j."""
    own = c.angles
    signed = (own, (-own[0], -own[1], -own[2]))
    sides = c.sides
    m = sides.moduli()
    if min(m) <= _ZERO_SNAP * max(m):
        sides = ProjTripleC(*lift_class(c).direction_pairs())
    z = sides.as_tuple()
    zs = (z, (z[0].conjugate(), z[1].conjugate(), z[2].conjugate()))
    out = []
    for i, j, k, flip in _GROUP:
        w, s = signed[flip != ((j - i) % 3 != 1)], zs[flip]
        moved = object.__new__(ProjTripleC)
        _set(moved, "a", s[i])
        _set(moved, "b", s[j])
        _set(moved, "c", s[k])
        out.append(ShapeClass(moved, (w[i], w[j], w[k])))
    return out


def act_class(g: GroupElement, c: ShapeClass) -> ShapeClass:
    """Induced symmetry on classes: the class's angles, signed and permuted,
    and its sides, permuted and conjugated on a flip (``triangle.act`` on
    a lift is the independent path)."""
    return _images(c)[_GROUP.index((*g.perm, g.flip))]


#: (c, tol, result) of the last _members call; matched by identity, since
#: equal classes may differ in the sign of a zero
_last: tuple = (None, None, None)


def _members(c: ShapeClass, tol: float) -> tuple[list[int], list[ShapeClass]]:
    """(kept, images): the first _GROUP index of each coset g_e Stab, whose
    images are one class, and the 12 images.  Stab holds the elements whose
    image is class_equal to image 0, angles first.  The result for the last
    (c, tol) is kept: canonical_rep after orbit of the same object reuses it."""
    global _last
    last = _last  # read once: another thread may replace it
    if last[0] is c and last[1] == tol:
        return last[2]
    images = _images(c)
    first = images[0]
    b0, b1, b2 = (x.value for x in first.angles)
    stab = [0]
    for h in range(1, 12):
        # angle_dist: min(t, pi - t) on values already in [0, pi)
        x, y, z = images[h].angles
        t0, t1, t2 = abs(x.value - b0), abs(y.value - b1), abs(z.value - b2)
        if ((t0 <= tol or PI - t0 <= tol) and (t1 <= tol or PI - t1 <= tol)
                and (t2 <= tol or PI - t2 <= tol)
                and proj_dist(images[h].sides, first.sides) <= tol):
            stab.append(h)
    kept, seen = [], set()
    for e in range(12):
        if e not in seen:
            kept.append(e)
            seen.update(_MUL[e][h] for h in stab)
    _last = (c, tol, (kept, images))
    return kept, images


def orbit(c: ShapeClass, tol: float = DEFAULT_TOL) -> list[ShapeClass]:
    """Deduplicated images of the class under all 12 symmetries, in group
    order: its own angles, signed and permuted, and its own sides moved."""
    if math.isnan(tol):
        raise ValueError("orbit tolerance must not be NaN")
    kept, images = _members(c, tol)
    return [images[e] for e in kept]


def _rep_key(c: ShapeClass) -> tuple[float, ...]:
    """Slot-ordered angles, those within DEFAULT_TOL of pi read as near 0,
    then the side moduli, whose largest is 1 in the canonical form."""
    x, y, z = c.angles
    a, b, g = x.value, y.value, z.value
    return (a - PI if PI - a <= DEFAULT_TOL else a, b - PI if PI - b <= DEFAULT_TOL else b,
            g - PI if PI - g <= DEFAULT_TOL else g) + c.sides.moduli()


def _key_less(k1: tuple[float, ...], k2: tuple[float, ...]) -> bool:
    """Lexicographic order; components within DEFAULT_TOL count as equal."""
    for x, y in zip(k1, k2):
        if abs(x - y) > DEFAULT_TOL:
            return x < y
    return False


def canonical_rep(c: ShapeClass) -> ShapeClass:
    """Deterministic orbit representative: the first orbit member with the
    least key (slot-ordered angles, then side moduli) within ``DEFAULT_TOL``."""
    kept, images = _members(c, DEFAULT_TOL)
    best = images[kept[0]]
    best_key = _rep_key(best)
    for e in kept[1:]:
        key = _rep_key(images[e])
        if _key_less(key, best_key):
            best, best_key = images[e], key
    return best
