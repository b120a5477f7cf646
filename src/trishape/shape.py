"""Similarity classes: side directions in P(X) and interior angles mod pi,
a pair that separates every degenerate class.  ``phi``/``psi`` go to and
from blowup coordinates ([a,b,c]; [xi_a, xi_b, xi_c]), xi up to a common
shift."""
from __future__ import annotations

import cmath
import math
import operator

from .angles import CLOSURE_BOUND, DEFAULT_TOL, PI, AngleModPi, _angle, _interior, _new, _number
from .angles import _scaled, _Value, _wrap_pi, angle_dist, reduce_mod_pi
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
    """A point [a, b, c] of P(X): complex, not all zero, a+b+c = 0.

    Canonical form: divided by the first largest coordinate, which becomes
    1+0j.  A triple holding a 1 and no modulus above 1 + 2**-50 is kept, so
    the form is idempotent and kept by permuting and conjugating.  The
    constructor tests and canonicalizes; ``__post_init__`` does nothing and
    runs once per construction, so a wrapper put on the class counts them."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: complex, b: complex, c: complex) -> None:
        if not a.__class__ is b.__class__ is c.__class__ is complex:
            a, b, c = (_number(v, f"side {n}", complex) for n, v in zip(SLOTS, (a, b, c)))
        s = a + b + c
        try:
            ma, mb, mc, gap = abs(a), abs(b), abs(c), abs(s)
        except OverflowError:
            # a modulus over the float range, or a NaN part after a stale errno:
            # the moduli in units of 2**3 by hypot, which raises neither
            ma, mb, mc, gap = (math.hypot(v.real / 8.0, v.imag / 8.0) for v in (a, b, c, s))
        if not math.isfinite(ma + mb + mc):
            # NaN, inf, or huge finite moduli whose sum overflowed (these pass)
            for slot, v in zip(SLOTS, (a, b, c)):
                if not cmath.isfinite(v):
                    raise ValueError(f"side {slot} must be finite: {v}")
        scale = max(ma, mb, mc)
        if scale == 0.0:
            raise ValueError("projective triple cannot be all zero")
        if gap > CLOSURE_BOUND * scale:
            raise ValueError(f"triple does not close: a+b+c = {0 + s}")
        if not 2.0 ** -1000 < scale < 2.0 ** 1000:
            # in units of 2**k near the scale, exactly: the complex division
            # overflows or loses bits to subnormals out there
            k = -math.frexp(scale)[1]
            a, b, c = _scaled(a, k), _scaled(b, k), _scaled(c, k)
            ma, mb, mc = abs(a), abs(b), abs(c)
        if not (scale <= 1.0 + 2.0 ** -50 and (a == 1 or b == 1 or c == 1)):
            # by the first largest, as _pivot picks it; complex p / p is not always 1+0j
            if ma >= mb and ma >= mc:
                a, b, c = 1 + 0j, b / a, c / a
            elif mb >= mc:
                a, b, c = a / b, 1 + 0j, c / b
            else:
                a, b, c = a / c, b / c, 1 + 0j
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The counting hook: the constructor has done all the work."""

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.a, self.b, self.c)

    def moduli(self) -> tuple[float, float, float]:
        return (abs(self.a), abs(self.b), abs(self.c))

    def to_json(self) -> list[list[float]]:
        return [[v.real, v.imag] for v in self.as_tuple()]


def proj_dist(t1: ProjTripleC, t2: ProjTripleC) -> float:
    """Chordal distance on P(X): sin of the Fubini-Study angle, 0 for equal
    points and 1 for orthogonal ones, whatever the representatives."""
    (x0, x1, x2), (y0, y1, y2) = t1.as_tuple(), t2.as_tuple()
    nx = math.sqrt(abs(x0) ** 2 + abs(x1) ** 2 + abs(x2) ** 2)
    ny = math.sqrt(abs(y0) ** 2 + abs(y1) ** 2 + abs(y2) ** 2)
    x0, x1, x2 = x0 / nx, x1 / nx, x2 / nx
    y0, y1, y2 = y0 / ny, y1 / ny, y2 / ny
    inner = y0.conjugate() * x0 + y1.conjugate() * x1 + y2.conjugate() * x2
    # |x orthogonal to y|: no cancellation, as sqrt(1 - cos^2) has near 0
    r0, r1, r2 = x0 - inner * y0, x1 - inner * y1, x2 - inner * y2
    return min(1.0, math.sqrt(abs(r0) ** 2 + abs(r1) ** 2 + abs(r2) ** 2))


class ShapeClass(_Value):
    """A similarity class: ([a, b, c]; (alpha, beta, gamma))."""

    __slots__ = ("sides", "angles")

    def __init__(self, sides: ProjTripleC,
                 angles: tuple[AngleModPi, AngleModPi, AngleModPi]) -> None:
        _set_sides(self, sides)
        _set_angles(self, angles)

    def to_json(self) -> dict:
        return {"sides": self.sides.to_json(), "angles": [float(x) for x in self.angles]}

    @staticmethod
    def from_json(data: dict) -> "ShapeClass":
        """Read back :meth:`to_json`.  A malformed field, angles whose sum is
        not 0 mod pi, or angles off the interior angles of sides above the
        zero snap raise ``ValueError``.  Sides written by earlier versions
        may be ~4 ulps over their share off: 2**-46 / share is allowed."""
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
    """([a, b, c]; [xi_a, xi_b, xi_c]) up to a diagonal shift, stored with
    the xi of the largest side at 0."""

    __slots__ = ("sides", "xi")

    def __init__(self, sides: ProjTripleC,
                 xi: tuple[AngleModPi, AngleModPi, AngleModPi]) -> None:
        _set_coord_sides(self, sides)
        _set_xi(self, xi)


def class_of(T: TriangleVariable) -> ShapeClass:
    """Quotient map: forget the basepoint and projectivize the directions."""
    pa, pb, pc = T.direction_pairs()
    return ShapeClass(ProjTripleC(pa, pb, pc), interior_angles(T))


def class_of_vertices(A: complex, B: complex, C: complex) -> ShapeClass:
    """``class_of(from_vertices(A, B, C))`` to the bit, with no triangle:
    the sides go through from_sides' own record, tests and errors."""
    if not A.__class__ is B.__class__ is C.__class__ is complex:
        A, B, C = (_number(v, f"vertex {s}", complex) for s, v in zip("ABC", (A, B, C)))
    # finite sides imply a finite B, so the basepoint needs no test
    _, (d0, d1, d2, d3, d4, d5), x = _side_record(C - B, A - C, B - A)
    return ShapeClass(sides=ProjTripleC(complex(d0, d1), complex(d2, d3), complex(d4, d5)),
                      angles=_interior(_wrap_pi(x[0]), _wrap_pi(x[1]), _wrap_pi(x[2])))


def class_dist(c1: ShapeClass, c2: ShapeClass) -> float:
    """Chordal side distance plus the euclidean norm of the angle distances."""
    d2 = sum(angle_dist(x, y) ** 2 for x, y in zip(c1.angles, c2.angles))
    return proj_dist(c1.sides, c2.sides) + math.sqrt(d2)


def class_equal(c1: ShapeClass, c2: ShapeClass, tol: float = DEFAULT_TOL) -> bool:
    """Equality in P(X) x T, the cheaper angles tested first."""
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if not all(angle_dist(x, y) <= tol for x, y in zip(c1.angles, c2.angles)):
        return False
    return proj_dist(c1.sides, c2.sides) <= tol


def phi(c: ShapeClass) -> BlowupCoord:
    """Class to blowup coordinate: angles (alpha, beta, gamma) -> [0, -gamma,
    beta], each in [0, pi), shifted so that the largest side's is 0."""
    _alpha, beta, gamma = c.angles
    s = c.sides
    xi = (0.0, _wrap_pi(-gamma.value), beta.value)
    shift = xi[_pivot(abs(s.a), abs(s.b), abs(s.c))]
    return BlowupCoord(s, (_angle(xi[0] - shift), _angle(xi[1] - shift), _angle(xi[2] - shift)))


def psi(b: BlowupCoord) -> ShapeClass:
    """Blowup coordinate to class by the cross-product relation, whatever
    the diagonal representative of the xi."""
    xi = b.xi
    return ShapeClass(b.sides, _interior(xi[0].value, xi[1].value, xi[2].value))


def blowup_dist(b1: BlowupCoord, b2: BlowupCoord) -> float:
    """Chordal side distance plus the worst spread of the xi differences,
    0 exactly when the xi triples differ by a diagonal shift."""
    diffs = [x - y for x, y in zip(b1.xi, b2.xi)]
    spread = max(angle_dist(diffs[0], d) for d in diffs[1:])
    return proj_dist(b1.sides, b2.sides) + spread


def lift_class(c: ShapeClass) -> TriangleVariable:
    """A triangle of the class (basepoint 0, unit scale); free arguments at
    a zero side come from the angles, so class_of(lift_class(c)) == c."""
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
#: _MUL[e][h]: the index of _GROUP[e] * _GROUP[h], by GroupElement.__mul__
_MUL = tuple(tuple(_GROUP.index((q[p[0]], q[p[1]], q[p[2]], p[3] ^ q[3])) for q in _GROUP)
             for p in _GROUP)
#: _KEY[e] picks image e's canonical_rep key out of images 0 and 1's angles
#: (own and negated) and image 0's moduli, which no flip changes
_KEY = tuple(operator.itemgetter(*(3 * (f != ((j - i) % 3 != 1)) + x for x in (i, j, k)),
                                 6 + i, 6 + j, 6 + k) for i, j, k, f in _GROUP)
#: _ASCENDING[s, i, j, k]: the element whose image's angles are theta_(i, j, k), negated if s
_ASCENDING = {(f != ((j - i) % 3 != 1), i, j, k): e for e, (i, j, k, f) in enumerate(_GROUP)}
#: _cosets by Stab: at most the 2,048 subsets of range(12) that hold 0
_COSETS: dict = {}
#: the slot setters past _Value's refusing __setattr__, for the constructors and _images
_set_a, _set_b, _set_c = ProjTripleC.a.__set__, ProjTripleC.b.__set__, ProjTripleC.c.__set__
_set_sides, _set_angles = ShapeClass.sides.__set__, ShapeClass.angles.__set__
_set_coord_sides, _set_xi = BlowupCoord.sides.__set__, BlowupCoord.xi.__set__


def _images(c: ShapeClass, group=_GROUP) -> list[ShapeClass]:
    """The class's images under ``group`` (all 12), in order.  g = (i, j, k,
    flip) takes the angles (theta_i, theta_j, theta_k), negated mod pi when
    exactly one of the flip and an odd permutation holds, and the sides
    (z_i, z_j, z_k), conjugated on a flip, which keep ProjTripleC's
    canonical form.  z is the class's own sides, or at the zero snap its
    lift's direction pairs, whose zero is 0j."""
    own = c.angles
    signed = (own, (-own[0], -own[1], -own[2]))
    sides = c.sides
    m = sides.moduli()
    if min(m) <= _ZERO_SNAP * max(m):
        sides = ProjTripleC(*lift_class(c).direction_pairs())
    z = sides.as_tuple()
    zs = (z, (z[0].conjugate(), z[1].conjugate(), z[2].conjugate()))
    out = []
    for i, j, k, flip in group:
        w, s = signed[flip != ((j - i) % 3 != 1)], zs[flip]
        moved = _new(ProjTripleC)
        _set_a(moved, s[i])
        _set_b(moved, s[j])
        _set_c(moved, s[k])
        image = _new(ShapeClass)
        _set_sides(image, moved)
        _set_angles(image, (w[i], w[j], w[k]))
        out.append(image)
    return out


def act_class(g: GroupElement, c: ShapeClass) -> ShapeClass:
    """The class's image under g, as in _images (``triangle.act`` on a lift
    is the independent path)."""
    return _images(c, ((*g.perm, g.flip),))[0]


#: (c, tol, result) of the last _members call; matched by identity, since
#: equal classes may differ in the sign of a zero
_last: tuple = (None, None, None)


def _cosets(stab: tuple[int, ...]) -> tuple[int, ...]:
    """The first _GROUP index of each coset g_e Stab, in group order."""
    kept = _COSETS.get(stab)
    if kept is None:
        kept, seen = [], set()
        for e in range(12):
            if e not in seen:
                kept.append(e)
                seen.update(_MUL[e][h] for h in stab)
        kept = _COSETS[stab] = tuple(kept)
    return kept


def _apart(six, tol: float) -> bool:
    """Whether six floats, sorted, step by more than tol, and pi less their span is too."""
    v = sorted(six)
    return (v[1] - v[0] > tol and v[2] - v[1] > tol and v[3] - v[2] > tol
            and v[4] - v[3] > tol and v[5] - v[4] > tol and PI - (v[5] - v[0]) > tol)


def _members(c: ShapeClass, tol: float) -> tuple[tuple[int, ...], list[ShapeClass]]:
    """(kept, images): the _cosets of Stab, the elements whose image is
    class_equal to image 0, and the 12 images.  Kept for the last (c, tol),
    so canonical_rep after orbit of one object reuses it.  proj_dist runs
    only where each slot's side modulus is within 4 tol + 2**-40 of image
    0's.  Images share their moduli, so their norm n < 1.74; with X, Y =
    x/n, y/n, d = |X - <X, Y> Y| <= 1 and |<X, Y>| >= 1 - d**2, ||x_s| -
    |y_s|| <= n (d + d**2) < 3.5 d, and a computed proj_dist <= tol means
    d <= tol + 2**-48, the moduli rounding by less than 2**-50."""
    global _last
    last = _last  # read once: another thread may replace it
    if last[0] is c and last[1] == tol:
        return last[2]
    images = _images(c)
    first = images[0]
    b0, b1, b2 = (x.value for x in first.angles)
    # each element but the identity compares, in some slot, two different ones of the six
    # angles of images 0 and 1: by monotone rounding, if they are _apart no scan finds it
    stab = [0]
    if not _apart((b0, b1, b2, *(x.value for x in images[1].angles)), tol):
        m, bound = first.sides.moduli(), 4.0 * tol + 2.0 ** -40
        for h, (i, j, k, _) in enumerate(_GROUP[1:], 1):
            # angle_dist: min(t, pi - t) on values already in [0, pi)
            x, y, z = images[h].angles
            t0, t1, t2 = abs(x.value - b0), abs(y.value - b1), abs(z.value - b2)
            if ((t0 <= tol or PI - t0 <= tol) and (t1 <= tol or PI - t1 <= tol)
                    and (t2 <= tol or PI - t2 <= tol)
                    and max(abs(m[i] - m[0]), abs(m[j] - m[1]), abs(m[k] - m[2])) <= bound
                    and proj_dist(images[h].sides, first.sides) <= tol):
                stab.append(h)
    kept = _cosets(tuple(stab))
    _last = (c, tol, (kept, images))
    return kept, images


def orbit(c: ShapeClass, tol: float = DEFAULT_TOL) -> list[ShapeClass]:
    """The class's distinct images under the 12 symmetries, in group order."""
    if math.isnan(tol):
        raise ValueError("orbit tolerance must not be NaN")
    kept, images = _members(c, tol)
    return [images[e] for e in kept]


def canonical_rep(c: ShapeClass) -> ShapeClass:
    """The first orbit member with the least key, compared component by
    component, those within DEFAULT_TOL counted equal: slot-ordered angles,
    one within DEFAULT_TOL of pi read as near 0, then side moduli."""
    kept, images = _members(c, DEFAULT_TOL)
    (x, y, z), (u, v, w) = images[0].angles, images[1].angles
    parts = [t - PI if PI - t <= DEFAULT_TOL else t
             for t in (x.value, y.value, z.value, u.value, v.value, w.value)]
    if len(kept) == 12 and _apart(parts, DEFAULT_TOL):  # a strict order, least part first
        s, i = divmod(parts.index(min(parts)), 3)  # its set, own (0) or negated (1)
        j, k, held = (i + 1) % 3, (i + 2) % 3, parts[3 * s:]  # its set's parts first
        return images[_ASCENDING[(s, i, j, k) if held[j] < held[k] else (s, i, k, j)]]
    parts += images[0].sides.moduli()
    best = kept[0]
    best_key = _KEY[best](parts)
    for e in kept[1:]:
        key = _KEY[e](parts)
        for t, b in zip(key, best_key):
            if abs(t - b) > DEFAULT_TOL:
                if t < b:
                    best, best_key = e, key
                break
    return images[best]
