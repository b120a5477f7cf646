"""Similarity classes: side directions in P(X) and interior angles mod pi,
a pair that separates every degenerate class.  ``phi``/``psi`` go to and
from blowup coordinates ([a,b,c]; [xi_a, xi_b, xi_c]), xi up to a common
shift."""
from __future__ import annotations

import cmath
import math
import operator

from .angles import CLOSURE_BOUND, DEFAULT_TOL, PI, AngleModPi, _angles, _apart, _dist2, _interior
from .angles import _new, _number, _scaled, _Value, _wrap_pi, angle_dist, reduce_mod_pi
from .triangle import SLOTS, GroupElement, TriangleVariable, _side_record, from_sides

#: a class's side at or below this fraction of its largest is zero to
#: lift_class, which then takes its argument from the stored angles
_ZERO_SNAP = 1e-13


class ProjTripleC(_Value):
    """A point [a, b, c] of P(X): complex, not all zero, a+b+c = 0.

    Canonical form: divided by the first largest coordinate, which becomes
    1+0j.  A triple holding a 1 and no modulus above 1 + 2**-50 is kept, so
    the form is idempotent and kept by permuting and conjugating."""

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
            # by the first largest; complex p / p is not always 1+0j
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
    d0, d1, d2, d3, d4, d5 = T.directions
    xa, xb, xc = T.arguments
    return ShapeClass(ProjTripleC(complex(d0, d1), complex(d2, d3), complex(d4, d5)),
                      _angles(xb.value - xc.value, xc.value - xa.value, xa.value - xb.value))


def class_of_vertices(A: complex, B: complex, C: complex) -> ShapeClass:
    """``class_of(from_vertices(A, B, C))`` to the bit, with no triangle:
    the sides go through from_sides' own record, tests and errors."""
    if not A.__class__ is B.__class__ is C.__class__ is complex:
        A, B, C = (_number(v, f"vertex {s}", complex) for s, v in zip("ABC", (A, B, C)))
    # finite sides imply a finite B, so the basepoint needs no test
    _, (d0, d1, d2, d3, d4, d5), (x0, x1, x2) = _side_record(C - B, A - C, B - A)
    x0, x1, x2 = _wrap_pi(x0), _wrap_pi(x1), _wrap_pi(x2)
    c = _new(ShapeClass)
    _set_sides(c, ProjTripleC(complex(d0, d1), complex(d2, d3), complex(d4, d5)))
    _set_angles(c, _angles(x1 - x2, x2 - x0, x0 - x1))  # _interior(x0, x1, x2)
    return c


def class_dist(c1: ShapeClass, c2: ShapeClass) -> float:
    """Chordal side distance plus the euclidean norm of the angle distances."""
    return proj_dist(c1.sides, c2.sides) + math.sqrt(_dist2(c1.angles, c2.angles))


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
    ma, mb, mc = abs(s.a), abs(s.b), abs(s.c)
    xb, xc = -gamma.value, beta.value
    xb = xb + PI if -PI < xb < 0.0 and xb + PI < PI else _wrap_pi(xb)
    shift = 0.0 if ma >= mb and ma >= mc else xb if mb >= mc else xc
    b = _new(BlowupCoord)
    _set_coord_sides(b, s)
    _set_xi(b, _angles(0.0 - shift, xb - shift, xc - shift))  # not -shift: -0.0 at a zero shift
    return b


def psi(b: BlowupCoord) -> ShapeClass:
    """Blowup coordinate to class by the cross-product relation, whatever
    the diagonal representative of the xi."""
    xa, xb, xc = b.xi
    c = _new(ShapeClass)
    _set_sides(c, b.sides)
    _set_angles(c, _angles(xb.value - xc.value, xc.value - xa.value, xa.value - xb.value))
    return c


def blowup_dist(b1: BlowupCoord, b2: BlowupCoord) -> float:
    """Chordal side distance plus the worst spread of the xi differences,
    0 exactly when the xi triples differ by a diagonal shift."""
    (x0, x1, x2), (y0, y1, y2) = b1.xi, b2.xi
    w0, w1, w2 = _angles(x0.value - y0.value, x1.value - y1.value, x2.value - y2.value)
    t1, t2 = abs(w0.value - w1.value), abs(w0.value - w2.value)  # angle_dist, as in _dist2
    return proj_dist(b1.sides, b2.sides) + max(min(t1, PI - t1), min(t2, PI - t2))


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


def _row(i, j, k, f) -> tuple:
    """The row of g = ((i, j, k), f): its image takes the angles theta_(i, j, k)
    of set s, own (0) or negated (1: one of the flip and an odd permutation),
    and the sides z_(i, j, k), conjugated on a flip."""
    return i, j, k, f != ((j - i) % 3 != 1), f


#: the rows in orbit order; elements 2p and 2p + 1 share a permutation
_GROUP = tuple(_row(*g.perm, g.flip) for g in GroupElement.all_elements())
#: _MUL[e][h]: the index of _GROUP[e] * _GROUP[h], by GroupElement.__mul__
_MUL = tuple(tuple(_GROUP.index(_row(q[p[0]], q[p[1]], q[p[2]], p[4] ^ q[4])) for q in _GROUP)
             for p in _GROUP)
#: _KEY[e]: image e's canonical_rep key, out of the six angle parts and the moduli
_KEY = tuple(operator.itemgetter(3 * s + i, 3 * s + j, 3 * s + k, 6 + i, 6 + j, 6 + k)
             for i, j, k, s, _ in _GROUP)
#: _ASCENDING[i, j, k, s]: the element whose image has theta_(i, j, k) of set s
_ASCENDING = {g[:4]: e for e, g in enumerate(_GROUP)}
#: _cosets by Stab: at most the 2,048 subsets of range(12) that hold 0
_COSETS: dict = {}
#: the slot setters past _Value's refusing __setattr__
_set_a, _set_b, _set_c = ProjTripleC.a.__set__, ProjTripleC.b.__set__, ProjTripleC.c.__set__
_set_sides, _set_angles = ShapeClass.sides.__set__, ShapeClass.angles.__set__
_set_coord_sides, _set_xi = BlowupCoord.sides.__set__, BlowupCoord.xi.__set__


def _frame(c: ShapeClass) -> tuple:
    """(z, m, zs, signed): the sides, or at the zero snap the lift's, whose
    zero is 0j; their moduli; them, conjugated; the angles, negated."""
    z = c.sides
    m = z.moduli()
    if min(m) <= _ZERO_SNAP * max(m):
        z = ProjTripleC(*lift_class(c).direction_pairs())
        m = z.moduli()
    a, b, g = t = z.as_tuple()
    x, y, w = own = c.angles
    return z, m, (t, (a.conjugate(), b.conjugate(), g.conjugate())), (
        own, _angles(-x.value, -y.value, -w.value))


def _build(zs, signed, rows) -> list[ShapeClass]:
    """The rows' images, bare: moved sides keep the canonical form."""
    out = []
    for i, j, k, s, f in rows:
        z, w = zs[f], signed[s]
        moved = _new(ProjTripleC)
        _set_a(moved, z[i])
        _set_b(moved, z[j])
        _set_c(moved, z[k])
        image = _new(ShapeClass)
        _set_sides(image, moved)
        _set_angles(image, (w[i], w[j], w[k]))
        out.append(image)
    return out


def act_class(g: GroupElement, c: ShapeClass) -> ShapeClass:
    """The class's image under g, as orbit builds it (``triangle.act`` on a
    lift is the independent path)."""
    return _build(*_frame(c)[2:], (_row(*g.perm, g.flip),))[0]


#: (c, tol, result) of the last _dedup call; matched by identity, since
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


def _dedup(c: ShapeClass, tol: float) -> tuple:
    """(kept, images, six, v, m): the _cosets of Stab, the elements whose image
    is class_equal to image 0; their images; the own and negated angles; v
    them sorted; the moduli.  Kept for the last (c, tol).  Each element but
    0 compares two of the six in some slot: _apart, Stab is {0}.  Else
    proj_dist runs only where each slot's modulus is within 4 tol + 2**-40
    of image 0's, for both elements of a permutation: with n < 1.74 the
    images' norm, X, Y = x/n, y/n, d = |X - <X, Y> Y| and |<X, Y>| >= 1 -
    d**2, ||x_s| - |y_s|| <= n (d + d**2) < 3.5 d; proj_dist <= tol means
    d <= tol + 2**-48."""
    global _last
    last = _last  # read once: another thread may replace it
    if last[0] is c and last[1] == tol:
        return last[2]
    sides, m, zs, signed = _frame(c)
    (x, y, w), (p, q, r) = signed
    b0, b1, b2 = x.value, y.value, w.value
    six = (b0, b1, b2, p.value, q.value, r.value)
    v = sorted(six)
    stab = [0]
    if not _apart(v, tol):
        # 4 is a margin, not the least factor: n (d + d**2) < 2.33 d for
        # tol < 1/3, and no gap exceeds 1, so 3 tol keeps the same images
        bound = 4.0 * tol + 2.0 ** -40
        for e in range(0, 12, 2):
            i, j, k, _, _ = _GROUP[e]
            if not max(abs(m[i] - m[0]), abs(m[j] - m[1]), abs(m[k] - m[2])) <= bound:
                continue
            for h in (e, e + 1) if e else (1,):
                s, f = _GROUP[h][3:]
                o = 3 * s  # angle_dist: min(t, pi - t) on values already in [0, pi)
                t0, t1, t2 = abs(six[o + i] - b0), abs(six[o + j] - b1), abs(six[o + k] - b2)
                if ((t0 <= tol or PI - t0 <= tol) and (t1 <= tol or PI - t1 <= tol)
                        and (t2 <= tol or PI - t2 <= tol)):
                    z, moved = zs[f], _new(ProjTripleC)
                    _set_a(moved, z[i])
                    _set_b(moved, z[j])
                    _set_c(moved, z[k])
                    if proj_dist(moved, sides) <= tol:
                        stab.append(h)
    kept = _cosets(tuple(stab))
    result = kept, _build(zs, signed, map(_GROUP.__getitem__, kept)), six, v, m
    _last = (c, tol, result)
    return result


def orbit(c: ShapeClass, tol: float = DEFAULT_TOL) -> list[ShapeClass]:
    """The class's images, one per coset of its tolerant stabilizer, in
    group order; as tol is not transitive, two may be class_equal."""
    if math.isnan(tol):
        raise ValueError("orbit tolerance must not be NaN")
    return _dedup(c, tol)[1][:]


def canonical_rep(c: ShapeClass) -> ShapeClass:
    """The first orbit member with the least key, compared component by
    component, those within DEFAULT_TOL counted equal: slot-ordered angles,
    one within DEFAULT_TOL of pi read as near 0, then side moduli."""
    kept, members, six, v, m = _dedup(c, DEFAULT_TOL)
    parts = six
    if PI - v[5] <= DEFAULT_TOL:
        parts = [t - PI if PI - t <= DEFAULT_TOL else t for t in six]
    if len(kept) < 12 or not _apart(v if parts is six else sorted(parts), DEFAULT_TOL):
        parts += m
        best, best_key = 0, _KEY[0](parts)
        for n in range(1, len(kept)):
            key = _KEY[kept[n]](parts)
            for t, b in zip(key, best_key):
                if abs(t - b) > DEFAULT_TOL:
                    if t < b:
                        best, best_key = n, key
                    break
        return members[best]
    s, i = divmod(parts.index(min(parts)), 3)  # strictly ordered: the least part's set
    j, k, held = (i + 1) % 3, (i + 2) % 3, parts[3 * s:]
    return members[_ASCENDING[(i, j, k, s) if held[j] < held[k] else (i, k, j, s)]]
