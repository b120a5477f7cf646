import cmath
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from trishape.angles import DEFAULT_TOL, PI, angle_dist, reduce_mod_pi
from trishape.triangle import (DegeneracyType, GroupElement, Orientation, classify,
                               from_sides, from_vertices, orientation)
from trishape.shape import (ProjTripleC, ShapeClass, act_class, class_equal, class_of, orbit,
                            proj_dist)
from trishape.projections import (
    DELTA_A,
    DELTA_B,
    DELTA_C,
    SphereLocus,
    SpherePoint,
    TorusPoint,
    classify_sphere_locus,
    hopf,
    sphere_dist,
    to_sphere,
    to_torus,
    torus_dist,
    torus_fiber_limit,
    torus_inverse,
)


# ---------------------------------------------------------------------------
# quaternion oracle for the Hopf map


def _qmul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def _hopf_oracle(u, v):
    """conj(q) * i * q / |q|^2 with q = u + v j."""
    q = (u.real, u.imag, v.real, v.imag)
    qc = (q[0], -q[1], -q[2], -q[3])
    n = sum(x * x for x in q)
    out = _qmul(_qmul(qc, (0, 1, 0, 0)), q)
    assert abs(out[0]) < 1e-12 * n
    return (out[1] / n, out[2] / n, out[3] / n)


def test_hopf_against_quaternion_oracle():
    rng = random.Random(31)
    for _ in range(200):
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(u) + abs(v) < 0.1:
            continue
        got = hopf(u, v).as_tuple()
        want = _hopf_oracle(u, v)
        assert math.dist(got, want) < 1e-12


def test_hopf_axis_values():
    assert math.dist(hopf(1, 0).as_tuple(), (1, 0, 0)) < 1e-15
    assert math.dist(hopf(0, 1).as_tuple(), (-1, 0, 0)) < 1e-15
    assert math.dist(hopf(1, 1j).as_tuple(), (0, -1, 0)) < 1e-15


def test_hopf_rejects_origin():
    with pytest.raises(ValueError):
        hopf(0, 0)


def test_hopf_scale_invariance():
    rng = random.Random(32)
    u, v = 0.3 + 0.7j, -1.1 + 0.2j
    base = hopf(u, v)
    for _ in range(1000):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(lam) < 1e-2:
            continue
        assert sphere_dist(hopf(lam * u, lam * v), base) < 1e-12


@pytest.mark.parametrize("u, v", [
    (complex("inf"), 1), (complex("nan"), 0), (1, complex(0, -math.inf)),
])
def test_hopf_refuses_non_finite_input(u, v):
    with pytest.raises(ValueError, match="finite"):
        hopf(u, v)


@pytest.mark.parametrize("k", [-300, -200, 200, 300])
def test_hopf_at_extreme_scales(k):
    u, v = 0.3 + 0.7j, -1.1 + 0.2j
    assert sphere_dist(hopf(u * 10.0**k, v * 10.0**k), hopf(u, v)) < 1e-15
    assert hopf(10.0**k, 0).as_tuple() == (1.0, 0.0, 0.0)


def test_sphere_point_must_be_unit():
    with pytest.raises(ValueError):
        SpherePoint(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SpherePoint(math.nan, 0.0, 0.0)


@pytest.mark.parametrize("x", [1e200, -1e200, 1.7e308, math.inf, -math.inf])
def test_sphere_point_refuses_a_huge_coordinate_with_value_error(x):
    """The norm is math.hypot's, whose squares cannot overflow."""
    for point in ((x, 0.0, 0.0), (0.0, x, 0.0), (0.6, 0.0, x)):
        with pytest.raises(ValueError, match="not a unit vector"):
            SpherePoint(*point)


def test_sphere_point_keeps_its_coordinates():
    s = SpherePoint(0.6, -0.0, 0.8)
    assert s.as_tuple() == (0.6, -0.0, 0.8)
    assert math.copysign(1.0, s.y) == -1.0


def test_double_point_landmarks():
    cases = [
        ((0, 1, -1), DELTA_A),
        ((1, 0, -1), DELTA_B),
        ((1, -1, 0), DELTA_C),
    ]
    for sides, landmark in cases:
        for free_val in (0.2, 1.0, 2.9):
            slot = ("a", "b", "c")[sides.index(0)]
            c = class_of(
                from_sides(*sides, free_arguments={slot: reduce_mod_pi(free_val)})
            )
            assert math.dist(to_sphere(c).as_tuple(), landmark) < 1e-12


def test_equilateral_poles():
    w = cmath.exp(2j * PI / 3)
    plus = from_vertices(w, w.conjugate(), 1)
    minus = from_vertices(w.conjugate(), w, 1)
    assert orientation(plus) is Orientation.POSITIVE
    assert math.dist(to_sphere(class_of(plus)).as_tuple(), (0, -1, 0)) < 1e-12
    assert math.dist(to_sphere(class_of(minus)).as_tuple(), (0, 1, 0)) < 1e-12


@pytest.mark.xfail(strict=True, reason="classify, orientation and the sphere apply DEFAULT_TOL "
                   "to different quantities, so on a thin triangle they disagree")
def test_orientation_agrees_with_classify_and_the_sphere_on_a_thin_triangle():
    """Height 0.9e-9 over a unit base: classify says nondegenerate and the
    sphere point is in the positive hemisphere (y = -2.08e-9), but
    orientation says ZERO.  A degenerate stratum has zero orientation; any
    other has the sign of its hemisphere."""
    T = from_vertices(0, 1, 0.5 + 0.9e-9j)
    y = to_sphere(class_of(T)).y
    hemisphere = Orientation.POSITIVE if y < 0.0 else Orientation.NEGATIVE
    want = hemisphere if classify(T) is DegeneracyType.NONDEGENERATE else Orientation.ZERO
    assert orientation(T) is want


def test_locus_flags_at_named_points():
    eq = classify_sphere_locus(SpherePoint(0, -1, 0), 1e-9)
    assert SphereLocus.EQUILATERAL_PLUS in eq
    assert {
        SphereLocus.ISOSCELES_A,
        SphereLocus.ISOSCELES_B,
        SphereLocus.ISOSCELES_C,
    } <= eq
    assert SphereLocus.DEGENERATE_CIRCLE not in eq

    db = classify_sphere_locus(SpherePoint(*DELTA_B), 1e-9)
    assert {
        SphereLocus.DEGENERATE_CIRCLE,
        SphereLocus.DOUBLE_B,
        SphereLocus.RIGHT_A,
        SphereLocus.RIGHT_C,
    } <= db
    assert SphereLocus.RIGHT_B not in db

    north = classify_sphere_locus(SpherePoint(0, 0, 1), 1e-9)
    assert {SphereLocus.DEGENERATE_CIRCLE, SphereLocus.ISOSCELES_C} <= north
    assert SphereLocus.RIGHT_C not in north


def test_isosceles_circles_contain_their_double_landmark():
    # the odd-side-a circle must contain the landmark of the a = 0 fiber
    assert SphereLocus.ISOSCELES_A in classify_sphere_locus(SpherePoint(*DELTA_A), 1e-9)
    assert SphereLocus.ISOSCELES_B in classify_sphere_locus(SpherePoint(*DELTA_B), 1e-9)
    assert SphereLocus.ISOSCELES_C in classify_sphere_locus(SpherePoint(*DELTA_C), 1e-9)


_S3 = math.sqrt(3.0)
_LANDMARKS = [(0.0, -1.0, 0.0), (0.0, 1.0, 0.0), DELTA_A, DELTA_B, DELTA_C]


def _loci_by_residuals(s, tol):
    """The loci whose residual is below tol, every one of the 12 computed:
    the defining equations of the seven circles, then the distances to the
    two equilateral poles and the three double landmarks."""
    x, y, z = s.x, s.y, s.z
    residuals = [abs(y), abs(x + _S3 * z), abs(x - _S3 * z), abs(x), abs(-_S3 * x + z + 1.0),
                 abs(_S3 * x + z + 1.0), abs(z - 0.5)]
    residuals += [math.dist((x, y, z), p) for p in _LANDMARKS]
    return frozenset(locus for locus, r in zip(SphereLocus, residuals) if r < tol)


def _steps(v, n):
    """v moved by n ulps, up for n > 0."""
    for _ in range(abs(n)):
        v = math.nextafter(v, math.inf if n > 0 else -math.inf)
    return v


def _toward(landmark, y):
    """The unit vector at height y above or below the landmark's meridian."""
    lx, _, lz = landmark
    r = math.hypot(lx, lz)
    m = math.sqrt(max(0.0, 1.0 - y * y))
    return (lx / r * m, y, lz / r * m) if r else (m, y, 0.0)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6, 0.3, -1e-9, 1e-17, 5e-324])
def test_the_landmark_band_skips_no_locus(tol):
    """classify_sphere_locus computes no landmark distance in the band
    2 tol <= |y| <= 1 - 2 tol.  At its edges, a few ulps either side, at
    half a tol from every landmark and on it, the loci are those of all 12
    residuals.  A tol below 2**-54 makes 1 - 2 tol round to 1, so the band
    must be tested as 2 tol <= 1 - |y|."""
    heights = [2.0 * tol, 1.0 - 2.0 * tol, tol / 2.0, 1.0 - tol / 2.0, 0.0, 1.0]
    points = [SpherePoint(*p) for p in _LANDMARKS]
    for h, n, sign, landmark in itertools.product(heights, range(-3, 4), (1.0, -1.0), _LANDMARKS):
        y = sign * _steps(h, n)
        if abs(y) <= 1.0:
            points.append(SpherePoint(*_toward(landmark, y)))
    # half a tol off each landmark, along the sphere
    for lx, ly, lz in _LANDMARKS:
        d = abs(tol) / 2.0
        p = (lx + d, ly, lz) if ly else (lx, d, lz)
        n = math.hypot(*p)
        points.append(SpherePoint(p[0] / n, p[1] / n, p[2] / n))
    inside = [2.0 * tol <= abs(s.y) and 2.0 * tol <= 1.0 - abs(s.y) for s in points]
    assert any(inside) or tol > 0.25
    assert not all(inside) or tol <= 0.0
    for s in points:
        assert classify_sphere_locus(s, tol) == _loci_by_residuals(s, tol), (s, tol)
    if 0.0 < tol <= 1e-6:  # a point on a landmark, or half a tol off it, is on it
        assert all(any(classify_sphere_locus(s, tol) & {locus} for s in points)
                   for locus in list(SphereLocus)[7:])


def test_torus_point_sum_constraint():
    with pytest.raises(ValueError):
        TorusPoint(reduce_mod_pi(0.3), reduce_mod_pi(0.3), reduce_mod_pi(0.3))
    with pytest.raises(ValueError, match="does not sum to 0 mod pi"):
        TorusPoint(1.0, 2.0, 0.14159)


def test_torus_point_wraps_a_real_and_keeps_an_angle():
    """A real coordinate is wrapped into an AngleModPi; one that is already
    an AngleModPi is stored as it is, so to_torus builds no angle."""
    p, q = reduce_mod_pi(1.0), reduce_mod_pi(2.0)
    t = TorusPoint(p, q, PI - 3.0)
    assert t.p is p and t.q is q
    assert t == TorusPoint(1.0, 2.0 + PI, reduce_mod_pi(PI - 3.0))
    c = class_of(from_vertices(0, 1, 0.3 + 0.8j))
    assert all(x is y for x, y in zip(to_torus(c).as_tuple(), c.angles))


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "x"])
def test_torus_point_names_a_coordinate_that_is_not_a_finite_angle(slot, bad):
    args = [1.0, 2.0, PI - 3.0]
    args[slot] = bad
    with pytest.raises(ValueError, match=f"^{'pqr'[slot]} must be a finite angle"):
        TorusPoint(*args)


def test_to_torus_values():
    w = cmath.exp(2j * PI / 3)
    t = to_torus(class_of(from_vertices(w, w.conjugate(), 1)))
    for x in t.as_tuple():
        assert angle_dist(x, PI / 3) < 1e-12
    t = to_torus(class_of(from_vertices(1j, 0, 1)))
    vals = sorted(float(x) for x in t.as_tuple())
    assert angle_dist(vals[2], PI / 2) < 1e-12
    assert angle_dist(vals[0], PI / 4) < 1e-12
    # simple points all collapse to the origin
    t = to_torus(class_of(from_vertices(0, 1, 2)))
    assert t.is_origin(1e-12)


def test_torus_inverse_equilateral():
    t = TorusPoint(reduce_mod_pi(PI / 3), reduce_mod_pi(PI / 3), reduce_mod_pi(PI / 3))
    c = torus_inverse(t)
    w = cmath.exp(2j * PI / 3)
    expected = class_of(from_vertices(w, w.conjugate(), 1))
    assert class_equal(c, expected, 1e-9)


def test_torus_inverse_double_point():
    t = TorusPoint(reduce_mod_pi(PI / 2), reduce_mod_pi(0.0), reduce_mod_pi(PI / 2))
    c = torus_inverse(t)
    assert proj_dist(c.sides, ProjTripleC(1, 0, -1)) < 1e-12
    assert angle_dist(c.angles[0], PI / 2) < 1e-12


def test_torus_inverse_rejects_origin():
    with pytest.raises(ValueError):
        torus_inverse(
            TorusPoint(reduce_mod_pi(0), reduce_mod_pi(0), reduce_mod_pi(0))
        )


def test_torus_round_trip():
    rng = random.Random(33)
    for _ in range(300):
        p = rng.uniform(0.01, PI - 0.01)
        q = rng.uniform(0.01, PI - 0.01)
        t = TorusPoint(reduce_mod_pi(p), reduce_mod_pi(q), reduce_mod_pi(-p - q))
        if t.is_origin(1e-3):
            continue
        assert torus_dist(to_torus(torus_inverse(t)), t) < 1e-9


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_torus_inverse_keeps_the_direction_of_a_side_that_tends_to_0(slot):
    """From 1e-11 to 1e-3 off the zero-angle circle of a slot, on either
    side, the sides are those of the inscribed triangle at 50 digits, to
    1e-15 in direction and by chordal distance, and the angles are t's own."""
    pytest.importorskip("mpmath")
    import mp_oracle

    rng = random.Random(48 + slot)
    for n in range(80):
        d = 10.0 ** (-11.0 + 8.0 * (n // 2) / 39)
        near, x = d if n % 2 else -d, rng.uniform(0.01, PI - 0.01)
        angles = (near, x, -x - near)
        t = TorusPoint(*(angles[(i - slot) % 3] for i in range(3)))
        c = torus_inverse(t)
        sides, truth = c.sides.as_tuple(), mp_oracle.inscribed_sides(t.p.value, t.q.value)
        assert mp_oracle.direction_error(sides, truth) <= 1e-15, t
        assert mp_oracle.chordal_distance(sides, truth) <= 1e-15, t
        assert all(a is b for a, b in zip(c.angles, t.as_tuple()))


def test_fiber_limit_examples():
    limit = torus_fiber_limit((1, 1, -2))
    assert proj_dist(ProjTripleC(1, 1, -2), ProjTripleC(*limit)) < 1e-6
    limit = torus_fiber_limit((1, -1, 0))
    assert proj_dist(ProjTripleC(1, -1, 0), ProjTripleC(*limit)) < 1e-6


def test_fiber_limit_is_real_and_closed():
    rng = random.Random(34)
    for _ in range(50):
        a0, b0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if max(abs(a0), abs(b0), abs(a0 + b0)) < 0.1:
            continue
        limit = torus_fiber_limit((a0, b0, -a0 - b0))
        assert all(isinstance(v, float) for v in limit)
        assert abs(sum(limit)) < 1e-9


def test_fiber_limit_rejects_bad_input():
    with pytest.raises(ValueError):
        torus_fiber_limit((0, 0, 0))
    with pytest.raises(ValueError):
        torus_fiber_limit((1, 2, 3))
    with pytest.raises(ValueError):
        torus_fiber_limit((0, 0, PI))
    with pytest.raises(ValueError):
        torus_fiber_limit((1, -1))


@pytest.mark.parametrize("lam", [s * 10.0**k for k in range(-8, 9) for s in (1, -1)])
def test_fiber_limit_ignores_the_scale_and_sign_of_the_direction(lam):
    for d in ((1, -3, 2), (0.5, -0.25, -0.25), (-3, 1, 2), (0, 1, -1)):
        want = torus_fiber_limit(d)
        got = torus_fiber_limit(tuple(lam * v for v in d))
        assert max(abs(u - v) for u, v in zip(got, want)) < 1e-15


def test_fiber_limit_reads_the_third_coordinate_mod_pi():
    assert torus_fiber_limit((1, 1, PI - 2)) == torus_fiber_limit((1, 1, -2))


def test_fiber_limit_reads_pi_shifted_directions_at_every_size():
    """The sum test allows for the rounding of a pi-shifted third coordinate,
    which an absolute 1e-9 refused from |d_a| ~ 1e6, and still refuses a
    shift of 1 while an ulp of |d_a| is far below it."""
    rng = random.Random(1901)
    for e in range(21):
        for k in range(200):
            a, b = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(e, e + 1) for _ in range(2))
            if k % 2:
                b = rng.uniform(-1.0, 1.0) * a
            assert torus_fiber_limit((a, b, -a - b + PI)) == torus_fiber_limit((a, b, -a - b))
            if e < 14:
                with pytest.raises(ValueError, match="must sum to 0 mod pi"):
                    torus_fiber_limit((a, b, -a - b + 1.0))


def test_fiber_limit_is_canonical():
    rng = random.Random(35)
    for _ in range(100):
        a0, b0 = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        limit = torus_fiber_limit((a0, b0, -a0 - b0))
        assert max(abs(v) for v in limit) == pytest.approx(1.0, abs=1e-15)
        assert next(v for v in limit if v != 0.0) > 0.0
        assert proj_dist(ProjTripleC(a0, b0, -a0 - b0), ProjTripleC(*limit)) < 1e-15


#: directions whose limits carry signed zeros, subnormals and 1e+-300
_FIBER_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-300, 1e300, -1e300, 1.0, -2.5, 7.0)


def _fiber_directions():
    for a in _FIBER_SPECIALS:
        for b in _FIBER_SPECIALS:
            yield (a, b, -a - b)
    rng = random.Random(3501)
    for k in range(40_000):
        a, b = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 300.0) for _ in range(2))
        if k % 5 == 0:
            a = rng.choice((0.0, -0.0))
        elif k % 5 == 1:
            b = rng.uniform(-1.0, 1.0) * a
        yield (a, b, -a - b + (PI if k % 2 else 0.0))  # the third is read mod pi


def test_fiber_limit_keeps_its_bits():
    """float.hex of every limit, or the refusal, over 40,121 directions, as
    the max-abs, first-nonzero-positive rule gave them before it was shared
    with canonical_directions, except the 333 pi-shifted directions that the
    absolute sum test refused: they now give their limit."""
    lines = []
    for d in _fiber_directions():
        try:
            lines.append(" ".join(float.hex(v) for v in torus_fiber_limit(d)))
        except ValueError as exc:
            lines.append(f"ValueError: {exc}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2acb6da094ac84d4e6d0e9854b7e927491e53085c34921d16d781c5b487f9912"


# ---------------------------------------------------------------------------
# similarity invariance and equivariance of both blowdowns

_coord = st.floats(-1.0, 1.0)


@st.composite
def _vertices(draw):
    """A well-conditioned nondegenerate, collinear or double shape of unit
    size."""
    P = complex(draw(_coord), draw(_coord))
    u = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    kind = draw(st.sampled_from(("nondegenerate", "collinear", "double")))
    if kind == "nondegenerate":
        height = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.1, 1.0))
        B, C = P + u, P + complex(draw(_coord), height) * u
        assume(min(abs(C - B), abs(C - P)) > 1e-2)
        return (P, B, C)
    if kind == "collinear":
        t = [draw(_coord) for _ in range(3)]
        assume(min(abs(t[0] - t[1]), abs(t[1] - t[2]), abs(t[0] - t[2])) > 1e-2)
        return tuple(P + ti * u for ti in t)
    Q = P + draw(st.floats(0.1, 1.0)) * u
    return draw(st.sampled_from(((P, P, Q), (P, Q, P), (Q, P, P))))


@given(_vertices(), st.integers(-300, 300), st.floats(0.0, 2 * math.pi), _coord, _coord)
def test_blowdowns_are_similarity_invariant(verts, k, turn, tx, ty):
    """Scale 10^k, rotation and translation move neither image."""
    c = class_of(from_vertices(*verts))
    f = 10.0**k * cmath.exp(1j * turn)
    shift = 10.0**k * complex(tx, ty)
    moved = class_of(from_vertices(*(f * v + shift for v in verts)))
    assert sphere_dist(to_sphere(moved), to_sphere(c)) < 1e-12
    assert torus_dist(to_torus(moved), to_torus(c)) < 1e-12


def _odd(perm):
    return sum(1 for i, j in itertools.combinations(range(3), 2) if perm[i] > perm[j]) % 2 == 1


@given(_vertices(), st.sampled_from(GroupElement.all_elements()))
def test_torus_image_moves_by_the_signed_permutation(verts, g):
    """to_torus(act_class(g, c)) = (s t_i, s t_j, s t_k) mod pi, where s = -1
    exactly when g flips orientation or permutes oddly, but not both."""
    c = class_of(from_vertices(*verts))
    t = [x.value for x in to_torus(c).as_tuple()]
    s = -1.0 if g.flip ^ _odd(g.perm) else 1.0
    got = to_torus(act_class(g, c)).as_tuple()
    assert max(angle_dist(x, s * t[p]) for x, p in zip(got, g.perm)) < 1e-12


_NAN_CLASS = class_of(from_vertices(0, 1, 0.3 + 0.8j))


@pytest.mark.parametrize("call", [
    lambda tol: classify_sphere_locus(to_sphere(_NAN_CLASS), tol),
    lambda tol: class_equal(_NAN_CLASS, _NAN_CLASS, tol),
    lambda tol: _NAN_CLASS.angles[0].is_zero(tol),
    lambda tol: to_torus(_NAN_CLASS).is_origin(tol),
    lambda tol: orbit(_NAN_CLASS, tol),
], ids=["classify_sphere_locus", "class_equal", "is_zero", "is_origin", "orbit"])
def test_a_nan_tolerance_is_refused_by_name(call):
    """Every comparison with a NaN tolerance is false, so each of these
    would answer silently: no loci, unequal, not zero, no orbit merges."""
    with pytest.raises(ValueError, match="tol"):
        call(math.nan)
    call(DEFAULT_TOL)
