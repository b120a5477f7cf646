import cmath
import copy
import hashlib
import json
import math
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from trishape import shape, triangle
from trishape.angles import (CLOSURE_BOUND, DEFAULT_TOL, PI, AngleModPi, _scaled, angle_dist,
                             reduce_mod_pi)
from trishape.projections import TorusPoint, to_torus, torus_inverse
from trishape.triangle import GroupElement, act, classify, from_sides, from_vertices
from trishape.shape import (
    BlowupCoord,
    ProjTripleC,
    ShapeClass,
    act_class,
    blowup_dist,
    canonical_rep,
    class_dist,
    class_equal,
    class_of,
    class_of_vertices,
    lift_class,
    orbit,
    phi,
    proj_dist,
    psi,
)
from trishape.cli import main


def _random_class(rng):
    while True:
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        T = from_vertices(*pts)
        if abs((T.sides[0].conjugate() * T.sides[1]).imag) > 0.05:
            return class_of(T)


def _random_double(rng):
    z = cmath.exp(1j * rng.uniform(0, 2 * PI))
    free = {"b": reduce_mod_pi(rng.uniform(0, PI))}
    return class_of(from_sides(z, 0, -z, free_arguments=free))


def _images(c):
    """All 12 images of the class, in group order, by the builder orbit uses
    for the images it keeps."""
    return shape._build(*shape._frame(c)[2:], shape._GROUP)


def _hex(c):
    """float.hex of every number of a class, so the sign of a zero counts."""
    return ([float.hex(v) for z in c.sides.as_tuple() for v in (z.real, z.imag)]
            + [float.hex(x.value) for x in c.angles])


def _outcome_of(f, *vertices):
    """_hex of the class f gives, or the text of the ValueError it raises."""
    try:
        return _hex(f(*vertices))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _class_by_triangle(A, B, C):
    return class_of(from_vertices(A, B, C))


def _signed_zero_parts(rng, z):
    """z with each part, at random, replaced by 0.0 or -0.0."""
    x, y = (rng.choice((0.0, -0.0)) if rng.random() < 0.3 else v for v in (z.real, z.imag))
    return complex(x, y)


def test_class_of_vertices_keeps_the_bits_of_the_triangle_path():
    rng = random.Random(20241)
    for k in range(20_000):
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        verts = [scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        if k % 4 == 0:  # axis-aligned sides and +-0.0 parts
            verts = [_signed_zero_parts(rng, z) for z in verts]
        assert _outcome_of(class_of_vertices, *verts) == _outcome_of(_class_by_triangle, *verts)


def test_class_of_vertices_keeps_the_bits_on_collinear_triangles():
    rng = random.Random(20242)
    for _ in range(2_000):
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        P = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        D = scale * cmath.exp(1j * rng.choice((0.0, PI / 2, rng.uniform(0, 2 * PI))))
        verts = [P + rng.uniform(-1, 1) * D for _ in range(3)]
        assert _outcome_of(class_of_vertices, *verts) == _outcome_of(_class_by_triangle, *verts)


_INF, _NAN, _BIG = math.inf, math.nan, 1.5e308


#: doubles, triple points, refused input and real input: each branch of from_sides' record
_OFF_FAST_PATH = pytest.mark.parametrize("verts", [
    (0.3 + 0.8j, 0.3 + 0.8j, 1.0), (0.0, 1.0, 1.0), (2j, -1.0, 2j), (-0.0, 0.0, 1.0),
    (1e-300j, 1e-300j, 0.0), (1.0, 1.0, 1.0), (0j, -0j, complex(-0.0, 0.0)),
    (complex(_INF, 0.0), 0.0, 1.0), (0.0, complex(0.0, _NAN), 1.0), (_NAN, _NAN, _NAN),
    (complex(_INF, _INF), 1.0, 0.0), (_BIG, -_BIG, 0.0), (0.0, -_BIG, _BIG),
    (complex(0.0, _BIG), complex(-_BIG, 0.0), complex(_BIG, -_BIG)),
    (complex(_BIG, _BIG), 0.0, 1.0), (complex(_BIG, _BIG), complex(-_BIG, -_BIG), 0.0),
    (0, 1, 0.3 + 0.8j),
], ids=["double-AB", "double-BC", "double-CA", "double-signed-zeros", "double-tiny",
        "triple", "triple-zeros", "inf-part", "nan-part", "nan", "inf", "overflowing-side",
        "one-overflowing-side", "two-overflowing-sides", "overflowing-modulus",
        "overflowing-both", "real-input"])


@_OFF_FAST_PATH
def test_class_of_vertices_matches_the_triangle_path_off_the_fast_path(verts):
    assert _outcome_of(class_of_vertices, *verts) == _outcome_of(_class_by_triangle, *verts)


def test_class_of_vertices_builds_no_triangle(monkeypatch):
    expected = _hex(class_of(from_vertices(0.3 + 0.8j, 0.0, 1.0)))

    def refuse(*args, **kwargs):
        raise AssertionError("a triangle was built")

    monkeypatch.setattr(triangle, "TriangleVariable", refuse)
    monkeypatch.setattr(shape, "class_of", refuse)
    c = class_of_vertices(0.3 + 0.8j, 0.0, 1.0)
    assert _hex(c) == expected


@_OFF_FAST_PATH
def test_class_of_vertices_builds_no_triangle_off_the_fast_path(monkeypatch, verts):
    """Doubles and refused input get from_sides' arguments and errors without
    a triangle, too."""
    expected = _outcome_of(_class_by_triangle, *verts)

    def refuse(*args, **kwargs):
        raise AssertionError("a triangle was built")

    monkeypatch.setattr(triangle, "TriangleVariable", refuse)
    monkeypatch.setattr(shape, "class_of", refuse)
    assert _outcome_of(class_of_vertices, *verts) == expected


def test_proj_triple_rejects_bad_input():
    with pytest.raises(ValueError):
        ProjTripleC(0, 0, 0)
    with pytest.raises(ValueError):
        ProjTripleC(1, 1, 1)


@pytest.mark.parametrize("sides, slot", [
    ((math.nan, 1, -1), "a"),
    ((1, complex(0, math.inf), -1), "b"),
    ((1, -1, complex(math.nan, 0)), "c"),
    ((math.inf, -math.inf, 0), "a"),
])
def test_proj_triple_rejects_non_finite(sides, slot):
    with pytest.raises(ValueError, match=f"side {slot} must be finite"):
        ProjTripleC(*sides)


def test_proj_triple_keeps_huge_finite_sides():
    # the three moduli sum to inf, but every side is finite
    t = ProjTripleC(1e308, -1e308, 0)
    assert t.as_tuple() == (1, -1, 0)


def test_shape_class_from_json_rejects_nan_side():
    with pytest.raises(ValueError, match="side a must be finite"):
        ShapeClass.from_json({"sides": [[math.nan, 0.0], [1.0, 0.0], [-1.0, 0.0]],
                              "angles": [0.0, 0.0, 0.0]})


def test_a_side_whose_modulus_overflows_is_canonicalized_or_refused_as_any_other():
    """Finite parts whose modulus overflows (abs() raises OverflowError) are
    taken in units of a power of two: the triple canonicalizes as it does at
    1e308, or is refused for not closing, with its own sum in the message."""
    huge = complex(1.5e308, 1.5e308)
    for t in (ProjTripleC(huge, -huge, 0),
              ShapeClass.from_json({"sides": [[1.5e308, 1.5e308], [-1.5e308, -1.5e308],
                                              [0, 0]], "angles": [0, 0, 0]}).sides):
        assert t.as_tuple() == ProjTripleC(1e308 + 1e308j, -1e308 - 1e308j, 0).as_tuple()
        assert t.as_tuple() == (1 + 0j, -1 + 0j, 0j)
    unit = ProjTripleC(1, 1j, -1 - 1j).as_tuple()
    assert ProjTripleC(1.5e308, 1.5e308j, -huge).as_tuple() == unit
    with pytest.raises(ValueError, match=r"does not close: a\+b\+c = \(1\.5e\+308\+1\.5e\+308j\)"):
        ProjTripleC(1, -1, huge)
    # |a + b + c| alone overflows
    with pytest.raises(ValueError, match="does not close"):
        ProjTripleC(1.2e308, 1.2e308j, 0)


def test_a_nan_side_is_refused_by_name_whatever_errno_holds():
    """abs() of a complex with a NaN part raises OverflowError when errno
    still holds the ERANGE of an underflow, as right after _scaled's ldexp
    of 5e-324; the side is refused as non-finite all the same."""
    with pytest.raises(ValueError, match="side a must be finite"):
        ProjTripleC(_scaled(complex(math.nan, 5e-324), -3), 1, -1)


@pytest.mark.parametrize("data, field", [
    ({"sides": [[1, 0], [-1, 0]], "angles": [0, 0, 0]}, "sides"),
    ({"sides": [[1], [-1, 0], [0, 0]], "angles": [0, 0, 0]}, "sides"),
    ({"sides": [[1, 0], [-1, 0], [0, 0]]}, "angles"),
    ({"sides": [[1, 0], [-1, 0], [0, 0]], "angles": [0, 0, 0, 0]}, "angles"),
    ([[1, 0], [-1, 0], [0, 0]], "sides"),
    # angles off the surface: their sum 0.9 is not 0 mod pi
    ({"sides": [[1, 0], [-0.5, 0.5], [-0.5, -0.5]], "angles": [0.3, 0.5, 0.1]}, "angles"),
    # angles on the surface, but not those of these sides, which are
    # (pi/2, pi/4, pi/4): the class would lift to another triangle
    ({"sides": [[1, 0], [-0.5, 0.5], [-0.5, -0.5]], "angles": [0.3, 0.5, PI - 0.8]}, "angles"),
])
def test_shape_class_from_json_names_a_malformed_field(data, field):
    with pytest.raises(ValueError, match=f"'{field}'"):
        ShapeClass.from_json(data)


def test_shape_class_from_json_reads_back_every_class_and_image():
    """to_json then from_json gives the class back: the golden classes
    and their images, and classes whose smallest side is 1e-12 to 1e-2 of
    the largest at scales 1e-150 to 1e150, whose stored sides carry the
    rounding that from_json's angle test allows."""
    rng = random.Random(31)
    classes = [img for _, c in _golden_classes() for img in (c, *orbit(c))]
    for share in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        for scale in (1e-150, 1.0, 1e150):
            for _ in range(40):
                A, B = (scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in "AB")
                C = B + share * scale * cmath.exp(1j * rng.uniform(0, 2 * PI))
                classes.append(class_of(from_vertices(A, B, C)))
    for c in classes:
        assert ShapeClass.from_json(c.to_json()) == c


def test_copies_and_pickles_keep_the_bits_of_every_class_and_image():
    """copy, deepcopy and pickle restore a class's slots as they are, and
    ProjTripleC's canonical form is idempotent on every golden side, so a
    copy rebuilt through the constructor keeps their bits too."""
    classes = [img for _, c in _golden_classes() for img in (c, *orbit(c))]
    assert len(classes) == 980
    moved = [c.sides.as_tuple() for c in classes
             if _hex(ShapeClass(ProjTripleC(*c.sides.as_tuple()), c.angles)) != _hex(c)]
    assert moved == []
    for c in classes:
        want = _hex(c)
        for copied in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c)),
                       pickle.loads(pickle.dumps(c, 0))):
            assert _hex(copied) == want


# ---------------------------------------------------------------------------
# the canonical form: divided by the first largest side, which becomes 1+0j


def _triple_hex(t):
    return [float.hex(v) for z in t.as_tuple() for v in (z.real, z.imag)]


_PARTS = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])


@st.composite
def _closed_triples(draw):
    """Closed triples at scales 2**-300..2**300, in any slot order, whose
    second side is free, an exact tie with the first (negated, conjugated
    or turned by a right angle), a tie within 64 ulps, or on an axis."""
    x, y = draw(_PARTS), draw(_PARTS)
    a = complex(x, y)
    kind = draw(st.sampled_from(["free", "tie", "near", "axis"]))
    if kind == "free":
        b = complex(draw(_PARTS), draw(_PARTS))
    elif kind == "tie":
        b = draw(st.sampled_from([-a, a.conjugate(), -a.conjugate(), complex(-y, x),
                                  complex(y, -x), complex(y, x), complex(-y, -x)]))
    elif kind == "near":
        f = 1.0 + draw(st.integers(-64, 64)) * 2.0 ** -52
        b = complex(-y * f, x * f)
    else:
        a, b = complex(x, 0.0), draw(st.sampled_from([complex(y, 0.0), complex(0.0, y)]))
    scale = 2.0 ** draw(st.integers(-300, 300))
    sides = draw(st.permutations([a * scale, b * scale, -(a + b) * scale]))
    return sides if any(sides) else [1.0, -1.0, 0.0]


@given(_closed_triples())
def test_canonical_form_is_idempotent_to_the_bit(sides):
    t = ProjTripleC(*sides)
    assert max(t.moduli()) <= 1.0 + 2.0 ** -50
    assert 1 in t.as_tuple()
    assert _triple_hex(ProjTripleC(*t.as_tuple())) == _triple_hex(t)


@pytest.mark.parametrize("sides, want", [
    ((1, -1, 0), (1, -1, 0)),
    ((True, -1, False), (1, -1, 0)),
    ((2, -1, -1), (1, -0.5, -0.5)),
    ((0, -3, 3), (0, 1, -1)),
    ((-1, 1, 0), (-1, 1, 0)),  # an exact tie: the slot that is already 1 stays the pivot
])
def test_canonical_form_of_int_and_bool_sides_is_complex(sides, want):
    t = ProjTripleC(*sides)
    assert t.as_tuple() == want
    assert all(z.__class__ is complex for z in t.as_tuple())
    assert _triple_hex(ProjTripleC(*t.as_tuple())) == _triple_hex(t)


def test_images_are_in_the_canonical_form():
    """Each image of a golden class above the zero snap is its sides moved,
    with no arithmetic, and the constructor keeps those sides to the bit."""
    for label, c in _golden_classes():
        if _has_zero_side(c):
            continue
        z = c.sides.as_tuple()
        for g in GroupElement.all_elements():
            img = act_class(g, c)
            i, j, k = g.perm
            moved = [z[i], z[j], z[k]]
            if g.flip:
                moved = [w.conjugate() for w in moved]
            assert _triple_hex(img.sides) == [float.hex(v) for w in moved
                                              for v in (w.real, w.imag)], label
            assert _triple_hex(ProjTripleC(*moved)) == _triple_hex(img.sides), label


def _near_double_vertices(rng, share):
    """Seeded vertices whose side a is share times the side c."""
    A, B = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in "AB")
    return A, B, B + share * abs(A - B) * cmath.exp(1j * rng.uniform(0, 2 * PI))


@pytest.mark.parametrize("share", [3e-13, 1e-12, 1e-11, 1e-10, 1e-9])
def test_lift_class_round_trips_just_above_the_zero_snap(share):
    """A tiny side keeps its direction in the canonical form, so the lift
    that builds from it gives the class back."""
    rng = random.Random(5)
    for _ in range(300):
        c = class_of(from_vertices(*_near_double_vertices(rng, share)))
        assert not _has_zero_side(c)
        assert class_dist(class_of(lift_class(c)), c) <= 1e-14


def test_sides_keep_their_directions_against_a_50_digit_oracle():
    """Against the exact sides of the float vertices, each side's direction
    relative to the largest is within 1e-15, down to a share of 1e-12, and
    the triple is within 4.4e-16 by the chordal distance of proj_dist."""
    pytest.importorskip("mpmath")
    import mp_oracle

    rng = random.Random(5)
    for share in (1.0, 1e-3, 1e-6, 1e-9, 1e-12):
        for _ in range(100):
            verts = _near_double_vertices(rng, share)
            sides = class_of(from_vertices(*verts)).sides.as_tuple()
            truth = mp_oracle.vertex_sides(*verts)
            assert mp_oracle.direction_error(sides, truth) <= 1e-15, share
            assert mp_oracle.chordal_distance(sides, truth) <= 4.4e-16, share


def test_proj_triple_scale_invariance():
    rng = random.Random(21)
    for _ in range(200):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(a) + abs(b) < 0.1:
            continue
        lam = cmath.exp(1j * rng.uniform(0, 2 * PI)) * rng.uniform(0.1, 10)
        t1 = ProjTripleC(a, b, -a - b)
        t2 = ProjTripleC(lam * a, lam * b, -lam * (a + b))
        assert proj_dist(t1, t2) < 1e-12


# ---------------------------------------------------------------------------
# the canonical form at the ends of the float range


def _canonical_by_division(a, b, c):
    """The canonical form as a plain pivot division computes it, with no
    rescaling: a triple holding a 1 is kept, or it is divided by its first
    largest side, whose slot becomes 1+0j."""
    m = [abs(z) for z in (a, b, c)]
    if max(m) <= 1.0 + 2.0 ** -50 and 1 in (a, b, c):
        return (a, b, c)
    k = m.index(max(m))
    q = [z / (a, b, c)[k] for z in (a, b, c)]
    q[k] = 1 + 0j
    return tuple(q)


def test_proj_triple_does_not_overflow_near_the_float_maximum():
    """The complex division by a pivot near 1e308 overflowed its
    denominator and collapsed the other sides to 0 or NaN."""
    a, b = 1e308 + 1e308j, -5e307 - 2.5e307j
    got = ProjTripleC(a, b, -a - b).as_tuple()
    want = ProjTripleC(a / 1e10, b / 1e10, -(a + b) / 1e10).as_tuple()
    assert all(cmath.isfinite(z) for z in got)
    assert max(abs(x - y) for x, y in zip(got, want)) <= 4 * 2.0 ** -52
    c = ShapeClass.from_json({"sides": [[1e308, 1e308], [-1e308, -1e308], [0, 0]],
                              "angles": [0, 0, 0]})
    assert c.sides.as_tuple() == (1, -1, 0)


def test_proj_triple_keeps_its_form_from_subnormals_to_the_float_maximum():
    """Seeded triples with integer parts below 2**20, so that scaling by
    2**k is exact down to the smallest subnormal: the canonical form is the
    unit-scale one to the bit at every k up to a largest side of 1.7e308.
    Scaled by 10**k instead, it is within 4 ulps of it, finite at every
    scale, and at ordinary scales the bits of a plain pivot division."""
    rng = random.Random(48)
    for _ in range(100):
        a, b = (complex(rng.randint(-2**20, 2**20), rng.randint(-2**20, 2**20)) for _ in "ab")
        sides = (a, b, -a - b) if a or b else (1, -1, 0)
        unit = ProjTripleC(*sides)
        top = math.frexp(1.7e308 / max(map(abs, sides)))[1] - 1
        for k in [*range(-1074, -990), *range(-40, 40), *range(990, top + 1)]:
            got = ProjTripleC(*(complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                                for z in sides))
            assert _triple_hex(got) == _triple_hex(unit), k
        for k in range(-300, 308):
            lam = 10.0 ** k
            big = max(map(abs, sides)) * lam  # inf once it overflows
            if big > 1.7e308:
                break
            scaled = [z * lam for z in sides]
            got = ProjTripleC(*scaled).as_tuple()
            assert all(cmath.isfinite(z) for z in got)
            assert max(abs(x - y) for x, y in zip(got, unit.as_tuple())) <= 4 * 2.0 ** -52, k
            if 2.0 ** -1000 < big < 2.0 ** 1000:
                assert ([float.hex(v) for z in got for v in (z.real, z.imag)]
                        == [float.hex(v) for z in _canonical_by_division(*scaled)
                            for v in (z.real, z.imag)])


def test_closure_bound_is_relative_to_the_largest_side():
    for scale in (1e-300, 1e-6, 1.0, 1e6, 1e300):
        ProjTripleC(scale, -scale * (1 - 0.9 * CLOSURE_BOUND), 0)
        with pytest.raises(ValueError, match="does not close"):
            ProjTripleC(scale, -scale * (1 - 1.1 * CLOSURE_BOUND), 0)


def test_proj_dist_is_a_projective_metric():
    t1 = ProjTripleC(1, -0.5, -0.5)
    t2 = ProjTripleC(1j, -0.5j, -0.5j)
    assert proj_dist(t1, t2) < 1e-15
    t3 = ProjTripleC(0, 1, -1)
    assert proj_dist(t1, t3) > 0.5


def test_class_equal_handles_modulus_ties():
    # equilateral side triples have all moduli equal; equality must not
    # depend on which coordinate the canonical form happens to pick
    w = cmath.exp(2j * PI / 3)
    c1 = class_of(from_vertices(w, w.conjugate(), 1))
    c2 = class_of(from_vertices(w * 1j, w.conjugate() * 1j, 1j))
    assert class_equal(c1, c2, 1e-9)


def test_round_trip_psi_phi():
    rng = random.Random(22)
    for _ in range(200):
        c = _random_class(rng)
        assert class_equal(psi(phi(c)), c, 1e-9)
    for _ in range(100):
        c = _random_double(rng)
        assert class_equal(psi(phi(c)), c, 1e-9)


def test_round_trip_phi_psi():
    rng = random.Random(23)
    for _ in range(200):
        b = phi(_random_class(rng))
        assert blowup_dist(phi(psi(b)), b) <= DEFAULT_TOL


def test_blowup_equal_ignores_diagonal_shift():
    c = class_of(from_vertices(0, 1, 0.3 + 0.8j))
    b = phi(c)
    shifted = BlowupCoord(
        sides=b.sides, xi=tuple(x + 0.37 for x in b.xi)
    )
    assert blowup_dist(b, shifted) <= DEFAULT_TOL
    bad = BlowupCoord(sides=b.sides, xi=(b.xi[0] + 0.3, b.xi[1], b.xi[2]))
    assert blowup_dist(b, bad) > DEFAULT_TOL


def test_double_point_fiber_coordinates():
    # classes over the b-double point have side triple [1, 0, -1]; their
    # blowup coordinate is [0, xi, 0] up to the diagonal shift
    for val in (0.3, 1.1, 2.7):
        c = class_of(from_sides(1, 0, -1, free_arguments={"b": reduce_mod_pi(val)}))
        b = phi(c)
        expected = BlowupCoord(
            sides=ProjTripleC(1, 0, -1),
            xi=(reduce_mod_pi(0.0), reduce_mod_pi(val), reduce_mod_pi(0.0)),
        )
        assert blowup_dist(b, expected) <= DEFAULT_TOL


def test_lift_class_round_trip():
    rng = random.Random(24)
    for _ in range(100):
        c = _random_class(rng)
        assert class_equal(class_of(lift_class(c)), c, 1e-9)
    for _ in range(100):
        c = _random_double(rng)
        assert class_equal(class_of(lift_class(c)), c, 1e-9)


def _signed_permutation(g, angles):
    """g's action on an angle triple: (t_i, t_j, t_k) for g.perm = (i, j, k),
    negated mod pi for an odd permutation and again for a flip."""
    i, j, k = g.perm
    w = tuple(-x for x in angles) if ((j - i) % 3 != 1) != g.flip else angles
    return (w[i], w[j], w[k])


def _has_zero_side(c):
    """A side at lift_class's zero snap: the class needs its free arguments."""
    mods = c.sides.moduli()
    return min(mods) <= 1e-13 * max(mods)


def _image_by_move(g, c):
    """The image of c under g by its definition: ProjTripleC of the sides z
    moved by g, (z_i, z_j, z_k) conjugated on a flip, and c's angles, signed
    and permuted.  z is c's own side triple, or the lift's direction pairs
    for a class with a side at the zero snap."""
    z = lift_class(c).direction_pairs() if _has_zero_side(c) else c.sides.as_tuple()
    i, j, k = g.perm
    z = (z[i], z[j], z[k])
    if g.flip:
        z = (z[0].conjugate(), z[1].conjugate(), z[2].conjugate())
    return ShapeClass(sides=ProjTripleC(*z), angles=_signed_permutation(g, c.angles))


def _lift_side_dist(g, img, T):
    """proj_dist of an image's sides from those of class_of(act(g, T)), the
    image of the lift T by triangle.act: the independent path."""
    return proj_dist(img.sides, class_of(act(g, T)).sides)


def test_act_class_matches_action_on_lifts():
    """act_class moves the class's own sides, to the bit of their definition,
    within 2e-15 of class_of(act(g, lift)), and signs and permutes the angles."""
    rng = random.Random(25)
    classes = [_random_class(rng) for _ in range(30)] + [_random_double(rng) for _ in range(10)]
    classes.append(class_of(from_sides(0, 0, 0, directions=(1.0, 0.0, -0.5, 0.5, -0.5, -0.5))))
    for c in classes:
        T = lift_class(c)
        for g in GroupElement.all_elements():
            img = act_class(g, c)
            assert _hex(img) == _hex(_image_by_move(g, c))
            assert _lift_side_dist(g, img, T) <= 2e-15


def test_orbit_sizes():
    scalene = class_of(from_vertices(0, 1, 0.3 + 0.9j))
    assert len(orbit(scalene, 1e-6)) == 12
    iso = class_of(from_vertices(0.5 + 1.1j, 0, 1))
    assert len(orbit(iso, 1e-6)) == 6
    w = cmath.exp(2j * PI / 3)
    equi = class_of(from_vertices(w, w.conjugate(), 1))
    assert len(orbit(equi, 1e-6)) == 2


def test_canonical_rep_is_orbit_invariant():
    rng = random.Random(26)
    for _ in range(20):
        c = _random_class(rng)
        rep = canonical_rep(c)
        for g in GroupElement.all_elements():
            other = canonical_rep(act_class(g, c))
            assert class_dist(rep, other) < 1e-6


def test_shape_json_round_trip():
    rng = random.Random(27)
    for _ in range(50):
        c = _random_class(rng)
        back = ShapeClass.from_json(c.to_json())
        assert class_equal(back, c, 1e-12)


# ---------------------------------------------------------------------------
# canonical representatives of relabeled, mirrored and similar copies

_FREE_SLOT = {(0, 1): "c", (1, 2): "a", (0, 2): "b"}  # zero side of a coincident pair


def _free_slot(verts):
    return next(s for (i, j), s in _FREE_SLOT.items() if verts[i] == verts[j])


def _base_shape(kind, rng):
    """(vertices, free argument or None) of a unit-size shape of the kind."""
    if kind == "scalene":
        return (0j, 1 + 0j, complex(rng.uniform(0.1, 0.4), rng.uniform(0.6, 1.0))), None
    if kind == "isosceles":
        h = rng.choice((rng.uniform(0.2, 0.8), rng.uniform(0.95, 2.0)))
        return (complex(0.5, h), 0j, 1 + 0j), None
    if kind == "right-isosceles":
        return (complex(0.5, 0.5), 0j, 1 + 0j), None
    if kind == "equilateral":
        return (complex(0.5, math.sqrt(3) / 2), 0j, 1 + 0j), None
    if kind == "simple":
        return (0j, complex(rng.uniform(0.25, 0.4)), 1 + 0j), None
    if kind == "midpoint-simple":  # A at the midpoint of BC
        return (0.5 + 0j, 0j, 1 + 0j), None
    line = cmath.exp(1j * rng.uniform(0, 2 * PI))
    verts = (0j, line, line)
    if kind == "doubled-simple":
        return verts, None
    if kind == "perpendicular-double":
        return verts, cmath.phase(line) + PI / 2
    offset = rng.choice((rng.uniform(0.1, PI / 2 - 0.1), rng.uniform(PI / 2 + 0.1, PI - 0.1)))
    return verts, cmath.phase(line) + offset  # double with a free argument


def _copy(verts, free, rng):
    """The class of the shape under a random relabel, mirror and similarity."""
    perm = rng.sample(range(3), 3)
    verts = [verts[p] for p in perm]
    mirror = rng.random() < 0.5
    if mirror:
        verts = [z.conjugate() for z in verts]
        free = None if free is None else -free
    spin = cmath.exp(1j * rng.uniform(0, 2 * PI))
    factor = spin * 10.0 ** rng.uniform(-2, 2)
    shift = complex(rng.uniform(-500, 500), rng.uniform(-500, 500))
    moved = [factor * z + shift for z in verts]
    args = None
    if free is not None:
        args = {_free_slot(verts): reduce_mod_pi(free + cmath.phase(spin))}
    return class_of(from_vertices(*moved, free_arguments=args))


#: every kind of base shape, with its orbit size under the 12 symmetries
_ORBIT_SIZES = [
    ("scalene", 12), ("isosceles", 6), ("right-isosceles", 6), ("simple", 6),
    ("midpoint-simple", 3), ("doubled-simple", 3), ("double", 6),
    ("perpendicular-double", 3), ("equilateral", 2),
]


@pytest.mark.parametrize("kind, size", _ORBIT_SIZES)
def test_canonical_rep_agrees_across_copies(kind, size):
    rng = random.Random(28)
    for _ in range(30):
        verts, free = _base_shape(kind, rng)
        copies = [_copy(verts, free, rng) for _ in range(3)]
        for c in copies:
            assert len(orbit(c)) == size
        reps = [canonical_rep(c) for c in copies]
        for rep in reps[1:]:
            assert class_dist(reps[0], rep) < 1e-9


# ---------------------------------------------------------------------------
# orbit dedup against a pairwise reference


def _pairwise_orbit(c, tol):
    out = []
    for g in GroupElement.all_elements():
        img = _image_by_move(g, c)
        if not any(class_equal(img, seen, tol) for seen in out):
            out.append(img)
    return out


def _edge_classes(tol):
    """Classes with an angle within tol of 0 or pi, and with two angles
    within tol of each other, at several fractions of tol."""
    out = []
    for frac in (0.3, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 3.0):
        eps = frac * tol
        # a thin triangle: the angles at A and B are about eps, the one at C
        # about pi - 2 eps, so one angle sits near 0 and another near pi
        out.append(class_of(from_vertices(0, 1, complex(0.4, 0.4 * math.tan(eps)))))
        out.append(class_of(from_vertices(0, 1, complex(0.4, -0.4 * math.tan(eps)))))
        # a near-isosceles triangle: base angles eps apart
        base = 0.9
        apex = complex(0.5, 0.5 * math.tan(base))
        out.append(class_of(from_vertices(0, 1, apex + 0.5 * eps)))
        # a double point whose free argument is eps off its line
        line = 0.7
        free = {"b": reduce_mod_pi(line + eps)}
        z = cmath.exp(1j * line)
        out.append(class_of(from_sides(z, 0, -z, free_arguments=free)))
        out.append(class_of(from_sides(z, 0, -z, free_arguments={"b": reduce_mod_pi(line - eps)})))
    return out


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.5, 10.0])
def test_orbit_matches_pairwise_dedup(tol):
    rng = random.Random(29)
    classes = _edge_classes(tol) + [_random_class(rng) for _ in range(10)]
    classes += [_random_double(rng) for _ in range(5)]
    w = cmath.exp(2j * PI / 3)
    classes.append(class_of(from_vertices(w, w.conjugate(), 1)))
    classes.append(class_of(from_vertices(0, 0.3, 1)))
    classes.append(class_of(from_sides(1, 0, -1)))
    sizes = set()
    for c in classes:
        want = _pairwise_orbit(c, tol)
        assert [_hex(img) for img in orbit(c, tol)] == [_hex(img) for img in want]
        sizes.add(len(want))
    if tol == 10.0:
        # every pair of classes is within 10 of each other
        assert sizes == {1}
    elif tol <= 1e-3:
        assert len(sizes) >= 4


@pytest.mark.parametrize("shape_tol", ["1e-6", "0.01", "0.5", "10"])
def test_cli_orbit_matches_pairwise_dedup_at_large_shape_tol(capsys, monkeypatch, shape_tol):
    """The CLI has no tolerance of its own: a SHAPE_TOL in the environment
    changes nothing, and the orbit is the library's at DEFAULT_TOL."""
    monkeypatch.setenv("SHAPE_TOL", shape_tol)
    assert main(["orbit", "--vertices", "0,0", "1,0", "0.3,0.1"]) == 0
    data = json.loads(capsys.readouterr().out)
    got = [ShapeClass.from_json(c) for c in data["classes"]]
    want = _pairwise_orbit(class_of(from_vertices(0, 1, 0.3 + 0.1j)), DEFAULT_TOL)
    assert data["size"] == len(got) == len(want) == 12
    assert all(class_dist(x, y) < 1e-12 for x, y in zip(got, want))


def test_post_init_hooks_see_every_construction(monkeypatch):
    """A tracer counts value objects by wrapping the __post_init__ of
    AngleModPi and ProjTripleC.  Every such object that class_of, phi, psi
    and torus_inverse return must have passed through that hook."""
    seen = []
    for cls in (AngleModPi, ProjTripleC):
        def counting(obj, _orig=cls.__post_init__):
            seen.append(obj)
            _orig(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
    double = from_sides(1.0, 0.0, -1.0, free_arguments={"b": reduce_mod_pi(1.0)})
    for T in (from_vertices(0.1 + 0.2j, 1.3 - 0.1j, 0.4 + 0.9j), double):
        seen.clear()
        c = class_of(T)
        b = phi(c)
        back = psi(b)
        inv = torus_inverse(to_torus(c))
        made = {id(obj) for obj in seen}
        returned = [c.sides, *c.angles, *b.xi, *back.angles, inv.sides, *inv.angles]
        assert all(id(obj) in made for obj in returned)


def test_scalene_orbit_tells_images_apart_by_angles(monkeypatch):
    """In a scalene orbit the images that share a first angle differ in the
    other two, so class_equal rejects them without proj_dist."""
    calls = []

    def counting(t1, t2):
        calls.append(1)
        return proj_dist(t1, t2)

    monkeypatch.setattr(shape, "proj_dist", counting)
    c = class_of(from_vertices(0, 1, 0.3 + 0.8j))
    assert len(orbit(c)) == 12
    assert calls == []
    assert len(orbit(_random_double(random.Random(3)))) == 6
    assert calls  # equal images are still confirmed on their sides


def test_orbit_refuses_a_nan_tolerance():
    """A NaN tolerance would merge no images; it is refused by name."""
    c = class_of(from_vertices(0, 1, 0.3 + 0.8j))
    with pytest.raises(ValueError, match="orbit tolerance"):
        orbit(c, math.nan)
    assert [len(orbit(c, t)) for t in (math.inf, 0.0, -1.0)] == [1, 12, 12]


def _proj_dist_by_generators(t1, t2):
    """proj_dist written with sum() over generators and lists."""
    v, w = (t1.a, t1.b, t1.c), (t2.a, t2.b, t2.c)
    nv = math.sqrt(sum(abs(x) ** 2 for x in v))
    nw = math.sqrt(sum(abs(y) ** 2 for y in w))
    v = [x / nv for x in v]
    w = [y / nw for y in w]
    inner = sum(y.conjugate() * x for x, y in zip(v, w))
    residual = [x - inner * y for x, y in zip(v, w)]
    return min(1.0, math.sqrt(sum(abs(x) ** 2 for x in residual)))


def _outcome(f, t1, t2):
    """float.hex of the result, or the name of the arithmetic error raised."""
    try:
        return float.hex(f(t1, t2))
    except ArithmeticError as exc:  # squares overflow, or all underflow to 0
        return type(exc).__name__


def test_proj_dist_keeps_the_bits_of_the_generator_form():
    """Seeded triples, canonical and raw (any three coordinates, as stored
    without canonicalization), with +-0.0 parts, at scales 1e-200..1e200."""
    rng = random.Random(31)

    def part(scale):
        r = rng.random()
        return 0.0 if r < 0.1 else -0.0 if r < 0.2 else rng.gauss(0, 1) * scale

    def triple():
        scale = 10.0 ** rng.uniform(-200, 200)
        a, b, c = (complex(part(scale), part(scale)) for _ in range(3))
        if rng.random() < 0.5:
            raw = object.__new__(ProjTripleC)
            for name, v in zip("abc", (a, b, c)):
                object.__setattr__(raw, name, v)
            return raw
        return ProjTripleC(a, b, -(a + b)) if a or b else ProjTripleC(1, 0, -1)

    outcomes = set()
    for _ in range(5000):
        t1, t2 = triple(), triple()
        for u, v in ((t1, t2), (t2, t1), (t1, t1)):
            got = _outcome(proj_dist, u, v)
            assert got == _outcome(_proj_dist_by_generators, u, v)
            outcomes.add(got)
    assert {"OverflowError", "ZeroDivisionError"} < outcomes and len(outcomes) > 1000


def _rep_key(c):
    """canonical_rep's key of a class, read off its own angles and sides:
    slot-ordered angles, those within DEFAULT_TOL of pi read as near 0,
    then the side moduli, whose largest is 1 in the canonical form."""
    x, y, z = c.angles
    a, b, g = x.value, y.value, z.value
    return (a - PI if PI - a <= DEFAULT_TOL else a, b - PI if PI - b <= DEFAULT_TOL else b,
            g - PI if PI - g <= DEFAULT_TOL else g) + c.sides.moduli()


def _key_less(k1, k2):
    """canonical_rep's order: lexicographic, components within DEFAULT_TOL
    counted equal."""
    for x, y in zip(k1, k2):
        if abs(x - y) > DEFAULT_TOL:
            return x < y
    return False


def _canonical_rep_by_scan(c):
    """The least _rep_key under _key_less over orbit(c), in orbit order."""
    best = best_key = None
    for img in orbit(c):
        key = _rep_key(img)
        if best is None or _key_less(key, best_key):
            best, best_key = img, key
    return best


def test_canonical_rep_matches_a_scan_of_the_orbit():
    # The scan runs over the deduplicated orbit, not over all 12 images: the
    # tolerance order is not transitive, and over all 12 the least key of the
    # edge classes 8, 9, 13 and 14 at 1e-9 (double points whose free argument
    # is 0.5 and 0.99 tol off the line) is another member.
    rng = random.Random(32)
    classes = _edge_classes(DEFAULT_TOL) + _edge_classes(1e-6)
    for kind in ("scalene", "isosceles", "simple", "double", "doubled-simple", "equilateral"):
        classes += [_copy(*_base_shape(kind, rng), rng) for _ in range(10)]
    for c in classes:
        assert _hex(canonical_rep(c)) == _hex(_canonical_rep_by_scan(c))


def _count_images(monkeypatch):
    """The list of every image shape._build builds from now on."""
    built = []

    def counting_build(zs, signed, rows, _orig=shape._build):
        images = _orig(zs, signed, rows)
        built.extend(images)
        return images

    monkeypatch.setattr(shape, "_build", counting_build)
    return built


@pytest.mark.parametrize("kind, size", [("doubled-simple", 3), ("simple", 6), ("scalene", 12)])
def test_orbit_builds_only_the_kept_images_and_canonical_rep_none(monkeypatch, kind, size):
    """orbit builds one image per coset, and canonical_rep right after it
    builds none and sorts nothing: it reads orbit's images and six floats."""
    rng = random.Random(62)
    sorts = []

    def counting_sorted(v):
        sorts.append(1)
        return sorted(v)

    for _ in range(10):
        c = _copy(*_base_shape(kind, rng), rng)
        built = _count_images(monkeypatch)
        members = orbit(c)
        assert len(members) == len(built) == size
        assert all(img is b for img, b in zip(members, built))
        monkeypatch.setattr(shape, "sorted", counting_sorted, raising=False)
        assert any(canonical_rep(c) is img for img in members)
        assert len(built) == size and not sorts
        monkeypatch.undo()


def test_member_angles_are_the_image_angles():
    """The angles of the builder's images, and the six floats the orbit
    dedup compares (those of images 0 and 1), are to the bit the class's
    own angles, signed and permuted."""
    for label, c in _golden_classes():
        images = _images(c)
        for e, g in enumerate(GroupElement.all_elements()):
            want = [float.hex(x.value) for x in _signed_permutation(g, c.angles)]
            assert [float.hex(x.value) for x in images[e].angles] == want, label
        six = shape._dedup(c, DEFAULT_TOL)[2]
        want = [float.hex(x.value) for img in images[:2] for x in img.angles]
        assert [float.hex(v) for v in six] == want, label


# ---------------------------------------------------------------------------
# orbits by their stabilizer against a pairwise scan


def _orbit_by_pairs(c, tol):
    """The images of c that a pairwise scan keeps, in group order: each
    image unless class_equal to an earlier kept one, by float angles first
    and then by proj_dist of the sides."""
    images = _images(c)
    angles = [tuple(x.value for x in img.angles) for img in images]
    kept = []
    for e, (a0, a1, a2) in enumerate(angles):
        for s in kept:
            b0, b1, b2 = angles[s]
            t = abs(a0 - b0)
            if not (t <= tol or PI - t <= tol):
                continue
            t1, t2 = abs(a1 - b1), abs(a2 - b2)
            if ((t1 <= tol or PI - t1 <= tol) and (t2 <= tol or PI - t2 <= tol)
                    and proj_dist(images[e].sides, images[s].sides) <= tol):
                break
        else:
            kept.append(e)
    return [images[e] for e in kept]


def _canonical_rep_by_pairs(c):
    """The member of _orbit_by_pairs at DEFAULT_TOL with the least angle key
    (the first three components of _rep_key), the side moduli compared only
    where the angle keys tie."""
    members = _orbit_by_pairs(c, DEFAULT_TOL)
    best = members[0]
    for img in members[1:]:
        key, best_key = _rep_key(img)[:3], _rep_key(best)[:3]
        if _key_less(key, best_key) or (
            not _key_less(best_key, key)
            and _key_less(_rep_key(img), _rep_key(best))
        ):
            best = img
    return best


def _near_classes(tol):
    """Near-isosceles, near-equilateral and near-simple classes, each eps off
    its locus for eps from 0.3 to 3 tol."""
    out = []
    w = complex(0.5, math.sqrt(3) / 2)
    for frac in (0.3, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 3.0):
        eps = frac * tol
        for base in (0.3, 0.9, 1.3):
            apex = complex(0.5, 0.5 * math.tan(base))
            out += [class_of(from_vertices(0, 1, apex + d)) for d in (eps, 1j * eps)]
        out += [class_of(from_vertices(0, 1, w + d)) for d in (eps, 1j * eps, -eps)]
        out += [class_of(from_vertices(0, 1, complex(x, y)))
                for x in (0.25, 0.5, 1.5, -0.4) for y in (eps, -eps)]
    return out


def test_mul_is_the_group_product():
    elements = GroupElement.all_elements()
    for e, g in enumerate(elements):
        for h, k in enumerate(elements):
            assert elements[shape._MUL[e][h]] == g * k


def _cosets_by_scan(stab):
    """The first element of each coset g Stab, by a set of the elements seen."""
    kept, seen = [], set()
    for e in range(12):
        if e not in seen:
            kept.append(e)
            seen.update(shape._MUL[e][h] for h in stab)
    return kept


def test_cosets_come_from_a_cache_and_match_a_set_scan():
    """For each of the 2,048 stabilizer sets that hold 0, the cosets are
    those of a set scan, and a second lookup returns the same tuple."""
    for bits in range(2048):
        stab = (0, *(h for h in range(1, 12) if bits >> (h - 1) & 1))
        kept = shape._cosets(stab)
        assert kept.__class__ is tuple and list(kept) == _cosets_by_scan(stab)
        assert shape._cosets(tuple(list(stab))) is kept
    assert len(shape._COSETS) <= 2048


def test_closed_form_keys_are_the_keys_of_the_images():
    """_KEY[e], reading the angles of images 0 and 1 and the moduli of
    image 0, gives to the bit _rep_key of image e, for all 12 e: on the
    golden classes, the near classes of DEFAULT_TOL and 2,000 seeded
    scalene, double and torus_inverse double classes."""
    rng = random.Random(49)
    classes = [c for _, c in _golden_classes()] + _near_classes(DEFAULT_TOL)
    classes += [_random_class(rng) for _ in range(1500)] + [_random_double(rng) for _ in range(300)]
    classes += _torus_doubles(rng, 200)
    near_pi = 0
    for c in classes:
        images = _images(c)
        parts = [*_rep_key(images[0])[:3], *_rep_key(images[1])[:3],
                 *images[0].sides.moduli()]
        _, _, six, _, m = shape._dedup(c, DEFAULT_TOL)
        read = [t - PI if PI - t <= DEFAULT_TOL else t for t in six] + list(m)
        assert [float.hex(v) for v in read] == [float.hex(v) for v in parts]
        near_pi += any(PI - x.value <= DEFAULT_TOL for x in c.angles)
        for e, img in enumerate(images):
            assert ([float.hex(v) for v in shape._KEY[e](parts)]
                    == [float.hex(v) for v in _rep_key(img)]), e
    assert near_pi  # the near-pi reading is exercised


def test_orbit_and_canonical_rep_keep_the_bits_of_a_pairwise_scan():
    """orbit at 1e-9, 1e-6 and 1e-3 and canonical_rep give, to the bit, the
    images and the representative of a pairwise scan: on the golden
    classes, the edge and near classes of each tolerance, seeded copies of
    every kind of base shape and seeded random classes."""
    rng = random.Random(47)
    tols = (DEFAULT_TOL, 1e-6, 1e-3)
    classes = [c for _, c in _golden_classes()]
    for tol in tols:
        classes += _edge_classes(tol) + _near_classes(tol)
    for kind, _ in _ORBIT_SIZES:
        classes += [_copy(*_base_shape(kind, rng), rng) for _ in range(300)]
    classes += [_random_class(rng) for _ in range(3000)]
    classes += [_random_double(rng) for _ in range(500)]
    sizes = set()
    for c in classes:
        for tol in tols:
            want = [_hex(img) for img in _orbit_by_pairs(c, tol)]
            assert [_hex(img) for img in orbit(c, tol)] == want
            sizes.add(len(want))
        assert _hex(canonical_rep(c)) == _hex(_canonical_rep_by_pairs(c))
    # 4: near-equilateral classes about tol off, which two mirror symmetries
    # keep within tol but their product, a rotation, does not
    assert sizes == {2, 3, 4, 6, 12}


# ---------------------------------------------------------------------------
# images as the moved sides, and the result kept for the last class


def _assert_images_are_the_moved_sides(c):
    """Every image of the builder and of act_class is, to the bit, the moved
    sides and the class's angles, signed and permuted; its sides are within
    2e-15 of those of the moved lift.  Returns the largest such distance."""
    T = lift_class(c)
    images = _images(c)
    worst = 0.0
    for e, g in enumerate(GroupElement.all_elements()):
        want = _hex(_image_by_move(g, c))
        assert _hex(images[e]) == want
        assert _hex(act_class(g, c)) == want
        worst = max(worst, _lift_side_dist(g, images[e], T))
    assert worst <= 2e-15
    return worst


def test_images_are_the_moved_sides_and_the_signed_angles():
    """The golden classes and 2,000 scalene and 200 double seeded classes,
    for all 12 elements; orbit lists the kept images of the same builder,
    and canonical_rep returns one of them."""
    rng = random.Random(40)
    classes = [c for _, c in _golden_classes()]
    classes += [_random_class(rng) for _ in range(2000)] + [_random_double(rng) for _ in range(200)]
    for c in classes:
        _assert_images_are_the_moved_sides(c)
        kept, images = shape._dedup(c, DEFAULT_TOL)[:2]
        members = [_hex(img) for img in images]
        assert members == [_hex(_images(c)[e]) for e in kept]
        assert [_hex(img) for img in orbit(c)] == members
        assert _hex(canonical_rep(c)) in members


def test_images_keep_the_bits_on_one_ulp_modulus_ties():
    """Seeded isosceles classes at scales 1e-150..1e150.  The class's two
    equal sides tie exactly or differ by one ulp, so the pivot of an image
    depends on its order; for some, math.hypot gives other moduli than the
    abs(complex) of ProjTripleC."""
    rng = random.Random(41)
    seen = {"tie": 0, "ulp": 0, "hypot": 0}
    for _ in range(1500):
        spin = cmath.exp(1j * rng.uniform(0, 2 * PI)) * 10.0 ** rng.uniform(-150.0, 150.0)
        shift = abs(spin) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        verts = [spin * z + shift for z in (complex(0.5, rng.uniform(0.2, 2.0)), 0j, 1 + 0j)]
        c = class_of(from_vertices(*verts))
        _, mb, mc = c.sides.moduli()
        seen["tie"] += mb == mc
        seen["ulp"] += mb != mc and abs(mb - mc) <= math.ulp(mb)
        seen["hypot"] += any(abs(z) != math.hypot(z.real, z.imag) for z in c.sides.as_tuple())
        _assert_images_are_the_moved_sides(c)
    assert min(seen.values()) >= 10, seen


def test_images_keep_the_bits_on_exact_ties_and_signed_zeros():
    """Equilateral, doubled-simple, simple and scalene classes at scales
    1e-150..1e150, with +-0.0 vertex parts."""
    rng = random.Random(42)
    w = cmath.exp(2j * PI / 3)
    kinds = {
        "equilateral": lambda: (w, w.conjugate(), 1 + 0j),
        "doubled-simple": lambda: (0j, 1 + 0j, 1 + 0j),
        "simple": lambda: (0j, complex(rng.uniform(-2, 2)), 1 + 0j),
        "scalene": lambda: tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in "abc"),
    }
    for n in range(800):
        base = kinds[list(kinds)[n % 4]]()
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        spin = rng.choice((1, 1j, -1, cmath.exp(1j * rng.uniform(0, 2 * PI))))
        verts = [_signed_zero_parts(rng, scale * spin * z) for z in base]
        try:
            c = class_of(from_vertices(*verts))
        except ValueError:  # the signed zeros made a triple point
            continue
        _assert_images_are_the_moved_sides(c)


def _torus_double(n, p):
    """The torus_inverse class of the angles (p, -p, 0), rotated n slots."""
    angles = [(p, -p, 0.0), (0.0, p, -p), (-p, 0.0, p)][n % 3]
    return torus_inverse(TorusPoint(*(reduce_mod_pi(x) for x in angles)))


def _torus_doubles(rng, count):
    """torus_inverse classes on the three zero-angle circles, with p down to
    1e-6 from the torus origin on either side: uniform on (1e-6, pi - 1e-6)
    for a third of them, log-uniform towards 0 and towards pi for the rest."""
    out = []
    for n in range(count):
        near = 10.0 ** rng.uniform(-6.0, -2.0)
        p = [rng.uniform(1e-6, PI - 1e-6), near, PI - near][n // 3 % 3]
        out.append(_torus_double(n, p))
    return out


def test_lift_class_round_trips_torus_inverse_doubles():
    """lift_class keeps the free argument of a double class whose snapped
    side c was not 0j, so each class comes back and has the 6 images of a
    double whose free argument is off the perpendicular."""
    for c in _torus_doubles(random.Random(43), 2000):
        assert class_dist(class_of(lift_class(c)), c) <= 1e-9
        assert len(orbit(c, 1e-6)) == 6


def test_act_class_is_torus_equivariant_on_torus_inverse_doubles():
    """to_torus(act_class(g, c)) is, to the bit, g's signed permutation of
    to_torus(c), near the torus origin too."""
    elements = GroupElement.all_elements()
    near = [_torus_double(n, p) for p in (3e-4, 1e-4, 1e-6) for n in range(3)]
    for c in near + _torus_doubles(random.Random(44), 2000):
        t = to_torus(c).as_tuple()
        for g in elements:
            got = to_torus(act_class(g, c)).as_tuple()
            assert [x.value.hex() for x in got] == [
                x.value.hex() for x in _signed_permutation(g, t)]


def test_act_class_composes_like_the_group():
    """act_class(g * h, c) is act_class(g, act_class(h, c)) within 2e-15 by
    class_dist, for all 144 pairs, on the golden classes, seeded scalene and
    double classes and torus_inverse doubles."""
    rng = random.Random(46)
    classes = [c for _, c in _golden_classes()]
    classes += [_random_class(rng) for _ in range(100)] + [_random_double(rng) for _ in range(50)]
    classes += _torus_doubles(rng, 100)
    elements = GroupElement.all_elements()
    worst = 0.0
    for c in classes:
        for h in elements:
            hc = act_class(h, c)
            for g in elements:
                worst = max(worst, class_dist(act_class(g * h, c), act_class(g, hc)))
    assert worst <= 2e-15


def test_torus_inverse_cancels_the_sides_of_a_double_exactly():
    """On a zero-angle circle the zero side is 0j and the other two are
    exact negatives, so lift_class reads a double at every p."""
    for p in (1e-6, 1e-4, 3e-4, 0.5, PI - 1e-6):
        for n in range(3):
            sides = _torus_double(n, p).sides.as_tuple()
            z = (n + 2) % 3  # the zero slot
            assert sides[z] == 0 and sides[(z + 1) % 3] == -sides[(z + 2) % 3]


def test_lift_class_keeps_the_free_argument_when_side_c_is_a_residue():
    """A double class whose zero side c is a rounding residue under the
    zero snap, not 0j, as the inscribed sides of torus_inverse once left
    it: sides (a, -a - rho, rho) with |rho| 1e-16 to 1e-14 of |a|, in any
    direction, so a + b is not 0 either.  from_sides resets c = -a - b, so
    lift_class must pass b = -a to keep c at 0j and its free argument
    solved from the angles."""
    rng = random.Random(45)
    for _ in range(300):
        p = rng.uniform(0.01, PI - 0.01)
        t = TorusPoint(reduce_mod_pi(p), reduce_mod_pi(-p), reduce_mod_pi(0.0))
        a = cmath.exp(-1j * p)
        rho = a * cmath.rect(10.0 ** rng.uniform(-16.0, -14.0), rng.uniform(0.0, 2.0 * PI))
        c = ShapeClass(sides=ProjTripleC(a, -a - rho, rho), angles=t.as_tuple())
        sides = c.sides
        assert sides.c != 0 and sides.a + sides.b != 0
        assert class_dist(class_of(lift_class(c)), c) <= 1e-9


@pytest.mark.parametrize("p", [3e-4, 1e-4, 1e-6])
def test_lift_class_round_trips_a_torus_inverse_double_near_the_origin(p):
    c = _torus_double(0, p)
    assert class_dist(class_of(lift_class(c)), c) <= 1e-9


def test_a_value_equal_class_gets_its_own_images():
    """The class of test_orbit_keeps_the_sign_of_a_zero_angle with the sign
    of each of its zero angles flipped equals it by value, but its images
    hold the other zeros; orbit of the one must not serve the other."""
    c = class_of(from_vertices(0, 1, 0.25))
    assert all(x.value == 0.0 for x in c.angles)

    def flipped():
        return ShapeClass(sides=c.sides, angles=(-c.angles[0], -c.angles[1], -c.angles[2]))

    assert flipped() == c
    fresh = flipped()
    want = [_hex(img) for img in orbit(fresh)], _hex(canonical_rep(fresh))
    assert want[0] != [_hex(img) for img in orbit(c)]
    other = flipped()
    orbit(c)
    assert _hex(canonical_rep(other)) == want[1]
    orbit(c)
    assert ([_hex(img) for img in orbit(other)], _hex(canonical_rep(other))) == want


def test_canonical_rep_after_orbit_at_another_tolerance():
    """A double class 0.3e-3 off its line: orbit at 1e-3 keeps 3 images, at
    DEFAULT_TOL 6, and canonical_rep must use the latter."""
    c, fresh = (_edge_classes(1e-3)[3] for _ in range(2))
    assert len(orbit(c, 1e-3)) == 3
    assert _hex(canonical_rep(c)) == _hex(canonical_rep(fresh))
    assert len(orbit(c)) == 6


def test_canonical_rep_before_or_after_orbit_keeps_the_bits():
    """canonical_rep before orbit and after it give the same bits, and the
    representative is one of the objects orbit returns."""
    for label, c in _golden_classes():
        copy = ShapeClass(sides=c.sides, angles=c.angles)  # the same bits
        rep_first = canonical_rep(c)
        members = orbit(c)
        members_first = orbit(copy)
        rep_after = canonical_rep(copy)
        assert _hex(rep_first) == _hex(rep_after), label
        assert [_hex(img) for img in members] == [_hex(img) for img in members_first], label
        assert any(rep_first is img for img in members), label
        assert any(rep_after is img for img in members_first), label


# ---------------------------------------------------------------------------
# bit-identity of the group action against recorded outputs
#
# Regenerate with ``PYTHONPATH=src python tests/test_shape.py``, and only for
# an output change that is intended and documented.

ORBIT_GOLDEN = Path(__file__).parent / "data" / "orbit_golden.json"

def _golden_classes():
    """(label, class) pairs: seeded copies of every kind of base shape, then
    the edge classes at DEFAULT_TOL and at 1e-6."""
    rng = random.Random(30)
    out = []
    for kind, _ in _ORBIT_SIZES:
        for n in range(3):
            out.append((f"{kind} {n}", _copy(*_base_shape(kind, rng), rng)))
    for tol in (DEFAULT_TOL, 1e-6):
        out += [(f"edge {tol:g} {n}", c) for n, c in enumerate(_edge_classes(tol))]
    return out


def _action_digest(c):
    """sha256 of every number that orbit (at DEFAULT_TOL and 1e-6),
    canonical_rep and act_class (for all 12 elements) give for the class."""
    out = {
        "orbit": [_hex(img) for img in orbit(c)],
        "orbit_1e-6": [_hex(img) for img in orbit(c, 1e-6)],
        "canonical_rep": _hex(canonical_rep(c)),
        "act_class": [_hex(act_class(g, c)) for g in GroupElement.all_elements()],
    }
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_action_lifts_only_a_class_with_a_zero_side(monkeypatch):
    """orbit, canonical_rep and act_class read a class with three nonzero
    sides without a triangle; a double or doubled-simple class still goes
    through lift_class.  Both keep their golden bits."""
    golden = {rec["label"]: rec["sha256"] for rec in json.loads(ORBIT_GOLDEN.read_text())}
    cases = _golden_classes()
    direct = [(label, c) for label, c in cases if not _has_zero_side(c)]
    lifted = [(label, c) for label, c in cases if _has_zero_side(c)]
    assert {label.split()[0] for label, _ in lifted} == {
        "double", "perpendicular-double", "doubled-simple", "edge"}
    assert {"scalene 0", "simple 0", "midpoint-simple 0", "equilateral 0"} <= dict(direct).keys()

    def refuse(*args, **kwargs):
        raise AssertionError("a triangle was built")

    monkeypatch.setattr(shape, "from_sides", refuse)
    monkeypatch.setattr(shape, "lift_class", refuse)
    for label, c in direct:
        assert _action_digest(c) == golden[label], label
    monkeypatch.undo()
    calls = []

    def counting(c, _orig=shape.lift_class):
        calls.append(c)
        return _orig(c)

    monkeypatch.setattr(shape, "lift_class", counting)
    for label, c in lifted:
        calls.clear()
        assert _action_digest(c) == golden[label], label
        assert calls, label


def test_orbit_keeps_the_sign_of_a_zero_angle():
    """The images of a simple class hold 0.0 and -0.0 angles side by side.
    The two compare and hash alike, so an angle cache keyed by value would
    hand one image the other's zero; each image must keep the sign that
    the signed permutation of the class's angles gives it."""
    c = class_of(from_vertices(0, 1, 0.25))
    T = lift_class(c)
    elements = GroupElement.all_elements()
    kept = shape._dedup(c, DEFAULT_TOL)[0]
    images = orbit(c)
    assert len(images) == len(kept) == 6
    angles = {float.hex(x.value) for img in images for x in img.angles}
    assert angles == {"0x0.0p+0", "-0x0.0p+0"}
    for e, img in zip(kept, images):
        assert _hex(img) == _hex(_image_by_move(elements[e], c))
        assert _lift_side_dist(elements[e], img, T) <= 2e-15
        assert _hex(act_class(elements[e], c)) == _hex(img)
    assert _hex(canonical_rep(c)) in [_hex(img) for img in images]


def test_group_action_is_bit_identical():
    data = json.loads(ORBIT_GOLDEN.read_text())
    cases = _golden_classes()
    assert [rec["label"] for rec in data] == [label for label, _ in cases]
    for rec, (label, c) in zip(data, cases):
        assert _hex(c) == rec["class"], f"input class {label} changed"
        assert _action_digest(c) == rec["sha256"], f"{label}: {rec['class']}"


# ---------------------------------------------------------------------------
# the stabilizer and the representative decided from the six angles, at the
# edges of that decision


def _six(c):
    """The six angle floats of images 0 and 1 (own and negated), sorted."""
    images = _images(c)
    return sorted(x.value for img in images[:2] for x in img.angles)


def _gaps(c):
    """The neighbour gaps of _six and the gap across the wrap at pi."""
    v = _six(c)
    return [b - a for a, b in zip(v, v[1:])] + [PI - (v[5] - v[0])]


def _apart(v, tol):
    """Every neighbour gap of the sorted floats v is more than tol."""
    return all(b - a > tol for a, b in zip(v, v[1:]))


def _around(t):
    return [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]


def _class_with_angles(alpha, beta):
    """The class whose angles are, to the bit, alpha, beta and pi - alpha - beta."""
    gamma = PI - alpha - beta
    C = cmath.rect(math.sin(beta) / math.sin(gamma), alpha)
    sides = class_of(from_vertices(0, 1, C)).sides.to_json()
    return ShapeClass.from_json({"sides": sides, "angles": [alpha, beta, gamma]})


def _isosceles_stored_off(off):
    """The isosceles class with base angles 0.5, stored as 0.5 -+ off: its
    mirror image is off by 2 off in two slots, and its sides are symmetric."""
    sides = class_of(from_vertices(0, 1, complex(0.5, 0.5 * math.tan(0.5)))).sides.to_json()
    return ShapeClass.from_json({"sides": sides, "angles": [0.5 - off, 0.5 + off, PI - 1.0]})


def _collinear(share, turn, lift=0.0):
    """A class whose sides are about share, 1 + share and 1, tilted by turn;
    collinear unless the far vertex is lifted off the line by lift."""
    w = cmath.exp(1j * turn)
    return class_of(from_vertices(0, w, (1 + share + 1j * lift) * w))


def _boundary_classes():
    """A scalene class; a right angle, whose own angle and negation are both
    pi/2; angles within DEFAULT_TOL of pi, from thin triangles and near
    doubles; base angles DEFAULT_TOL apart, to the ulp of the angles; an
    isosceles class stored with base angles off each other; and
    near-equilateral classes."""
    out = [class_of(from_vertices(0, 1, 0.3 + 0.8j)), class_of(from_vertices(0, 1, 1j)),
           class_of(from_vertices(0, 1, 0.3 + 1j)), _class_with_angles(PI / 2, 0.4)]
    for eps in (0.2e-9, 0.5e-9, 0.99e-9, 1e-9, 1.01e-9):
        out.append(class_of(from_vertices(0, 1, complex(0.3, 0.3 * math.tan(eps)))))
        out.append(_class_with_angles(0.6, PI - 0.6 + eps))  # gamma is -eps
    ulp = 2.0 ** -53  # of angles in [0.5, 1)
    n = int(DEFAULT_TOL / ulp)
    out += [_class_with_angles(0.5, 0.5 + k * ulp) for k in range(n - 2, n + 3)]
    # multiples of 2**-51, so that the negated angles are exact: the own and
    # the negated base angles are the same float gap apart
    out += [_isosceles_stored_off(k * 2.0 ** -51) for k in (1, 2**20, 2**21)]
    w = complex(0.5, math.sqrt(3) / 2)
    out += [class_of(from_vertices(0, 1, w + d)) for d in (1e-9, 1e-9j, 1e-12, 1e-6)]
    return out


def _orbit_by_stabilizer_scan(c, tol):
    """The orbit as the dedup found it before it read the six angles: Stab
    is every element whose image is class_equal to image 0 at tol, and the
    orbit keeps the first element of each coset."""
    images = _images(c)
    stab = [0] + [h for h in range(1, 12) if class_equal(images[h], images[0], tol)]
    return [images[e] for e in _cosets_by_scan(stab)]


def _hexes(classes):
    return [_hex(c) for c in classes]


def test_orbit_keeps_the_bits_of_the_stabilizer_scan_at_each_gap_and_one_ulp_either_side():
    """orbit at a tolerance equal to each gap between the six angles (and
    across the wrap), and one ulp below and above it, where _dedup turns
    from the scan to the closed form, is the stabilizer scan's orbit."""
    decided = set()
    for c in _boundary_classes() + [_collinear(share, 0.7) for share in (1e-3, 0.25)]:
        for gap in _gaps(c):
            for tol in _around(gap):
                assert _hexes(orbit(c, tol)) == _hexes(_orbit_by_stabilizer_scan(c, tol)), tol
                decided.add(_apart(_six(c), tol) and _gaps(c)[-1] > tol)
    assert decided == {False, True}


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
def test_orbit_and_canonical_rep_keep_the_bits_of_the_scans_on_boundary_classes(tol):
    for c in _boundary_classes():
        want = _hexes(_orbit_by_pairs(c, tol))
        assert _hexes(orbit(c, tol)) == want == _hexes(_pairwise_orbit(c, tol))
        assert _hexes(_orbit_by_stabilizer_scan(c, tol)) == want
        rep = _hex(canonical_rep(c))
        assert rep == _hex(_canonical_rep_by_scan(c)) == _hex(_canonical_rep_by_pairs(c))


def test_the_stabilizer_and_the_pairwise_scans_part_where_the_tolerance_is_not_transitive():
    """Pinned as the former stabilizer scan gave them (a stabilizer that is
    always a subgroup would change both).  At a tolerance equal to a gap of
    its six angles, no image of this scalene class is within tol of its
    own, so orbit keeps all 12, while some images are within tol of each
    other and a pairwise scan keeps 9.  At tol 0 a collinear class's images
    are equal up to the rounding of proj_dist, which differs between pairs:
    orbit keeps 6 and a pairwise scan 8."""
    c = class_of(from_vertices(0, 1, 0.3 + 1j))
    tol = min(_gaps(c))
    assert [len(orbit(c, tol)), len(_orbit_by_pairs(c, tol)),
            len(_pairwise_orbit(c, tol))] == [12, 9, 9]
    c = _collinear(0.25, 0.0)
    assert [len(orbit(c, 0.0)), len(_orbit_by_pairs(c, 0.0)),
            len(_pairwise_orbit(c, 0.0))] == [6, 8, 8]
    for c, tol in ((class_of(from_vertices(0, 1, 0.3 + 1j)), tol), (c, 0.0)):
        assert _hexes(orbit(c, tol)) == _hexes(_orbit_by_stabilizer_scan(c, tol))


def _angle_parts(c):
    """canonical_rep's six angle parts: an angle within DEFAULT_TOL of pi
    read as near 0."""
    return [t - PI if PI - t <= DEFAULT_TOL else t for t in _six(c)]


def test_canonical_rep_keeps_the_bits_of_the_scans_where_two_angles_are_default_tol_apart():
    """Base angles 0.5 and 0.5 + k ulps, k from 4 below to 4 above the
    DEFAULT_TOL gap: the closed form decides some, the scan the others, and
    both give the scans' representative, for the class and its 12 images."""
    ulp = 2.0 ** -53
    n = int(DEFAULT_TOL / ulp)
    decided = set()
    for k in range(n - 4, n + 5):
        for c in _images(_class_with_angles(0.5, 0.5 + k * ulp)):
            decided.add(_apart(sorted(_angle_parts(c)), DEFAULT_TOL))
            rep = _hex(canonical_rep(c))
            assert rep == _hex(_canonical_rep_by_scan(c)) == _hex(_canonical_rep_by_pairs(c))
    assert decided == {False, True}


def test_canonical_rep_reads_an_ascending_image_off_the_table():
    """Where the closed form decides, the representative's angles ascend,
    from the least of the six parts, and it is one of the 12 images."""
    rng = random.Random(53)
    taken = 0
    for _ in range(300):
        c = _random_class(rng)
        if not _apart(sorted(_angle_parts(c)), DEFAULT_TOL):
            continue
        taken += 1
        rep = canonical_rep(c)
        parts = [t - PI if PI - t <= DEFAULT_TOL else t for t in (x.value for x in rep.angles)]
        assert parts == sorted(parts) and parts[0] == min(_angle_parts(c))
        assert _hex(rep) in _hexes(_images(c))
    assert taken > 250


def _moduli_gap(m, e):
    """The largest slot-wise difference of image e's side moduli from image 0's."""
    i, j, k = shape._GROUP[e][:3]
    return max(abs(m[i] - m[0]), abs(m[j] - m[1]), abs(m[k] - m[2]))


def test_the_moduli_prefilter_skips_no_image_that_proj_dist_keeps():
    """Every image's moduli are within 4 proj_dist + 2**-40 of image 0's:
    on seeded scalene, near-isosceles, near-equilateral and near-collinear
    classes.  The largest ratio of the two is about 1.15, where the bound's
    proof allows 3.5.  Elements 2p and 2p + 1 share a permutation and so
    their moduli: where the bound skips a permutation at a tolerance,
    neither element is in the stabilizer scan's Stab, the flipped one
    included, whose angles alone may pass."""
    rng = random.Random(59)
    worst = 0.0
    skipped = passing = 0
    for n in range(2000):
        eps = 10.0 ** rng.uniform(-15, -2)
        turn = cmath.exp(1j * rng.uniform(0, 2 * PI))
        c = [_random_class(rng),
             class_of(from_vertices(0, 1, complex(0.5, 0.5 * math.tan(rng.uniform(0.1, 1.4)))
                                    + eps * turn)),
             class_of(from_vertices(0, 1, complex(0.5, math.sqrt(3) / 2) + eps * turn)),
             _collinear(eps, rng.uniform(0, PI), 1e-3 * eps * rng.random())][n % 4]
        images = _images(c)
        m = images[0].sides.moduli()
        for e in range(1, 12):
            d = proj_dist(images[e].sides, images[0].sides)
            assert _moduli_gap(m, e) <= 4.0 * d + 2.0 ** -40
            if d > 1e-14:
                worst = max(worst, _moduli_gap(m, e) / d)
        for e in range(0, 12, 2):
            assert shape._GROUP[e][:3] == shape._GROUP[e + 1][:3]
            assert _moduli_gap(m, e) == _moduli_gap(m, e + 1)
            for tol in (1e-12, 1e-9, 1e-6, 1e-3):
                if _moduli_gap(m, e) > 4.0 * tol + 2.0 ** -40:
                    assert not any(class_equal(images[h], images[0], tol) for h in (e, e + 1))
                    skipped += 1
                    passing += all(angle_dist(x, y) <= tol for x, y in
                                   zip(images[e + 1].angles, images[0].angles))
    assert 1.1 < worst < 3.5
    assert skipped > 10000 and passing > 1000


def test_orbit_keeps_the_bits_of_the_scans_with_moduli_near_the_prefilter_bound():
    """Collinear classes: all 12 images pass the angle test, and the images
    that swap the two long sides have moduli about share apart.  At
    tolerances whose bound 4 tol + 2**-40 is such a gap, one ulp either
    side, and at fractions of it, orbit is the scans' orbit."""
    for share in (1e-3, 1e-6, 1e-9, 2.0 ** -38):
        for turn in (0.0, 0.4, 2.5):
            c = _collinear(share, turn)
            m = _images(c)[0].sides.moduli()
            for gap in {_moduli_gap(m, e) for e in range(1, 12)}:
                for tol in _around((gap - 2.0 ** -40) / 4.0) + [gap / 3.5, gap / 2.0, gap]:
                    want = _hexes(_orbit_by_pairs(c, tol))
                    assert _hexes(orbit(c, tol)) == want == _hexes(_pairwise_orbit(c, tol))
                    assert _hexes(_orbit_by_stabilizer_scan(c, tol)) == want


#: an isosceles class (seeded by random_isosceles) whose mirror image under
#: perm (1, 0, 2) has proj_dist 0.0 to it, while the moduli of the two differ
#: by one ulp, 2**-53
_ULP_ISOSCELES = (("0x1.11810bc62eae0p-4", "0x1.eabd5f2e78d72p-1"),
                  ("-0x1.ad098ae623bc7p-1", "0x1.10e73131c0366p+0"),
                  ("-0x1.5cfb4bf7261e5p-2", "0x1.6398f0e9295dap+0"))


@pytest.mark.parametrize("tol", [0.0, 1e-17, 3e-17])
def test_the_moduli_bound_keeps_a_mirror_whose_moduli_differ_by_rounding(tol):
    """The mirror is class_equal to the class at tol, and its moduli are
    more than 3 tol from the class's: 4 tol + 2**-40 lets proj_dist see it,
    so the mirror is in the stabilizer and the orbit has 6 images, not 12."""
    c = class_of(from_vertices(*(complex(float.fromhex(x), float.fromhex(y))
                                 for x, y in _ULP_ISOSCELES)))
    mirror = act_class(GroupElement((1, 0, 2), True), c)
    gap = max(abs(u - v) for u, v in zip(mirror.sides.moduli(), c.sides.moduli()))
    assert class_equal(mirror, c, tol) and proj_dist(mirror.sides, c.sides) == 0.0
    assert gap == 2.0 ** -53 > 3.0 * tol
    assert len(orbit(c, tol)) == 6


def test_proj_dist_confirms_only_the_stabilizer_of_a_doubled_simple_orbit(monkeypatch):
    """A doubled-simple class's images all share its angles; the moduli
    prefilter leaves proj_dist the 3 elements of its stabilizer past the
    identity, and a scalene class, decided by its angles, none."""
    calls = []

    def counting(t1, t2):
        calls.append(1)
        return proj_dist(t1, t2)

    monkeypatch.setattr(shape, "proj_dist", counting)
    rng = random.Random(61)
    for _ in range(20):
        c = _copy(*_base_shape("doubled-simple", rng), rng)
        calls.clear()
        assert len(orbit(c)) == 3 and len(calls) == 3
        c = _copy(*_base_shape("scalene", rng), rng)
        calls.clear()
        assert len(orbit(c)) == 12 and not calls


if __name__ == "__main__":
    records = [{"label": label, "class": _hex(c), "sha256": _action_digest(c)}
               for label, c in _golden_classes()]
    ORBIT_GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} classes to {ORBIT_GOLDEN}")
