import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from trishape.angles import DEFAULT_TOL, PI, AngleModPi, angle_dist, reduce_mod_pi
from trishape.triangle import (
    _STRATA,
    _canonical6,
    DegeneracyType,
    GroupElement,
    Orientation,
    TriangleVariable,
    act,
    classify,
    from_sides,
    from_vertices,
    interior_angles,
    orientation,
    validate,
    vertex_angle,
)
from trishape.shape import class_of


def test_vertices_from_sides():
    T = from_vertices(1j, 0.0, 1.0)
    A, B, C = T.vertices
    assert A == 1j and B == 0.0 and C == 1.0
    a, b, c = T.sides
    assert a == C - B and b == A - C and c == B - A


def test_closure_enforced():
    with pytest.raises(ValueError):
        from_sides(1.0, 1.0, 1.0)


def test_closure_repaired_exactly():
    T = from_sides(0.1 + 0.2j, 0.3 - 0.05j, -0.4 - 0.15j + 1e-12)
    assert sum(T.sides) == 0


def test_triple_point_needs_directions():
    with pytest.raises(ValueError):
        from_sides(0.0, 0.0, 0.0)
    T = from_sides(0.0, 0.0, 0.0, directions=(1, 0, -0.5, 0.5, -0.5, -0.5))
    assert classify(T) is DegeneracyType.TRIPLE


def test_classification_strata():
    # nondegenerate
    assert classify(from_vertices(0, 1, 1j)) is DegeneracyType.NONDEGENERATE
    # simple: distinct collinear vertices
    assert classify(from_vertices(0, 1, 2)) is DegeneracyType.SIMPLE
    # double: two coincident vertices, generic free argument
    dbl = from_sides(1.0, 0.0, -1.0, free_arguments={"b": reduce_mod_pi(1.0)})
    assert classify(dbl) is DegeneracyType.DOUBLE
    # doubled simple: the free argument aligns with the chord
    ds = from_sides(1.0, 0.0, -1.0, free_arguments={"b": reduce_mod_pi(0.0)})
    assert classify(ds) is DegeneracyType.DOUBLED_SIMPLE
    # triple with generic directions
    tpl = from_sides(0, 0, 0, directions=(1, 0, -0.5, 0.5, -0.5, -0.5))
    assert classify(tpl) is DegeneracyType.TRIPLE
    # tripled double: a zero direction pair at scale zero
    td = from_sides(
        0, 0, 0,
        directions=(1, 0, 0, 0, -1, 0),
        free_arguments={"b": reduce_mod_pi(1.0)},
    )
    assert classify(td) is DegeneracyType.TRIPLED_DOUBLE
    # tripled simple: all directions parallel, none zero
    ts = from_sides(0, 0, 0, directions=(1, 0, -0.5, 0, -0.5, 0))
    assert classify(ts) is DegeneracyType.TRIPLED_SIMPLE


def test_tripled_doubled_simple():
    T = from_sides(
        0, 0, 0,
        directions=(1, 0, 0, 0, -1, 0),
        free_arguments={"b": reduce_mod_pi(0.0)},
    )
    assert classify(T) is DegeneracyType.TRIPLED_DOUBLED_SIMPLE


def test_double_point_default_argument_is_chord():
    T = from_sides(1j, 0.0, -1j)
    assert angle_dist(T.arguments[1], PI / 2) < 1e-12


def test_orientation_signs():
    assert orientation(from_vertices(0, 1, 1j)) is Orientation.POSITIVE
    assert orientation(from_vertices(0, 1j, 1)) is Orientation.NEGATIVE
    assert orientation(from_vertices(0, 1, 2)) is Orientation.ZERO


def test_orientation_scale_invariance():
    rng = random.Random(11)
    for _ in range(100):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        lam = rng.uniform(1e-6, 1e6)
        T1 = from_vertices(*pts)
        T2 = from_vertices(*(lam * p for p in pts))
        assert orientation(T1) is orientation(T2)


def test_lifted_angle_sums():
    rng = random.Random(12)
    for _ in range(200):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        T = from_vertices(*pts)
        if orientation(T) is Orientation.ZERO:
            continue
        total = sum(float(x) for x in interior_angles(T))
        if orientation(T) is Orientation.POSITIVE:
            assert abs(total - PI) < 1e-9
        else:
            assert abs(total - 2 * PI) < 1e-9


def test_interior_angles_match_vertex_measurement():
    rng = random.Random(13)
    for _ in range(300):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        T = from_vertices(*pts)
        a, b, _ = T.sides
        if abs((a.conjugate() * b).imag) < 1e-3:  # twice the signed area
            continue
        for slot, computed in enumerate(interior_angles(T)):
            assert angle_dist(computed, vertex_angle(T, slot)) < 1e-9


@pytest.mark.parametrize("slot", [3, -1])
def test_vertex_angle_names_a_bad_slot(slot):
    with pytest.raises(ValueError, match="slot"):
        vertex_angle(from_vertices(0, 1, 1j), slot)


def test_validate_accepts_constructed_triangles():
    rng = random.Random(14)
    for _ in range(100):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        assert validate(from_vertices(*pts)) == []


def test_validate_flags_tampered_directions():
    T = from_vertices(0, 1, 1j)
    bad = TriangleVariable(
        basepoint=T.basepoint,
        sides=T.sides,
        directions=(1.0, 0.0, 0.0, 1.0, -1.0, -1.0),
        arguments=T.arguments,
    )
    assert validate(bad) != []


def test_group_has_twelve_elements_and_identity():
    elements = GroupElement.all_elements()
    assert len(elements) == 12
    identities = [e for e in elements if all(g * e == g == e * g for g in elements)]
    assert identities == [GroupElement((0, 1, 2), False)]
    e = identities[0]
    for g in elements:
        assert sum(g * h == e == h * g for h in elements) == 1


def test_group_composition_against_action():
    rng = random.Random(16)
    T = from_vertices(0.1 + 0.2j, 1.0, 0.4 + 1.1j)
    for g in GroupElement.all_elements():
        for h in GroupElement.all_elements():
            left = act(g * h, T)
            right = act(g, act(h, T))
            assert max(abs(u - v) for u, v in zip(left.sides, right.sides)) < 1e-12


def test_flip_reverses_orientation_and_fixes_angles_mod_pi():
    T = from_vertices(0, 1, 0.3 + 0.8j)
    flip = GroupElement((0, 1, 2), True)
    M = act(flip, T)
    assert orientation(T) is Orientation.POSITIVE
    assert orientation(M) is Orientation.NEGATIVE
    for x, y in zip(interior_angles(T), interior_angles(M)):
        assert angle_dist(x, -y) < 1e-12


def test_permutation_relabels_slots():
    T = from_vertices(0, 1, 1j)
    g = GroupElement((1, 2, 0), False)
    U = act(g, T)
    for i in range(3):
        assert U.sides[i] == T.sides[g.perm[i]]


@pytest.mark.parametrize("perm, flip, field", [
    ((0.0, 1.0, 2.0), False, "perm"),  # float slots would reach act as indices
    ("012", False, "perm"),
    (3, False, "perm"),
    ((0, 1, 1), False, "perm"),
    ((0, 1, 2), "yes", "flip"),
    ((0, 1, 2), 2, "flip"),
    ((0, 1, 2), None, "flip"),
], ids=["float-slots", "string", "not-iterable", "repeated-slot", "string-flip", "int-flip",
        "none-flip"])
def test_group_element_refuses_fields_it_cannot_use(perm, flip, field):
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        GroupElement(perm, flip)


def test_group_element_stores_a_hashable_tuple_and_a_bool():
    g = GroupElement([1, 0, 2], 1)
    assert g.perm == (1, 0, 2) and g.flip is True
    assert g == GroupElement((1, 0, 2), True) and hash(g) == hash(GroupElement((1, 0, 2), True))
    assert g * g == GroupElement((0, 1, 2), False)


def test_action_preserves_validity():
    rng = random.Random(17)
    for _ in range(50):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        T = from_vertices(*pts)
        for g in GroupElement.all_elements():
            assert validate(act(g, T)) == []


@pytest.mark.parametrize(
    "verts",
    [
        (math.nan, 1, 1j),
        (math.inf, 1, 1j),
        (0, complex(1, -math.inf), 1j),
        (1e308, -1e308, 1e308j),  # B - A overflows to -inf
        (1.5e308, 1.5e308j, 0),  # finite side-vectors whose length overflows
    ],
)
def test_non_finite_side_vectors_raise(verts):
    with pytest.raises(ValueError, match="side-vectors"):
        from_vertices(*verts)


def test_non_finite_basepoint_and_directions_raise():
    with pytest.raises(ValueError, match="basepoint"):
        from_sides(1, -1, 0, basepoint=complex(math.nan, 0))
    with pytest.raises(ValueError, match="directions"):
        from_sides(0, 0, 0, directions=(1, 0, -0.5, math.nan, -0.5, -0.5))
    with pytest.raises(ValueError, match="directions"):
        from_sides(0, 0, 0, directions=(1, 0, -0.5, 0.5, -math.inf, -0.5))


@pytest.mark.parametrize("f", [classify, orientation])
def test_a_direction_pair_whose_modulus_raises_is_refused_by_name(f):
    """abs() of a direction pair raises OverflowError when a part is near the
    float maximum, and, when errno still holds the ERANGE of an underflow,
    for a NaN part: the constructor names the directions instead, so
    classify and orientation never take such a modulus."""
    sides, args = (1 + 0j, -1 + 0j, 0j), (AngleModPi(0.5),) * 3
    with pytest.raises(ValueError, match="directions must be finite and canonical"):
        f(TriangleVariable(0j, sides, (1.7e308, 1.7e308, 1.0, 0.0, -1.0, 0.0), args))
    for _ in range(2):
        math.ldexp(5e-324, -3)  # underflows, which leaves errno at ERANGE
        with pytest.raises(ValueError, match="directions must be finite and canonical"):
            f(TriangleVariable(0j, sides, (math.nan, 5e-324, 1.0, 0.0, -1.0, 0.0), args))


@pytest.mark.parametrize("sides, basepoint, message", [
    ((math.nan, 1, -1), complex(math.inf, 0), "side-vectors must be finite"),
    ((1, 1, 1), complex(0, math.nan), "basepoint must be finite"),
    ((1.7e308, 1.7e308j, 0), 0j, "side-vectors too long"),  # |a + b + c| overflows
])
def test_from_sides_tests_its_input_in_order(sides, basepoint, message):
    with pytest.raises(ValueError, match=message):
        from_sides(*sides, basepoint=basepoint)


def test_orientation_agrees_with_classify_at_tiny_scale():
    # twice the area is 1e-400 here, below the smallest float
    T = from_vertices(0, 1e-200, 1e-200j)
    assert classify(T) is DegeneracyType.NONDEGENERATE
    assert orientation(T) is Orientation.POSITIVE
    assert orientation(from_vertices(0, 1e-200j, 1e-200)) is Orientation.NEGATIVE


_coord = st.floats(-1.0, 1.0)


@st.composite
def _shapes(draw):
    """Vertices of a well-conditioned nondegenerate, collinear or double
    shape of unit size, so no predicate sits near its tolerance."""
    kind = draw(st.sampled_from(("nondegenerate", "collinear", "double")))
    if kind == "nondegenerate":
        A, B, C = (complex(draw(_coord), draw(_coord)) for _ in range(3))
        sides = (abs(C - B), abs(A - C), abs(B - A))
        assume(min(sides) > 1e-2 * max(sides) > 0.0)
        assume(abs(((B - A).conjugate() * (C - A)).imag) > 1e-2 * max(sides) ** 2)
        return (A, B, C)
    P = complex(draw(_coord), draw(_coord))
    u = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    if kind == "collinear":
        t = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
        assume(min(abs(t[0] - t[1]), abs(t[1] - t[2]), abs(t[0] - t[2])) > 1e-2)
        return tuple(P + ti * u for ti in t)
    Q = P + draw(st.floats(0.1, 1.0)) * u
    return draw(st.sampled_from(((P, P, Q), (P, Q, P), (Q, P, P))))


@given(
    _shapes(),
    st.integers(-300, 300),
    st.floats(0.0, 2 * math.pi),
    _coord,
    _coord,
    st.sampled_from(list(itertools.permutations(range(3)))),
)
def test_predicates_are_similarity_invariant(verts, k, turn, tx, ty, perm):
    """classify does not change under scale 10^k, rotation, translation and
    relabeling; orientation does not either, except that an odd relabeling
    reverses it."""
    T = from_vertices(*verts)
    f = 10.0**k * cmath.exp(1j * turn)
    shift = 10.0**k * complex(10.0 * tx, 10.0 * ty)
    moved = [f * verts[p] + shift for p in perm]
    T2 = from_vertices(*moved)
    assert classify(T2) is classify(T)
    expected = orientation(T)
    odd = sum(1 for i, j in itertools.combinations(range(3), 2) if perm[i] > perm[j]) % 2
    if odd and expected is not Orientation.ZERO:
        expected = (
            Orientation.NEGATIVE if expected is Orientation.POSITIVE else Orientation.POSITIVE
        )
    assert orientation(T2) is expected


def _stratum_by_pairs(T):
    """classify on the complex direction pairs, as it was written."""
    a, b, c = T.sides
    pa, pb, pc = T.direction_pairs()
    dbl = abs(pa) <= DEFAULT_TOL or abs(pb) <= DEFAULT_TOL or abs(pc) <= DEFAULT_TOL
    xa, xb, xc = T.arguments
    smp = (angle_dist(xa, xb) <= DEFAULT_TOL and angle_dist(xb, xc) <= DEFAULT_TOL
           and angle_dist(xa, xc) <= DEFAULT_TOL)
    return _STRATA[not (a or b or c), dbl, smp]


def _orientation_by_pairs(T):
    """orientation on the complex direction pairs, as it was written."""
    a, b, c = T.sides
    if not (a or b or c):
        return Orientation.ZERO
    pa, pb, pc = T.direction_pairs()
    scale = max(abs(pa), abs(pb), abs(pc))
    s2 = (pa.conjugate() * pb).imag
    if s2 > DEFAULT_TOL * scale * scale:
        return Orientation.POSITIVE
    if s2 < -DEFAULT_TOL * scale * scale:
        return Orientation.NEGATIVE
    return Orientation.ZERO


#: direction coordinates at and beside the tolerance, signed zeros and units
_DIRECTION = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 6e-10, -8e-10, DEFAULT_TOL, -DEFAULT_TOL,
                               math.nextafter(DEFAULT_TOL, 1.0), 0.5, 2.0, -3.0])
              | st.floats(-4.0, 4.0))
_SIDE = st.sampled_from([0j, complex(-0.0, -0.0), 1 + 0j, 1e-12j]) | st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@given(st.lists(_DIRECTION, min_size=6, max_size=6), _SIDE, _SIDE, _SIDE,
       st.lists(st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, PI - 1e-10]),
                min_size=3, max_size=3))
def test_classify_and_orientation_read_the_directions_as_the_pairs_do(dirs, a, b, c, args):
    """Hand-built triangles: the public constructor does not validate, so
    the directions need not be canonical or match the sides."""
    T = TriangleVariable(0j, (a, b, c), tuple(dirs), tuple(map(AngleModPi, args)))
    assert classify(T) is _stratum_by_pairs(T)
    assert orientation(T) is _orientation_by_pairs(T)


@pytest.mark.parametrize("verts, free", [
    ((0, 1, 1j), None), ((0, 1, 2), None), ((0, 1, 1), {"a": 1.0}), ((0, 0, 0), None),
    ((0, 1, 1 + 1e-9j), None), ((0, 1, 0.5 + 1e-10j), None), ((1j, -0.0, 1), None),
    ((0, 1e-9, 1), None), ((0, 1 + 1e-10j, 1), None),
])
def test_classify_and_orientation_agree_with_the_pairs_on_built_triangles(verts, free):
    directions = (1.0, -0.0, -1.0, 0.0, 0.0, -0.0) if verts == (0, 0, 0) else None
    T = from_vertices(*verts, directions=directions, free_arguments=free)
    assert classify(T) is _stratum_by_pairs(T)
    assert orientation(T) is _orientation_by_pairs(T)


#: the sides and directions of a doubled-simple triangle built by hand
_BY_HAND = ((1 + 0j, -1 + 0j, 0j), (1.0, 0.0, -1.0, 0.0, 0.0, 0.0))
_SCALENE = from_vertices(0.2, 1.3 + 0.1j, 0.4 + 0.9j)


@pytest.mark.parametrize("sides, dirs, args", [
    (*_BY_HAND, (0.5, 0.5, 0.5)),
    (*_BY_HAND, (0.5 + PI, 0.5 - 3.0 * PI, 0.5 + 1e-12)),
    (*_BY_HAND, (1, Fraction(1, 3), True)),
    (*_BY_HAND, (-0.0, 0.0, math.nextafter(PI, 0.0))),
    (*_BY_HAND, (AngleModPi(0.25), 0.25 + PI, -1e-17)),
    (*_BY_HAND, (PI, -PI, 2.0 * PI)),
    (_SCALENE.sides, _SCALENE.directions,
     tuple(x.value + k * PI for x, k in zip(_SCALENE.arguments, (1, -2, 0)))),
])
def test_real_arguments_are_wrapped_as_angles_by_classify_interior_angles_and_class_of(
        sides, dirs, args):
    """A hand-built triangle whose arguments are finite reals gives classify,
    interior_angles and class_of the bits of the same triangle with each real
    wrapped by AngleModPi."""
    T = TriangleVariable(0j, sides, dirs, args)
    wrapped = TriangleVariable(0j, sides, dirs, tuple(
        v if isinstance(v, AngleModPi) else AngleModPi(v) for v in args))
    assert classify(T) is classify(wrapped) is _stratum_by_pairs(T)
    got, want = interior_angles(T), interior_angles(wrapped)
    assert [x.value.hex() for x in got] == [x.value.hex() for x in want]
    c, cw = class_of(T), class_of(wrapped)
    assert c == cw and [x.value.hex() for x in c.angles] == [x.value.hex() for x in cw.angles]
    if args == (0.5, 0.5, 0.5):
        assert classify(T) is DegeneracyType.DOUBLED_SIMPLE


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, "half", None, 1j,
                                 (0.5,)])
@pytest.mark.parametrize("f", [classify, interior_angles, class_of])
def test_an_argument_that_is_not_a_finite_real_is_refused_by_name(f, bad):
    sides, dirs = _BY_HAND
    for args in ((bad, 0.5, 0.5), (AngleModPi(0.5), AngleModPi(0.5), bad)):
        with pytest.raises(ValueError, match="^arguments must be a finite angle: "):
            f(TriangleVariable(0j, sides, dirs, args))


@pytest.mark.parametrize("args", [(AngleModPi(0.5), AngleModPi(0.5)), (0.5, 0.5, 0.5, 0.5), (),
                                  None, 0.5], ids=["two", "four", "none-held", "None", "float"])
@pytest.mark.parametrize("f", [classify, interior_angles, class_of])
def test_arguments_that_are_not_three_are_refused_by_name(f, args):
    sides, dirs = _BY_HAND
    with pytest.raises(ValueError, match="^arguments must be three angles$"):
        f(TriangleVariable(0j, sides, dirs, args))


#: a plain and a flipped element, each moving every slot
_MOVERS = [GroupElement((1, 2, 0), False), GroupElement((1, 2, 0), True)]


@pytest.mark.parametrize("g", _MOVERS, ids=["plain", "flipped"])
@pytest.mark.parametrize("args", [
    tuple(x.value + k * PI for x, k in zip(_SCALENE.arguments, (1, -2, 0))),
    (_SCALENE.arguments[0].value, 1, _SCALENE.arguments[2]),
])
def test_act_wraps_real_arguments_as_classify_does(g, args):
    """act of a hand-built triangle whose arguments are finite reals is, to
    the bit, act of the same triangle with each real wrapped by AngleModPi."""
    T = TriangleVariable(_SCALENE.basepoint, _SCALENE.sides, _SCALENE.directions, args)
    wrapped = TriangleVariable(_SCALENE.basepoint, _SCALENE.sides, _SCALENE.directions,
                               tuple(v if isinstance(v, AngleModPi) else AngleModPi(v)
                                     for v in args))
    got, want = act(g, T), act(g, wrapped)
    assert all(type(x) is AngleModPi for x in got.arguments)
    assert [x.value.hex() for x in got.arguments] == [x.value.hex() for x in want.arguments]
    assert got == want and interior_angles(got) == interior_angles(want)


@pytest.mark.parametrize("g", _MOVERS, ids=["plain", "flipped"])
@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.5, 0.5), "^arguments must be a finite angle: "),
    ((AngleModPi(0.5), None, AngleModPi(0.5)), "^arguments must be a finite angle: "),
    ((AngleModPi(0.5), AngleModPi(0.5)), "^arguments must be three angles$"),
], ids=["nan", "None", "two"])
def test_act_refuses_arguments_that_classify_refuses(g, args, message):
    """The constructor refuses these arguments, so neither call is reached
    with them; each refusal names the arguments as the call did."""
    with pytest.raises(ValueError, match=message):
        classify(TriangleVariable(0j, _SCALENE.sides, _SCALENE.directions, args))
    with pytest.raises(ValueError, match=message):
        act(g, TriangleVariable(0j, _SCALENE.sides, _SCALENE.directions, args))


@pytest.mark.parametrize("directions", [(1.0, 0.0, -1.0), _SCALENE.directions + (0.0,), None,
                                        ()], ids=["three", "seven", "None", "empty"])
@pytest.mark.parametrize("f", [classify, orientation, class_of, validate,
                               lambda T: act(_MOVERS[1], T)],
                         ids=["classify", "orientation", "class_of", "validate", "act"])
def test_directions_that_are_not_six_are_refused_by_name(f, directions):
    with pytest.raises(ValueError, match="^directions must be six coordinates$"):
        f(TriangleVariable(0j, _SCALENE.sides, directions, _SCALENE.arguments))


@pytest.mark.parametrize("directions", [("1",) * 6, (None,) * 6, (1.0, 0.0, "-1", 0.0, 0.0, 0.0)],
                         ids=["strings", "None", "one-string"])
@pytest.mark.parametrize("f", [classify, orientation, class_of, validate,
                               lambda T: act(_MOVERS[1], T)],
                         ids=["classify", "orientation", "class_of", "validate", "act"])
def test_six_directions_that_are_not_numbers_are_refused_by_name(f, directions):
    with pytest.raises(ValueError, match="^directions must be real numbers$"):
        f(TriangleVariable(0j, _SCALENE.sides, directions, _SCALENE.arguments))


@pytest.mark.parametrize("basepoint, sides, message", [
    (complex(math.nan, 0), _BY_HAND[0], "^basepoint and side-vectors must be finite: "),
    (0j, (1, -1, math.inf), "^basepoint and side-vectors must be finite: "),
    ("0", _BY_HAND[0], "^basepoint must be a complex number, not str$"),
    (0j, (1, "-1", 0), "^side b must be a complex number, not str$"),
    (0j, (1, -1, 10**400), "^side c is out of the float range$"),
    (0j, (1, -1), "^sides must be three side-vectors$"),
    (0j, None, "^sides must be three side-vectors$"),
    # finite, but their moduli, which validate reads, overflow
    (0j, (1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j, 0j), "^side-vectors too long: a = "),
], ids=["nan-basepoint", "inf-side", "string-basepoint", "string-side", "huge-side", "two",
        "None", "long-sides"])
def test_the_constructor_refuses_a_basepoint_or_sides_by_name(basepoint, sides, message):
    with pytest.raises(ValueError, match=message):
        TriangleVariable(basepoint, sides, _BY_HAND[1], (AngleModPi(0.5),) * 3)


def test_the_constructor_stores_its_fields_converted():
    """Numbers are stored as the type each field holds; an angle is kept as
    it is and a finite real wrapped, so the entry points read them as stored."""
    angle = AngleModPi(1.0)
    T = TriangleVariable(1, (1, -1, 0j), (1, 0, -1, Fraction(0), 0.0, False), (0.5, angle, 4.0))
    assert type(T.basepoint) is complex and [type(v) for v in T.sides] == [complex] * 3
    assert [type(v) for v in T.directions] == [float] * 6
    assert T.directions == (1.0, 0.0, -1.0, 0.0, 0.0, 0.0) and T.arguments[1] is angle
    assert T == TriangleVariable(1 + 0j, _BY_HAND[0], _BY_HAND[1], tuple(map(AngleModPi, (
        0.5, 1.0, 4.0))))
    assert classify(T) is DegeneracyType.DOUBLE and orientation(T) is Orientation.ZERO


@pytest.mark.parametrize("build, directions, free, message", [
    (from_sides, ("1", "0", "-0.5", "0.5", "-0.5", "-0.5"), None,
     "^directions must be real numbers$"),
    (from_sides, (1, 0, -0.5, 0.5, -0.5, 10**400), None,
     "^directions must be finite and canonical: "),
    (from_sides, 5, None, "^directions must be six coordinates$"),
    (from_vertices, (1, 0, -0.5, 0.5, -0.5, b"-0.5"), None, "^directions must be real numbers$"),
    (from_sides, None, {"c": "0.5"}, "^free_arguments must be a finite angle: "),
    (from_sides, None, {"c": 10**400}, "^free_arguments must be a finite angle: "),
    (from_vertices, None, {"c": "x"}, "^free_arguments must be a finite angle: "),
    (from_vertices, None, {"c": math.nan}, "^free_arguments must be a finite angle: "),
], ids=["string-directions", "huge-direction", "five", "bytes-direction", "string-free",
        "huge-free", "word-free", "nan-free"])
def test_from_sides_and_from_vertices_refuse_directions_and_free_arguments_by_name(
        build, directions, free, message):
    """A triple point's directions pass the constructor's check, and a free
    argument that is read passes _angle_value's; each refusal names its field."""
    # the triple point, or a double point whose side c is zero
    points = (0, 0, 0) if free is None else (1, -1, 0) if build is from_sides else (0, 0, 1)
    with pytest.raises(ValueError, match=message):
        build(*points, directions=directions, free_arguments=free)


@pytest.mark.parametrize("free, message", [
    ({"A": 0.5}, "^free_arguments must be a dict with keys among 'a', 'b', 'c': "),
    ({"c": 0.5, "d": 0.5}, "^free_arguments must be a dict with keys among 'a', 'b', 'c': "),
    ([("c", 0.5)], "^free_arguments must be a dict with keys among 'a', 'b', 'c': "),
    ({"a": "x"}, "^free_arguments must be a finite angle: "),
    ({"a": math.inf, "c": 0.5}, "^free_arguments must be a finite angle: "),
], ids=["capital-key", "unknown-key", "pairs", "word-at-a", "inf-at-a"])
@pytest.mark.parametrize("sides", [(1, -1, 0), (1, 1j, -1 - 1j)], ids=["double", "scalene"])
def test_free_arguments_are_checked_whole_whatever_sides_are_zero(sides, free, message):
    """Every key and value is checked, also those of nonzero sides, which
    are not read."""
    with pytest.raises(ValueError, match=message):
        from_sides(*sides, free_arguments=free)


def test_a_free_argument_of_a_nonzero_side_is_ignored():
    assert (from_sides(1, -1, 0, free_arguments={"a": 0.5, "c": AngleModPi(1.0)})
            == from_sides(1, -1, 0, free_arguments={"c": 1.0}))
    assert from_sides(1, 1j, -1 - 1j, free_arguments={"b": AngleModPi(0.5)}) == from_sides(
        1, 1j, -1 - 1j)


#: direction pairs whose moduli by abs(complex) and by math.hypot (CPython
#: 3.11, x86-64 glibc) lie on opposite sides of DEFAULT_TOL
_HYPOT_SPLIT = [("0x1.d4b70a38fa4f1p-31", "0x1.1f4b33c93ffbdp-31"),
                ("0x1.949ceed877d0ep-31", "0x1.742eb3920352ap-31")]


@pytest.mark.parametrize("x, y", _HYPOT_SPLIT)
def test_a_pair_at_the_tolerance_is_measured_as_a_complex_modulus(x, y):
    x, y = float.fromhex(x), float.fromhex(y)
    for dirs in ((x, y, 1.0, 0.0, -1.0, 0.0), (1.0, 0.0, -1.0, -0.0, y, -x)):
        T = TriangleVariable(0j, (1 + 0j, -1 + 0j, 0j), dirs, (AngleModPi(0.5),) * 3)
        assert classify(T) is _stratum_by_pairs(T)


def _canonical_by_signed_divisor(v):
    """The canonical sextuple as it was first written: one division by m or by -m."""
    m = max(map(abs, v))
    if next((x / m for x in v if x / m), 0.0) < 0.0:
        m = -m
    return tuple(x / m for x in v)


@given(st.lists(_DIRECTION | st.floats(allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6))
def test_canonical_directions_negate_the_quotients_to_the_bit(v):
    """-(x / m) is x / (-m) for every x, zeros and subnormals included."""
    assume(any(v))
    got, want = _canonical6(*v), _canonical_by_signed_divisor(v)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@given(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                                         2.2250738585072014e-308, -1e-300,
                                                         -1e-17]),
                min_size=4, max_size=4))
def test_from_sides_canonicalizes_as_the_signed_divisor_does(parts):
    """from_sides' direction sextuple is, to the bit, the canonical sextuple
    as it was first written, of the sides a, b and c = -a - b."""
    a, b = complex(parts[0], parts[1]), complex(parts[2], parts[3])
    assume(a or b)  # a triple point needs explicit directions
    c = -a - b
    got = from_sides(a, b, c).directions
    want = _canonical_by_signed_divisor((a.real, a.imag, b.real, b.imag, c.real, c.imag))
    assert [x.hex() for x in got] == [x.hex() for x in want]
