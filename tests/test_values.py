"""Value semantics of the package's eleven immutable value classes.

Each is a slotted class on ``angles._Value``: equality, hash and repr are
those of the field tuple, as for a frozen dataclass; assignment and ``del``
raise ``AttributeError``; copies and pickles restore the slots without
running ``__init__`` again.
"""
import cmath
import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from trishape.angles import CLOSURE_BOUND, PI, AngleModPi, _angle, _number, _scaled, _wrap_pi
from trishape.angles import angle_dist
from trishape.triangle import GroupElement, TriangleVariable, classify, from_sides, from_vertices
from trishape.shape import BlowupCoord, ProjTripleC, ShapeClass, class_of, phi, psi
from trishape.shape import class_of_vertices
from trishape.projections import SpherePoint, TorusPoint, hopf, to_sphere, to_torus, torus_inverse
from trishape.projections import torus_fiber_limit
from trishape.families import Family, Model, PonceletConfig, SeparationReport
from trishape.families import constant_angle_family, constant_ratio_family, level_value

_P = ProjTripleC(1, -1, 0)
_ANGLES = (AngleModPi(0.5), AngleModPi(1.0), AngleModPi(PI - 1.5))

#: (class, field names, positional arguments, other arguments, pinned repr)
CASES = [
    (AngleModPi, ("value",), (-0.0,), (1.0,), "AngleModPi(value=-0.0)"),
    (TriangleVariable, ("basepoint", "sides", "directions", "arguments"),
     (1j, (1 + 0j, -1 + 0j, 0j), (1.0, 0.0, -1.0, -0.0, 0.0, 0.0), _ANGLES),
     (0j, (1 + 0j, -1 + 0j, 0j), (1.0, 0.0, -1.0, -0.0, 0.0, 0.0), _ANGLES),
     "TriangleVariable(basepoint=1j, sides=((1+0j), (-1+0j), 0j), "
     "directions=(1.0, 0.0, -1.0, -0.0, 0.0, 0.0), arguments=(AngleModPi(value=0.5), "
     "AngleModPi(value=1.0), AngleModPi(value=1.6415926535897931)))"),
    (GroupElement, ("perm", "flip"), ((1, 0, 2), True), ((1, 0, 2), False),
     "GroupElement(perm=(1, 0, 2), flip=True)"),
    (ProjTripleC, ("a", "b", "c"), (1, -1, 0), (1, 0, -1),
     "ProjTripleC(a=(1+0j), b=(-1+0j), c=0j)"),
    (ShapeClass, ("sides", "angles"), (_P, _ANGLES), (_P, _ANGLES[::-1]),
     "ShapeClass(sides=ProjTripleC(a=(1+0j), b=(-1+0j), c=0j), "
     "angles=(AngleModPi(value=0.5), AngleModPi(value=1.0), "
     "AngleModPi(value=1.6415926535897931)))"),
    (BlowupCoord, ("sides", "xi"), (_P, _ANGLES), (_P, _ANGLES[1:] + _ANGLES[:1]),
     "BlowupCoord(sides=ProjTripleC(a=(1+0j), b=(-1+0j), c=0j), "
     "xi=(AngleModPi(value=0.5), AngleModPi(value=1.0), "
     "AngleModPi(value=1.6415926535897931)))"),
    (SpherePoint, ("x", "y", "z"), (0.6, -0.0, 0.8), (0.8, 0.0, 0.6),
     "SpherePoint(x=0.6, y=-0.0, z=0.8)"),
    (TorusPoint, ("p", "q", "r"), _ANGLES, _ANGLES[::-1],
     "TorusPoint(p=AngleModPi(value=0.5), q=AngleModPi(value=1.0), "
     "r=AngleModPi(value=1.6415926535897931))"),
    (PonceletConfig, ("r", "R", "d"), (1.0, 3.0, math.sqrt(3.0)), (2.0, 6.0, math.sqrt(12.0)),
     "PonceletConfig(r=1.0, R=3.0, d=1.7320508075688772)"),
    (Family, ("label", "eval", "domain"), ("line", abs, (0.0, 1.0)), ("line", abs, (0.0, 2.0)),
     "Family(label='line', eval=<built-in function abs>, domain=(0.0, 1.0))"),
    (SeparationReport, ("model", "limit1", "limit2", "distance", "verdict"),
     (Model.SPHERE, (1.0, 0.0), (0.5, 0.5), 0.5, "Separated"),
     (Model.TORUS, (1.0, 0.0), (0.5, 0.5), 0.5, "Separated"),
     "SeparationReport(model=<Model.SPHERE: 'Sphere'>, limit1=(1.0, 0.0), "
     "limit2=(0.5, 0.5), distance=0.5, verdict='Separated')"),
]
_IDS = [case[0].__name__ for case in CASES]
_CLASSES = tuple(case[0] for case in CASES)
_NAMES = {case[0]: case[1] for case in CASES}


def _field_tuple(obj, names):
    return tuple(getattr(obj, name) for name in names)


def _bits(x):
    """float.hex of every float in a (nested) value, so the sign of a zero
    and the last bit count; other leaves as they are."""
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, complex):
        return (float.hex(x.real), float.hex(x.imag))
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, _CLASSES):
        return (type(x).__name__, tuple(_bits(getattr(x, name)) for name in _NAMES[type(x)]))
    return x


def test_the_eleven_classes_are_all_here():
    assert len(CASES) == 11
    assert all(cls.__slots__ == names for cls, names, *_ in CASES)


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=_IDS)
def test_repr_is_the_field_list(cls, names, args, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls, names, args, other, text):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(args[0], **dict(zip(names[1:], args[1:])))
    assert _bits(by_keyword) == _bits(by_position) == _bits(mixed)
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args[:-1])


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=_IDS)
def test_equality_and_hash_are_those_of_the_field_tuple(cls, names, args, other, text):
    x, y, z = cls(*args), cls(*args), cls(*other)
    fields = _field_tuple(x, names)
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(fields)
    assert x != z and not x == z
    assert hash(z) == hash(_field_tuple(z, names))
    # another class, or the bare field tuple, is never equal
    assert x != fields and x.__eq__(fields) is NotImplemented
    assert all(x != case[0](*case[2]) for case in CASES if case[0] is not cls)
    assert len({x, y, z}) == 2


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=_IDS)
def test_fields_refuse_assignment_and_del(cls, names, args, other, text):
    x = cls(*args)
    before = _bits(x)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _bits(x) == before
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=_IDS)
def test_copies_and_pickles_keep_every_bit(cls, names, args, other, text):
    x = cls(*args)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is cls and y is not x
        assert y == x and _bits(y) == _bits(x)


# ---------------------------------------------------------------------------
# the counting hooks: a tracer wraps AngleModPi.__post_init__ and
# ProjTripleC.__post_init__ on the class to count constructions


@pytest.fixture
def built(monkeypatch):
    """Objects seen by each counting hook, in order, by class name."""
    seen = {"AngleModPi": [], "ProjTripleC": []}
    for cls in (AngleModPi, ProjTripleC):
        def counting(obj, _orig=cls.__post_init__, _seen=seen[cls.__name__]):
            _seen.append(obj)
            _orig(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return seen


def _counts(seen):
    # one hook call per object: no object passes its hook twice
    assert all(len({id(obj) for obj in objs}) == len(objs) for objs in seen.values())
    return len(seen["AngleModPi"]), len(seen["ProjTripleC"])


def test_each_angle_passes_its_hook_once(built):
    a = AngleModPi(1.0)
    assert built["AngleModPi"] == [a] and built["AngleModPi"][0] is a
    assert _counts(built) == (1, 0)
    assert AngleModPi(value=PI + 1.0).value == 1.0
    assert _counts(built) == (2, 0)


def test_each_triple_passes_its_hook_once(built):
    t = ProjTripleC(1, -1, 0)
    assert built["ProjTripleC"][0] is t and t.as_tuple() == (1 + 0j, -1 + 0j, 0j)
    assert _counts(built) == (0, 1)


def test_class_of_a_triangle_passes_the_hooks_a_known_number_of_times(built):
    """from_vertices wraps three side arguments; class_of builds one triple
    and three interior angles.  The traced benchmark counts these."""
    T = from_vertices(0, 1, 1j)
    assert _counts(built) == (3, 0)
    c = class_of(T)
    assert _counts(built) == (6, 1)
    assert built["ProjTripleC"] == [c.sides]
    assert all(any(x is obj for obj in built["AngleModPi"]) for x in c.angles)
    copy.deepcopy(c)
    pickle.loads(pickle.dumps(c))
    assert _counts(built) == (6, 1)


#: (vertices, free arguments, stratum, (angles, triples) that torus_inverse
#: builds, or None where it refuses the torus origin)
CHAIN = [
    ((0, 1, 1j), None, "Nondegenerate", (3, 1)),
    ((0, 1, 2), None, "Simple", None),
    ((0, 1, 1), {"a": 1.0}, "Double", (0, 1)),
]


@pytest.mark.parametrize("vertices, free, stratum, inverse", CHAIN,
                         ids=[case[2] for case in CHAIN])
def test_the_chain_past_class_of_passes_the_hooks_a_known_number_of_times(
        built, vertices, free, stratum, inverse):
    """phi and psi wrap three angles each; to_sphere builds none; to_torus
    keeps the class's own angles.  torus_inverse builds a triple and three
    interior angles, or at a zero slot reuses the torus point's angles."""
    T = from_vertices(*vertices, free_arguments=free)
    assert classify(T).value == stratum
    c = class_of(T)
    assert _counts(built) == (6, 1)
    c_back = psi(phi(c))
    assert _counts(built) == (12, 1) and c_back.sides is c.sides
    to_sphere(c)
    assert _counts(built) == (12, 1)
    t = to_torus(c)
    assert all(x is y for x, y in zip(t.as_tuple(), c.angles))
    assert _counts(built) == (12, 1)
    if inverse is None:
        with pytest.raises(ValueError, match="torus origin"):
            torus_inverse(t)
        assert _counts(built) == (12, 1)
    else:
        back = torus_inverse(t)
        assert _counts(built) == (12 + inverse[0], 1 + inverse[1])
        assert built["ProjTripleC"][-1] is back.sides


_HUGE = "9" * 401  # a valid JSON integer that no float holds
_BIG = 10**400

#: (build, field) of each entry point that converts a number itself: its
#: message is only that the field is out of the float range, without the
#: number, whose repr alone raises past 4300 digits
_OUT_OF_RANGE = [
    (lambda: from_sides(_BIG, -_BIG, 0), "side a"),
    (lambda: from_sides(0, _BIG, -_BIG), "side b"),
    (lambda: from_sides(1, -1, 0, basepoint=_BIG), "basepoint"),
    (lambda: from_vertices(_BIG, 0, 1), "vertex A"),
    (lambda: from_vertices(0, 1, -_BIG), "vertex C"),
    (lambda: class_of_vertices(0, _BIG, 1), "vertex B"),
    (lambda: ProjTripleC(_BIG, -_BIG, 0), "side a"),
    (lambda: ProjTripleC(0, -_BIG, _BIG), "side b"),
    (lambda: angle_dist(_BIG, 0), "angle a"),
    (lambda: angle_dist(0.5, -_BIG), "angle b"),
    (lambda: hopf(_BIG, 1), "u"),
    (lambda: hopf(1j, _BIG), "v"),
    (lambda: torus_fiber_limit((_BIG, 0, 0)), "direction"),
    (lambda: level_value((0.5, _BIG, 0)), "angle"),
    (lambda: constant_angle_family(_BIG), "constant angle"),
    (lambda: constant_ratio_family(_BIG), "side ratio"),
    (lambda: TorusPoint(10**5000, 0, 0), "p must be a finite angle: p"),
    (lambda: TorusPoint(0.5, -10**5000, 0), "q must be a finite angle: q"),
]


@pytest.mark.parametrize("build, field", [
    (lambda: AngleModPi(10**400), "angle value"),
    (lambda: AngleModPi(-10**400), "angle value"),
    (lambda: TorusPoint(10**400, 0, 0), "p must be a finite angle"),
    (lambda: TorusPoint(0.0, 0.0, -10**400), "r must be a finite angle"),
    (lambda: ShapeClass.from_json(json.loads(
        '{"sides": [[1, 0], [-1, 0], [0, 0]], "angles": [' + _HUGE + ", 0, 0]}")), "'angles'"),
    (lambda: ShapeClass.from_json(json.loads(
        '{"sides": [[1, 0], [-1, ' + _HUGE + '], [0, 0]], "angles": [0, 0, 0]}')), "'sides'"),
] + [(build, f"^{field} is out of the float range$") for build, field in _OUT_OF_RANGE])
def test_an_int_too_large_for_a_float_is_a_value_error_that_names_the_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


# ---------------------------------------------------------------------------
# the constructors as they were before they did all the work themselves: the
# references the one-pass AngleModPi, _angle and ProjTripleC keep every bit of


def _former_wrap_pi(x):
    """The former ``angles._wrap_pi``."""
    if 0.0 <= x < PI:
        return x
    if not math.isfinite(x):
        raise ValueError(f"non-finite angle value: {x!r}")
    r = math.fmod(x, PI)
    if r < 0.0:
        r += PI
    if r >= PI:
        r -= PI
    return r


def _former_angle(value):
    """The value the former ``AngleModPi.__init__`` stored."""
    if value.__class__ is not float:
        value = _former_wrap_pi(_number(value, "angle value"))
    elif not 0.0 <= value < PI:
        if -PI < value < 0.0:
            value += PI
            if value >= PI:
                value -= PI
        else:
            value = value - PI if PI <= value < 2.0 * PI else _former_wrap_pi(value)
    return value


def _former_triple(a, b, c):
    """The slots the former ``ProjTripleC.__post_init__`` set."""
    try:
        a, b, c = complex(a), complex(b), complex(c)
        ma, mb, mc = abs(a), abs(b), abs(c)
    except OverflowError:
        a, b, c = (_number(v, f"side {s}", complex) for s, v in zip("abc", (a, b, c)))
        slot = next(name for name, v in zip("abc", (a, b, c))
                    if math.hypot(v.real, v.imag) == math.inf)
        raise ValueError(f"side {slot} is too long: its modulus overflows") from None
    if not math.isfinite(ma + mb + mc):
        for slot, v in zip("abc", (a, b, c)):
            if not cmath.isfinite(v):
                raise ValueError(f"side {slot} must be finite: {v}")
    scale = max(ma, mb, mc)
    if scale == 0.0:
        raise ValueError("projective triple cannot be all zero")
    if abs(a + b + c) > CLOSURE_BOUND * scale:
        raise ValueError(f"triple does not close: a+b+c = {0 + a + b + c}")
    if not 2.0 ** -1000 < scale < 2.0 ** 1000:
        k = -math.frexp(scale)[1]
        a, b, c = _scaled(a, k), _scaled(b, k), _scaled(c, k)
        ma, mb, mc = abs(a), abs(b), abs(c)
    if not (scale <= 1.0 + 2.0 ** -50 and (a == 1 or b == 1 or c == 1)):
        k = 0 if ma >= mb and ma >= mc else 1 if mb >= mc else 2
        p = (a, b, c)[k]
        q = [a / p, b / p, c / p]
        q[k] = 1 + 0j
        a, b, c = q
    return a, b, c


def _outcome(build):
    """_bits of what build returns, or the message of the ValueError it raises."""
    try:
        return _bits(build())
    except ValueError as exc:
        return ("ValueError", str(exc))


_TINY = 5e-324
ANGLE_EDGES = [-PI, -_TINY, _TINY, -0.0, 0.0, PI, math.nextafter(PI, 0.0),
               math.nextafter(-PI, 0.0), math.nextafter(2.0 * PI, 0.0), 2.0 * PI,
               math.nextafter(2.0 * PI, 7.0), -2.0 * PI, 3.0 * PI, -1e-17, 1e300, -1e300,
               math.nan, math.inf, -math.inf, 7, -3, True, 10**400, Fraction(-22, 7)]


@given(st.floats() | st.floats(-2.0 * PI, 3.0 * PI) | st.integers() | st.sampled_from(ANGLE_EDGES))
def test_an_angle_keeps_the_bits_and_refusals_of_the_former_constructor(x):
    want = _outcome(lambda: _former_angle(x))
    assert _outcome(lambda: AngleModPi(x).value) == want
    if type(x) is float:
        assert _outcome(lambda: _angle(x).value) == want
        assert _outcome(lambda: _wrap_pi(x)) == _outcome(lambda: _former_wrap_pi(x))
    if want[0] != "ValueError":
        assert _bits((-AngleModPi(x)).value) == _bits(_former_angle(-_former_angle(x)))


#: floats at the ends of the wrap's branches: zeros, subnormals, +-pi and
#: +-2 pi with their neighbours, and far out
WRAP_EDGES = [0.0, -0.0, _TINY, -_TINY, 2.2250738585072014e-308, -1e-300, -1e-17, 1e-17,
              PI, -PI, math.nextafter(PI, 0.0), math.nextafter(PI, 4.0),
              math.nextafter(-PI, 0.0), math.nextafter(-PI, -4.0), 2.0 * PI,
              math.nextafter(2.0 * PI, 0.0), -2.0 * PI, 3.0 * PI, 1e300, -1e300]


@pytest.mark.parametrize("x", WRAP_EDGES)
def test_an_edge_float_keeps_the_bits_of_the_former_wrap(x):
    want = _former_angle(x)
    for value in (AngleModPi(x).value, _angle(x).value):
        assert type(value) is float and value.hex() == want.hex()
    assert _wrap_pi(x).hex() == _former_wrap_pi(x).hex()


class _Float(float):
    pass


@pytest.mark.parametrize("x", [0, 3, -4, 10**20, True, False, Fraction(1, 3),
                               Fraction(-22, 7), _Float(0.5), _Float(-0.5), _Float(4.0),
                               _Float(-0.0)])
def test_an_angle_stores_the_former_plain_float_for_any_real(x):
    value = AngleModPi(x).value
    assert type(value) is float and value.hex() == _former_angle(x).hex()


_PART = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.75, _TINY]) | st.floats(-4.0, 4.0)
#: exponents of the scale: the unit, both sides of 2^+-1000, near the ends of the range
_SCALES = [0, 0, 1, -1, 999, 1000, 1001, -999, -1000, -1001, 1020, 1023, -1040, -1070]


@given(_PART, _PART, _PART, _PART, st.sampled_from(_SCALES), st.permutations(range(3)),
       st.sampled_from(["closed", "tie", "mirror", "open", "nan", "inf"]))
@example(1.0, 0.0, -1.0, 0.0, 0, [0, 1, 2], "closed")  # (1, -1, 0): kept as it is
@example(1.0, -0.0, -0.5, 0.5, 0, [2, 0, 1], "closed")  # 1-0j and no larger side: kept
@example(0.5, 0.5, 0.0, 0.0, -1000, [1, 0, 2], "tie")  # two largest moduli, the first wins
@example(0.75, 0.25, 0.0, 0.0, 1001, [0, 2, 1], "mirror")
def test_a_triple_keeps_the_bits_and_refusals_of_the_former_constructor(
        p0, p1, p2, p3, k, perm, kind):
    """Every slot's float.hex, or the refusal's message, is the former one.
    "tie" makes b = -a (two equal largest moduli) and "mirror" b = -conj(a)
    (a tie when |Im a| is small); "open" does not close; "nan" and "inf"
    put a non-finite part into one slot."""
    a = complex(p0, p1)
    b = {"tie": -a, "mirror": complex(-p0, p1)}.get(kind, complex(p2, p3))
    c = -a - b + (0.5 if kind == "open" else 0.0)
    # by a multiplication, which gives inf past the range where ldexp raises
    sides = [complex(v.real * 2.0 ** k, v.imag * 2.0 ** k) for v in (a, b, c)]
    if kind in ("nan", "inf"):
        sides[perm[0]] = complex(math.nan if kind == "nan" else -math.inf, p2)
    sides = [sides[i] for i in perm]
    try:
        want = _outcome(lambda: _former_triple(*sides))
    except OverflowError:
        want = ("OverflowError",)  # |a + b + c| overflowed, uncaught
    got = _outcome(lambda: ProjTripleC(*sides).as_tuple())
    if want[0] == "OverflowError" or "too long" in want[-1]:
        # the former refusals of a finite modulus or sum that overflows: now
        # taken in units of 2^3 (see tests/test_shape.py), so only a triple
        # that does not close or has a non-finite side is refused
        assert got[0] != "ValueError" or "does not close" in got[1] or "finite" in got[1], got
        return
    assert got == want, (sides, got, want)
