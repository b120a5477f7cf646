"""Value semantics of the package's eleven immutable value classes.

Each is a slotted class on ``angles._Value``: equality, hash and repr are
those of the field tuple, as for a frozen dataclass; assignment and ``del``
raise ``AttributeError``; copies and pickles restore the slots without
running ``__init__`` again.
"""
import copy
import json
import math
import pickle

import pytest

from trishape.angles import PI, AngleModPi, angle_dist
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
