"""Value semantics of the package's eleven immutable value classes.

Each is a slotted class on ``angles._Value``: equality, hash and repr are
those of the field tuple, as for a frozen dataclass; assignment and ``del``
raise ``AttributeError``; copies and pickles restore the slots without
running ``__init__`` again.
"""
import copy
import math
import pickle

import pytest

from trishape.angles import PI, AngleModPi
from trishape.triangle import GroupElement, TriangleVariable, from_vertices
from trishape.shape import BlowupCoord, ProjTripleC, ShapeClass, class_of
from trishape.projections import SpherePoint, TorusPoint
from trishape.families import Family, Model, PonceletConfig, SeparationReport

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
