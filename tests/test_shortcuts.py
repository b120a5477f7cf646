"""The per-triangle path's shortcuts give the bits of the paths they skip.

``hopf`` skips its rescaling by 2^-e at e = 0, where it is the identity;
``TorusPoint`` and ``torus_inverse`` test the torus point's floats instead
of calling ``angle_dist``, ``is_origin`` and ``is_zero``.  The tests of
``hopf`` and ``TorusPoint`` run the skipped path as it was written and
compare every bit, the sign of a zero included; that of ``torus_inverse``
asserts each of its decisions where the methods make it.  The wraps of
``AngleModPi`` and the canonical directions of ``from_sides`` are compared
with their former code in ``tests/test_values.py`` and
``tests/test_triangle.py``.
"""
import itertools
import math

import pytest
from hypothesis import assume, given, strategies as st

from trishape.angles import DEFAULT_TOL, PI, AngleModPi, _scaled
from trishape.angles import angle_dist
from trishape.projections import TorusPoint, hopf, torus_inverse
from trishape.shape import ProjTripleC

TINY = 5e-324  # the least subnormal
EDGES = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -1e-300, -1e-17, 1e-17,
         PI, -PI, math.nextafter(PI, 0.0), math.nextafter(PI, 4.0), math.nextafter(-PI, 0.0),
         math.nextafter(-PI, -4.0), 2.0 * PI, math.nextafter(2.0 * PI, 0.0), -2.0 * PI,
         3.0 * PI, 1e300, -1e300]


def _same_bits(x: float, y: float) -> bool:
    return x.hex() == y.hex()


def test_a_tiny_negative_angle_wraps_to_zero_not_pi():
    # -1e-17 + pi rounds to pi, which _wrap_pi's fix-up takes back to 0.0
    assert -1e-17 + PI == PI
    assert _same_bits(AngleModPi(-1e-17).value, 0.0)


def _hopf_by_ldexp(u: complex, v: complex) -> tuple[float, float, float]:
    """hopf's point with both inputs rescaled by _scaled at every e."""
    e = math.frexp(max(abs(u.real), abs(u.imag), abs(v.real), abs(v.imag)))[1]
    u, v = _scaled(u, -e), _scaled(v, -e)
    uu, vv = abs(u) ** 2, abs(v) ** 2
    n = uu + vv
    w = u.conjugate() * v
    return ((uu - vv) / n, -2.0 * w.imag / n, 2.0 * w.real / n)


def _check_hopf(u: complex, v: complex) -> None:
    try:
        want = _hopf_by_ldexp(u, v)
    except ZeroDivisionError:
        with pytest.raises(ValueError):
            hopf(u, v)
        return
    if not abs(math.hypot(*want) - 1.0) <= 1e-12:
        with pytest.raises(ValueError, match="not a unit vector"):
            hopf(u, v)
        return
    got = hopf(u, v).as_tuple()
    assert all(map(_same_bits, got, want)), (u, v, got, want)


_part = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)


@given(_part, _part, _part, _part)
def test_hopf_gives_the_rescaled_bits_for_any_input(a, b, c, d):
    _check_hopf(complex(a, b), complex(c, d))


@pytest.mark.parametrize("e", [-1073, -1022, -1, 0, 1, 1024])
@given(st.floats(0.5, 1.0, exclude_max=True),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3),
       st.integers(0, 15))
def test_hopf_gives_the_rescaled_bits_on_both_sides_of_e_0(e, lead, fracs, signs):
    """The largest part has exponent e: hopf rescales unless e = 0, where
    every part is below 1 and the largest at least 1/2."""
    parts = [math.ldexp(f, e) for f in [lead, *fracs]]
    parts = [-x if signs >> i & 1 else x for i, x in enumerate(parts)]
    assume(math.frexp(max(map(abs, parts)))[1] == e)  # a subnormal lead may round up
    _check_hopf(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    _check_hopf(complex(parts[2], parts[3]), complex(parts[0], parts[1]))


def _hopf_unscaled(u: complex, v: complex) -> tuple[float, float, float]:
    uu, vv = abs(u) ** 2, abs(v) ** 2
    n = uu + vv
    w = u.conjugate() * v
    return ((uu - vv) / n, -2.0 * w.imag / n, 2.0 * w.real / n)


@pytest.mark.parametrize("re, v", [("0x1.6323cbb79416ep+0", 0.5j), ("0x1.bd00f9c13d1f2p+0", 0.25j),
                                   ("0x1.3963e3f64a9ccp+0", 0.75j)])
def test_hopf_must_rescale_at_e_1(re, v):
    """x ** 2 is not exact under a power of two ((2x) ** 2 and 4 * x ** 2
    differ in the last bit for about 2 in 10,000 x), so hopf without its
    rescaling at e = 1 would move these points by an ulp."""
    u = complex(float.fromhex(re), 0.0)
    assert math.frexp(u.real)[1] == 1
    _check_hopf(u, v)
    assert hopf(u, v).as_tuple() != _hopf_unscaled(u, v)


def _near(x: float) -> list[float]:
    return [math.nextafter(x, -1.0), x, math.nextafter(x, 4.0)]


#: angles at and beside both tolerances, from either end of [0, pi)
TORUS_EDGES = sorted({v for x in (DEFAULT_TOL, 1e-12) for v in _near(x) + _near(PI - x)}
                     | {0.0, 0.5, 2.0})


def test_torus_inverse_decides_the_origin_and_a_zero_slot_as_the_methods_do():
    """torus_inverse refuses a point exactly where is_origin() holds, gives
    [0 : 1 : -1] rotated to the first slot exactly where is_zero(1e-12)
    holds, and sides with no zero elsewhere; its angles are t's own."""
    zero_slot = [ProjTripleC(0j, 1 + 0j, -1 + 0j), ProjTripleC(1 + 0j, 0j, -1 + 0j),
                 ProjTripleC(1 + 0j, -1 + 0j, 0j)]
    decided = set()
    for p, q in itertools.product(TORUS_EDGES, repeat=2):
        t = TorusPoint(p, q, -(p + q))
        if t.is_origin():
            with pytest.raises(ValueError, match="torus origin"):
                torus_inverse(t)
            decided.add("origin")
            continue
        c = torus_inverse(t)
        assert all(x is y for x, y in zip(c.angles, t.as_tuple()))
        zero = [x.is_zero(1e-12) for x in t.as_tuple()]
        k = zero.index(True) if any(zero) else None
        if k is None:
            assert min(c.sides.moduli()) > 0.0
        else:
            # repr shows every float by its shortest round trip, the sign of a zero too
            assert repr(c.sides) == repr(zero_slot[k])
        decided.add(k)
    assert decided == {"origin", 0, 1, 2, None}


@pytest.mark.parametrize("d", TORUS_EDGES + [PI - 1e-3, 1e-3])
def test_a_torus_point_tests_its_sum_as_angle_dist_does(d):
    for p, q, r in ((0.0, 0.0, d), (0.0, d, 0.0), (AngleModPi(d), AngleModPi(0.0), 0.0)):
        if angle_dist(float(p) + float(q) + float(r), 0.0) > DEFAULT_TOL:
            with pytest.raises(ValueError, match="does not sum to 0 mod pi"):
                TorusPoint(p, q, r)
        else:
            assert TorusPoint(p, q, r).as_tuple() == tuple(map(AngleModPi, (p, q, r)))
