import cmath
import math
import random

import pytest

from trishape.angles import DEFAULT_TOL, PI, angle_dist, reduce_mod_pi
from trishape.triangle import (
    DegeneracyType,
    classify,
    from_vertices,
    interior_angles,
    orientation,
)
from trishape.shape import ProjTripleC, class_dist, class_equal, class_of, proj_dist
from trishape.projections import DELTA_B, to_sphere, to_torus
from trishape.families import (
    Model,
    PonceletConfig,
    chord_tangency_residual,
    constant_angle_family,
    constant_ratio_family,
    incircle_outcircle,
    inscribed_family,
    level_curves,
    level_value,
    limit_class,
    poncelet_family,
    separation_test,
)


def test_poncelet_config_validates_chapple():
    PonceletConfig(1.0, 3.0, math.sqrt(3.0))
    with pytest.raises(ValueError):
        PonceletConfig(1.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        PonceletConfig(2.0, 3.0, 0.0)  # r > R/2


@pytest.mark.parametrize("r, R, d, field", [
    (0.5, math.inf, math.inf, "circumradius R"),
    (0.5, 2.0, math.nan, "center separation d"),
    (math.nan, 2.0, 1.0, "inradius r"),
    (-math.inf, 2.0, 1.0, "inradius r"),
])
def test_poncelet_config_rejects_non_finite(r, R, d, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PonceletConfig(r, R, d)


@pytest.mark.parametrize("r, R, d, field", [
    (None, 2.0, 1.0, "inradius r"),
    (10**400, 2.0, 1.0, "inradius r"),
    (0.5, "two", 1.0, "circumradius R"),
    (0.5, 2.0, [1.0], "center separation d"),
])
def test_poncelet_config_names_a_field_that_is_no_float(r, R, d, field):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        PonceletConfig(r, R, d)


def test_poncelet_config_stores_its_lengths_as_floats():
    """Strings and ints are stored converted, so the family can use them;
    a float keeps its bits."""
    for args in (("1", "2", "0"), (3, 8, 4), (True, 2, 0)):
        cfg = PonceletConfig(*args)
        assert [v.__class__ for v in (cfg.r, cfg.R, cfg.d)] == [float] * 3
        assert (cfg.r, cfg.R, cfg.d) == tuple(map(float, args))
        poncelet_family(cfg, 0.7)
    want = PonceletConfig.from_radii(0.3, 1.7)
    cfg = PonceletConfig(want.r, want.R, want.d)
    assert [v.hex() for v in (cfg.r, cfg.R, cfg.d)] == [v.hex() for v in (want.r, want.R, want.d)]


def test_poncelet_config_needs_the_incircle_strictly_inside():
    # r = 1e-200 rounds d = sqrt(R (R - 2r)) to R, so A would sit on the
    # incircle's center
    with pytest.raises(ValueError, match="strictly inside"):
        PonceletConfig.from_radii(1e-200, 1.0)
    with pytest.raises(ValueError, match="strictly inside"):
        PonceletConfig.from_radii(0.5, 1e200)
    cfg = PonceletConfig.from_radii(1e-9, 1.0)
    assert cfg.R - cfg.d > cfg.r


def test_poncelet_config_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="closed configuration"):
        PonceletConfig(0.5, 2.0, 1e200)


@pytest.mark.parametrize("k", [-300, -200, -100, 0, 100, 200, 300])
def test_poncelet_config_closes_at_every_scale(k):
    lam = 10.0 ** k
    cfg = PonceletConfig.from_radii(0.5 * lam, 2.0 * lam)
    assert abs(cfg.d / lam - math.sqrt(2.0)) < 1e-12
    # the bound is 1e-9 R^2, relative at every scale
    with pytest.raises(ValueError, match="closed configuration"):
        PonceletConfig(0.5 * lam, 2.0 * lam, 1.5 * lam)


def test_poncelet_config_closure_is_relative():
    # residual 3e-10 = R^2 / 3: an absolute bound of 1e-9 accepts it
    with pytest.raises(ValueError, match="closed configuration"):
        PonceletConfig(1e-5, 3e-5, 0)
    # r <= R/2 is relative too: an absolute slack of 1e-12 accepts R = 0
    with pytest.raises(ValueError, match="r <= R/2"):
        PonceletConfig(1e-13, 0.0, 0.0)


def test_incircle_outcircle_equilateral():
    w = cmath.exp(2j * PI / 3)
    # side length |1 - w| = sqrt(3); rescale vertices so sides have length 1
    s = abs(1 - w)
    cfg = incircle_outcircle(from_vertices(w / s, w.conjugate() / s, 1 / s))
    assert abs(cfg.r - 1 / (2 * math.sqrt(3))) < 1e-12
    assert abs(cfg.R - 1 / math.sqrt(3)) < 1e-12
    assert abs(cfg.d) < 1e-12
    assert abs(cfg.r / cfg.R - 0.5) < 1e-12


def test_incircle_outcircle_three_four_five():
    cfg = incircle_outcircle(from_vertices(0, 3, 4j))
    assert abs(cfg.r - 1.0) < 1e-12
    assert abs(cfg.R - 2.5) < 1e-12
    assert abs(cfg.d - math.sqrt(5) / 2) < 1e-12


def test_incircle_outcircle_homogeneity():
    rng = random.Random(41)
    for _ in range(50):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        T = from_vertices(*pts)
        if classify(T) is not DegeneracyType.NONDEGENERATE:
            continue
        lam = rng.uniform(0.1, 10)
        c1 = incircle_outcircle(T)
        c2 = incircle_outcircle(from_vertices(*(lam * p for p in pts)))
        assert abs(c2.r - lam * c1.r) < 1e-9 * lam
        assert abs(c2.R - lam * c1.R) < 1e-9 * lam
        assert abs(c2.d - lam * c1.d) < 1e-9 * lam


def test_incircle_outcircle_at_every_scale():
    rng = random.Random(43)
    for _ in range(20):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        T = from_vertices(*pts)
        if classify(T) is not DegeneracyType.NONDEGENERATE:
            continue
        unit = incircle_outcircle(T)
        for k in range(-200, 201, 50):
            lam = 10.0 ** k * cmath.exp(1j * rng.uniform(0, 2 * PI))
            shift = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** k
            cfg = incircle_outcircle(from_vertices(*(lam * p + shift for p in pts)))
            assert abs(cfg.r / cfg.R - unit.r / unit.R) < 1e-9
            assert abs(cfg.d / cfg.R - unit.d / unit.R) < 1e-9
            assert abs(cfg.R / abs(lam) - unit.R) < 1e-9 * unit.R


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7, 1e-8, 1e-9])
@pytest.mark.parametrize("lam", [1e-200, 1.0, 1e200])
def test_incircle_outcircle_thin_triangle(eps, lam):
    # isosceles, base 1 and height eps: base angles about 2 eps, and
    # R - d - r about r^2 / (2R), far below the rounding error of d
    T = from_vertices(0, lam, complex(0.5, eps) * lam)
    assert classify(T) is DegeneracyType.NONDEGENERATE
    cfg = incircle_outcircle(T)
    legs2 = 0.25 + eps * eps
    R = legs2 / (2.0 * eps)
    r = eps / (1.0 + 2.0 * math.sqrt(legs2))
    assert abs(cfg.R / (lam * R) - 1.0) < 1e-12
    assert abs(cfg.r / (lam * r) - 1.0) < 1e-12
    assert abs(cfg.d / (lam * math.sqrt(R * (R - 2.0 * r))) - 1.0) < 1e-12


def test_incircle_outcircle_rejects_degenerate():
    with pytest.raises(ValueError):
        incircle_outcircle(from_vertices(0, 1, 2))


def test_level_value_examples():
    assert abs(level_value((PI / 3, PI / 3, PI / 3)) - 0.5) < 1e-12
    expected = 2 * math.sqrt(2) * math.sin(PI / 8) ** 2
    assert abs(level_value((PI / 2, PI / 4, PI / 4)) - expected) < 1e-12
    assert level_value((0.0, 0.5, PI - 0.5)) == 0.0


def test_level_value_matches_radii_both_orientations():
    rng = random.Random(42)
    for _ in range(200):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        T = from_vertices(*pts)
        if classify(T) is not DegeneracyType.NONDEGENERATE:
            continue
        cfg = incircle_outcircle(T)
        assert abs(level_value(interior_angles(T)) - cfg.r / cfg.R) < 1e-9


def _level_curves_by_bisection(levels, grid):
    """Reference: on each line of fixed alpha, r/R rises on beta in
    (0, (pi - alpha)/2) and falls symmetrically after; bisect each half."""
    rows = []
    for level in levels:
        for i in range(1, grid):
            alpha = PI * i / grid
            mid = (PI - alpha) / 2

            def f(beta):
                return level_value((alpha, beta, PI - alpha - beta)) - level

            if f(mid) < 0.0:
                continue
            for outer in (1e-12, PI - alpha - 1e-12):
                lo, hi = outer, mid
                for _ in range(80):
                    m = (lo + hi) / 2
                    lo, hi = (lo, m) if f(lo) * f(m) <= 0.0 else (m, hi)
                beta = (lo + hi) / 2
                rows.append((level, alpha, beta, PI - alpha - beta))
    return rows


def test_level_curves_match_bisection():
    levels = (0.1, 0.25, 0.4, 0.49)
    got = level_curves(levels, 60)
    want = _level_curves_by_bisection(levels, 60)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for g, w in zip(got, want):
        assert abs(g[2] - w[2]) < 1e-12 and abs(g[3] - w[3]) < 1e-12


@pytest.mark.parametrize("level", [0.0, -0.1, 0.6, math.nan, math.inf])
def test_level_curves_reject_levels_outside_range(level):
    with pytest.raises(ValueError, match="level"):
        level_curves([level], 10)


def test_poncelet_concentric_is_equilateral():
    cfg = PonceletConfig.from_radii(1.0, 2.0)
    assert cfg.d == 0.0
    ref = class_of(poncelet_family(cfg, 0.0))
    for theta in (0.7, 2.0, 4.5):
        T = poncelet_family(cfg, theta)
        angles = interior_angles(T)
        assert all(angle_dist(x, PI / 3) < 1e-9 for x in angles)


def test_poncelet_orbit_invariants():
    rng = random.Random(43)
    for _ in range(5):
        R = rng.uniform(0.5, 2.0)
        cfg = PonceletConfig.from_radii(rng.uniform(0.05, 0.45) * R, R)
        ratios = []
        for k in range(16):
            T = poncelet_family(cfg, 2 * PI * k / 16)
            got = incircle_outcircle(T)
            ratios.append(got.r / got.R)
            assert chord_tangency_residual(cfg, T) < 1e-8
            assert abs(got.r - cfg.r) < 1e-8
            assert abs(got.R - cfg.R) < 1e-8
        assert max(ratios) - min(ratios) < 1e-9


@pytest.mark.parametrize("r, R", [(2e-300, 5e-300), (1e-20, 3e-20), (1e199, 1e200)])
def test_poncelet_tangency_at_extreme_scales(r, R):
    cfg = PonceletConfig.from_radii(r, R)
    for k in range(8):
        T = poncelet_family(cfg, 2 * PI * k / 8)
        assert chord_tangency_residual(cfg, T) < 1e-12 * r


def test_poncelet_tangency_test_is_relative():
    # an incircle 1e-6 r too small misses the third chord by about 1.5e-6 R,
    # which an absolute bound of 1e-8 passes below R of about 1e-2
    for R in (1e-10, 1e-6):
        cfg = PonceletConfig.from_radii(0.3 * R, R)
        # the closure check refuses this config, so build it past the constructor
        shifted = object.__new__(PonceletConfig)
        for name, v in (("r", cfg.r * (1 - 1e-6)), ("R", cfg.R), ("d", cfg.d)):
            object.__setattr__(shifted, name, v)
        with pytest.raises(ValueError, match="tangency"):
            poncelet_family(shifted, 0.5)


def test_inscribed_family_thales():
    fam = inscribed_family()
    for t in (0.5, 1.5, 2.5, 4.0):
        T = fam.eval(t)
        assert angle_dist(interior_angles(T)[0], PI / 2) < 1e-9


def test_inscribed_family_tangent_limit():
    fam = inscribed_family()
    # free argument at the double point equals the circle's tangent at C
    T0 = fam.eval(0.0)
    assert classify(T0) is DegeneracyType.DOUBLE
    assert angle_dist(T0.arguments[1], PI / 2) < 1e-12
    # and it is the limit of the chord argument from either side
    for t in (1e-3, 1e-5):
        b = fam.eval(t).sides[1]
        assert angle_dist(math.atan2(b.imag, b.real), PI / 2) < 2 * t


def test_inscribed_family_orientation_flip_continuity():
    fam = inscribed_family()
    eps = 1e-6
    before = fam.eval(2 * PI - eps)
    after = fam.eval(eps)
    assert orientation(before) is not orientation(after)
    for x, y in zip(interior_angles(before), interior_angles(after)):
        assert angle_dist(x, y) < 1e-3


def test_inscribed_angle_theorem():
    # A = e^{2it} sees the diameter from -1 to 1 at the angle pi/2
    inscribed, right = inscribed_family(), constant_angle_family(PI / 2)
    for k in range(102):
        t = (PI / 2) * k / 102
        c1, c2 = class_of(inscribed.eval(2 * t)), class_of(right.eval(t))
        assert class_dist(c1, c2) < 1e-12


def test_constant_angle_family_keeps_alpha():
    for a0 in (PI / 2, 2 * PI / 3, 0.8):
        fam = constant_angle_family(a0)
        lo, hi = fam.domain
        for frac in (0.1, 0.5, 0.9):
            T = fam.eval(lo + (hi - lo) * frac)
            assert classify(T) is DegeneracyType.NONDEGENERATE
            assert angle_dist(interior_angles(T)[0], a0) < 1e-9


def test_constant_angle_limits():
    f1 = limit_class(constant_angle_family(PI / 2))
    assert proj_dist(f1.sides, ProjTripleC(1, 0, -1)) < 1e-6
    t = to_torus(f1)
    assert angle_dist(t.p, PI / 2) < 1e-6 and angle_dist(t.q, 0.0) < 1e-6
    f2 = limit_class(constant_angle_family(2 * PI / 3))
    t = to_torus(f2)
    assert angle_dist(t.p, 2 * PI / 3) < 1e-6 and angle_dist(t.r, PI / 3) < 1e-6
    # both land on the same sphere point
    assert math.dist(to_sphere(f1).as_tuple(), DELTA_B) < 1e-6
    assert math.dist(to_sphere(f2).as_tuple(), DELTA_B) < 1e-6


def test_constant_ratio_family_keeps_ratio():
    for ratio in (1.0, 2.0, 0.5):
        fam = constant_ratio_family(ratio)
        lo, hi = fam.domain
        for frac in (0.1, 0.5, 0.9):
            T = fam.eval(lo + (hi - lo) * frac)
            assert classify(T) is DegeneracyType.NONDEGENERATE
            _, b, c = T.sides
            assert abs(abs(c) - ratio * abs(b)) < 1e-9


def test_constant_ratio_family_keeps_ratio_0_7_across_its_domain():
    fam = constant_ratio_family(0.7)
    lo, hi = fam.domain
    for k in range(1, 1000):
        _, b, c = fam.eval(lo + (hi - lo) * k / 1000).sides
        assert abs(abs(c) / (0.7 * abs(b)) - 1.0) <= DEFAULT_TOL


@pytest.mark.parametrize("ratio", [5e3, 1e4, 1e6])
def test_constant_ratio_family_keeps_large_ratios_across_its_domain(ratio):
    fam = constant_ratio_family(ratio)
    lo, hi = fam.domain
    for k in range(1, 300):
        _, b, c = fam.eval(lo + (hi - lo) * k / 300).sides
        assert abs(abs(c) / (ratio * abs(b)) - 1.0) <= DEFAULT_TOL


@pytest.mark.parametrize("ratio", [2.0, 3.7, 10.0, 100.0, 5e3, 1e4, 1e6])
def test_constant_ratio_apex_matches_a_50_digit_reference(ratio):
    """A = x + i t with |A| = ratio |A - 1|: x to 4 ulps of the root that
    mpmath computes at 50 digits from the same ratio and t."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    fam = constant_ratio_family(ratio)
    lo, hi = fam.domain
    r2 = mpmath.mpf(ratio) ** 2
    for k in range(1, 300):
        t = lo + (hi - lo) * k / 300
        x = fam.eval(t).vertices[0].real
        want = (-r2 + mpmath.sqrt(r2 - ((1 - r2) * mpmath.mpf(t)) ** 2)) / (1 - r2)
        assert abs(float((x - want) / want)) <= 4 * math.ulp(1.0), t


@pytest.mark.parametrize("ratio", [1e60, 1e9, 1e-30])
def test_constant_ratio_family_refuses_a_triangle_off_its_ratio(ratio):
    # the vertices cannot hold ratios this far from 1
    fam = constant_ratio_family(ratio)
    t = fam.domain[1] / 3.0
    with pytest.raises(ValueError, match=r"side ratio .* is lost to rounding") as exc:
        fam.eval(t)
    assert f"side ratio {ratio} " in str(exc.value) and f"t = {t}:" in str(exc.value)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, 0.0, -1.0, 1e155, 1e-163])
def test_constant_ratio_family_refuses_a_bad_ratio(ratio):
    with pytest.raises(ValueError, match="side ratio") as exc:
        constant_ratio_family(ratio)
    assert str(ratio) in str(exc.value)


def test_constant_ratio_limits():
    c1 = limit_class(constant_ratio_family(1.0))
    c2 = limit_class(constant_ratio_family(2.0))
    assert to_torus(c1).is_origin(1e-6)
    assert to_torus(c2).is_origin(1e-6)
    assert proj_dist(c1.sides, ProjTripleC(2, -1, -1)) < 1e-6
    assert proj_dist(c2.sides, ProjTripleC(3, -1, -2)) < 1e-6


def test_limit_class_constant_family_is_identity():
    from trishape.families import Family

    T = from_vertices(0, 1, 0.3 + 0.8j)
    fam = Family("const", lambda t: T, (0.0, 1.0))
    assert class_equal(limit_class(fam), class_of(T), 1e-9)


@pytest.mark.parametrize("ratio", [1e-6, 1e6])
def test_limit_class_refuses_a_schedule_outside_the_domain(ratio):
    with pytest.raises(ValueError,
                       match=r"t = 0\.001 is outside the domain \(0\.0, 1\.0000000000\d*e-06\)"):
        limit_class(constant_ratio_family(ratio))


def test_separation_signature():
    fa1 = constant_angle_family(PI / 2)
    fa2 = constant_angle_family(2 * PI / 3)
    fr1 = constant_ratio_family(1.0)
    fr2 = constant_ratio_family(2.0)
    assert separation_test(fa1, fa2, Model.SPHERE).verdict == "Merged"
    assert separation_test(fa1, fa2, Model.TORUS).verdict == "Separated"
    assert separation_test(fa1, fa2, Model.DYCK).verdict == "Separated"
    assert separation_test(fr1, fr2, Model.TORUS).verdict == "Merged"
    assert separation_test(fr1, fr2, Model.SPHERE).verdict == "Separated"
    assert separation_test(fr1, fr2, Model.DYCK).verdict == "Separated"


def test_separation_report_serializes():
    rep = separation_test(
        constant_ratio_family(1.0), constant_ratio_family(2.0), Model.SPHERE
    )
    data = rep.to_json()
    assert data["model"] == "Sphere"
    assert data["verdict"] == "Separated"
    assert data["distance"] > 0.05
