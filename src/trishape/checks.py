"""Self-contained verification suite for the package's headline guarantees.

Every check is a pure function returning (passed, detail).  It measures
every figure it compares against a bound before it returns, so ``detail``
gives all of them, on a failure too.  The test suite and the command-line
``selftest`` both run this registry, so there is a single source of truth
for what the package promises numerically.
"""
from __future__ import annotations

import cmath
import math
import random
from typing import Callable

from .angles import PI, TANGENCY_BOUND, angle_dist, reduce_mod_pi
from .triangle import GroupElement, Orientation, TriangleVariable, act, from_sides, from_vertices
from .triangle import interior_angles, orientation, vertex_angle
from .shape import ProjTripleC, ShapeClass, act_class, blowup_dist, class_dist, class_of, orbit
from .shape import phi, proj_dist, psi
from .projections import DELTA_A, DELTA_B, DELTA_C, TorusPoint, to_sphere
from .projections import torus_fiber_limit, torus_inverse
from .families import Family, Model, PonceletConfig, chord_tangency_residual, constant_angle_family
from .families import constant_ratio_family, incircle_outcircle, inscribed_family, level_value
from .families import limit_class, poncelet_family, separation_test

SEED = 20260824


# ---------------------------------------------------------------------------
# samplers


def random_nondegenerate(rng: random.Random) -> TriangleVariable:
    """Vertices with parts drawn by rng.uniform(-1, 1), redrawn until the
    triangle is neither small nor thin."""
    r = rng.random
    while True:
        # rng.uniform(-1, 1) is -1 + 2 * r(): 2.0 * r() - 1.0 to the bit
        T = from_vertices(complex(2.0 * r() - 1.0, 2.0 * r() - 1.0),
                          complex(2.0 * r() - 1.0, 2.0 * r() - 1.0),
                          complex(2.0 * r() - 1.0, 2.0 * r() - 1.0))
        a, b, c = T.sides
        scale = max(abs(a), abs(b), abs(c))
        if scale > 0.1 and abs((a.conjugate() * b).imag) > 0.05 * scale**2:
            return T


def _double_class(slot: int, z: complex, free: float) -> ShapeClass:
    """The class over double-point divisor ``slot``: that side zero with
    argument ``free``, the next z and the last -z."""
    sides = [z, z, z]
    sides[slot] = 0j
    sides[(slot + 2) % 3] = -z
    return class_of(from_sides(*sides, free_arguments={"abc"[slot]: reduce_mod_pi(free)}))


def random_double_class(rng: random.Random) -> ShapeClass:
    """A class over one of the three double-point divisors."""
    slot = rng.randrange(3)
    z = cmath.exp(1j * rng.uniform(0, 2 * PI)) * rng.uniform(0.5, 2.0)
    return _double_class(slot, z, rng.uniform(0, PI))


def random_simple(rng: random.Random) -> TriangleVariable:
    """Collinear distinct vertices on a random line."""
    direction = cmath.exp(1j * rng.uniform(0, 2 * PI))
    base = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    u, v = rng.uniform(0.2, 1.0), rng.uniform(-1.0, -0.2)
    return from_vertices(base + u * direction, base + v * direction, base)


def _placed(slot: int, special: complex, P: complex, Q: complex) -> TriangleVariable:
    """The triangle with ``special`` at vertex ``slot`` and P, Q at the other
    two in order, so the side opposite ``special`` is side ``slot``."""
    vertices = [P, Q]
    vertices.insert(slot, special)
    return from_vertices(*vertices)


def random_isosceles(rng: random.Random) -> tuple[TriangleVariable, int]:
    """Triangle with the two sides at one odd slot equal; returns (T, slot)."""
    slot = rng.randrange(3)
    base = rng.uniform(0.5, 2.0)
    height = rng.uniform(0.1, 2.0) * rng.choice((1.0, -1.0))
    spin = cmath.exp(1j * rng.uniform(0, 2 * PI))
    shift = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    # apex over the midpoint of the odd side, from shift to shift + base * spin
    apex = shift + (base / 2.0 + 1j * height) * spin
    return _placed(slot, apex, shift, shift + base * spin), slot


def random_right(rng: random.Random) -> tuple[TriangleVariable, int]:
    """Triangle with a right angle at one vertex; returns (T, hypotenuse slot)."""
    slot = rng.randrange(3)
    spin = cmath.exp(1j * rng.uniform(0, 2 * PI))
    shift = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    leg1 = rng.uniform(0.3, 2.0)
    leg2 = rng.uniform(0.3, 2.0) * rng.choice((1.0, -1.0))
    # right angle at the corner ``shift``; the hypotenuse is the side opposite it
    return _placed(slot, shift, shift + leg1 * spin, shift + 1j * leg2 * spin), slot


def random_obtuse(rng: random.Random) -> tuple[TriangleVariable, int]:
    """Triangle with an obtuse angle at one vertex; returns (T, opposite slot)."""
    while True:
        T = random_nondegenerate(rng)
        angles = [vertex_angle(T, i) for i in range(3)]
        lifted = [float(x) for x in angles]
        if abs(sum(lifted) - PI) > 1e-6:
            lifted = [PI - v for v in lifted]
        for slot, v in enumerate(lifted):
            if v > PI / 2 + 0.05:
                return T, slot


def random_torus_point(rng: random.Random) -> TorusPoint:
    while True:
        p = rng.uniform(0.01, PI - 0.01)
        q = rng.uniform(0.01, PI - 0.01)
        t = TorusPoint(reduce_mod_pi(p), reduce_mod_pi(q), reduce_mod_pi(-p - q))
        if not t.is_origin(1e-3):
            return t


def random_torus_point_near_a_circle(rng: random.Random) -> TorusPoint:
    """A torus point 1e-11 to 1e-3 (log-uniform) from one of the three
    zero-angle circles, on either side of it, its next angle drawn as
    random_torus_point draws p."""
    d = 10.0 ** rng.uniform(-11.0, -3.0)
    near = d if rng.random() < 0.5 else -d
    x = rng.uniform(0.01, PI - 0.01)
    k = rng.randrange(3)
    angles = (near, x, -x - near)
    return TorusPoint(*(reduce_mod_pi(angles[(i - k) % 3]) for i in range(3)))


def _side_angle_error(c: ShapeClass, t: TorusPoint) -> float:
    """The torus distance from t of the interior angles of the class's
    sides, taken from their phases alone."""
    u, v, w = (cmath.phase(z) for z in c.sides.as_tuple())
    return math.hypot(angle_dist(v - w, t.p), angle_dist(w - u, t.q), angle_dist(u - v, t.r))


# ---------------------------------------------------------------------------
# checks


def check_bijection() -> tuple[bool, str]:
    """Round trips between classes and blowup coordinates are the identity."""
    rng = random.Random(SEED + 1)
    worst = 0.0
    classes = [class_of(random_nondegenerate(rng)) for _ in range(1000)]
    classes += [random_double_class(rng) for _ in range(100)]
    for c in classes:
        b = phi(c)
        worst = max(worst, class_dist(psi(b), c))
        worst = max(worst, blowup_dist(phi(psi(b)), b))
    return worst < 1e-9, f"max round-trip error {worst:.3e} over {len(classes)} classes"


def check_sphere_landmarks() -> tuple[bool, str]:
    """Double-point fibers collapse to the three landmarks; equilaterals map
    to the poles of the orientation axis."""
    rng = random.Random(SEED + 2)
    worst = 0.0
    landmarks = (DELTA_A, DELTA_B, DELTA_C)
    for _ in range(300):
        slot = rng.randrange(3)
        c = _double_class(slot, cmath.exp(1j * rng.uniform(0, 2 * PI)), rng.uniform(0, PI))
        worst = max(worst, math.dist(to_sphere(c).as_tuple(), landmarks[slot]))
    w = cmath.exp(2j * PI / 3)
    T_plus = from_vertices(w, w.conjugate(), 1.0)
    positive = orientation(T_plus) is Orientation.POSITIVE
    plus = class_of(T_plus)
    minus = class_of(from_vertices(w.conjugate(), w, 1.0))
    worst = max(worst, math.dist(to_sphere(plus).as_tuple(), (0.0, -1.0, 0.0)))
    worst = max(worst, math.dist(to_sphere(minus).as_tuple(), (0.0, 1.0, 0.0)))
    return positive and worst < 1e-12, (
        f"max landmark error {worst:.3e}; equilateral (w, w*, 1) positive {positive}"
    )


def check_hemispheres() -> tuple[bool, str]:
    """Orientation picks the hemisphere; degenerate classes sit on Y = 0."""
    rng = random.Random(SEED + 3)
    mismatches = 0
    for _ in range(1000):
        T = random_nondegenerate(rng)
        y = to_sphere(class_of(T)).y
        mismatches += (orientation(T) is Orientation.POSITIVE) != (y < 0.0)
    worst = 0.0
    for _ in range(200):
        worst = max(worst, abs(to_sphere(class_of(random_simple(rng))).y))
        worst = max(worst, abs(to_sphere(random_double_class(rng)).y))
    return mismatches == 0 and worst < 1e-9, (
        f"1000 oriented classes, {mismatches} sign mismatches; degenerate |Y| max {worst:.3e}"
    )


def check_sphere_loci() -> tuple[bool, str]:
    """Isosceles and right classes land on their circles; obtuse classes in
    their caps."""
    rng = random.Random(SEED + 4)
    s3 = math.sqrt(3.0)
    worst = 0.0
    for _ in range(500):
        T, slot = random_isosceles(rng)
        x, _, z = to_sphere(class_of(T)).as_tuple()
        worst = max(worst, abs((x + s3 * z, x - s3 * z, x)[slot]))
    for _ in range(500):
        T, slot = random_right(rng)
        x, _, z = to_sphere(class_of(T)).as_tuple()
        worst = max(worst, abs((-s3 * x + z + 1.0, s3 * x + z + 1.0, z - 0.5)[slot]))
    held = 0
    for _ in range(500):
        T, slot = random_obtuse(rng)
        x, _, z = to_sphere(class_of(T)).as_tuple()
        held += (-s3 * x + z < -1.0, s3 * x + z < -1.0, z > 0.5)[slot]
    return worst < 1e-9 and held == 500, (
        f"1000 circle residuals, max {worst:.3e}; {held} of 500 obtuse caps hold"
    )


def check_torus_inverse() -> tuple[bool, str]:
    """The sides torus_inverse gives have the torus point as their interior
    angles, half of the points within 1e-3 of a zero-angle circle, where
    a side tends to 0; the blown-down origin is refused."""
    rng = random.Random(SEED + 5)
    worst = 0.0
    for n in range(1000):
        t = random_torus_point_near_a_circle(rng) if n % 2 else random_torus_point(rng)
        worst = max(worst, _side_angle_error(torus_inverse(t), t))
    try:
        torus_inverse(TorusPoint(reduce_mod_pi(0), reduce_mod_pi(0), reduce_mod_pi(0)))
        rejected = False
    except ValueError:
        rejected = True
    return worst < 1e-9 and rejected, (
        f"1000 round trips, max error {worst:.3e}; origin rejected {rejected}"
    )


def check_fiber_directions() -> tuple[bool, str]:
    """Approach directions of the torus origin resolve to the matching real
    side triple.  The oracle is ``limit_class`` along the inscribed
    triangles whose angles are t * direction."""
    rng = random.Random(SEED + 6)
    worst = 0.0
    for _ in range(100):
        while True:
            a0 = rng.uniform(-1, 1)
            b0 = rng.uniform(-1, 1)
            if max(abs(a0), abs(b0), abs(a0 + b0)) > 0.1:
                break
        ray = Family(
            label=f"fiber-ray[{a0}, {b0}]",
            eval=lambda t, a0=a0, b0=b0: from_vertices(
                cmath.exp(2j * t * b0), cmath.exp(-2j * t * a0), 1.0),
            domain=(0.0, PI / max(abs(a0), abs(b0))),
        )
        limit = torus_fiber_limit((a0, b0, -a0 - b0))
        worst = max(worst, proj_dist(limit_class(ray).sides, ProjTripleC(*limit)))
    return worst < 1e-6, f"max projective error {worst:.3e} over 100 directions"


def check_poncelet() -> tuple[bool, str]:
    """Radius relation, the angle formula for r/R, and closure of the
    revolving family."""
    rng = random.Random(SEED + 7)
    worst_chapple = 0.0
    worst_level = 0.0
    for _ in range(1000):
        T = random_nondegenerate(rng)
        cfg = incircle_outcircle(T)
        worst_chapple = max(
            worst_chapple, abs((cfg.R - cfg.r) ** 2 - cfg.r**2 - cfg.d**2)
        )
        lv = level_value(interior_angles(T))
        worst_level = max(worst_level, abs(lv - cfg.r / cfg.R))
    worst_var = 0.0
    worst_tan = 0.0
    for _ in range(20):
        R = rng.uniform(0.5, 2.0)
        cfg = PonceletConfig.from_radii(rng.uniform(0.05, 0.45) * R, R)
        ratios = []
        for k in range(32):
            T = poncelet_family(cfg, 2 * PI * k / 32)
            got = incircle_outcircle(T)
            ratios.append(got.r / got.R)
            worst_tan = max(worst_tan, chord_tangency_residual(cfg, T))
        worst_var = max(worst_var, max(ratios) - min(ratios))
    # R is 0.5 to 2 here: the tangency bound is taken as absolute
    ok = (worst_chapple < 1e-9 and worst_level < 1e-9 and worst_var < 1e-9
          and worst_tan < TANGENCY_BOUND)
    return ok, (
        f"chapple {worst_chapple:.3e}, level {worst_level:.3e}, "
        f"orbit r/R variation {worst_var:.3e}, tangency {worst_tan:.3e}"
    )


def check_missing_degenerates() -> tuple[bool, str]:
    """Each blowdown model merges exactly one of the two benchmark family
    pairs that the full surface keeps apart."""
    angle = (constant_angle_family(PI / 2), constant_angle_family(2 * PI / 3))
    ratio = (constant_ratio_family(1.0), constant_ratio_family(2.0))
    held = 0
    rows = []
    for name, pair, model, verdict, distance_holds in (
        ("angle/sphere", angle, Model.SPHERE, "Merged", lambda d: d < 1e-6),
        ("angle/torus", angle, Model.TORUS, "Separated", lambda d: d > 0.5),
        ("angle/dyck", angle, Model.DYCK, "Separated", lambda d: True),
        ("ratio/torus", ratio, Model.TORUS, "Merged", lambda d: d < 1e-6),
        ("ratio/sphere", ratio, Model.SPHERE, "Separated", lambda d: d > 0.05),
        ("ratio/dyck", ratio, Model.DYCK, "Separated", lambda d: True),
    ):
        r = separation_test(*pair, model)
        held += r.verdict == verdict and distance_holds(r.distance)
        rows.append(f"{name} {r.verdict} {r.distance:.2e}")
    return held == len(rows), f"{', '.join(rows)}; {held} of {len(rows)} as expected"


def check_group_action() -> tuple[bool, str]:
    """Composition law, orbit sizes, and equivariance of the quotient map:
    act_class, which signs and permutes the class's angles and permutes its
    own sides, conjugated on a mirror, with no triangle built, against
    class_of of triangle.act's image triangle, two independent paths."""
    rng = random.Random(SEED + 9)
    elements = GroupElement.all_elements()
    triangles = [random_nondegenerate(rng) for _ in range(20)]
    images = [[act(h, T) for T in triangles] for h in elements]
    # act(g * h, T) is images[g * h][T]: the left sides are built once
    image_of = dict(zip(elements, images))
    worst_law = 0.0
    for g in elements:
        for h, h_images in zip(elements, images):
            for left, hT in zip(image_of[g * h], h_images):
                right = act(g, hT)
                worst_law = max(
                    worst_law,
                    *(abs(u - v) for u, v in zip(left.sides, right.sides)),
                    *(angle_dist(x, y) for x, y in zip(left.arguments, right.arguments)),
                )
    # scalene with all angles distinct -> free orbit
    scalene = class_of(from_vertices(0.0, 1.0, 0.3 + 0.9j))
    iso = class_of(from_vertices(0.5 + 1.1j, 0.0, 1.0))  # |b| = |c|, not equilateral
    w = cmath.exp(2j * PI / 3)
    equi = class_of(from_vertices(w.conjugate(), w, 1.0))
    sizes = (len(orbit(scalene, 1e-6)), len(orbit(iso, 1e-6)), len(orbit(equi, 1e-6)))
    worst_map = 0.0
    for _ in range(100):
        g = rng.choice(elements)
        T = random_nondegenerate(rng)
        worst_map = max(worst_map, class_dist(class_of(act(g, T)), act_class(g, class_of(T))))
    ok = worst_law <= 1e-12 and sizes == (12, 6, 2) and worst_map <= 1e-9
    return ok, (
        f"144 compositions x 20 triangles, max error {worst_law:.3e}; orbits {sizes}; "
        f"100 equivariance pairs, max distance {worst_map:.3e}"
    )


def check_angle_formula() -> tuple[bool, str]:
    """The argument-difference formula matches direct vertex measurement and
    stays continuous through a double point."""
    rng = random.Random(SEED + 10)
    worst = 0.0
    for _ in range(1000):
        T = random_nondegenerate(rng)
        computed = interior_angles(T)
        measured = [vertex_angle(T, i) for i in range(3)]
        worst = max(
            worst, max(angle_dist(x, y) for x, y in zip(computed, measured))
        )
    fam = inscribed_family()
    eps = 1e-5
    around = [
        interior_angles(fam.eval(t)) for t in (eps, 0.0, 2 * PI - eps)
    ]
    jump = max(
        angle_dist(x, y)
        for t1 in around
        for t2 in around
        for x, y in zip(t1, t2)
    )
    return worst < 1e-9 and jump <= 1e-3, (
        f"1000 triangles, max deviation {worst:.3e}; crossing jump {jump:.3e}"
    )


ALL_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("bijection", check_bijection),
    ("sphere-landmarks", check_sphere_landmarks),
    ("hemispheres", check_hemispheres),
    ("sphere-loci", check_sphere_loci),
    ("torus-inverse", check_torus_inverse),
    ("fiber-directions", check_fiber_directions),
    ("poncelet", check_poncelet),
    ("missing-degenerates", check_missing_degenerates),
    ("group-action", check_group_action),
    ("angle-formula", check_angle_formula),
]
