"""Seeded input generators for the pipeline and catalog workloads.

Every input carries the ground truth it was built to have, so the checks in
``oracle`` never ask the program what the right answer is.  Inputs are
finite, with coordinates in [-1e3, 1e3]: a base shape of unit size is
rotated, scaled by a factor in [1e-2, 1e2] and translated by at most 500
along each axis.  Nondegenerate base shapes have area > 0.05 * scale**2.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

PI = math.pi

# stratum names as trishape's DegeneracyType values
NONDEGENERATE = "Nondegenerate"
SIMPLE = "Simple"
DOUBLE = "Double"
DOUBLED_SIMPLE = "DoubledSimple"
TRIPLE = "Triple"

# side slot opposite each vertex index: a = C - B, b = A - C, c = B - A
_SLOT_OF_COINCIDENT_PAIR = {(0, 1): "c", (1, 2): "a", (0, 2): "b"}

#: pipeline block: 80% nondegenerate, 10% simple, 4% + 4% double, 2% triple
PIPELINE_MIX = (
    ("nondegenerate", 40),
    ("simple", 5),
    ("double_default", 2),
    ("double_free", 2),
    ("triple", 1),
)

#: catalog block of base shapes: 90% scalene, 10% double with the default
#: free argument.  These are the kinds whose copies get one canonical
#: representative from trishape's current code, so no op of the workload fails.
CATALOG_MIX = (
    ("scalene", 18),
    ("double_default", 2),
)

#: the kinds whose copies the current canonical_rep can split (a known
#: defect: the round(..., 9) key and the side triple's canonical form break
#: ties by float noise, and an angle near 0 can read as one near pi).  Each
#: catalog run measures the split on a fixed seeded sample of them, untimed
#: and outside the workload's op count.
KNOWN_DEFECT_MIX = (
    ("isosceles", 4),
    ("simple", 2),
    ("double_free", 1),
)

#: every base shape of the catalog appears this many times
CATALOG_REPEAT = 3

#: orbit size under the order-12 action, per catalog kind
ORBIT_SIZE = {
    "scalene": 12,
    "isosceles": 6,
    "simple": 6,
    "double_default": 3,
    "double_free": 6,
}

STRATUM = {
    "nondegenerate": NONDEGENERATE,
    "scalene": NONDEGENERATE,
    "isosceles": NONDEGENERATE,
    "simple": SIMPLE,
    "double_default": DOUBLED_SIMPLE,
    "double_free": DOUBLE,
    "triple": TRIPLE,
}

#: torus_inverse must raise at the origin for these kinds and round-trip
#: for all others
TORUS_ORIGIN = frozenset({"simple", "double_default"})


@dataclass(frozen=True)
class Shape:
    """Vertices plus the data a degenerate triangle needs besides them."""

    kind: str
    vertices: tuple[complex, complex, complex]
    directions: tuple[float, ...] | None = None
    free_arguments: dict[str, float] | None = None


def _unit(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * PI))


def _disc_point(rng: random.Random) -> complex:
    while True:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(z) <= 1.0:
            return z


def _cross(u: complex, v: complex) -> float:
    return (u.conjugate() * v).imag


def _sides(A: complex, B: complex, C: complex) -> tuple[float, float, float]:
    return (abs(C - B), abs(A - C), abs(B - A))


def _nondegenerate(rng: random.Random) -> tuple[complex, complex, complex]:
    while True:
        A, B, C = _disc_point(rng), _disc_point(rng), _disc_point(rng)
        scale = max(_sides(A, B, C))
        if scale > 0.2 and abs(_cross(B - A, C - A)) / 2.0 > 0.05 * scale**2:
            return A, B, C


def _scalene(rng: random.Random) -> tuple[complex, complex, complex]:
    """Side lengths pairwise at least 2% apart: far from every isosceles
    locus, so the orbit has 12 distinct classes."""
    while True:
        A, B, C = _nondegenerate(rng)
        la, lb, lc = _sides(A, B, C)
        if min(abs(la - lb), abs(lb - lc), abs(la - lc)) > 0.02 * max(la, lb, lc):
            return A, B, C


def _isosceles(rng: random.Random) -> tuple[complex, complex, complex]:
    """Apex over the midpoint of a unit base, kept away from equilateral."""
    while True:
        h = rng.uniform(0.2, 2.0)
        if abs(h - math.sqrt(3.0) / 2.0) > 0.05:
            return 0.5 + 1j * h, 0j, 1.0 + 0j


def _collinear(rng: random.Random) -> tuple[complex, complex, complex]:
    """Three distinct collinear points whose three distances differ pairwise
    by at least 5%, so no relabeling fixes the class."""
    while True:
        u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        d = sorted((abs(u), abs(v), abs(u - v)))
        if d[0] > 0.2 and d[1] - d[0] > 0.05 * d[2] and d[2] - d[1] > 0.05 * d[2]:
            line = _unit(rng)
            return u * line, v * line, 0j


def _double(rng: random.Random) -> tuple[tuple[complex, complex, complex], float]:
    """Two coincident vertices and a third one; returns them with the
    direction mod pi of the line they span."""
    P = _disc_point(rng)
    Q = P + rng.uniform(0.3, 1.0) * _unit(rng)
    pair = rng.choice(((0, 1), (1, 2), (0, 2)))
    verts = [Q, Q, Q]
    verts[pair[0]] = P
    verts[pair[1]] = P
    return (verts[0], verts[1], verts[2]), cmath.phase(Q - P)


def _free_argument(rng: random.Random, line: float) -> float:
    """A collapse direction at least 0.1 rad from the line and from its
    normal, so the class is neither doubled-simple nor mirror-symmetric."""
    while True:
        offset = rng.uniform(0.1, PI - 0.1)
        if abs(offset - PI / 2.0) > 0.1:
            return line + offset


def _coincident_slot(verts: tuple[complex, complex, complex]) -> str:
    for (i, j), slot in _SLOT_OF_COINCIDENT_PAIR.items():
        if verts[i] == verts[j]:
            return slot
    raise AssertionError("no coincident vertex pair")


def base_shape(kind: str, rng: random.Random) -> Shape:
    """A unit-size shape of the given kind, before any symmetry."""
    if kind in ("nondegenerate", "scalene"):
        make = _nondegenerate if kind == "nondegenerate" else _scalene
        return Shape(kind, make(rng))
    if kind == "isosceles":
        return Shape(kind, _isosceles(rng))
    if kind == "simple":
        return Shape(kind, _collinear(rng))
    if kind in ("double_default", "double_free"):
        verts, line = _double(rng)
        free = None
        if kind == "double_free":
            free = {_coincident_slot(verts): _free_argument(rng, line)}
        return Shape(kind, verts, free_arguments=free)
    if kind == "triple":
        while True:
            u, v = _unit(rng) * rng.uniform(0.3, 1.0), _unit(rng) * rng.uniform(0.3, 1.0)
            w = -u - v
            if abs(w) > 0.3 and abs(_cross(u, v)) > 0.1 * max(abs(u), abs(v), abs(w)) ** 2:
                break
        P = _disc_point(rng)
        dirs = (u.real, u.imag, v.real, v.imag, w.real, w.imag)
        return Shape(kind, (P, P, P), directions=dirs)
    raise ValueError(f"unknown shape kind: {kind}")


def relabel(shape: Shape, perm: tuple[int, int, int], mirror: bool) -> Shape:
    """Vertex i of the image is vertex perm[i] of the source, then the
    mirror image if asked.  A free argument follows its zero side.  Triple
    points, whose direction sextuple would have to move too, are not
    relabeled by any workload."""
    verts = tuple(shape.vertices[p] for p in perm)
    if mirror:
        verts = tuple(z.conjugate() for z in verts)
    free = None
    if shape.free_arguments is not None:
        (angle,) = shape.free_arguments.values()
        free = {_coincident_slot(verts): -angle if mirror else angle}
    return Shape(shape.kind, verts, free_arguments=free)


def similar(shape: Shape, rng: random.Random) -> Shape:
    """Apply a random rotation, scale and translation."""
    spin = _unit(rng)
    factor = spin * 10.0 ** rng.uniform(-2.0, 2.0)
    shift = complex(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0))
    verts = tuple(factor * z + shift for z in shape.vertices)
    turn = cmath.phase(spin)
    free = None
    if shape.free_arguments is not None:
        free = {slot: angle + turn for slot, angle in shape.free_arguments.items()}
    dirs = None
    if shape.directions is not None:
        d = shape.directions
        pairs = [spin * complex(d[k], d[k + 1]) for k in (0, 2, 4)]
        dirs = tuple(x for p in pairs for x in (p.real, p.imag))
    return Shape(shape.kind, verts, dirs, free)


def pipeline_block(rng: random.Random) -> list[Shape]:
    """One block of the per-triangle stream in the exact pipeline mix."""
    block = [
        similar(base_shape(kind, rng), rng)
        for kind, count in PIPELINE_MIX
        for _ in range(count)
    ]
    rng.shuffle(block)
    return block


def catalog_block(
    rng: random.Random, first_id: int, mix=CATALOG_MIX
) -> list[tuple[int, Shape]]:
    """One block of catalog entries as (base shape id, shape): each base
    shape of the mix appears CATALOG_REPEAT times, each time under a random
    group element and a random similarity."""
    entries = []
    base_id = first_id
    for kind, count in mix:
        for _ in range(count):
            base = base_shape(kind, rng)
            for _ in range(CATALOG_REPEAT):
                perm = tuple(rng.sample(range(3), 3))
                copy = relabel(base, perm, rng.random() < 0.5)
                entries.append((base_id, similar(copy, rng)))
            base_id += 1
    rng.shuffle(entries)
    return entries


def catalog_block_size(mix=CATALOG_MIX) -> int:
    return sum(count for _, count in mix)
