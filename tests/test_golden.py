"""Bit-identity of the per-triangle path against recorded outputs.

``tests/data/pipeline_golden.json`` holds a fixed seeded set of triangles,
covering every degeneracy stratum, and ``float.hex`` of every number that
``class_of``, ``phi``, ``psi``, ``to_sphere``, ``to_torus`` and
``torus_inverse`` give for them, so the sign of a zero counts too.  The
inputs are stored in the file as well, so the test does not depend on the
generator.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``, and only for
an output change that is intended and documented.
"""
from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

from trishape.projections import to_sphere, to_torus, torus_inverse
from trishape.shape import class_of, phi, psi
from trishape.triangle import DegeneracyType, classify, from_vertices

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"


def _cplx(z: complex) -> list[str]:
    return [float.hex(z.real), float.hex(z.imag)]


def _sides(t) -> list[list[str]]:
    return [_cplx(v) for v in t.as_tuple()]


def _angles(xs) -> list[str]:
    return [float.hex(float(x)) for x in xs]


def _decode(inp: dict):
    verts = [complex(float.fromhex(x), float.fromhex(y)) for x, y in inp["vertices"]]
    dirs = inp["directions"]
    if dirs is not None:
        dirs = tuple(float.fromhex(v) for v in dirs)
    free = inp["free_arguments"]
    if free is not None:
        free = {slot: float.fromhex(v) for slot, v in free.items()}
    return verts, dirs, free


def _encode(verts, dirs=None, free=None) -> dict:
    return {
        "vertices": [_cplx(complex(v)) for v in verts],
        "directions": None if dirs is None else [float.hex(float(v)) for v in dirs],
        "free_arguments": None if free is None else {s: float.hex(v) for s, v in free.items()},
    }


def outputs(inp: dict) -> dict:
    """Every number the per-triangle path gives for one input, as hex."""
    verts, dirs, free = _decode(inp)
    T = from_vertices(*verts, directions=dirs, free_arguments=free)
    c = class_of(T)
    b = phi(c)
    back = psi(b)
    s = to_sphere(c)
    t = to_torus(c)
    try:
        inv = torus_inverse(t)
        inverse = {"sides": _sides(inv.sides), "angles": _angles(inv.angles)}
    except ValueError as exc:
        inverse = f"ValueError: {exc}"
    return {
        "stratum": classify(T).value,
        "class_of": {"sides": _sides(c.sides), "angles": _angles(c.angles)},
        "phi": {"sides": _sides(b.sides), "xi": _angles(b.xi)},
        "psi": {"sides": _sides(back.sides), "angles": _angles(back.angles)},
        "to_sphere": [float.hex(v) for v in s.as_tuple()],
        "to_torus": _angles(t.as_tuple()),
        "torus_inverse": inverse,
    }


def _cases() -> list[dict]:
    """The seeded input set: random shapes of every kind at scales from
    1e-200 to 1e150, plus exact axis-aligned and special shapes."""
    rng = random.Random(20240505)

    def unit() -> complex:
        return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    def similar(verts, k):
        f = unit() * 10.0 ** k
        shift = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** k
        return [f * v + shift for v in verts], f

    cases = []
    scales = (-200, -150, -20, 0, 0, 0, 3, 150)
    for k in scales:
        for _ in range(6):
            verts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            cases.append(_encode(similar(verts, k)[0]))
        # simple: three collinear points
        u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        cases.append(_encode(similar([u, v, 0.0], k)[0]))
        # double, with the default and with a free argument
        for slot, pair in (("c", (0, 1)), ("a", (1, 2)), ("b", (0, 2))):
            verts = [1.0 + 0j] * 3
            verts[pair[0]] = verts[pair[1]] = 0j
            moved, f = similar(verts, k)
            cases.append(_encode(moved))
            free = {slot: rng.uniform(-4, 4)}
            cases.append(_encode(moved, free=free))
            cases.append(_encode(moved, free={slot: cmath.phase(f)}))
    # triple points: generic, parallel, with a zero pair, both
    P = complex(0.3, -0.7)
    triples = [
        ((1.0, 0.0, -0.5, 0.5, -0.5, -0.5), None),
        ((0.6, -0.8, -0.1, 0.9, -0.5, -0.1), None),
        ((1.0, 0.0, -2.0, 0.0, 1.0, 0.0), None),
        ((0.6, 0.8, -1.2, -1.6, 0.6, 0.8), None),
        ((1.0, 0.0, -1.0, 0.0, 0.0, 0.0), None),
        ((1.0, 0.0, -1.0, 0.0, 0.0, 0.0), {"c": 1.1}),
        ((0.0, 0.0, 0.6, 0.8, -0.6, -0.8), {"a": -0.4}),
    ]
    for dirs, free in triples:
        cases.append(_encode([P, P, P], dirs, free))
    # exact shapes: axis-aligned right, isosceles, equilateral, mirror images
    s3 = math.sqrt(3.0)
    exact = [
        (0, 1, 1j), (0, 1j, 1), (1j, 0, 1), (0, 2, 1 + 1j), (0, 1, 0.5 + s3 / 2 * 1j),
        (0, 1, 0.5 - s3 / 2 * 1j), (0, -1, -1j), (-1, 1, 0), (0, 0, 1), (0, 1, 0),
        (1, 0, 0), (1j, 1j, -1j), (-0.0, 1, 1j), (0, 1e-300, 1e-300j),
    ]
    for verts in exact:
        cases.append(_encode(verts))
    return cases


def test_golden_covers_every_stratum():
    data = json.loads(GOLDEN.read_text())
    seen = {case["out"]["stratum"] for case in data}
    assert seen == {d.value for d in DegeneracyType}


def test_pipeline_outputs_are_bit_identical():
    data = json.loads(GOLDEN.read_text())
    assert len(data) > 100
    for case in data:
        assert outputs(case["in"]) == case["out"], case["in"]


if __name__ == "__main__":
    records = [{"in": inp, "out": outputs(inp)} for inp in _cases()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
