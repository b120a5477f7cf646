"""Independent output checks.

Nothing here calls trishape: the checks measure the program's outputs with
their own geometry (cross products, wedge norms, a remainder-based angle
gap and the r/R angle formula) and compare against the generators' truth.
Each check returns the number of failed ops it found.
"""
from __future__ import annotations

import csv
import io
import json
import math

from generators import ORBIT_SIZE, STRATUM, TORUS_ORIGIN, Shape

TOL = 1e-9
PI = math.pi

#: what reading a malformed output can raise; it counts as a wrong answer
MALFORMED = (AttributeError, TypeError, ValueError, IndexError, KeyError)


def cross(u: complex, v: complex) -> float:
    return (u.conjugate() * v).imag


def orientation_truth(shape: Shape) -> str:
    """Sign of the vertex triple's own cross product, zero below tol * scale**2."""
    A, B, C = shape.vertices
    scale = max(abs(C - B), abs(A - C), abs(B - A))
    s2 = cross(B - A, C - A)
    if scale > 0.0 and s2 > TOL * scale * scale:
        return "Positive"
    if scale > 0.0 and s2 < -TOL * scale * scale:
        return "Negative"
    return "Zero"


def angle_gap(x: float, y: float) -> float:
    """Distance of x and y on R / pi."""
    return abs(math.remainder(x - y, PI))


def projective_gap(v, w) -> float:
    """sin of the angle between complex triples: |v ^ w| / (|v| |w|)."""
    wedge = sum(
        abs(v[i] * w[j] - v[j] * w[i]) ** 2 for i, j in ((0, 1), (0, 2), (1, 2))
    )
    nv = sum(abs(x) ** 2 for x in v)
    nw = sum(abs(x) ** 2 for x in w)
    return math.sqrt(wedge / (nv * nw))


def class_gap(c1, c2) -> float:
    """Largest of the projective side gap and the three angle gaps."""
    s1 = (c1.sides.a, c1.sides.b, c1.sides.c)
    s2 = (c2.sides.a, c2.sides.b, c2.sides.c)
    gaps = [angle_gap(float(x), float(y)) for x, y in zip(c1.angles, c2.angles)]
    return max(projective_gap(s1, s2), *gaps)


def level(angles) -> float:
    """r/R = 4 sin(a/2) sin(b/2) sin(g/2) from mod-pi angle representatives;
    a negatively oriented triple (sum 2 pi) is mirrored first."""
    reps = [x % PI for x in angles]
    if abs(sum(reps) - 2.0 * PI) < abs(sum(reps) - PI):
        reps = [PI - x for x in reps]
    return 4.0 * math.sin(reps[0] / 2.0) * math.sin(reps[1] / 2.0) * math.sin(reps[2] / 2.0)


# ---------------------------------------------------------------------------
# pipeline


def pipeline_failed(shape: Shape, out) -> bool:
    """True when the op raised unexpectedly, missed its expected raise or
    gave a wrong answer."""
    if isinstance(out, BaseException):
        return True
    try:
        return _pipeline_wrong(shape, out)
    except MALFORMED:
        return True


def _pipeline_wrong(shape: Shape, out) -> bool:
    stratum, orient, c, c_back, sphere, _loci, _torus, inverse = out
    if stratum.value != STRATUM[shape.kind]:
        return True
    if orient.value != orientation_truth(shape):
        return True
    if class_gap(c, c_back) > TOL:
        return True
    if shape.kind in TORUS_ORIGIN:
        if not isinstance(inverse, ValueError):
            return True
    elif isinstance(inverse, BaseException) or class_gap(inverse, c) > TOL:
        return True
    if shape.kind == "triple":
        d = shape.directions
        sign = cross(complex(d[0], d[1]), complex(d[2], d[3]))
    elif shape.kind == "nondegenerate":
        A, B, C = shape.vertices
        sign = cross(B - A, C - A)
    else:
        return abs(sphere.y) > TOL
    # positively oriented classes land on the y < 0 hemisphere
    return (sphere.y < 0.0) != (sign > 0.0)


# ---------------------------------------------------------------------------
# catalog


def catalog_failed(entries, outs) -> list[bool]:
    """Per-op failure flags for one catalog block.

    An op fails when it raised or its orbit size is wrong.  Within a base
    shape, copies whose canonical representative is more than tol away from
    the largest agreeing group of copies fail too: that is the fewest wrong
    answers that explain the disagreement.
    """
    failed = [False] * len(entries)
    groups: dict[int, list[int]] = {}
    for k, ((base_id, shape), out) in enumerate(zip(entries, outs)):
        if _safe(lambda: out[0] == ORBIT_SIZE[shape.kind]):
            groups.setdefault(base_id, []).append(k)
        else:
            failed[k] = True
    for members in groups.values():
        best: list[int] = []
        for k in members:
            group = [
                j for j in members
                if _safe(lambda: class_gap(outs[k][1], outs[j][1]) <= TOL)
            ]
            if len(group) > len(best):
                best = group
        for k in members:
            if k not in best:
                failed[k] = True
    return failed


def _safe(check) -> bool:
    """The check's verdict; False when the output it reads is malformed
    (an op that raised is stored as its exception)."""
    try:
        return check()
    except MALFORMED:
        return False


# ---------------------------------------------------------------------------
# cli

#: classify --vertices 0,0 1,0 0,1: right angle at A, positively oriented
CLASSIFY_ANSWER = ("Nondegenerate", "Positive", (PI / 2.0, PI / 4.0, PI / 4.0))

#: r/R of the poncelet family traced with the default radii r=0.5, R=2
TRACE_LEVEL = 0.25

SELFTEST_CHECKS = 10

#: emit-figure --name poncelet-levels --grid 400: the default levels, the
#: grid and the row count the current code emits
FIGURE_LEVELS = (0.1, 0.2, 0.3, 0.4)
FIGURE_GRID = 400
FIGURE_ROWS = 1766


def cli_failure(name: str, code: int, text: str) -> str | None:
    """A reason the command's output is wrong, or None."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CLI_CHECKS[name](text)
    except MALFORMED as exc:
        return f"unparseable output: {exc!r}"


def _check_classify(text: str) -> str | None:
    got = json.loads(text)
    stratum, orient, angles = CLASSIFY_ANSWER
    if got["degeneracy"] != stratum or got["orientation"] != orient:
        return f"wrong class {got['degeneracy']}/{got['orientation']}"
    if len(got["angles"]) != 3 or max(
        angle_gap(x, y) for x, y in zip(got["angles"], angles)
    ) > TOL:
        return f"wrong angles {got['angles']}"
    return None


def _rows(text: str, header: list[str], count: int) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"bad header {rows[:1]}")
    if len(rows) - 1 != count:
        raise ValueError(f"{len(rows) - 1} rows, expected {count}")
    return rows[1:]


def _check_trace(text: str) -> str | None:
    rows = _rows(text, ["t", "class", "x", "y", "z", "p", "q", "r"], 10000)
    for row in rows:
        residual = abs(level([float(v) for v in row[5:8]]) - TRACE_LEVEL)
        if not residual <= TOL:
            return f"row t={row[0]} has r/R residual {residual:.3e}"
    return None


def _check_emit_figure(text: str) -> str | None:
    rows = _rows(text, ["level", "alpha", "beta", "gamma"], FIGURE_ROWS)
    for row in rows:
        lv, a, b, g = (float(v) for v in row)
        if lv not in FIGURE_LEVELS:
            return f"row {row} has level {lv}, not one of {FIGURE_LEVELS}"
        i = round(a * FIGURE_GRID / PI)
        if not (0 < i < FIGURE_GRID and abs(a - PI * i / FIGURE_GRID) <= TOL):
            return f"row {row} has alpha off the grid pi*i/{FIGURE_GRID}"
        residual = abs(level((a, b, g)) - lv)
        if not residual <= TOL:
            return f"row {row} has level residual {residual:.3e}"
    return None


def _check_selftest(text: str) -> str | None:
    lines = text.splitlines()
    passed = [ln for ln in lines if ln.startswith("PASS ")]
    if any(ln.startswith("FAIL") for ln in lines) or len(passed) != SELFTEST_CHECKS:
        return f"{len(passed)} PASS lines of {len(lines)}"
    return None


_CLI_CHECKS = {
    "classify": _check_classify,
    "trace": _check_trace,
    "emit-figure": _check_emit_figure,
    "selftest": _check_selftest,
}
