"""Acceptance suite: one test per headline guarantee.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the check's verdict at its stated tolerance.  The heavy lifting
lives in trishape.checks so the CLI selftest runs the identical code.
"""
import cmath
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trishape import checks, projections
from trishape.angles import reduce_mod_pi
from trishape.cli import main
from trishape.projections import TorusPoint, torus_inverse
from trishape.shape import ProjTripleC, ShapeClass

#: a measured figure as the checks print it; its last digits follow libm
_FIGURE = re.compile(r"\d\.\d{2,3}e[+-]\d{2}")


def _run(name):
    fn = dict(checks.ALL_CHECKS)[name]
    passed, detail = fn()
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, detail


def test_criterion_01_blowup_bijection():
    _run("bijection")


def test_criterion_02_sphere_landmarks():
    _run("sphere-landmarks")


def test_criterion_03_hemisphere_separation():
    _run("hemispheres")


def test_criterion_04_locus_residuals():
    _run("sphere-loci")


def test_criterion_05_torus_inverse():
    _run("torus-inverse")


def test_criterion_06_fiber_directions():
    _run("fiber-directions")


def test_criterion_07_poncelet():
    _run("poncelet")


def test_criterion_08_missing_degenerates_signature():
    _run("missing-degenerates")


def test_criterion_09_group_action():
    _run("group-action")


def test_criterion_10_angle_formula():
    _run("angle-formula")


def test_criterion_11_cli_determinism(child_env):
    selftest = subprocess.run(
        [sys.executable, "-m", "trishape.cli", "selftest"],
        capture_output=True, text=True, env=child_env,
    )
    ok = selftest.returncode == 0 and "FAIL" not in selftest.stdout
    emits = [
        subprocess.run(
            [sys.executable, "-m", "trishape.cli", "emit-figure",
             "--name", "torus-atlas", "--grid", "15"],
            capture_output=True, env=child_env,
        ).stdout
        for _ in range(2)
    ]
    identical = emits[0] == emits[1] and len(emits[0]) > 0
    print(
        f"{'PASS' if ok and identical else 'FAIL'} cli-determinism: "
        f"selftest exit {selftest.returncode}; emit-figure byte-identical {identical}"
    )
    assert ok, selftest.stdout
    assert identical


def test_selftest_lines_keep_their_wording(capsys):
    """Every check's one line, with its measured figures masked, as committed."""
    assert main(["selftest"]) == 0
    text = (Path(__file__).parent / "data" / "selftest_masked.txt").read_text()
    assert _FIGURE.sub("<figure>", capsys.readouterr().out) == text


def test_a_torus_inverse_that_accepts_the_origin_fails_with_every_figure(monkeypatch):
    real = checks.torus_inverse
    away = TorusPoint(reduce_mod_pi(1.0), reduce_mod_pi(1.0), reduce_mod_pi(-2.0))
    monkeypatch.setattr(checks, "torus_inverse", lambda t: real(away if t.is_origin() else t))
    passed, detail = checks.check_torus_inverse()
    assert not passed
    assert _FIGURE.sub("<figure>", detail) == (
        "1000 round trips, max error <figure>; origin rejected False")
    assert float(_FIGURE.search(detail)[0]) < 1e-9


def _cancelling_sides(alpha, beta):
    """The inscribed sides as differences of points on the unit circle,
    which lose the direction of a side that tends to 0."""
    ea, eb = cmath.exp(-2j * alpha), cmath.exp(2j * beta)
    return (1.0 - ea, eb - 1.0, ea - eb)


def _swapped_sides(t):
    c = torus_inverse(t)
    a, b, g = c.sides.as_tuple()
    return ShapeClass(ProjTripleC(b, a, g), c.angles)


@pytest.mark.parametrize("target, name, fault", [
    (projections, "_torus_sides", _cancelling_sides),
    (checks, "torus_inverse", _swapped_sides),
], ids=["cancelling", "swapped"])
def test_torus_inverse_sides_off_their_angles_fail_with_every_figure(
        monkeypatch, target, name, fault):
    monkeypatch.setattr(target, name, fault)
    passed, detail = checks.check_torus_inverse()
    assert not passed
    assert _FIGURE.sub("<figure>", detail) == (
        "1000 round trips, max error <figure>; origin rejected True")
    assert float(_FIGURE.search(detail)[0]) > 1e-9


def test_an_act_class_that_returns_its_input_fails_with_every_figure(monkeypatch):
    monkeypatch.setattr(checks, "act_class", lambda g, c: c)
    passed, detail = checks.check_group_action()
    assert not passed
    assert _FIGURE.sub("<figure>", detail) == (
        "144 compositions x 20 triangles, max error <figure>; orbits (12, 6, 2); "
        "100 equivariance pairs, max distance <figure>")
    law, equivariance = map(float, _FIGURE.findall(detail))
    assert law <= 1e-12 and equivariance > 1e-9
