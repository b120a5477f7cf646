"""Acceptance suite: one test per headline guarantee.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the check's verdict at its stated tolerance.  The heavy lifting
lives in trishape.checks so the CLI selftest runs the identical code.
"""
import subprocess
import sys

import pytest

from trishape import checks


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
