"""The public surface of ``trishape``: the names ``import trishape`` binds.

``__init__`` imports each core name once and loads the ``families`` names
on first access; this list pins them, so a name that is added, renamed or
dropped shows up here.
"""
import inspect
import subprocess
import sys

import pytest

import trishape
from trishape import checks, families, shape
from trishape.shape import BlowupCoord
from trishape.triangle import GroupElement, TriangleVariable

PUBLIC = """
    AngleModPi angle_dist reduce_mod_pi
    DegeneracyType GroupElement Orientation TriangleVariable act classify
    from_sides from_vertices interior_angles orientation validate vertex_angle
    BlowupCoord ProjTripleC ShapeClass act_class blowup_dist canonical_rep
    class_dist class_equal class_of lift_class orbit phi proj_dist psi
    SphereLocus SpherePoint TorusPoint classify_sphere_locus hopf sphere_dist
    to_sphere to_torus torus_dist torus_fiber_limit torus_inverse
    Family Model PonceletConfig SeparationReport constant_angle_family
    constant_ratio_family incircle_outcircle inscribed_family level_curves
    level_value limit_class poncelet_family separation_test
""".split()


def test_public_names_are_exactly_these():
    bound = {
        name for name in dir(trishape)
        if not name.startswith("_") and not inspect.ismodule(getattr(trishape, name))
    }
    assert bound == set(PUBLIC)


#: the names ``trishape`` loads from ``families`` on first access
FAMILIES_NAMES = PUBLIC[PUBLIC.index("Family"):]

LAZY_PROBE = """
import sys
import trishape
from trishape import cli

for argv in (["classify", "--vertices", "0,0", "1,0", "0,1"],
             ["project", "--model", "torus", "--vertices", "0,0", "1,0", "0,1"],
             ["orbit", "--vertices", "0,0", "1,0", "0,1"]):
    cli.main(argv)
print(sorted(m for m in ("trishape.families", "trishape.checks") if m in sys.modules),
      file=sys.stderr)
"""


def test_import_and_per_triangle_commands_leave_families_unloaded(child_env):
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


@pytest.mark.parametrize("name", FAMILIES_NAMES)
def test_families_names_load_on_first_use(name):
    assert getattr(trishape, name) is getattr(families, name)


def test_families_loads_through_the_package():
    from trishape import limit_class

    assert trishape.families is families
    assert limit_class is families.limit_class
    assert set(FAMILIES_NAMES) | {"families"} <= set(dir(trishape))


def test_unknown_names_still_raise():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        trishape.nope
    assert not hasattr(trishape, "_poncelet_vertices")


@pytest.mark.parametrize("holder, name", [
    (trishape, "__all__"),
    (trishape, "blowup_equal"),
    (shape, "blowup_equal"),
    (checks, "_blowup_dist"),
    (TriangleVariable, "to_json"),
    (TriangleVariable, "from_json"),
    (BlowupCoord, "to_json"),
    (GroupElement, "identity"),
    (GroupElement, "inverse"),
])
def test_removed_names_are_gone(holder, name):
    assert not hasattr(holder, name)
