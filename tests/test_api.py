"""The public surface of ``trishape``: the names ``import trishape`` binds.

``__init__`` imports each public name once; this list pins them, so a name
that is added, renamed or dropped shows up here.
"""
import inspect

import pytest

import trishape
from trishape import checks, shape
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
        name for name, obj in vars(trishape).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert bound == set(PUBLIC)


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
