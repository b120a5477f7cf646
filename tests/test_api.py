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

#: modules that neither ``import trishape`` nor the per-triangle commands
#: load: ``families`` and ``checks`` wait for the commands that use them, and
#: the value classes need no ``dataclasses`` (which brings ``inspect``)
LAZY_PROBE = """
import sys
bare = set(sys.modules)
import trishape
from trishape import cli

for argv in (["classify", "--vertices", "0,0", "1,0", "0,1"],
             ["project", "--model", "torus", "--vertices", "0,0", "1,0", "0,1"],
             ["orbit", "--vertices", "0,0", "1,0", "0,1"]):
    cli.main(argv)
print(sorted(m for m in ("trishape.families", "trishape.checks", "dataclasses", "inspect")
             if m in sys.modules and m not in bare), file=sys.stderr)
"""

#: every module of the package, imported: none of them loads ``dataclasses``
#: or ``inspect``
FULL_PROBE = """
import sys
bare = set(sys.modules)
import trishape.cli, trishape.families, trishape.checks, trishape._fork
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - bare)), file=sys.stderr)
"""


#: the output modules each step loads: json and csv wait for the output that
#: writes them, so the CSV trace rows and the selftest lines, written
#: directly, load neither
OUTPUT_PROBE = """
import contextlib, io, sys
bare = set(sys.modules)
from trishape import cli

def step(name, argv=None):
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    print(name, sorted(m for m in ("json", "csv") if m in sys.modules and m not in bare),
          file=sys.stderr)

step("import")
step("trace-csv", ["trace", "--family", "poncelet", "--samples", "3", "--format", "csv"])
step("selftest", ["selftest"])
step("classify-json", ["classify", "--vertices", "0,0", "1,0", "0,1"])
"""


def _run_probe(probe, env):
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_import_and_per_triangle_commands_leave_families_unloaded(child_env):
    assert _run_probe(LAZY_PROBE, child_env) == "[]\n"


def test_no_module_loads_dataclasses_or_inspect(child_env):
    assert _run_probe(FULL_PROBE, child_env) == "[]\n"


def test_json_and_csv_load_only_for_the_output_that_writes_them(child_env):
    assert _run_probe(OUTPUT_PROBE, child_env) == (
        "import []\ntrace-csv []\nselftest []\nclassify-json ['json']\n")


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
