"""Compact moduli of labeled, oriented, possibly-degenerate triangle shapes.

The full similarity-class surface keeps every degenerate configuration
apart; its two classical blowdowns — the side-ratio sphere and the
interior-angle torus — each lose some of them.  This package implements the
surface, both projections, the order-12 labeling symmetry, and family
tracing that demonstrates exactly what each projection loses.  The names
imported below, and the ``families`` names that ``__getattr__`` loads on
first use, are the package's public surface.
"""
from .angles import AngleModPi, angle_dist, reduce_mod_pi
from .triangle import (
    DegeneracyType,
    GroupElement,
    Orientation,
    TriangleVariable,
    act,
    classify,
    from_sides,
    from_vertices,
    interior_angles,
    orientation,
    validate,
    vertex_angle,
)
from .shape import (
    BlowupCoord,
    ProjTripleC,
    ShapeClass,
    act_class,
    blowup_dist,
    canonical_rep,
    class_dist,
    class_equal,
    class_of,
    lift_class,
    orbit,
    phi,
    proj_dist,
    psi,
)
from .projections import (
    SphereLocus,
    SpherePoint,
    TorusPoint,
    classify_sphere_locus,
    hopf,
    sphere_dist,
    to_sphere,
    to_torus,
    torus_dist,
    torus_fiber_limit,
    torus_inverse,
)

__version__ = "1.0.0"

#: the public names of ``families`` (the Poncelet and degenerating-family
#: demonstrations), loaded on first access (PEP 562), so that ``import
#: trishape`` and the per-triangle commands compile only the four core modules
_FAMILIES = frozenset("""
    Family Model PonceletConfig SeparationReport constant_angle_family
    constant_ratio_family incircle_outcircle inscribed_family level_curves
    level_value limit_class poncelet_family separation_test
""".split())


def __getattr__(name: str):
    if name != "families" and name not in _FAMILIES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    families = import_module(".families", __name__)
    return families if name == "families" else getattr(families, name)


def __dir__() -> list[str]:
    return sorted({*globals(), "families", *_FAMILIES})
