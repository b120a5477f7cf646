"""Compact moduli of labeled, oriented, possibly-degenerate triangle shapes.

The full similarity-class surface keeps every degenerate configuration
apart; its two classical blowdowns — the side-ratio sphere and the
interior-angle torus — each lose some of them.  This package implements the
surface, both projections, the order-12 labeling symmetry, and family
tracing that demonstrates exactly what each projection loses.  The names
imported below are the package's public surface.
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
from .families import (
    Family,
    Model,
    PonceletConfig,
    SeparationReport,
    constant_angle_family,
    constant_ratio_family,
    incircle_outcircle,
    inscribed_family,
    level_curves,
    level_value,
    limit_class,
    poncelet_family,
    separation_test,
)

__version__ = "1.0.0"
