"""The operations each workload times, as calls into trishape.

Every call goes through a module attribute (``triangle.classify``, not a
name bound at import), so the traced run's wrappers see it.
"""
from __future__ import annotations

from trishape import projections, shape, triangle

#: the CLI commands of the cli workload, in the order one round runs them
CLI_COMMANDS = (
    ("classify", ["classify", "--vertices", "0,0", "1,0", "0,1"]),
    ("trace", ["trace", "--family", "poncelet", "--samples", "10000", "--format", "csv"]),
    ("emit-figure", ["emit-figure", "--name", "poncelet-levels", "--grid", "400"]),
    ("selftest", ["selftest"]),
)


def make_triangle(s):
    """The program's triangle for a generated shape (input preparation)."""
    return triangle.from_vertices(
        *s.vertices, directions=s.directions, free_arguments=s.free_arguments
    )


def pipeline_op(s):
    """from_vertices -> classify + orientation -> class_of -> phi -> psi ->
    to_sphere + classify_sphere_locus -> to_torus -> torus_inverse."""
    T = triangle.from_vertices(
        *s.vertices, directions=s.directions, free_arguments=s.free_arguments
    )
    stratum = triangle.classify(T)
    orient = triangle.orientation(T)
    c = shape.class_of(T)
    c_back = shape.psi(shape.phi(c))
    sphere = projections.to_sphere(c)
    loci = projections.classify_sphere_locus(sphere)
    torus = projections.to_torus(c)
    try:
        inverse = projections.torus_inverse(torus)
    except ValueError as exc:
        inverse = exc
    return stratum, orient, c, c_back, sphere, loci, torus, inverse


def catalog_op(T):
    """class_of -> orbit -> canonical_rep."""
    c = shape.class_of(T)
    return len(shape.orbit(c)), shape.canonical_rep(c)
