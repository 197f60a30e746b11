"""Affine semigroups of rational convex polytopes in the first octant.

A bounded full-dimensional polytope B with nonnegative rational vertex
coordinates and the origin outside spans the semigroup of all integer
points swept by its dilations, S = union of j*B over j in N intersected
with N^3.  This package computes, exactly and on integer rows (Fraction
points stay at its boundary):

  * membership, minimal generators, and Apery sets of S (`semigroup`),
  * the finite slab decomposition of the gap set of the spanned cone
    (`decomposition`),
  * Cohen-Macaulay, Gorenstein, and Buchsbaum verdicts for the
    associated semigroup ring, with replayable witnesses (`rings`),
  * a deliberately independent brute-force oracle for cross-checking
    every one of those objects on a box (`oracle`),
  * a command-line front end (`cli`).
"""

from .decomposition import (
    BridgeSlab,
    CornerSlab,
    GapRegion,
    SlabSet,
    VertexClassification,
    classify,
    corner_slab,
    gap_points,
    gap_region,
    overlap_level,
    ray_chord_class,
    ray_period,
    ray_point,
    separation_level,
    slab_integer_points,
    slabs,
)
from .geometry import (
    ORIGIN,
    HalfSpace,
    Point3,
    Polyhedron,
    convex_hull,
    dilate,
    integer_points,
    integer_points_in_hull,
)
from .rings import (
    AperyTable,
    Condition3Result,
    PropertyVerdict,
    Witness,
    apery_table,
    build_family,
    check_condition3,
    gorenstein_family,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
)
from .semigroup import (
    AperyBasis,
    ClosureResult,
    GeneratorSet,
    SemigroupHandle,
    apery_intersection,
    build,
    closure,
    closure_member_int,
    in_cone_int,
    member,
    member_int,
    minimal_generators,
    semigroup_shells,
)
from . import errors, oracle

__all__ = [
    "AperyBasis",
    "AperyTable",
    "BridgeSlab",
    "ClosureResult",
    "Condition3Result",
    "CornerSlab",
    "GapRegion",
    "GeneratorSet",
    "HalfSpace",
    "ORIGIN",
    "Point3",
    "Polyhedron",
    "PropertyVerdict",
    "SemigroupHandle",
    "SlabSet",
    "VertexClassification",
    "Witness",
    "apery_intersection",
    "apery_table",
    "build",
    "build_family",
    "check_condition3",
    "classify",
    "closure",
    "closure_member_int",
    "convex_hull",
    "corner_slab",
    "dilate",
    "errors",
    "gap_points",
    "gap_region",
    "gorenstein_family",
    "in_cone_int",
    "integer_points",
    "integer_points_in_hull",
    "is_buchsbaum",
    "is_cohen_macaulay",
    "is_gorenstein",
    "member",
    "member_int",
    "minimal_generators",
    "oracle",
    "overlap_level",
    "ray_chord_class",
    "ray_period",
    "ray_point",
    "separation_level",
    "slab_integer_points",
    "slabs",
]

__version__ = "0.1.0"
