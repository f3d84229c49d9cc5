"""Straight-line planar embedding of free trees onto bounded point sets.

Exact integer geometry, instance generation from 3-partition inputs, a
polynomial-time embedding verifier, a complete backtracking solver for the
polygon-bounded decision problem, a polynomial embedder for the unbounded
case, and brute-force oracles for desk-scale cross-checking.
"""

from .errors import ParseError, ValidationError
from .geometry import (
    COORD_LIMIT,
    Point,
    PointLocation,
    Segment,
    SegmentRelation,
    SegmentRelationKind,
    SimplePolygon,
    classify_segments,
    is_simple,
    normalize_ccw,
    point_in_polygon,
    segment_hits_boundary,
    signed_area2,
)
from .model import (
    Embedding,
    EmbeddingInstance,
    FreeTree,
    PointSet,
    VerificationReport,
    Violation,
    deserialize_embedding,
    deserialize_instance,
    deserialize_point_set,
    deserialize_report,
    deserialize_tree,
    make_instance,
    serialize_embedding,
    serialize_instance,
    serialize_point_set,
    serialize_report,
    serialize_tree,
    validate_instance,
)
from .reduction import (
    Partition,
    ReductionMeta,
    ThreePartitionInstance,
    brute_force_3p,
    build_instance,
    build_points,
    build_polygon,
    build_tree,
    deserialize_meta,
    deserialize_partition,
    extract_partition,
    partition_solves,
    serialize_meta,
    serialize_partition,
    validate_3p,
)
from .render import render_svg
from .solver import (
    SolveOutcome,
    SolveStatus,
    VisibilityGraph,
    build_visibility_graph,
    check_general_position,
    decide_embedding,
    embed_tree_unconstrained,
)
from .verifier import verify_embedding, verify_planar_only

__version__ = "0.1.0"
