"""Certificate checking for straight-line tree embeddings.

A mapping is valid when it is a bijection, edge images that share a tree node
touch only at that node's image, edge images that share no node are fully
disjoint, no edge passes through any other mapped point, and (in the
polygon-bounded variant) no edge touches the polygon boundary.

Validity is decided first by one Shamos–Hoey sweep, :func:`plane_contact`,
over the edge images and the boundary edges. Only when it finds a contact
does the reporter run. Reports list every violation in a canonical order
instead of stopping at the first, so callers can assert on specific failure
kinds; the reporter's pairwise pass runs behind an interval sweep over x,
and every surviving candidate pair is decided exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ValidationError
from .geometry import (
    CROSSING,
    DISJOINT,
    OVERLAP,
    TOUCH,
    PointIndex,
    boxed,
    plane_contact,
    segment_relation,
)
from .model import (
    KIND_EDGE_CROSSES_EDGE,
    KIND_EDGE_HITS_BOUNDARY,
    KIND_EDGE_THROUGH_POINT,
    KIND_EDGES_OVERLAP,
    KIND_NOT_BIJECTION,
    Embedding,
    EmbeddingInstance,
    FreeTree,
    PointSet,
    VerificationReport,
    Violation,
)


def verify_embedding(
    instance: EmbeddingInstance, embedding: Embedding | Sequence[int]
) -> VerificationReport:
    """Full check including the polygon-boundary condition."""
    return _verify(instance.tree, instance.points, embedding, instance.polygon)


def verify_planar_only(
    tree: FreeTree, points: PointSet, embedding: Embedding | Sequence[int]
) -> VerificationReport:
    """Planarity check without any bounding polygon; one point per tree node."""
    if len(points) != tree.node_count:
        raise ValidationError(
            "NodeCountMismatch",
            f"tree has {tree.node_count} nodes but there are {len(points)} points",
        )
    return _verify(tree, points, embedding, None)


def _as_mapping(tree: FreeTree, embedding) -> tuple[tuple[int, ...], bool]:
    if isinstance(embedding, Embedding):
        mapping = embedding.mapping
        bijective = True
    else:
        mapping = tuple(int(v) for v in embedding)
        bijective = sorted(mapping) == list(range(len(mapping)))
    if len(mapping) != tree.node_count:
        raise ValidationError(
            "MappingLengthMismatch",
            f"mapping covers {len(mapping)} nodes, tree has {tree.node_count}",
        )
    return mapping, bijective


def _verify(tree, points, embedding, polygon) -> VerificationReport:
    mapping, bijective = _as_mapping(tree, embedding)
    if not bijective:
        counts: dict[int, int] = {}
        for v in mapping:
            counts[v] = counts.get(v, 0) + 1
        offenders = sorted(
            v for v, c in counts.items() if c > 1 or not 0 <= v < len(points)
        )
        return VerificationReport.from_violations(
            [Violation(KIND_NOT_BIJECTION, points=tuple(offenders))]
        )

    # Every point is an edge's endpoint (or the tree is one node), so the
    # embedding is valid iff its edges, labelled by point, and the boundary
    # edges, labelled by negative vertex numbers, meet only at shared points.
    xs, ys = [p.x for p in points], [p.y for p in points]
    labelled = [
        (xs[a], ys[a], xs[b], ys[b], a, b)
        for a, b in ((mapping[u], mapping[v]) for u, v in tree.edges)
    ]
    if polygon is not None:
        k = len(polygon.vertices)
        labelled += [e[:4] + (~t, ~((t + 1) % k)) for t, e in enumerate(polygon.edge_boxes)]
    if plane_contact(labelled) is None:
        return VerificationReport(valid=True)

    index = PointIndex(points.points)
    violations: set[Violation] = set()

    # boxed(...) + (edge_index, node_u, node_v)
    segs = []
    for idx, (u, v) in enumerate(tree.edges):
        a, b = mapping[u], mapping[v]
        rec = boxed(xs[a], ys[a], xs[b], ys[b]) + (idx, u, v)
        segs.append(rec)
        if polygon is not None and polygon.blocks(rec):
            violations.add(Violation(KIND_EDGE_HITS_BOUNDARY, edges=(idx,)))

    _check_edge_pairs(segs, violations)
    _check_points_on_edges(tree.edges, mapping, index, violations)
    return VerificationReport.from_violations(violations)


def _check_edge_pairs(segs, violations) -> None:
    ordered = sorted(segs, key=lambda rec: rec[4])
    active: list[tuple] = []
    for rec in ordered:
        minx, maxx, miny, maxy = rec[4:8]
        keep = []
        for other in active:
            if other[5] < minx:
                continue
            keep.append(other)
            if other[6] > maxy or other[7] < miny:
                continue
            _classify_pair(rec, other, violations)
        keep.append(rec)
        active = keep


def _classify_pair(rec_a, rec_b, violations) -> None:
    rel = segment_relation(
        rec_a[0], rec_a[1], rec_a[2], rec_a[3], rec_b[0], rec_b[1], rec_b[2], rec_b[3]
    )
    if rel == DISJOINT:
        return
    idx_a, u_a, v_a = rec_a[8:11]
    idx_b, u_b, v_b = rec_b[8:11]
    pair = (idx_a, idx_b) if idx_a < idx_b else (idx_b, idx_a)
    if rel == OVERLAP:
        violations.add(Violation(KIND_EDGES_OVERLAP, edges=pair))
    elif u_a in (u_b, v_b) or v_a in (u_b, v_b):
        # Sharing a node, the images always meet at that node's point; the
        # only possible misbehaviour is extra collinear contact.
        return
    elif rel == CROSSING:
        violations.add(Violation(KIND_EDGE_CROSSES_EDGE, edges=pair))
    elif rel == TOUCH:
        # Endpoint contact without a shared node is impossible for a
        # bijective mapping onto distinct points.
        raise AssertionError("endpoint contact between node-disjoint edges")
    # The remaining codes put one edge's endpoint, a mapped point, inside
    # the other edge; _check_points_on_edges reports that.


def _check_points_on_edges(edges, mapping, index, violations) -> None:
    for idx, (u, v) in enumerate(edges):
        for point_idx in index.inside(mapping[u], mapping[v]):
            violations.add(
                Violation(KIND_EDGE_THROUGH_POINT, edges=(idx,), points=(point_idx,))
            )
