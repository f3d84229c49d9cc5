"""Certificate checking for straight-line tree embeddings.

A mapping is valid when it is a bijection, edge images that share a tree node
touch only at that node's image, edge images that share no node are fully
disjoint, no edge passes through any other mapped point, and (in the
polygon-bounded variant) no edge touches the polygon boundary.

Validity and the report both come from one Bentley–Ottmann sweep,
:func:`plane_contacts`, over the edge images and the boundary edges. An
instance's points are distinct and strictly inside its polygon, so two of
these segments may share an end only at a shared mapped point or polygon
vertex, and a valid embedding gives no contact. Every contact the sweep
yields is turned into violations where it happens, collected as plain
``(kind, edges, points)`` tuples in one set. The tuples are sorted into a
canonical order, and each becomes a :class:`Violation` once, in that order.
The report lists them all instead of stopping at the first, so callers can
assert on specific failure kinds. All of it is exact integer and rational
arithmetic.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .errors import ValidationError
from .geometry import direction_key, exact_ints, plane_contacts
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
    check_node_count,
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
    check_node_count(tree.node_count, len(points))
    return _verify(tree, points, embedding, None)


def _verify(tree, points, embedding, polygon) -> VerificationReport:
    if isinstance(embedding, Embedding):  # a bijection by construction
        mapping, offenders = embedding.mapping, []
    else:
        # With one point per node, a mapping with no offender is a bijection.
        mapping = exact_ints(embedding, "NonIntegerImage", "node image")
        counts = Counter(mapping)
        offenders = sorted(v for v, c in counts.items() if c > 1 or not 0 <= v < len(points))
    if len(mapping) != tree.node_count:
        raise ValidationError(
            "MappingLengthMismatch",
            f"mapping covers {len(mapping)} nodes, tree has {tree.node_count}",
        )
    if offenders:
        return VerificationReport._from_tuples({(KIND_NOT_BIJECTION, (), tuple(offenders))})

    # Every point is an edge's endpoint (or the tree is one node), so the
    # embedding is valid iff its edges, each with its two point indices for
    # the report, and the boundary edges meet only at shared ends.
    xs, ys = points.xs, points.ys
    segments = [
        (xs[a], ys[a], xs[b], ys[b], a, b)
        for a, b in ((mapping[u], mapping[v]) for u, v in tree.edges)
    ]
    m = len(segments)
    if polygon is not None:
        segments += polygon.edge_boxes
    found: set[tuple[str, tuple[int, ...], tuple[int, ...]]] = set()
    for contact in plane_contacts(segments):
        _report_contact(segments, m, *contact, found)
    return VerificationReport._from_tuples(found)


def _report_contact(segments, m, p, begin, end, inside, found) -> None:
    """Add the violations at one contact p of the sweep to the set found.
    Segments below m are tree edges, the others boundary edges; begin, end
    and inside are the segments that start at p, end at p and hold p."""
    at_p = (*begin, *end, *inside)
    edges = [s for s in at_p if s < m]
    if len(edges) < len(at_p):
        for s in edges:
            found.add((KIND_EDGE_HITS_BOUNDARY, (s,), ()))
    # A tree edge with an end at p makes p a mapped point: its index there.
    ending = next((s for s in (*begin, *end) if s < m), None)
    through = [s for s in inside if s < m]
    if ending is not None:
        rec = segments[ending]
        point = rec[4] if rec[:2] == p else rec[5]
        for s in through:
            found.add((KIND_EDGE_THROUGH_POINT, (s,), (point,)))
    # The tree edges that go on past p, by direction. Two of one direction
    # overlap; the pair is reported once, at the later of its two starts,
    # where one of them is in begin. Two of different directions that both
    # hold p inside them cross there.
    runs: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for group, segs in ((0, begin), (1, through)):
        for s in segs:
            if s < m:
                ax, ay, bx, by = segments[s][:4]
                runs.setdefault(direction_key(bx - ax, by - ay), ([], []))[group].append(s)
    for starting, passing in runs.values():
        for i, s in enumerate(starting):
            for t in starting[i + 1 :] + passing:
                found.add((KIND_EDGES_OVERLAP, (min(s, t), max(s, t)), ()))
    passing = [run[1] for run in runs.values() if run[1]]
    for i, run in enumerate(passing):
        for other in passing[i + 1 :]:
            for s in run:
                for t in other:
                    found.add((KIND_EDGE_CROSSES_EDGE, (min(s, t), max(s, t)), ()))
