"""From 3-partition to tree embedding and back.

Validates 3-partition inputs, builds the matching embedding instance (a hub
tree whose chains must tile groups of collinear points that notched triangles
carve apart), recovers a 3-partition solution from a valid embedding, and
provides a small exhaustive 3-partition oracle for cross-checking.
"""

from __future__ import annotations

from itertools import chain, repeat

from .errors import ValidationError
from .geometry import COORD_LIMIT, Point, Record, SimplePolygon, _set, exact_ints
from .model import (
    Embedding,
    EmbeddingInstance,
    FreeTree,
    PointSet,
    _expect_int,
    _expect_object,
    _index,
    _index_rows,
    dumps_canonical,
    loads_strict,
    make_instance,
)


class ThreePartitionInstance(Record):
    """3n values that must split into n triples, each summing to ``target``.

    Every value is strictly between target/4 and target/2, so only triples
    can reach the target sum. Construction checks the three defining
    constraints and names the first one violated.
    """

    _fields = ("target", "values")

    def __init__(self, target: int, values):
        _set(self, "target", target)
        target = exact_ints((target,), "NonIntegerValue", "3-partition target")[0]
        vals = exact_ints(values, "NonIntegerValue", "3-partition value")
        _set(self, "values", vals)
        if len(vals) == 0 or len(vals) % 3 != 0:
            raise ValidationError(
                "LengthNotMultipleOf3",
                f"need a positive multiple of 3 values, got {len(vals)}",
            )
        if not (4 * min(vals) > target and 2 * max(vals) < target):
            for i, a in enumerate(vals):  # only to name the first offender
                if not (4 * a > target and 2 * a < target):
                    raise ValidationError(
                        "ElementOutOfRange",
                        f"a[{i}]={a} is not strictly between {target}/4 and {target}/2",
                        index=i,
                    )
        n = len(vals) // 3
        if sum(vals) != target * n:
            raise ValidationError(
                "SumMismatch", f"values sum to {sum(vals)}, expected {target}*{n}"
            )

    @property
    def group_count(self) -> int:
        return len(self.values) // 3


def validate_3p(target: int, values) -> ThreePartitionInstance:
    """The checked instance; its constructor names the first constraint violated."""
    return ThreePartitionInstance(target, values)


class Partition(Record):
    """n disjoint index triples covering 0..3n-1, in canonical order."""

    _fields = ("sets",)

    def __init__(self, sets):
        sets = tuple(map(tuple, sets))
        _set(self, "sets", sets)
        flat = exact_ints(chain.from_iterable(sets), "InvalidPartition", "index")
        for s in sets:
            if len(s) != 3 or not (s[0] < s[1] < s[2]):
                raise ValidationError(
                    "InvalidPartition", f"set {s} is not a sorted triple"
                )
        if sorted(flat) != list(range(3 * len(sets))):
            raise ValidationError(
                "InvalidPartition", "sets do not partition the index range"
            )
        if list(sets) != sorted(sets):
            raise ValidationError(
                "InvalidPartition", "sets are not in lexicographic order"
            )

    @classmethod
    def from_sets(cls, sets) -> "Partition":
        canonical = sorted(tuple(sorted(s)) for s in sets)
        return cls(sets=tuple(canonical))


def partition_solves(inst: ThreePartitionInstance, partition: Partition) -> bool:
    """True iff every triple of the partition sums to the instance target."""
    if len(partition.sets) != inst.group_count:
        return False
    return all(
        sum(inst.values[i] for i in triple) == inst.target
        for triple in partition.sets
    )


class ReductionMeta(Record):
    """Index bookkeeping tying a generated instance back to its source.

    Field names mirror the meta file schema: ``v0_node`` is the tree hub,
    ``p0_point`` the lone high point every other point can see,
    ``path_nodes[i]`` the i-th chain in hub-to-tail order, and
    ``group_points[g]`` the g-th block of collinear points, left to right.
    """

    _fields = ("B", "n", "v0_node", "path_nodes", "group_points", "p0_point")

    def __init__(self, B: int, n: int, v0_node: int, path_nodes, group_points, p0_point: int):
        path_nodes = tuple(map(tuple, path_nodes))
        group_points = tuple(map(tuple, group_points))
        _set(self, "B", B)
        _set(self, "n", n)
        _set(self, "v0_node", v0_node)
        _set(self, "path_nodes", path_nodes)
        _set(self, "group_points", group_points)
        _set(self, "p0_point", p0_point)
        exact_ints((B, n), "InvalidMeta", "B or n")
        if B < 1 or n < 1:
            raise ValidationError("InvalidMeta", "B and n must be positive")
        total = n * B + 1
        if len(path_nodes) != 3 * n:
            raise ValidationError(
                "InvalidMeta", f"expected {3 * n} paths, got {len(path_nodes)}"
            )
        if not all(path_nodes):
            raise ValidationError("InvalidMeta", "empty path")
        covered = exact_ints(chain((v0_node,), *path_nodes), "InvalidMeta", "node index")
        # Lengths first, so an oversized n*B is rejected without allocating.
        if len(covered) != total or sorted(covered) != list(range(total)):
            raise ValidationError(
                "InvalidMeta", "hub and paths do not partition the node range"
            )
        if len(group_points) != n or not {B}.issuperset(map(len, group_points)):
            raise ValidationError(
                "InvalidMeta", f"expected {n} groups of exactly {B} points"
            )
        covered_pts = exact_ints(
            chain((p0_point,), *group_points), "InvalidMeta", "point index"
        )
        if len(covered_pts) != total or sorted(covered_pts) != list(range(total)):
            raise ValidationError(
                "InvalidMeta", "p0 and groups do not partition the point range"
            )

    @property
    def node_count(self) -> int:
        return self.n * self.B + 1


# ---------------------------------------------------------------------------
# Generators

def build_tree(inst: ThreePartitionInstance) -> tuple[FreeTree, tuple[tuple[int, ...], ...]]:
    """Hub node 0 plus one chain per input value, chain heads wired to the hub.

    Returns the tree and, per value, the chain's node indices in head-to-tail
    order. Node count is always n*B + 1.
    """
    edges: list[tuple[int, int]] = []
    paths: list[tuple[int, ...]] = []
    next_node = 1
    for a in inst.values:
        nodes = tuple(range(next_node, next_node + a))
        next_node += a
        edges.append((0, nodes[0]))
        edges.extend((nodes[t], nodes[t + 1]) for t in range(a - 1))
        paths.append(nodes)
    return FreeTree(node_count=next_node, edges=tuple(edges)), tuple(paths)


def build_polygon(n: int, B: int) -> SimplePolygon:
    """The bounding region: a right triangle with n-1 notches cut from its base.

    Counter-clockwise cycle: origin; for each notch k the triple
    (B+1+k(B+2), 0), (B+1+k(B+2), 2), (B+3+k(B+2), 0); then the far base
    corner (n(B+2), 0) and the apex (0, n(B+2)). Exactly 3n vertices.
    """
    if n < 1 or B < 1:
        raise ValidationError("InvalidParameter", "n and B must be positive")
    if n * (B + 2) > COORD_LIMIT:
        raise ValidationError(
            "CoordinateOutOfRange", f"n*(B+2)={n * (B + 2)} exceeds the coordinate bound"
        )
    verts: list[Point] = [Point(0, 0)]
    for k in range(n - 1):
        off = k * (B + 2)
        verts.append(Point(B + 1 + off, 0))
        verts.append(Point(B + 1 + off, 2))
        verts.append(Point(B + 3 + off, 0))
    verts.append(Point(n * (B + 2), 0))
    verts.append(Point(0, n * (B + 2)))
    return SimplePolygon(tuple(verts))


def build_points(n: int, B: int) -> tuple[PointSet, tuple[tuple[int, ...], ...]]:
    """One high anchor point plus n groups of B collinear points at height 1.

    The anchor (1, n(B+2)-2) comes first; group i then covers
    x = (i-1)(B+2)+1 .. (i-1)(B+2)+B. Requires B >= 3 so the anchor sits
    strictly below the hypotenuse and strictly above the notch peaks.
    """
    if n < 1:
        raise ValidationError("InvalidParameter", "n must be positive")
    if B < 3:
        raise ValidationError(
            "InvalidParameter", "B must be at least 3 for a strictly interior anchor"
        )
    if n * (B + 2) > COORD_LIMIT:
        raise ValidationError(
            "CoordinateOutOfRange", f"n*(B+2)={n * (B + 2)} exceeds the coordinate bound"
        )
    xs = chain((1,), *(range(i * (B + 2) + 1, i * (B + 2) + B + 1) for i in range(n)))
    ys = chain((n * (B + 2) - 2,), repeat(1, n * B))
    groups = tuple(tuple(range(1 + i * B, 1 + (i + 1) * B)) for i in range(n))
    return PointSet._from_xy(xs, ys), groups


def build_instance(inst: ThreePartitionInstance) -> tuple[EmbeddingInstance, ReductionMeta]:
    """Assemble and validate the full embedding instance for a 3-partition input."""
    n, B = inst.group_count, inst.target
    # Points and polygon check the coordinate bound before the tree allocates n*B nodes.
    points, groups = build_points(n, B)
    polygon = build_polygon(n, B)
    tree, paths = build_tree(inst)
    instance = make_instance(tree, points, polygon)
    meta = ReductionMeta(
        B=B,
        n=n,
        v0_node=0,
        path_nodes=paths,
        group_points=groups,
        p0_point=0,
    )
    return instance, meta


# ---------------------------------------------------------------------------
# Back-extraction and oracle

def extract_partition(meta: ReductionMeta, embedding: Embedding) -> Partition:
    """Read a 3-partition solution off a verifier-valid embedding.

    Each chain must land entirely inside one group; a chain straddling groups
    would contradict the construction's correctness argument, so it raises
    loudly instead of returning a best-effort answer.
    """
    if len(embedding) != meta.node_count:
        raise ValidationError(
            "SizeMismatch",
            f"embedding maps {len(embedding)} nodes, meta describes {meta.node_count}",
        )
    if embedding.mapping[meta.v0_node] != meta.p0_point:
        raise ValidationError(
            "HubNotOnP0",
            f"hub node {meta.v0_node} maps to point {embedding.mapping[meta.v0_node]}, "
            f"not the anchor point {meta.p0_point}",
        )
    group_of_point: dict[int, int] = {}
    for g, group in enumerate(meta.group_points):
        for pt in group:
            group_of_point[pt] = g
    sets_by_group: list[list[int]] = [[] for _ in range(meta.n)]
    for path_index, nodes in enumerate(meta.path_nodes):
        groups_hit = {group_of_point[embedding.mapping[v]] for v in nodes}
        if len(groups_hit) != 1:
            raise ValidationError(
                "PathStraddlesGroups",
                f"path {path_index} maps into groups {sorted(groups_hit)}; "
                "a verifier-valid embedding must keep each path in one group",
                path=path_index,
            )
        sets_by_group[groups_hit.pop()].append(path_index)
    return Partition.from_sets(sets_by_group)


def brute_force_3p(inst: ThreePartitionInstance) -> Partition | None:
    """Exhaustive search over unordered index triples.

    Deterministic: triples are tried with ascending leaders and ascending
    (j, k) pairs, so the first hit is the lexicographically least partition.
    Refuses instances with more than 15 values.
    """
    m = len(inst.values)
    if m > 15:
        raise ValidationError(
            "InstanceTooLarge", f"exhaustive search is capped at 15 values, got {m}"
        )
    target = inst.target
    values = inst.values

    def search(remaining: list[int], acc: list[tuple[int, int, int]]):
        if not remaining:
            return list(acc)
        lead = remaining[0]
        rest = remaining[1:]
        for jj in range(len(rest)):
            vj = values[rest[jj]]
            for kk in range(jj + 1, len(rest)):
                if values[lead] + vj + values[rest[kk]] == target:
                    acc.append((lead, rest[jj], rest[kk]))
                    nxt = [x for t, x in enumerate(rest) if t != jj and t != kk]
                    found = search(nxt, acc)
                    if found is not None:
                        return found
                    acc.pop()
        return None

    triples = search(list(range(m)), [])
    if triples is None:
        return None
    partition = Partition.from_sets(triples)
    assert partition_solves(inst, partition)
    return partition


# ---------------------------------------------------------------------------
# Serialization

def serialize_meta(meta: ReductionMeta) -> str:
    return dumps_canonical(
        {
            "B": meta.B,
            "n": meta.n,
            "v0_node": meta.v0_node,
            "path_nodes": [list(p) for p in meta.path_nodes],
            "group_points": [list(g) for g in meta.group_points],
            "p0_point": meta.p0_point,
        }
    )


def deserialize_meta(text: str) -> ReductionMeta:
    obj = _expect_object(
        loads_strict(text),
        "meta",
        {"B", "n", "v0_node", "path_nodes", "group_points", "p0_point"},
    )
    paths = _index_rows(obj["path_nodes"], "path_nodes")
    groups = _index_rows(obj["group_points"], "group_points")
    return ReductionMeta(
        B=_expect_int(obj["B"], "B"),
        n=_expect_int(obj["n"], "n"),
        v0_node=_index(obj["v0_node"], "v0_node"),
        path_nodes=paths,
        group_points=groups,
        p0_point=_index(obj["p0_point"], "p0_point"),
    )


def serialize_partition(partition: Partition) -> str:
    return dumps_canonical({"sets": [list(s) for s in partition.sets]})


def deserialize_partition(text: str) -> Partition:
    obj = _expect_object(loads_strict(text), "partition", {"sets"})
    return Partition(sets=_index_rows(obj["sets"], "sets"))
