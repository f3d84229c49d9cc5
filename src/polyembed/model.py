"""Core problem types and their canonical, integers-only text format.

Free trees, point sets, embedding instances (tree + points + bounding
polygon), node-to-point embeddings, and verification reports; a point set
makes its ``Point`` records on first read, so parsing makes none.
Serialization is JSON restricted to integers, booleans, and nested
arrays/objects; equal values always serialize to identical bytes (sorted
keys, compact separators, one trailing newline), which keeps files diffable
and round-trips exact.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, starmap
from operator import attrgetter, itemgetter

from .errors import ParseError, ValidationError
from .geometry import (
    COORD_LIMIT,
    Point,
    PointLocation,
    Record,
    SimplePolygon,
    _locate,
    _set,
    exact_ints,
    normalize_ccw,
)

# ---------------------------------------------------------------------------
# Canonical JSON plumbing

def dumps_canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def _reject_nonint(text: str):
    raise ParseError(f"non-integer literal {text!r} is not allowed")


def loads_strict(text: str):
    """Parse JSON, rejecting floats, NaN, Infinity and too-long integers."""
    try:
        return json.loads(text, parse_float=_reject_nonint, parse_constant=_reject_nonint)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nesting too deep") from exc
    except ParseError:
        raise
    except ValueError as exc:  # an integer literal too long for int()
        raise ParseError(f"integer literal too long: {exc}") from exc


def _expect_object(value, path: str, keys: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object")
    unknown = set(value) - keys
    if unknown:
        raise ParseError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    missing = keys - set(value)
    if missing:
        raise ParseError(f"{path}: missing key {sorted(missing)[0]!r}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array")
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer")
    return value


def _coordinate(value, path: str) -> int:
    v = _expect_int(value, path)
    if abs(v) > COORD_LIMIT:
        raise ParseError(f"{path}: coordinate {v} exceeds the 2^31-1 bound")
    return v


def _index(value, path: str) -> int:
    v = _expect_int(value, path)
    if v < 0:
        raise ParseError(f"{path}: expected a non-negative index")
    return v


def _indices(value, path: str) -> tuple[int, ...]:
    arr = _expect_list(value, path)
    for i, v in enumerate(arr):
        if type(v) is not int or v < 0:  # else _index accepts v as it is
            _index(v, f"{path}[{i}]")
    return tuple(arr)


def _index_rows(value, path: str) -> tuple[tuple[int, ...], ...]:
    rows = _expect_list(value, path)
    return tuple(_indices(row, f"{path}[{i}]") for i, row in enumerate(rows))


def _pairs(
    value, path: str, check=_coordinate, shape: str = "[x, y]", lo: int = -COORD_LIMIT
) -> list[tuple[int, int]]:
    """An array of ``shape`` pairs, each element read by ``check``: by
    default, ``[x, y]`` coordinate pairs.

    A pair of two plain ints in ``[lo, COORD_LIMIT]``, which ``check``
    accepts as they are, is taken at once. Any other pair is read again by
    ``check`` under its path, which raises or accepts it, so a path is
    formatted only for a pair that fails.
    """
    pairs = []
    for i, v in enumerate(_expect_list(value, path)):
        if type(v) is list and len(v) == 2:
            a, b = v
            if (
                type(a) is int
                and type(b) is int
                and lo <= a <= COORD_LIMIT
                and lo <= b <= COORD_LIMIT
            ):
                pairs.append((a, b))
                continue
        at = f"{path}[{i}]"
        pair = _expect_list(v, at)
        if len(pair) != 2:
            raise ParseError(f"{at}: expected {shape}")
        pairs.append((check(pair[0], f"{at}[0]"), check(pair[1], f"{at}[1]")))
    return pairs


# ---------------------------------------------------------------------------
# Domain types

class FreeTree(Record):
    """An unrooted tree over node indices 0..node_count-1.

    Construction rejects anything that is not a tree: a node or count that
    is not an int, self-loops, duplicate edges, cycles, and disconnected
    edge sets.
    """

    _fields = ("node_count", "edges")

    def __init__(self, node_count: int, edges):
        _set(self, "node_count", node_count)
        n = exact_ints((node_count,), "NonIntegerNode", "node count")[0]
        edges = tuple(map(tuple, edges))
        _set(self, "edges", edges)
        nodes = exact_ints(chain.from_iterable(edges), "NonIntegerNode", "tree node")
        if n < 1:
            raise ValidationError("EmptyTree", "a tree needs at least one node")
        # Union-find with path halving: over a list for n - 1 edges, else over
        # a dict of the nodes the edges touch, bounded by the edge list rather
        # than by the declared count. Only an edge that closes a cycle is
        # looked at again, to name why.
        parent = list(range(n)) if len(edges) == n - 1 else dict(zip(nodes, nodes))
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(
                    "NodeIndexOutOfRange", f"edge ({u}, {v}) leaves [0, {n})"
                )
            ru, rv = u, v
            while parent[ru] != ru:
                parent[ru] = ru = parent[parent[ru]]
            while parent[rv] != rv:
                parent[rv] = rv = parent[parent[rv]]
            if ru == rv:
                if u == v:
                    raise ValidationError("TreeHasCycle", f"self-loop at node {u}")
                key = (u, v) if u < v else (v, u)
                if key in {(a, b) if a < b else (b, a) for a, b in edges[:i]}:
                    raise ValidationError("TreeHasCycle", f"duplicate edge {key}")
                raise ValidationError(
                    "TreeHasCycle", f"edge ({u}, {v}) closes a cycle"
                )
            parent[ru] = rv
        if len(edges) != n - 1:
            raise ValidationError(
                "TreeNotConnected",
                f"{n} nodes need {n - 1} edges, got {len(edges)}",
            )

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        neigh: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neigh)


class PointSet(Record):
    """Distinct points, stored as two int tuples ``xs`` and ``ys`` and compared
    by them; the :class:`Point` records of ``points`` are made on first read."""

    _fields = ("points",)
    _key = attrgetter("xs", "ys")

    def __init__(self, points):
        points = tuple(points)
        _set(self, "points", points)
        self._check(tuple(map(attrgetter("x"), points)), tuple(map(attrgetter("y"), points)))

    @classmethod
    def _from_xy(cls, xs=(), ys=()) -> "PointSet":
        """The points (xs[i], ys[i]), checked, with no ``Point`` made yet."""
        self = cls.__new__(cls)
        self._check(tuple(xs), tuple(ys))
        return self

    def _check(self, xs: tuple, ys: tuple) -> None:
        _set(self, "xs", xs)
        _set(self, "ys", ys)
        if {int}.issuperset(map(type, chain(xs, ys))) and len(set(zip(xs, ys))) == len(xs):
            return
        seen: dict[tuple[int, int], int] = {}
        for i, key in enumerate(zip(xs, ys)):  # only to name the first offender
            x, y = key
            if type(x) is not int or type(y) is not int:  # else exact_ints passes
                exact_ints(key, "NonIntegerCoordinate", f"point {i} coordinate")
            if key in seen:
                raise ValidationError(
                    "DuplicatePoint", f"points {seen[key]} and {i} coincide at {Point(x, y)}"
                )
            seen[key] = i

    @functools.cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.xs, self.ys))

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]


def check_node_count(node_count: int, point_count: int) -> None:
    """The one check that there is one point per tree node."""
    if node_count != point_count:
        raise ValidationError(
            "NodeCountMismatch",
            f"tree has {node_count} nodes but there are {point_count} points",
        )


class Embedding(Record):
    """A bijection from tree nodes to point indices: mapping[node] = point."""

    _fields = ("mapping",)

    def __init__(self, mapping):
        mapping = exact_ints(mapping, "NonIntegerImage", "node image")
        _set(self, "mapping", mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValidationError(
                "NotBijection",
                "mapping is not a permutation of the point indices",
            )

    def __len__(self) -> int:
        return len(self.mapping)


class EmbeddingInstance(Record):
    """A decision-problem instance: embed `tree` onto `points` inside `polygon`.

    Construction checks every invariant: a simple polygon, stored CCW, one
    point per tree node, and every point strictly inside the polygon.
    """

    _fields = ("tree", "points", "polygon")

    def __init__(self, tree: FreeTree, points: PointSet, polygon: SimplePolygon):
        _set(self, "tree", tree)
        _set(self, "points", points)
        polygon = normalize_ccw(polygon)
        _set(self, "polygon", polygon)
        check_node_count(tree.node_count, len(points))
        where = _locate(points.xs, points.ys, polygon)
        if where.count(PointLocation.INSIDE) != len(where):
            i = next(i for i, at in enumerate(where) if at is not PointLocation.INSIDE)
            raise ValidationError(
                "PointOnOrOutsideBoundary",
                f"point {i} at {Point(points.xs[i], points.ys[i])} is not strictly inside"
                " the polygon",
            )


KIND_NOT_BIJECTION = "NotBijection"
KIND_EDGE_CROSSES_EDGE = "EdgeCrossesEdge"
KIND_EDGES_OVERLAP = "EdgesOverlapAtSegment"
KIND_EDGE_HITS_BOUNDARY = "EdgeHitsBoundary"
KIND_EDGE_THROUGH_POINT = "EdgeThroughMappedPoint"

VIOLATION_KINDS = frozenset(
    {
        KIND_NOT_BIJECTION,
        KIND_EDGE_CROSSES_EDGE,
        KIND_EDGES_OVERLAP,
        KIND_EDGE_HITS_BOUNDARY,
        KIND_EDGE_THROUGH_POINT,
    }
)


class Violation(Record):
    """One specific way an embedding fails.

    ``edges`` are indices into the tree's edge list; ``points`` are indices
    into the instance's point set. Both are tuples of ints, as every caller
    builds them; only the kind is checked.
    """

    _fields = ("kind", "edges", "points")

    def __init__(self, kind: str, edges: tuple[int, ...] = (), points: tuple[int, ...] = ()):
        _set(self, "kind", kind)
        _set(self, "edges", edges)
        _set(self, "points", points)
        if kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {kind!r}")


class VerificationReport(Record):
    _fields = ("valid", "violations")

    def __init__(self, valid: bool, violations=()):
        violations = tuple(violations)
        _set(self, "valid", valid)
        _set(self, "violations", violations)
        if valid != (len(violations) == 0):
            raise ValueError("report validity must match emptiness of violations")

    @classmethod
    def _from_tuples(cls, found) -> "VerificationReport":
        """The report of distinct ``(kind, edges, points)`` tuples in canonical
        order, by stable sorts on one field each, last first: a key of ints
        or of a str compares faster than a tuple of tuples."""
        ordered = list(found)
        for field in (2, 1, 0):
            ordered.sort(key=itemgetter(field))
        return cls(not ordered, starmap(Violation, ordered))


# ---------------------------------------------------------------------------
# Instance validation

def make_instance(
    tree: FreeTree, points: PointSet, polygon: SimplePolygon
) -> EmbeddingInstance:
    """Build an instance; :class:`EmbeddingInstance` checks itself."""
    return EmbeddingInstance(tree=tree, points=points, polygon=polygon)


def validate_instance(raw) -> EmbeddingInstance:
    """Build a fully validated instance from parsed file data.

    The tree's node count is what the edge list implies (largest index plus
    one; a single node when there are no edges) and must match the number of
    points exactly.
    """
    obj = _expect_object(raw, "instance", {"polygon", "points", "tree_edges"})
    vertices, pairs = _pairs(obj["polygon"], "polygon"), _pairs(obj["points"], "points")
    edges = _pairs(obj["tree_edges"], "tree_edges", _index, "[u, v]", 0)
    polygon, points = SimplePolygon(starmap(Point, vertices)), PointSet._from_xy(*zip(*pairs))
    check_node_count(max(chain.from_iterable(edges), default=0) + 1, len(points))
    return make_instance(FreeTree(len(points), edges), points, polygon)


# ---------------------------------------------------------------------------
# Serialization

def serialize_instance(inst: EmbeddingInstance) -> str:
    return dumps_canonical(
        {
            "polygon": list(map(Point._key, inst.polygon.vertices)),
            "points": list(zip(inst.points.xs, inst.points.ys)),
            "tree_edges": inst.tree.edges,
        }
    )


def deserialize_instance(text: str) -> EmbeddingInstance:
    return validate_instance(loads_strict(text))


def serialize_embedding(emb: Embedding) -> str:
    return dumps_canonical({"mapping": list(emb.mapping)})


def deserialize_embedding(text: str) -> Embedding:
    obj = _expect_object(loads_strict(text), "embedding", {"mapping"})
    return Embedding(_indices(obj["mapping"], "mapping"))


def serialize_point_set(points: PointSet) -> str:
    return dumps_canonical({"points": list(zip(points.xs, points.ys))})


def deserialize_point_set(text: str) -> PointSet:
    obj = _expect_object(loads_strict(text), "points", {"points"})
    return PointSet._from_xy(*zip(*_pairs(obj["points"], "points")))


def serialize_tree(tree: FreeTree) -> str:
    return dumps_canonical({"node_count": tree.node_count, "tree_edges": tree.edges})


def deserialize_tree(text: str) -> FreeTree:
    obj = _expect_object(loads_strict(text), "tree", {"node_count", "tree_edges"})
    count = _expect_int(obj["node_count"], "node_count")
    edges = _pairs(obj["tree_edges"], "tree_edges", _index, "[u, v]", 0)
    return FreeTree(node_count=count, edges=edges)


def serialize_report(report: VerificationReport) -> str:
    return dumps_canonical(
        {
            "valid": report.valid,
            "violations": [
                {"kind": v.kind, "edges": list(v.edges), "points": list(v.points)}
                for v in report.violations
            ],
        }
    )


def deserialize_report(text: str) -> VerificationReport:
    obj = _expect_object(loads_strict(text), "report", {"valid", "violations"})
    if not isinstance(obj["valid"], bool):
        raise ParseError("valid: expected a boolean")
    violations = []
    for i, raw in enumerate(_expect_list(obj["violations"], "violations")):
        vobj = _expect_object(raw, f"violations[{i}]", {"kind", "edges", "points"})
        kind = vobj["kind"]
        if not isinstance(kind, str) or kind not in VIOLATION_KINDS:
            raise ParseError(f"violations[{i}].kind: unknown kind {kind!r}")
        violations.append(
            Violation(
                kind=kind,
                edges=_indices(vobj["edges"], f"violations[{i}].edges"),
                points=_indices(vobj["points"], f"violations[{i}].points"),
            )
        )
    if obj["valid"] != (not violations):
        want = "false" if violations else "true"
        raise ParseError(f"valid: expected {want} with {len(violations)} violations")
    return VerificationReport(valid=obj["valid"], violations=tuple(violations))


__all__ = [
    "FreeTree",
    "PointSet",
    "Embedding",
    "EmbeddingInstance",
    "Violation",
    "VerificationReport",
    "VIOLATION_KINDS",
    "make_instance",
    "validate_instance",
    "dumps_canonical",
    "loads_strict",
    "serialize_instance",
    "deserialize_instance",
    "serialize_embedding",
    "deserialize_embedding",
    "serialize_point_set",
    "deserialize_point_set",
    "serialize_tree",
    "deserialize_tree",
    "serialize_report",
    "deserialize_report",
]
