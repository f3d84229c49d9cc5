"""Exact decision procedures for tree embeddings.

``decide_embedding`` is a complete backtracking search for the
polygon-bounded problem: nodes are placed in depth-first order from a
max-degree root, and candidate points are tried in ascending index order.
Candidates come from clean sightlines: pairs of mutually visible points with
no third point of the instance between them. Excluding edges that cover a
point not yet placed is safe: every point must eventually be used, so such
an edge can never extend to a valid embedding. A partial placement then
survives only if the new edge relates correctly to every placed edge.
Interchangeable sibling subtrees additionally get ascending root images,
which skips permutations of identical chains without ever skipping the first
solution the plain order would find.

``embed_tree_unconstrained`` handles the polygon-free case for points in
general position by recursive angular splitting: the root goes to the
bottom-most point, the rest are sorted by angle, and each child subtree gets
a contiguous angular block whose least-angle point (a hull point of the
block) becomes the child's image.
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError
from .geometry import (
    DISJOINT,
    OVERLAP,
    PointIndex,
    PointLocation,
    Segment,
    SimplePolygon,
    cross,
    point_in_polygon,
    segment_hits_boundary,
    segment_relation,
)
from .model import Embedding, EmbeddingInstance, FreeTree, PointSet
from .verifier import verify_embedding


@dataclass(frozen=True)
class VisibilityGraph:
    """Symmetric point-to-point visibility matrix; the diagonal is True."""

    matrix: tuple[tuple[bool, ...], ...]


def build_visibility_graph(points: PointSet, polygon: SimplePolygon) -> VisibilityGraph:
    """Exact pairwise visibility of strictly interior points."""
    n = len(points)
    for i, p in enumerate(points):
        if point_in_polygon(p, polygon) is not PointLocation.INSIDE:
            raise ValidationError(
                "PointNotStrictlyInside",
                f"point {i} at {p} is not strictly inside the polygon",
            )
    rows = [[False] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = True
        for j in range(i + 1, n):
            vis = not segment_hits_boundary(Segment(points[i], points[j]), polygon)
            rows[i][j] = vis
            rows[j][i] = vis
    return VisibilityGraph(matrix=tuple(tuple(r) for r in rows))


class SolveStatus(Enum):
    EMBEDDED = "embedded"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class SolveOutcome:
    status: SolveStatus
    embedding: Embedding | None = None
    elapsed_ms: int | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Search settings; defaults give the canonical deterministic order.

    ``root_node`` fixes the tree node placed first (default: the lowest-index
    node of maximum degree); ``time_limit_ms`` bounds the whole decision.
    """

    root_node: int | None = None
    time_limit_ms: int | None = None


def _dfs_order(tree: FreeTree, root: int) -> tuple[list[int], list[int]]:
    """Preorder node sequence and parent array, children visited ascending."""
    adj = tree.adjacency
    order: list[int] = []
    parent = [-1] * tree.node_count
    stack = [root]
    seen = [False] * tree.node_count
    seen[root] = True
    while stack:
        v = stack.pop()
        order.append(v)
        # push descending so the lowest-index child pops first
        for w in reversed(adj[v]):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    return order, parent


def _rooted_shape(tree: FreeTree, root: int, parent: list[int], order: list[int]):
    """Children lists, subtree sizes, and per-node isomorphism data.

    ``prev_iso[v]`` is the previous sibling rooting a subtree isomorphic to
    v's (canonical rooted-subtree codes, computed bottom-up); such siblings
    form index-ordered chains used for symmetry breaking.
    """
    n = tree.node_count
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    for v in range(n):
        children[v].sort()
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    code: list[int] = [-1] * n
    code_ids: dict[tuple[int, ...], int] = {}
    for v in reversed(order):
        key = tuple(sorted(code[c] for c in children[v]))
        code[v] = code_ids.setdefault(key, len(code_ids))
    prev_iso = [-1] * n
    for v in range(n):
        last_by_code: dict[int, int] = {}
        for c in children[v]:
            if code[c] in last_by_code:
                prev_iso[c] = last_by_code[code[c]]
            last_by_code[code[c]] = c
    return children, size, prev_iso


def _can_tile(sizes: tuple[int, ...], caps: tuple[int, ...], memo: dict) -> bool:
    """Can the multiset of subtree sizes fill every capacity exactly?"""
    if not sizes:
        return not caps or caps[0] == 0
    key = (sizes, caps)
    cached = memo.get(key)
    if cached is not None:
        return cached
    s = sizes[0]
    rest = sizes[1:]
    tried: set[int] = set()
    ok = False
    for i, c in enumerate(caps):
        if c >= s and c not in tried:
            tried.add(c)
            reduced = tuple(sorted(caps[:i] + (c - s,) + caps[i + 1 :], reverse=True))
            if reduced and reduced[-1] == 0:
                reduced = tuple(x for x in reduced if x)
            if _can_tile(rest, reduced, memo):
                ok = True
                break
    memo[key] = ok
    return ok


def decide_embedding(
    instance: EmbeddingInstance, config: SolverConfig | None = None
) -> SolveOutcome:
    """Complete decision: an embedding exists iff the search finds one.

    Returns EMBEDDED with a verifier-checked embedding, INFEASIBLE after an
    exhaustive search, or TIMED_OUT once a configured time limit is spent.
    Candidates for each edge come from the precomputed clean-sightline
    graph, and every new edge is tested against the placed ones with
    :func:`~polyembed.geometry.segment_relation`.
    """
    cfg = config or SolverConfig()
    tree, points, polygon = instance.tree, instance.points, instance.polygon
    n = tree.node_count
    if cfg.root_node is not None and not 0 <= cfg.root_node < n:
        raise ValidationError("InvalidConfig", f"root_node {cfg.root_node} out of range")
    if cfg.time_limit_ms is not None and cfg.time_limit_ms < 0:
        raise ValidationError("InvalidConfig", "time_limit_ms must be non-negative")

    start = time.perf_counter()
    limit_s = None if cfg.time_limit_ms is None else cfg.time_limit_ms / 1000.0

    def timed_out() -> SolveOutcome:
        elapsed = int((time.perf_counter() - start) * 1000)
        return SolveOutcome(SolveStatus.TIMED_OUT, elapsed_ms=elapsed)

    if cfg.root_node is not None:
        root = cfg.root_node
    else:
        root = max(range(n), key=lambda v: (tree.degree(v), -v))
    order, parent = _dfs_order(tree, root)
    children, size, prev_iso = _rooted_shape(tree, root, parent, order)

    index = PointIndex(points.points)
    # Flat coordinate arrays keep the inner loops free of attribute lookups.
    pxs, pys = index.xs, index.ys
    matrix = build_visibility_graph(points, polygon).matrix

    # Static clean-sightline graph: the point pairs an edge image may ever
    # join (mutually visible, no third point on the open segment). Rows come
    # out ascending, as the candidate scan needs, because pairs are appended
    # in (i, j) loop order. Every placed edge is one of these, so each
    # pending subtree must land inside a single connected component of this
    # graph restricted to free points.
    clean_adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] and next(index.inside(i, j), None) is None:
                clean_adj[i].append(j)
                clean_adj[j].append(i)

    used = bytearray(n)
    node_point = [-1] * n
    # placed edge: (ax, ay, bx, by, minx, maxx, miny, maxy, node_a, node_b)
    placed: list[tuple[int, int, int, int, int, int, int, int, int, int]] = []
    candidate = [0] * (n + 1)
    trials = 0
    pending: set[int] = {root}  # unplaced subtree roots with a placed parent
    tile_memo: dict = {}

    def completion_feasible(node: int, p: int) -> bool:
        """Could placing `node` at point `p` still extend to a full embedding?

        Checks that the pending subtree sizes can exactly tile the connected
        components of the clean-sightline graph over the remaining free
        points. Placements failing this can never complete, so skipping them
        changes neither the outcome nor which embedding is found first.
        """
        sizes = [size[c] for c in children[node]]
        sizes.extend(size[r] for r in pending if r != node)
        if not sizes:
            return True
        sizes.sort(reverse=True)
        visited = bytearray(used)
        visited[p] = 1
        caps = []
        for q in range(n):
            if visited[q]:
                continue
            visited[q] = 1
            comp = 1
            stack = [q]
            while stack:
                for w in clean_adj[stack.pop()]:
                    if not visited[w]:
                        visited[w] = 1
                        comp += 1
                        stack.append(w)
            caps.append(comp)
        caps.sort(reverse=True)
        return _can_tile(tuple(sizes), tuple(caps), tile_memo)

    def admissible(node: int, pp: int, p: int) -> bool:
        ax, ay = pxs[pp], pys[pp]
        bx, by = pxs[p], pys[p]
        minx, maxx = (ax, bx) if ax <= bx else (bx, ax)
        miny, maxy = (ay, by) if ay <= by else (by, ay)
        par = parent[node]
        for cx, cy, dx, dy, ominx, omaxx, ominy, omaxy, na, nb in placed:
            if ominx > maxx or omaxx < minx or ominy > maxy or omaxy < miny:
                continue
            rel = segment_relation(ax, ay, bx, by, cx, cy, dx, dy)
            if na == par or nb == par:
                # Edges sharing the parent's image always touch there; they
                # may not overlap beyond it.
                if rel == OVERLAP:
                    return False
            elif rel != DISJOINT:
                # Node-disjoint edges must have empty closed intersection.
                return False
        return True

    depth = 0
    while True:
        if limit_s is not None and time.perf_counter() - start >= limit_s:
            return timed_out()
        if depth == n:
            mapping = tuple(node_point[v] for v in range(n))
            embedding = Embedding(mapping)
            report = verify_embedding(instance, embedding)
            if not report.valid:
                raise RuntimeError("solver produced an embedding its verifier rejects")
            return SolveOutcome(SolveStatus.EMBEDDED, embedding=embedding)
        node = order[depth]
        p = candidate[depth]
        chosen = -1
        if depth == 0:
            while p < n:
                if not used[p] and completion_feasible(node, p):
                    chosen = p
                    break
                p += 1
        else:
            pp = node_point[parent[node]]
            sib = prev_iso[node]
            if sib >= 0 and node_point[sib] + 1 > p:
                p = node_point[sib] + 1
            row = clean_adj[pp]
            for t in range(bisect_left(row, p), len(row)):
                q = row[t]
                trials += 1
                if trials % 4096 == 0 and limit_s is not None:
                    if time.perf_counter() - start >= limit_s:
                        return timed_out()
                if not used[q] and admissible(node, pp, q) and completion_feasible(node, q):
                    chosen = q
                    break
        if chosen < 0:
            candidate[depth] = 0
            depth -= 1
            if depth < 0:
                return SolveOutcome(SolveStatus.INFEASIBLE)
            undo = order[depth]
            used[node_point[undo]] = 0
            node_point[undo] = -1
            pending.difference_update(children[undo])
            pending.add(undo)
            if depth > 0:
                placed.pop()
            continue
        used[chosen] = 1
        node_point[node] = chosen
        pending.discard(node)
        pending.update(children[node])
        if depth > 0:
            pp = node_point[parent[node]]
            ax, ay, bx, by = pxs[pp], pys[pp], pxs[chosen], pys[chosen]
            placed.append(
                (
                    ax,
                    ay,
                    bx,
                    by,
                    ax if ax <= bx else bx,
                    bx if ax <= bx else ax,
                    ay if ay <= by else by,
                    by if ay <= by else ay,
                    parent[node],
                    node,
                )
            )
        candidate[depth] = chosen + 1
        depth += 1
        candidate[depth] = 0


# ---------------------------------------------------------------------------
# Unconstrained embedding (no polygon, general-position points)

def check_general_position(points: PointSet) -> tuple[int, int, int] | None:
    """First collinear index triple, or None when no three points align."""
    pts = points.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if cross(pts[i], pts[j], pts[k]) == 0:
                    return (i, j, k)
    return None


def embed_tree_unconstrained(tree: FreeTree, points: PointSet) -> Embedding:
    """Planar embedding of any free tree onto general-position points.

    Always succeeds under the preconditions; the output satisfies
    ``verify_planar_only``.
    """
    if len(points) != tree.node_count:
        raise ValidationError(
            "SizeMismatch",
            f"tree has {tree.node_count} nodes but there are {len(points)} points",
        )
    pts = points.points
    n = len(pts)
    if n >= 3:
        triple = check_general_position(points)
        if triple is not None:
            i, j, k = triple
            raise ValidationError(
                "GeneralPositionViolated",
                f"points {i}, {j}, {k} are collinear",
                indices=triple,
            )
    mapping = [-1] * n
    if n == 1:
        return Embedding((0,))

    order, parent = _dfs_order(tree, 0)
    children, size, _ = _rooted_shape(tree, 0, parent, order)

    def angular_sort(anchor_idx: int, block: list[int]) -> list[int]:
        anchor = pts[anchor_idx]

        def compare(i: int, j: int) -> int:
            c = cross(anchor, pts[i], pts[j])
            # equality would mean three collinear points, excluded above
            return -1 if c > 0 else 1

        return sorted(block, key=functools.cmp_to_key(compare))

    root_point = min(range(n), key=lambda i: (pts[i].y, pts[i].x))
    mapping[0] = root_point
    rest = [i for i in range(n) if i != root_point]

    # frames: (tree node, its point, unsorted block of descendant points)
    stack: list[tuple[int, int, list[int]]] = [(0, root_point, rest)]
    while stack:
        node, node_pt, block = stack.pop()
        kids = children[node]
        if not kids:
            continue
        ordered = angular_sort(node_pt, block)
        offset = 0
        for child in kids:
            sub = ordered[offset : offset + size[child]]
            offset += size[child]
            mapping[child] = sub[0]
            stack.append((child, sub[0], sub[1:]))
    return Embedding(tuple(mapping))
