"""Exact decision procedures for tree embeddings.

- :func:`build_visibility_graph` finds the clean sightlines: the pairs of
  points that see each other inside the polygon with no third point of the
  instance between them. :func:`_clean_sightlines` is the pass.
- :func:`decide_embedding` decides the polygon-bounded problem by the
  complete backtracking search :func:`_search` over those sightlines.
- :func:`embed_tree_unconstrained` embeds any tree on points in general
  position, with no polygon.
"""

from __future__ import annotations

import functools
import math
import time
from bisect import bisect_left
from collections import Counter
from enum import Enum
from itertools import count, groupby

from .errors import ValidationError
from .geometry import (
    DISJOINT,
    Point,
    Record,
    SimplePolygon,
    _set,
    boxed,
    direction_key,
    exact_ints,
    segment_relation,
)
from .model import Embedding, EmbeddingInstance, FreeTree, PointSet, check_node_count
from .verifier import verify_embedding


class _Expired(Exception):
    """A deadline passed during the decision.

    Not ``TimeoutError``: that is an ``OSError``, which ``cli.main`` reports
    as an input error (exit 2).
    """


class VisibilityGraph(Record):
    """Visibility among points, kept as their clean sightlines.

    ``clean[i]`` lists, ascending, the points i sees with no third point of
    ``points`` on the open segment between them. Two distinct points see
    each other iff clean sightlines along their common line join them, so
    ``matrix`` is derived from ``clean`` and the coordinates on first read.
    The solver does not read it.
    """

    _fields = ("clean", "points")

    def __init__(self, clean: tuple[tuple[int, ...], ...], points: PointSet):
        _set(self, "clean", clean)
        _set(self, "points", points)

    @functools.cached_property
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        """Symmetric visibility matrix, diagonal True, built on first read.

        Each clean sightline is keyed by its reduced direction at its lower
        end (its left end on a row). Following a point's key along the line
        reaches every point it sees that way.
        """
        xs, ys, gcd = self.points.xs, self.points.ys, math.gcd
        ahead: dict[tuple[int, int], dict[int, int]] = {}  # line -> {point: next on it}
        for i, row in enumerate(self.clean):
            for j in row:
                dx, dy = xs[j] - xs[i], ys[j] - ys[i]
                if dy > 0 or (dy == 0 and dx > 0):
                    g = gcd(dx, dy)
                    ahead.setdefault((dx // g, dy // g), {})[i] = j
        n = len(self.clean)
        rows = [[False] * i + [True] + [False] * (n - 1 - i) for i in range(n)]
        for nxt in ahead.values():
            for i, j in nxt.items():
                while j is not None:
                    rows[i][j] = rows[j][i] = True
                    j = nxt.get(j)
        return tuple(map(tuple, rows))


_FAN_BATCH = 24  # a cross-row pair joins a fan iff its denser row holds this many points


def build_visibility_graph(
    instance: EmbeddingInstance, *, deadline: float = math.inf
) -> VisibilityGraph:
    """Exact clean sightlines of an instance's points.

    The pass keys along rows, the lines of one y, in a frame chosen from
    the input. When the columns hold more pairs of points than the rows
    (the sum over columns of the squared number of points on each exceeds
    that over rows), it works mirrored in y = x, where the columns are
    rows: the coordinates are swapped, the polygon's vertices mirrored, and
    the kernels run unchanged. On a tie it keeps the rows. It then sweeps
    the rows toward the end row that holds more points, up on a tie, and
    stops before the last row, which has no later row to key. A pair across
    two rows that hold as many points takes the lower point as its fan
    source, so the same fans form in either direction.
    :func:`_clean_sightlines` is the pass in the chosen frame; its clean
    lists are the same in any frame and either direction. On the reduction
    the sweep runs from the anchor down to the row, so the anchor alone
    keys, one pair per row point, and a transposed reduction is keyed along
    its columns the same way.

    The pass keeps nothing but the clean lists; the matrix is derived from
    them when read. The instance guarantees a simple polygon with every
    point strictly inside, so nothing is checked again. Past ``deadline``
    (a ``time.perf_counter`` value) :class:`_Expired` is raised.
    """
    points, polygon = instance.points, instance.polygon
    xs, ys = points.xs, points.ys
    rows, cols = Counter(ys), Counter(xs)  # points per line of one y, and of one x
    if sum(k * k for k in cols.values()) > sum(k * k for k in rows.values()):
        # The frame mirrored in y = x, whose rows are the columns.
        xs, ys, rows = ys, xs, cols
        polygon = SimplePolygon(tuple(Point(v.y, v.x) for v in polygon.vertices))
    up = rows[max(rows)] >= rows[min(rows)]
    return VisibilityGraph(_clean_sightlines(xs, ys, polygon, up, deadline), points)


def _clean_sightlines(
    xs: tuple[int, ...],
    ys: tuple[int, ...],
    polygon: SimplePolygon,
    up: bool,
    deadline: float = math.inf,
) -> tuple[tuple[int, ...], ...]:
    """The clean lists of the points (xs[i], ys[i]), keyed along rows and
    swept up (``up``) or down; the same lists either way. ``polygon`` is
    simple, in either orientation, with every point strictly inside.

    Along a row the neighbour of a point is the next one, and each row with
    two or more points decides all its neighbour pairs at once with
    :meth:`~polyembed.geometry.SimplePolygon.blocks_row`, one pass over the
    edges. Every point on a later row in the sweep lies ahead of a point i,
    so the reduced offset ``(dx // g, dy // g)`` with ``g = gcd(dx, dy)``,
    ``dy`` measured in the sweep's direction so that it is positive, names
    the line through both, and the first later point on a line is i's
    neighbour on it. Only the later rows are keyed, and the last row keys
    nothing, so points on few rows, as in the reduction, key few pairs.

    A pair across rows has a source, its point on the row with fewer points
    (the lower point on a tie), and a target on the other row. The pair
    joins a fan, its source's targets on that row, iff the target row holds
    ``_FAN_BATCH`` or more points, so the pairs of points past the last such
    row in the sweep are never grouped. Every fan, whatever its size, is
    decided by :meth:`~polyembed.geometry.SimplePolygon.blocks_fan`, one
    pass over the edges, and every other pair by one
    :meth:`~polyembed.geometry.SimplePolygon.blocks` call. On the reduction
    the row is one batch and the anchor's pairs one fan. On any polygon the
    shadow pass costs about as much as five ``blocks`` calls, as both are
    linear in the edges, but grouping costs each pair about a third of a
    ``blocks`` call on a small polygon, so the threshold is set where
    lattice draws in small polygons run no slower than with no fans at all.

    Each neighbour pair is decided once, and the clear ones are the clean
    sightlines. The clock is read once per point that keys and before each
    batch and each single boundary test, since one point can test thousands
    of lines; past ``deadline`` :class:`_Expired` is raised.
    """
    n = len(xs)
    # The instance validated the polygon, so the loops call its flat tests.
    blocks, gcd, clock = polygon.blocks, math.gcd, time.perf_counter
    clean: list[list[int]] = [[] for _ in range(n)]
    # The rows in sweep order, each in ascending x.
    sign = 1 if up else -1
    order = sorted(range(n), key=lambda k: (sign * ys[k], xs[k]))
    size = {}  # points per row
    # Only a pair with a row of _FAN_BATCH points joins a fan, so only the
    # pairs of points up to the last such row in the sweep are grouped: those
    # before `top` in `order`.
    top = end = 0
    for y, row in groupby(order, ys.__getitem__):
        row = list(row)
        size[y] = len(row)
        end += len(row)
        if len(row) >= _FAN_BATCH:
            top = end
        if len(row) > 1:  # the row's neighbour pairs, in one batch
            if clock() >= deadline:
                raise _Expired
            for a, b, hit in zip(row, row[1:], polygon.blocks_row(y, [xs[j] for j in row])):
                if not hit:
                    clean[a].append(b)
                    clean[b].append(a)
    fans: dict[tuple[int, int], list[int]] = {}  # (source, target row) -> targets, decided last
    row_end = 0  # one past the last point of i's row in `order`
    for t, i in enumerate(order[: n - size[ys[order[-1]]]]):  # the last row keys nothing
        if t == row_end:  # the first point of its row: what the row's points share
            yi = ys[i]
            here = size[yi]
            row_end += here
            later = order[: row_end - 1 : -1]  # the later rows, reversed: the nearest is written last
            dys = [ys[j] - yi for j in later] if up else [yi - ys[j] for j in later]
            # A later source on a sparser row gathers its fan over i's row; on
            # a tie the lower point is the source, the later one when sweeping
            # down.
            cut = here + (not up)
        if clock() >= deadline:
            raise _Expired
        xi = xs[i]
        nearest = {
            (dx // (g := gcd(dx, dy)), dy // g): j
            for j, dx, dy in zip(later, [xs[j] - xi for j in later], dys)
        }
        single = nearest.values()  # the pairs tested one by one
        if t < top:
            # i's own fans, one per later row it is the source for, are
            # complete here.
            single, mine = [], {}
            for b in nearest.values():
                yb = ys[b]
                there = size[yb]
                if here < _FAN_BATCH and there < _FAN_BATCH:
                    single.append(b)
                elif there < cut:
                    fans.setdefault((b, yi), []).append(i)
                else:
                    mine.setdefault(yb, []).append(b)
            for y, targets in mine.items():
                fans[i, y] = targets
        for b in single:
            if clock() >= deadline:
                raise _Expired
            if not blocks(xi, yi, xs[b], ys[b]):
                clean[i].append(b)
                clean[b].append(i)
    for (s, y), targets in fans.items():
        if clock() >= deadline:
            raise _Expired
        targets.sort(key=xs.__getitem__)
        hits = polygon.blocks_fan(xs[s], ys[s], y, [xs[j] for j in targets])
        for j, hit in zip(targets, hits):
            if not hit:
                clean[s].append(j)
                clean[j].append(s)
    return tuple(tuple(sorted(c)) for c in clean)


class SolveStatus(Enum):
    EMBEDDED = "embedded"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


class SolveOutcome(Record):
    """A decision's status, the embedding if EMBEDDED, and ``elapsed_ms``,
    set only on TIMED_OUT."""

    _fields = ("status", "embedding", "elapsed_ms")

    def __init__(self, status: SolveStatus, embedding=None, elapsed_ms=None):
        _set(self, "status", status)
        _set(self, "embedding", embedding)
        _set(self, "elapsed_ms", elapsed_ms)


def _rooted(tree: FreeTree, root: int):
    """Preorder, parents, children, subtree sizes and isomorphic siblings.

    Children are listed and visited in ascending index order. ``prev_iso[v]``
    is the previous sibling rooting a subtree isomorphic to v's (canonical
    rooted-subtree codes, computed bottom-up); such siblings form
    index-ordered chains used for symmetry breaking.
    """
    n = tree.node_count
    adj = tree.adjacency
    order: list[int] = []
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = children[v] = list(adj[v])
        if parent[v] >= 0:
            kids.remove(parent[v])
        for w in kids:
            parent[w] = v
        # push descending so the lowest-index child pops first
        stack.extend(reversed(kids))
    size = [1] * n
    code = [-1] * n
    code_ids: dict[tuple[int, ...], int] = {}
    prev_iso = [-1] * n
    for v in reversed(order):
        kids = children[v]
        if len(kids) > 1:
            last_by_code: dict[int, int] = {}
            for c in kids:
                size[v] += size[c]
                if code[c] in last_by_code:
                    prev_iso[c] = last_by_code[code[c]]
                last_by_code[code[c]] = c
            key = tuple(sorted([code[c] for c in kids]))
        elif kids:
            # an only child has no sibling to compare with
            c = kids[0]
            size[v] += size[c]
            key = (code[c],)
        else:
            key = ()
        code[v] = code_ids.setdefault(key, len(code_ids))
    return order, parent, children, size, prev_iso


# _tiling forgets its refuted states once it holds this many, about 35 MB at
# 60 sizes into 20 capacities. They are only a memo, so no verdict changes.
_REFUTED_LIMIT = 1 << 16


def _tiling(
    sizes: tuple[int, ...], caps: list[int], deadline: float = math.inf
) -> list[tuple[int, ...]] | None:
    """The sizes that fill each capacity in an exact tiling, or None if none exists.

    ``sizes`` is sorted descending; ``caps`` may come in any order, and entry
    i of the result lists the sizes that fill ``caps[i]``. The first size
    goes into one capacity of each distinct value that can hold it, largest
    first, and the rest are tiled into what remains. A state is refuted at
    once when some capacity is no subset sum of its sizes (the cheap test of
    bin completion); up to ``_REFUTED_LIMIT`` refuted states of this call
    are kept so that none is searched twice. The search keeps its own stack,
    one frame per size placed, so long size lists do not recurse, and on
    success the frames are the tiling. The clock is read once every 64 new
    states; past ``deadline`` it raises :class:`_Expired`.
    """
    failed: set = set()
    stack: list[list] = []  # frames: [(sizes, caps), index of the next cap]
    state = (sizes, tuple(sorted(caps, reverse=True)))
    states = 0
    while True:
        sz, cp = state
        if not sz:
            if not cp or cp[0] == 0:
                break
        elif state not in failed:
            states += 1
            if not states & 63 and time.perf_counter() >= deadline:
                raise _Expired
            if len(failed) >= _REFUTED_LIMIT:
                failed.clear()
            reach = 1  # bit s is set iff some sub-multiset of sz sums to s
            for s in sz:
                reach |= reach << s
            if all(reach >> c & 1 for c in set(cp)):
                stack.append([state, 0])
            else:
                failed.add(state)
        while stack:
            frame = stack[-1]
            (sz, cp), i = frame
            if i < len(cp) and cp[i] >= sz[0]:
                break
            failed.add(frame[0])
            stack.pop()
        else:
            return None
        c = cp[i]
        frame[1] = i + cp.count(c)  # equal capacities are adjacent
        filled = (c - sz[0],) if c > sz[0] else ()
        state = (sz[1:], tuple(sorted(cp[:i] + filled + cp[i + 1 :], reverse=True)))
    left = list(caps)
    parts: list[list[int]] = [[] for _ in caps]
    for (sz, cp), i in stack:
        # The frame placed sz[0] into a capacity of value cp[i - 1].
        j = left.index(cp[i - 1])
        left[j] -= sz[0]
        parts[j].append(sz[0])
    return [tuple(p) for p in parts]


def decide_embedding(
    instance: EmbeddingInstance, *, root_node: int | None = None, time_limit_ms: int | None = None
) -> SolveOutcome:
    """Complete decision: an embedding exists iff the search finds one.

    Returns EMBEDDED with a verifier-checked embedding, INFEASIBLE after an
    exhaustive search, or TIMED_OUT once ``time_limit_ms`` is spent.
    ``root_node`` fixes the tree node placed first (default: the lowest-index
    node of maximum degree, the canonical deterministic order). Before any
    work, a setting that is not an int, is negative, or names no node raises
    ``InvalidConfig``. Candidates for each edge come from the precomputed
    clean-sightline graph, and every new edge is tested against the placed
    ones that share a grid cell with it, with
    :func:`~polyembed.geometry.segment_relation`.
    """
    for name, value in (("root_node", root_node), ("time_limit_ms", time_limit_ms)):
        if value is not None and exact_ints((value,), "InvalidConfig", name)[0] < 0:
            raise ValidationError("InvalidConfig", f"{name} must be non-negative")
    tree, points = instance.tree, instance.points
    n = tree.node_count
    if root_node is not None and root_node >= n:
        raise ValidationError("InvalidConfig", f"root_node {root_node} out of range")

    start = time.perf_counter()
    try:  # a limit too large for a float deadline is later than any run
        deadline = math.inf if time_limit_ms is None else start + time_limit_ms / 1000.0
    except OverflowError:
        deadline = math.inf
    if root_node is None:
        degrees = list(map(len, tree.adjacency))
        root_node = degrees.index(max(degrees))

    try:
        graph = build_visibility_graph(instance, deadline=deadline)
        mapping = _search(tree, root_node, points.xs, points.ys, graph.clean, deadline)
    except _Expired:
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        return SolveOutcome(SolveStatus.TIMED_OUT, elapsed_ms=elapsed_ms)
    if mapping is None:
        return SolveOutcome(SolveStatus.INFEASIBLE)
    embedding = Embedding(mapping)
    if not verify_embedding(instance, embedding).valid:
        raise RuntimeError("solver produced an embedding its verifier rejects")
    return SolveOutcome(SolveStatus.EMBEDDED, embedding=embedding)


def _grid_frame(xs: list[int], ys: list[int]) -> tuple[int, int, int, int, int]:
    """(x0, y0, side, cols, rows) of a grid of square cells over the points'
    bounding box: about sqrt(n) cells along its longer extent."""
    x0, y0 = min(xs), min(ys)
    width, height = max(xs) - x0, max(ys) - y0
    side = max(1, max(width, height) // math.isqrt(len(xs)))
    return x0, y0, side, width // side + 1, height // side + 1


def _sightline_cells(
    ax: int, ay: int, bx: int, by: int, frame: tuple[int, int, int, int, int]
) -> list[int]:
    """Flat indices ``row * cols + col`` of the grid cells a sightline ab is
    filed in, each once, clipped to the grid. Cell (col, row) is the box
    ``[x0 + col * side, x0 + (col + 1) * side]`` by the same in y.

    When one half-open cell, a box less its upper sides, holds both
    endpoints, ab is filed there alone: a half-open cell is convex and
    shares no point with another, so ab meets another edge only in it, and
    that edge is filed there too, in the closed box of each point it meets
    or in its own one half-open cell. Any other ab is filed in every cell
    whose closed box meets it, by an exact integer supercover walk
    (Amanatides & Woo 1987, without floats): in each column the segment's y
    runs between its values at the column's two x bounds, kept scaled by
    ``bx - ax`` so they stay integers, and the rows between them follow by
    floor division, since for integers ``ceil(t / d) - 1 == (t - 1) // d``.
    """
    x0, y0, side, cols, rows = frame
    cell = (ay - y0) // side * cols + (ax - x0) // side
    if cell == (by - y0) // side * cols + (bx - x0) // side:
        return [cell]
    if bx < ax:
        ax, ay, bx, by = bx, by, ax, ay
    ax, bx, ay, by = ax - x0, bx - x0, ay - y0, by - y0
    dx, dy = bx - ax, by - ay
    den = side * dx if dx else side
    cells: list[int] = []
    for col in range(max(0, (ax - 1) // side), min(cols - 1, bx // side) + 1):
        if dx:
            lo = ay * dx + (max(ax, col * side) - ax) * dy
            hi = ay * dx + (min(bx, col * side + side) - ax) * dy
        else:
            lo, hi = ay, by
        if lo > hi:
            lo, hi = hi, lo
        first, last = max(0, (lo - 1) // den), min(rows - 1, hi // den)
        cells.extend(range(first * cols + col, last * cols + col + 1, cols))
    return cells


def _flood(piece: list[int], seen: bytearray, adj) -> list[int]:
    """Extend ``piece``, whose points are marked in ``seen``, by every point
    reachable from it through unmarked ones, marking them; a breadth-first
    search, since the loop reads what it appends. Returns ``piece``."""
    for v in piece:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                piece.append(w)
    return piece


def _search(
    tree: FreeTree,
    root: int,
    pxs: list[int],
    pys: list[int],
    clean_adj: tuple[tuple[int, ...], ...],
    deadline: float,
) -> tuple[int, ...] | None:
    """Backtracking search; each node's point, or None if no embedding exists.

    ``pxs`` and ``pys`` are the point coordinates in index order, flat so the
    inner loops make no attribute lookups; ``clean_adj`` holds the ascending
    clean-sightline lists. Nodes are placed in the depth-first order of
    :func:`_rooted` from ``root``, each at the first point, in ascending
    index order, that passes every check. A node's candidates are the clean
    sightlines from its parent's image: an edge that covers a point can
    never be part of an embedding, since every point is used. A node of
    tree degree d goes only to a point with at least d clean sightlines.
    The new edge may meet the placed ones only at the parent's image
    (``admissible``, over the grid cells of :func:`_sightline_cells`), and
    the pending subtree sizes must still tile the clean-sightline
    components of the free points (``completion_feasible``). Every free
    point carries its component's label, which that check reads, splits
    and relabels, and undo restores; a disconnected graph returns None at
    once. Interchangeable sibling subtrees take ascending images, which
    never skips the first embedding the plain order would find.
    Every check drops only placements that cannot complete, so verdicts and
    first-found embeddings do not depend on them. The clock is read before
    each candidate trial and, inside the tiling check, once every 64 new
    states; past ``deadline`` :class:`_Expired` is raised.
    """
    n = tree.node_count
    order, parent, children, size, prev_iso = _rooted(tree, root)

    degree, sights = list(map(len, tree.adjacency)), list(map(len, clean_adj))
    clock = time.perf_counter
    used = bytearray(n)
    node_point = [-1] * n
    # Every point is used and every tree edge is a clean sightline, so a
    # disconnected clean-sightline graph has no embedding.
    seen = bytearray(n)
    seen[0] = 1
    if len(_flood([0], seen, clean_adj)) < n:
        return None
    # comp[v] labels free point v's clean-sightline component, and witness
    # tiles those components by the pending subtree sizes: each label maps to
    # (its point count, the sizes that fill it). The check that accepts
    # order[d]'s image changes both in place and leaves in log[d] what undo
    # restores: the old entry of that point's label, the fresh labels added,
    # the old entries of the other labels a full tiling rewrote (none after
    # a local one), and the pieces relabelled, which all had that label.
    # Before the root, the whole tree fills the one component.
    comp = [0] * n
    fresh = count(1)
    witness: dict[int, tuple[int, tuple[int, ...]]] = {0: (n, (n,))}
    log: list[tuple] = [()] * n

    def completion_feasible(depth: int, p: int) -> bool:
        """Could placing `order[depth]` at point `p` still extend to a full embedding?

        Checks that the pending subtree sizes can exactly tile the connected
        components of the clean-sightline graph over the remaining free
        points. Placements failing this can never complete, so skipping them
        changes neither the outcome nor which embedding is found first.

        Only p's component, ``comp[p]``, changes. With no free neighbour of
        p it vanishes; with one, it loses p and stays connected, so nothing
        is searched. With more, a breadth-first search from them finds its
        pieces: the largest keeps the label and each other gets a fresh one,
        written only if the check accepts. The component's witness sizes,
        less the placed subtree and plus its children's subtrees, are tiled
        into the pieces; every other component keeps its entry, so a local
        tiling proves a global one. When the component stays in one piece
        those sizes sum to its points by construction, so the local check
        is only that the placed subtree's size is among the component's (and,
        when nothing of it is left, that no size is). All pending sizes are
        tiled into all components only when the local tiling fails or cannot
        start and other components exist.
        """
        home = comp[p]
        points, fill = witness[home]
        free = [q for q in clean_adj[p] if not used[q]]
        keys, caps, moved = ([home], [points - 1], []) if free else ([], [], [])
        if len(free) > 1:
            visited = bytearray(used)
            visited[p] = 1
            pieces = []
            for q in free:
                if not visited[q]:
                    visited[q] = 1
                    pieces.append(_flood([q], visited, clean_adj))
            if len(pieces) > 1:
                pieces.sort(key=len, reverse=True)
                moved = pieces[1:]
                keys += [next(fresh) for _ in moved]
                caps = list(map(len, pieces))
        added = keys[1:]
        node = order[depth]
        kids = [size[c] for c in children[node]]
        parts, replaced = None, ()
        if size[node] in fill:
            rest = list(fill)
            rest.remove(size[node])
            rest += kids
            if moved:
                parts = _tiling(tuple(sorted(rest, reverse=True)), caps, deadline)
            elif free:  # one piece, which these sizes sum to
                parts = [tuple(rest)]
            elif not rest:  # nothing left of the component
                parts = []
        if parts is None:
            if len(witness) == 1:
                return False
            pending = [s for _, f in witness.values() for s in f]
            pending.remove(size[node])
            pending += kids
            replaced = [(label, entry) for label, entry in witness.items() if label != home]
            keys += [label for label, _ in replaced]
            caps += [entry[0] for _, entry in replaced]
            parts = _tiling(tuple(sorted(pending, reverse=True)), caps, deadline)
            if parts is None:
                return False
        log[depth] = (witness.pop(home), added, replaced, moved)
        witness.update(zip(keys, zip(caps, parts)))
        for label, piece in zip(keys[1:], moved):
            for v in piece:
                comp[v] = label
        return True

    # The placed edges, filed in a uniform grid by the cells they cross. The
    # record of a clean sightline ab, ``[*boxed(...), a, b, its cells, the
    # last query that tested it]``, is memoized by a * n + b when first tested.
    memo: dict[int, list] = {}
    frame = _grid_frame(pxs, pys)
    grid: list[list[list]] = [[] for _ in range(frame[3] * frame[4])]  # per cell, placed edges
    queries = count()

    def admissible(pp: int, p: int) -> bool:
        """Does the sightline pp-p meet no placed edge but at pp? Only the
        edges filed in its cells can meet it. An edge filed in several of
        them is tested once, stamped with this query's number."""
        rec = memo.get(pp * n + p)
        if rec is None:
            ax, ay, bx, by = pxs[pp], pys[pp], pxs[p], pys[p]
            cells = _sightline_cells(ax, ay, bx, by, frame)
            rec = memo[pp * n + p] = [*boxed(ax, ay, bx, by), pp, p, cells, -1]
        ax, ay, bx, by, minx, maxx, miny, maxy, _, _, cells, _ = rec
        query = next(queries)
        for cell in cells:
            for edge in grid[cell]:
                cx, cy, dx, dy, ominx, omaxx, ominy, omaxy, a, b, _, tested = edge
                if ominx > maxx or omaxx < minx or ominy > maxy or omaxy < miny:
                    continue
                if a == pp or b == pp:
                    # Clean sightlines from the parent's image meet only there:
                    # an overlap would cover the nearer one's far endpoint.
                    continue
                if tested == query:
                    continue
                edge[11] = query
                if segment_relation(ax, ay, bx, by, cx, cy, dx, dy) != DISJOINT:
                    # Node-disjoint edges must have empty closed intersection.
                    return False
        return True

    def place(depth: int, q: int) -> None:
        """Put order[depth] at q and file its edge, whose record admissible
        made, in the edge's cells."""
        node = order[depth]
        used[q] = 1
        node_point[node] = q
        if depth:
            rec = memo[node_point[parent[node]] * n + q]
            for cell in rec[10]:
                grid[cell].append(rec)

    def undo(depth: int) -> int:
        """Take back order[depth]'s placement and return its point. Edges and
        witness changes are made and undone in stack order, so each edge is
        last in its cells, and the pieces its check relabelled get back the
        label of its point."""
        node = order[depth]
        q = node_point[node]
        used[q] = 0
        home = comp[q]
        entry, added, replaced, moved = log[depth]
        for piece in moved:
            for v in piece:
                comp[v] = home
        for label in added:
            del witness[label]
        witness.update(replaced)
        witness[home] = entry
        if depth:
            for cell in memo[node_point[parent[node]] * n + q][10]:
                grid[cell].pop()
        return q

    # `resume` is the lowest point left to try at `depth`: 0 on a fresh
    # visit, one past the undone image after a backtrack.
    depth = resume = 0
    while depth < n:
        node = order[depth]
        if depth:
            pp = node_point[parent[node]]
            row = clean_adj[pp]
        else:  # the root may go to any point and has no edge to test
            pp, row = -1, range(n)
        sib = prev_iso[node]
        lo = max(resume, node_point[sib] + 1 if sib >= 0 else 0)
        # Each of the node's edges is a clean sightline from its image.
        need = degree[node]
        for q in row[bisect_left(row, lo) :]:
            if clock() >= deadline:
                raise _Expired
            if (
                not used[q]
                and sights[q] >= need
                and (not depth or admissible(pp, q))
                and completion_feasible(depth, q)
            ):
                break
        else:
            depth -= 1
            if depth < 0:
                return None
            resume = undo(depth) + 1
            continue
        place(depth, q)
        depth += 1
        resume = 0
    return tuple(node_point)


# ---------------------------------------------------------------------------
# Unconstrained embedding (no polygon, general-position points)

def check_general_position(points: PointSet) -> tuple[int, int, int] | None:
    """Least collinear index triple (i, j, k), or None when no three points align.

    For each anchor i, the points after it are grouped by the direction of
    their offset from it; two in one group are collinear with the anchor.
    """
    xs, ys = points.xs, points.ys
    n = len(xs)
    for i in range(n - 2):
        ax, ay = xs[i], ys[i]
        first: dict[tuple[int, int], int] = {}
        best = None
        for k in range(i + 1, n):
            j = first.setdefault(direction_key(xs[k] - ax, ys[k] - ay), k)
            if j != k and (best is None or j < best[0]):
                best = (j, k)
        if best is not None:
            return (i, *best)
    return None


def embed_tree_unconstrained(tree: FreeTree, points: PointSet) -> Embedding:
    """Planar embedding of any free tree onto general-position points.

    Recursive angular splitting: the root goes to the bottom-most point, the
    rest are sorted by angle around it, and each child subtree gets a
    contiguous angular block, whose least-angle point (a hull point of the
    block) becomes the child's image. Always succeeds under the
    preconditions; the output satisfies ``verify_planar_only``.
    """
    check_node_count(tree.node_count, len(points))
    xs, ys = points.xs, points.ys
    n = len(xs)
    triple = check_general_position(points)
    if triple is not None:
        i, j, k = triple
        raise ValidationError(
            "GeneralPositionViolated",
            f"points {i}, {j}, {k} are collinear",
            indices=triple,
        )
    mapping = [-1] * n
    _, _, children, size, _ = _rooted(tree, 0)

    def angular_sort(anchor: int, block: list[int]) -> list[int]:
        ax, ay = xs[anchor], ys[anchor]

        def compare(i: int, j: int) -> int:
            # equality would mean three collinear points, excluded above
            return -1 if (xs[i] - ax) * (ys[j] - ay) > (ys[i] - ay) * (xs[j] - ax) else 1

        return sorted(block, key=functools.cmp_to_key(compare))

    root_point = min(range(n), key=lambda i: (ys[i], xs[i]))
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
