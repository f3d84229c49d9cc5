"""Independent brute-force checkers the tests use as ground truth.

Everything here is written from scratch with its own predicates (classic
orientation/straddle formulation, short-circuit evaluation) so that a bug in
the library cannot hide behind shared code. Keep this module free of imports
from polyembed, but for :func:`pairwise_report`, the verifier's former
reporter, which is kept as it was and imports what it used.
"""

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import permutations


def orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def between(ax, ay, bx, by, px, py):
    """Is (px, py) on the closed segment (a, b)?"""
    if orient(ax, ay, bx, by, px, py) != 0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def first_collinear_triple(points):
    """Least index triple (i, j, k) of collinear (x, y) points, or None."""
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(*points[i], *points[j], *points[k]) == 0:
                    return (i, j, k)
    return None


def point_location(verts, p):
    """Where p lies relative to the polygon with these (x, y) vertices:
    "on_boundary" by `between`, else "inside" or "outside" by winding
    number."""
    k = len(verts)
    edges = [(verts[t], verts[(t + 1) % k]) for t in range(k)]
    if any(between(*a, *b, *p) for a, b in edges):
        return "on_boundary"
    winding = 0
    for (ax, ay), (bx, by) in edges:
        side = orient(ax, ay, bx, by, p[0], p[1])
        if ay <= p[1] < by and side > 0:
            winding += 1
        elif by <= p[1] < ay and side < 0:
            winding -= 1
    return "inside" if winding else "outside"


def segments_share_point(a, b, c, d):
    """Do the closed segments ab and cd share at least one point?"""
    d1 = orient(c[0], c[1], d[0], d[1], a[0], a[1])
    d2 = orient(c[0], c[1], d[0], d[1], b[0], b[1])
    d3 = orient(a[0], a[1], b[0], b[1], c[0], c[1])
    d4 = orient(a[0], a[1], b[0], b[1], d[0], d[1])
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and between(c[0], c[1], d[0], d[1], a[0], a[1]):
        return True
    if d2 == 0 and between(c[0], c[1], d[0], d[1], b[0], b[1]):
        return True
    if d3 == 0 and between(a[0], a[1], b[0], b[1], c[0], c[1]):
        return True
    if d4 == 0 and between(a[0], a[1], b[0], b[1], d[0], d[1]):
        return True
    return False


def simple_polygon(verts):
    """Is the closed cycle through these (x, y) vertices simple?

    The pairwise reference for the library's sweep: every pair of edges is
    tested. Adjacent ones may meet only at their shared vertex (neither far
    end on the other edge), all others not at all.
    """
    k = len(verts)
    edges = [(verts[t], verts[(t + 1) % k]) for t in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            (a, b), (c, d) = edges[i], edges[j]
            if j == i + 1 or (i == 0 and j == k - 1):
                far_i, far_j = (a, d) if j == i + 1 else (b, c)
                if between(*c, *d, *far_i) or between(*a, *b, *far_j):
                    return False
            elif segments_share_point(a, b, c, d):
                return False
    return True


def plane_contacts(segments):
    """Every index pair (i, j), i < j, of segments whose first four fields
    are (ax, ay, bx, by) that meet other than at one common endpoint."""
    out = set()
    for i, s in enumerate(segments):
        for j in range(i + 1, len(segments)):
            t = segments[j]
            a, b, c, d = s[0:2], s[2:4], t[0:2], t[2:4]
            if not segments_share_point(a, b, c, d):
                continue
            common = [q for q in (c, d) if q in (a, b)]
            if len(common) == 1:
                q = common[0]
                far_s = b if q == a else a
                far_t = d if q == c else c
                if not between(*c, *d, *far_s) and not between(*a, *b, *far_t):
                    continue
            out.add((i, j))
    return out


def brute_valid(tree_edges, points, mapping, polygon=None):
    """Short-circuit validity of a node-to-point mapping.

    ``points`` and ``polygon`` are plain (x, y) tuples; ``mapping`` is one
    point index per node. Checks bijectivity, pairwise edge discipline,
    edges through mapped points, and (when a polygon is given) boundary
    avoidance.
    """
    n = len(points)
    if sorted(mapping) != list(range(n)):
        return False
    coords = [points[mapping[v]] for v in range(n)]
    segs = [(coords[u], coords[v]) for u, v in tree_edges]
    m = len(segs)
    for i in range(m):
        u1, v1 = tree_edges[i]
        a1, b1 = segs[i]
        for w in range(n):
            if w != u1 and w != v1 and between(
                a1[0], a1[1], b1[0], b1[1], coords[w][0], coords[w][1]
            ):
                return False
        for j in range(i + 1, m):
            u2, v2 = tree_edges[j]
            a2, b2 = segs[j]
            shared = {u1, v1} & {u2, v2}
            if not shared:
                if segments_share_point(a1, b1, a2, b2):
                    return False
            else:
                w = shared.pop()
                far1 = coords[v1] if u1 == w else coords[u1]
                far2 = coords[v2] if u2 == w else coords[u2]
                if between(a1[0], a1[1], b1[0], b1[1], far2[0], far2[1]):
                    return False
                if between(a2[0], a2[1], b2[0], b2[1], far1[0], far1[1]):
                    return False
    if polygon is not None:
        k = len(polygon)
        for a, b in segs:
            for t in range(k):
                if segments_share_point(a, b, polygon[t], polygon[(t + 1) % k]):
                    return False
    return True


def exhaustive_feasible(tree_edges, points, polygon):
    """Is any bijection a valid bounded embedding? Tries every permutation."""
    n = len(points)
    for perm in permutations(range(n)):
        if brute_valid(tree_edges, points, perm, polygon):
            return True
    return False


def can_tile(sizes, caps):
    """Can the sizes be split into groups whose sums are exactly the caps?

    Fills one capacity at a time with every sub-multiset of the sizes left
    that sums to it; the sizes are held as counts per distinct value.
    """
    if sum(sizes) != sum(caps):
        return False
    values = sorted(set(sizes))

    def picks(counts, t, need):
        """Every count vector left after taking sizes from values[t:] that sum to need."""
        if need == 0:
            yield counts
            return
        if t == len(values):
            return
        for m in range(min(counts[t], need // values[t]) + 1):
            left = counts[:t] + (counts[t] - m,) + counts[t + 1 :]
            yield from picks(left, t + 1, need - m * values[t])

    @cache
    def fill(counts, k):
        # The totals agree, so filling every capacity uses every size.
        if k == len(caps):
            return True
        return any(fill(left, k + 1) for left in picks(counts, 0, caps[k]))

    return fill(tuple(sizes.count(v) for v in values), 0)


def three_partition(target, values):
    """Can the values be split into triples that each sum to target?

    Takes the largest value left and tries every pair of the others that
    completes its triple; answers are memoised on the sorted remainder.
    """
    if len(values) % 3 or sum(values) != target * (len(values) // 3):
        return False

    @cache
    def solvable(rest):
        if not rest:
            return True
        *others, largest = rest
        tried = set()
        for i, a in enumerate(others):
            for j in range(i + 1, len(others)):
                pair = (a, others[j])
                if largest + a + others[j] != target or pair in tried:
                    continue
                tried.add(pair)
                if solvable(tuple(others[:i] + others[i + 1 : j] + others[j + 1 :])):
                    return True
        return False

    return solvable(tuple(sorted(values)))


def isomorphic_siblings(node_count, edges, root):
    """Each node's previous isomorphic sibling and its subtree size, from AHU
    canonical strings (Aho, Hopcroft & Ullman 1974).

    Rooted at ``root``, a subtree's string is "(", its children's strings in
    sorted order, then ")": two subtrees are isomorphic iff their strings are
    equal, and a subtree's size is half its string's length. Siblings are
    taken in ascending index order; entry v of the first list is the last
    sibling before v with v's string, or -1.
    """
    neighbours = [[] for _ in range(node_count)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    canon = [""] * node_count
    prev = [-1] * node_count

    def visit(v, parent):
        kids = sorted(w for w in neighbours[v] if w != parent)
        last = {}
        for w in kids:
            visit(w, v)
            prev[w] = last.get(canon[w], -1)
            last[canon[w]] = w
        canon[v] = "(" + "".join(sorted(canon[w] for w in kids)) + ")"

    visit(root, -1)
    return prev, [len(s) // 2 for s in canon]


def visibility(verts, points):
    """Visibility matrix and ascending clean-sightline lists of (x, y) points
    strictly inside the polygon with these vertices.

    Two points see each other iff their closed segment shares no point with
    any boundary edge; a clean sightline is a visible pair with no third
    point on the segment between them.
    """
    k = len(verts)
    edges = [(verts[t], verts[(t + 1) % k]) for t in range(k)]
    n = len(points)
    matrix = [[i == j for j in range(n)] for i in range(n)]
    clean = [[] for _ in range(n)]
    for i in range(n):
        p = points[i]
        for j in range(i + 1, n):
            q = points[j]
            if any(segments_share_point(p, q, a, b) for a, b in edges):
                continue
            matrix[i][j] = matrix[j][i] = True
            if not any(
                w != i and w != j and between(*p, *q, *points[w]) for w in range(n)
            ):
                clean[i].append(j)
                clean[j].append(i)
    return matrix, [sorted(c) for c in clean]


# The exhaustive reporter that the verifier's sweep replaced, kept verbatim
# as the reference its reports are checked against. Unlike the rest of this
# module it runs on the library's segment kernel and report types, so it
# imports them where it uses them.


def pairwise_report(tree, points, mapping, polygon=None):
    """The verifier's report for a bijective mapping, by classifying every
    pair of edge images whose bounding boxes overlap, scanning the points on
    each edge and testing each edge against the boundary."""
    from polyembed.geometry import boxed
    from polyembed.model import KIND_EDGE_HITS_BOUNDARY, VerificationReport, Violation

    xs, ys = [p.x for p in points], [p.y for p in points]
    index = PointIndex(points.points)
    violations = set()

    # boxed(...) + (edge_index, node_u, node_v)
    segs = []
    for idx, (u, v) in enumerate(tree.edges):
        a, b = mapping[u], mapping[v]
        rec = boxed(xs[a], ys[a], xs[b], ys[b]) + (idx, u, v)
        segs.append(rec)
        if polygon is not None and polygon.blocks(*rec[:4]):
            violations.add(Violation(KIND_EDGE_HITS_BOUNDARY, edges=(idx,)))

    _check_edge_pairs(segs, violations)
    _check_points_on_edges(tree.edges, mapping, index, violations)
    return VerificationReport._from_tuples(set(map(Violation._key, violations)))


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
    from polyembed.geometry import CROSSING, DISJOINT, OVERLAP, TOUCH, segment_relation
    from polyembed.model import KIND_EDGE_CROSSES_EDGE, KIND_EDGES_OVERLAP, Violation

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
    from polyembed.model import KIND_EDGE_THROUGH_POINT, Violation

    for idx, (u, v) in enumerate(edges):
        for point_idx in index.inside(mapping[u], mapping[v]):
            violations.add(
                Violation(KIND_EDGE_THROUGH_POINT, edges=(idx,), points=(point_idx,))
            )


class PointIndex:
    """A point set sorted by x, for finding points covered by a segment.

    ``xs`` and ``ys`` are the flat coordinates in point-index order.
    """

    def __init__(self, points):
        self.xs = [p.x for p in points]
        self.ys = [p.y for p in points]
        self._by_x = sorted(range(len(self.xs)), key=self.xs.__getitem__)
        self._x_keys = [self.xs[r] for r in self._by_x]

    def inside(self, i, j):
        """Yield every point index other than i and j on the segment from
        point i to point j."""
        from polyembed.geometry import boxed

        xs, ys, by_x, keys = self.xs, self.ys, self._by_x, self._x_keys
        ax, ay, bx, by, minx, maxx, miny, maxy = boxed(xs[i], ys[i], xs[j], ys[j])
        for t in range(bisect_left(keys, minx), bisect_right(keys, maxx)):
            r = by_x[t]
            if r == i or r == j:
                continue
            ry = ys[r]
            if miny <= ry <= maxy and (bx - ax) * (ry - ay) == (by - ay) * (xs[r] - ax):
                yield r
