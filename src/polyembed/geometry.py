"""Exact integer-arithmetic planar geometry.

Every predicate works on integer coordinates, and crossing points are exact
rationals; no floating point appears in this module. :func:`exact_ints` is
the package's integer rule. Touching counts as intersecting throughout: a
segment that merely grazes the polygon boundary "hits" it.

- :func:`segment_relation` decides how two closed segments meet, on flat
  coordinates; :func:`classify_segments` is its form for two
  :class:`Segment` records.
- :func:`plane_contacts` is the one sweep for the contacts among many
  segments. The verifier's report and :func:`is_simple` come from it.
- :class:`SimplePolygon` holds a polygon. :meth:`SimplePolygon.blocks` tests
  one segment against its boundary, and :meth:`SimplePolygon.blocks_row`
  and :meth:`SimplePolygon.blocks_fan` decide many in one pass over the
  edges; :func:`segment_hits_boundary` is the form for a :class:`Segment`.
- :func:`_locate` locates many points with the row kernel
  :func:`_row_cuts`, and :func:`point_in_polygon` one :class:`Point`.

Public predicates validate their polygon and coordinates; loops over an
already-validated instance call the flat forms, which check nothing again.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from enum import Enum
from itertools import chain, groupby, repeat
from operator import attrgetter, eq

from .errors import ValidationError

# Inputs beyond this bound are rejected at parse time; everything the package
# generates stays far below it.
COORD_LIMIT = 2**31 - 1


def exact_ints(values, code: str, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, each an int that is not a bool, else ``code``.

    The package's one integer rule: exact predicates are exact only on
    exact inputs, so a float, a string or a bool is refused, never converted.
    """
    values = tuple(values)
    if {int}.issuperset(map(type, values)):
        return values
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValidationError(code, f"{what} {v!r} is not an integer")
    return values


_set = object.__setattr__


class Record:
    """A frozen value record. A subclass names its fields in ``_fields`` and
    sets them in ``__init__`` with ``object.__setattr__``, then checks them;
    assignment and deletion raise ``AttributeError``. Records of one class
    are equal iff their fields are, compared and hashed through ``_key``,
    the ``operator.attrgetter`` of ``_fields`` unless the class sets its own."""

    def __init_subclass__(cls):
        if "_key" not in vars(cls):
            cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


@functools.total_ordering
class Point(Record):
    """A point with exact coordinates, ordered by (x, y)."""

    _fields = ("x", "y")

    def __init__(self, x: int, y: int):
        _set(self, "x", x)
        _set(self, "y", y)

    def __lt__(self, other):
        return self._key(self) < self._key(other) if other.__class__ is Point else NotImplemented


def cross(a: Point, b: Point, c: Point) -> int:
    """Signed cross product (b - a) x (c - a): twice the triangle area."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def direction_key(dx: int, dy: int) -> tuple[int, int]:
    """The direction of a nonzero vector up to sign, as an exact hash key:
    divided by the gcd of its components, first nonzero component positive.
    Two nonzero vectors are parallel iff their keys are equal."""
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (-dx, -dy) if dx < 0 or (dx == 0 and dy < 0) else (dx, dy)


class Segment(Record):
    _fields = ("a", "b")

    def __init__(self, a: Point, b: Point):
        _set(self, "a", a)
        _set(self, "b", b)
        exact_ints((a.x, a.y, b.x, b.y), "NonIntegerCoordinate", "segment coordinate")
        if a == b:
            raise ValidationError("DegenerateSegment", f"segment endpoints coincide at {a}")


class SegmentRelationKind(Enum):
    DISJOINT = "disjoint"
    PROPER_CROSSING = "proper_crossing"
    TOUCH_AT_ENDPOINT = "touch_at_endpoint"
    ENDPOINT_ON_INTERIOR = "endpoint_on_interior"
    COLLINEAR_OVERLAP = "collinear_overlap"


class SegmentRelation(Record):
    """How two closed segments meet; ``point`` is the contact witness.

    ``point`` is the shared endpoint for TOUCH_AT_ENDPOINT and the offending
    endpoint for ENDPOINT_ON_INTERIOR; None for the other kinds.
    """

    _fields = ("kind", "point")

    def __init__(self, kind: SegmentRelationKind, point: Point | None = None):
        _set(self, "kind", kind)
        _set(self, "point", point)


# Codes returned by segment_relation. The last four name the endpoint that
# lies in the relative interior of the other segment (segments ab and cd).
DISJOINT, CROSSING, TOUCH, OVERLAP, C_ON_AB, D_ON_AB, A_ON_CD, B_ON_CD = range(8)

_KINDS = (
    SegmentRelationKind.DISJOINT,
    SegmentRelationKind.PROPER_CROSSING,
    SegmentRelationKind.TOUCH_AT_ENDPOINT,
    SegmentRelationKind.COLLINEAR_OVERLAP,
) + (SegmentRelationKind.ENDPOINT_ON_INTERIOR,) * 4


def segment_relation(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """How the closed segments ab and cd meet, as one of the codes above.

    Both segments must be non-degenerate. The outcomes are mutually
    exclusive and exhaustive: disjoint, a proper crossing at an interior
    point, a touch at a shared endpoint, a positive-length collinear
    overlap, or one segment's endpoint in the other's relative interior.
    """
    ux, uy = bx - ax, by - ay
    d1 = ux * (cy - ay) - uy * (cx - ax)
    d2 = ux * (dy - ay) - uy * (dx - ax)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return DISJOINT
    if d1 == 0 and d2 == 0:
        # All four points are on one line; compare 1-D intervals along the
        # dominant axis of that line. Single-point contact on a common line
        # is necessarily an endpoint-to-endpoint touch.
        if ax != bx:
            ka, kb, kc, kd = ax, bx, cx, dx
        else:
            ka, kb, kc, kd = ay, by, cy, dy
        lo = max(min(ka, kb), min(kc, kd))
        hi = min(max(ka, kb), max(kc, kd))
        if lo > hi:
            return DISJOINT
        return TOUCH if lo == hi else OVERLAP
    # Non-collinear segments meet in at most one point, so a shared endpoint
    # is the whole intersection.
    if (cx == ax and cy == ay) or (cx == bx and cy == by):
        return TOUCH
    if (dx == ax and dy == ay) or (dx == bx and dy == by):
        return TOUCH
    vx, vy = dx - cx, dy - cy
    d3 = vx * (ay - cy) - vy * (ax - cx)
    d4 = vx * (by - cy) - vy * (bx - cx)
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return DISJOINT
    # Each segment now meets the other's line. At most one of d1..d4 is
    # zero (two zeros mean collinear or a shared endpoint), and a zero puts
    # that endpoint where the lines meet, which is inside the other segment.
    if d1 == 0:
        return C_ON_AB
    if d2 == 0:
        return D_ON_AB
    if d3 == 0:
        return A_ON_CD
    if d4 == 0:
        return B_ON_CD
    return CROSSING


def boxed(ax: int, ay: int, bx: int, by: int) -> tuple[int, ...]:
    """(ax, ay, bx, by, minx, maxx, miny, maxy); callers may append fields."""
    minx, maxx = (ax, bx) if ax <= bx else (bx, ax)
    miny, maxy = (ay, by) if ay <= by else (by, ay)
    return (ax, ay, bx, by, minx, maxx, miny, maxy)


def classify_segments(s: Segment, t: Segment) -> SegmentRelation:
    """Classify how two non-degenerate closed segments meet.

    The five kinds are mutually exclusive and exhaustive: two segments are
    disjoint, cross properly at an interior point, touch at a shared
    endpoint, have one segment's endpoint in the other's relative interior,
    or overlap along a positive-length collinear stretch.
    """
    a, b, c, d = s.a, s.b, t.a, t.b
    code = segment_relation(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)
    if code == TOUCH:
        point = c if c == a or c == b else d
    elif code >= C_ON_AB:
        point = (c, d, a, b)[code - C_ON_AB]
    else:
        point = None
    return SegmentRelation(_KINDS[code], point)


def plane_contacts(
    segments: Sequence[tuple[int, ...]],
) -> Iterator[tuple[tuple, tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Every point where segments meet other than at a shared endpoint, in
    (x, y) order, as ``(p, U, L, C)``.

    Each segment is a record whose first four fields are ``(ax, ay, bx, by)``
    with a != b; further fields, such as a :func:`boxed` record's box, are
    ignored. Segments may share endpoints freely: the verifier's points are
    distinct and strictly inside the polygon, and :func:`is_simple` checks
    that the vertices are distinct first. U, L and C hold the indices of
    the segments that start at p, end at p, and hold p inside them; a
    segment starts at the lesser of its ends in (x, y) order. p is
    ``(x, y)``, as ints at an endpoint and as exact ``Fraction`` values at
    a crossing of two interiors. A point is yielded iff C is not empty or
    two segments of U ∪ C have one direction, so that they overlap from p
    on; each overlapping pair is in U ∪ C together only at the later of
    their two starts.

    A Bentley–Ottmann sweep (1979) over the Shamos–Hoey status (1976).
    Events are the endpoints, in (x, y) order, merged with a heap of the
    crossings found so far; each is one exact point (X / D, Y / D), and a
    crossing at an endpoint is never queued. The status lists the segments
    that started before the event and end at or after it, from bottom to
    top; a vertical one is the highest of those through a point. At an
    event p, L ∪ C is the run of status segments through p. A test is
    inline integer arithmetic on the segment's line dx*y - dy*x = k: it
    passes below p iff dx*Y - dy*X > k*D and holds p iff they are equal,
    exactly, at endpoints and crossings alike, and a vertical one always
    holds p. When the last event's slot holds a segment that ends at p, one
    segment starts at p and neither neighbour holds p, the run is that one
    segment and the new one takes its slot, two side tests in all. Otherwise
    the run is found by testing the last event's slot and its neighbour,
    then bisecting what is left, and U ∪ C replaces it, ordered by direction
    (de Berg et al., Computational Geometry, HandleEventPoint). Each pair
    made adjacent goes to :func:`segment_relation` unless one segment's ends
    lie strictly on one side of the other's line, which it would call
    disjoint. Only a proper crossing ahead of p becomes an event; every
    other contact is at an endpoint.
    """
    segs: list[tuple[int, int, int, int]] = []  # (ax, ay, bx, by), a before b in (x, y) order
    lines: list[tuple[int, int, int]] = []  # (dx, dy, k): the line dx*y - dy*x = k
    end: list[tuple[int, int]] = []  # (bx, by)
    starts: dict[tuple[int, int], list[int]] = {}
    for i, seg in enumerate(segments):
        ax, ay, bx, by = seg[:4]
        a, b = (ax, ay), (bx, by)
        if b < a:
            ax, ay, bx, by, a, b = bx, by, ax, ay, b, a
        segs.append((ax, ay, bx, by))
        lines.append((bx - ax, by - ay, (bx - ax) * ay - (by - ay) * ax))
        end.append(b)
        starts.setdefault(a, []).append(i)

    def lower(s: int, t: int) -> int:
        # Directions that point right or straight up, from lowest to highest.
        return lines[t][0] * lines[s][1] - lines[t][1] * lines[s][0]

    by_direction = functools.cmp_to_key(lower)
    # An event is (p, X, Y, D) with p = (X / D, Y / D) exact and D > 0; an
    # endpoint is (p, x, y, 1). Every endpoint is queued from the start, so
    # no crossing at an endpoint joins the heap: the endpoint's event has it.
    # A dict, not a set: input order, nearly sorted along a chain, sorts fast.
    order = dict.fromkeys(end) | starts
    points, queued = sorted(order), set(order)
    crossings: list[tuple] = []
    status: list[int] = []
    lo = j = 0
    while j < len(points) or crossings:
        if crossings and (j == len(points) or crossings[0][0] < points[j]):
            p, X, Y, D = _pop_crossing(crossings)
        else:
            p = points[j]
            (X, Y), D, j = p, 1, j + 1
        begin, n, adjacent = starts.get(p, ()), len(status), ()
        if len(begin) == 1 and lo < n and end[status[lo]] == p:
            # The segment in the last event's slot ends at p and one starts
            # there: unless a neighbour holds p too, the new one takes the slot.
            for i in (lo - 1, lo + 1):
                if 0 <= i < n:
                    dx, dy, k = lines[status[i]]
                    if dx * Y - dy * X == k * D:
                        break
            else:
                status[lo] = begin[0]
                adjacent = (lo, lo + 1)
        if not adjacent:
            a, b, i, tests = -1, n, min(lo, n - 1), 0
            while b - a > 1:  # the last event's slot, its neighbour, then bisect
                i = i if tests < 2 and a < i < b else (a + b) // 2
                dx, dy, k = lines[status[i]]
                a, b, i = (i, b, i + 1) if dx * Y - dy * X > k * D else (a, i, i - 1)
                tests += 1
            lo = hi = b
            while hi < n:  # the run through p, rarely over two segments
                dx, dy, k = lines[status[hi]]
                if dx * Y - dy * X != k * D:
                    break
                hi += 1
            inside = [s for s in status[lo:hi] if end[s] != p]
            ending = tuple(sorted(s for s in status[lo:hi] if end[s] == p))
            new = [*begin, *inside]
            if len(new) > 1:
                new.sort(key=by_direction)
            overlap = len(new) > 1 and any(lower(s, t) == 0 for s, t in zip(new, new[1:]))
            if inside or overlap:
                yield p, tuple(begin), ending, tuple(inside)
            status[lo:hi] = new
            adjacent = (lo, lo + len(new)) if new else (lo,)
        for b in adjacent:  # each new pair of neighbours, unless one is clear of the other's line
            if 0 < b < len(status):
                s, t = status[b - 1], status[b]
                (dx, dy, k), (cx, cy, ex, ey) = lines[t], segs[s]
                d1, d2 = dx * cy - dy * cx - k, dx * ey - dy * ex - k
                if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
                    continue
                (dx, dy, k), (cx, cy, ex, ey) = lines[s], segs[t]
                d1, d2 = dx * cy - dy * cx - k, dx * ey - dy * ex - k
                if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
                    continue
                if segment_relation(*segs[s], cx, cy, ex, ey) == CROSSING:
                    _push_crossing(lines[s], lines[t], p, crossings, queued)


def _push_crossing(s, t, p, crossings, queued) -> None:
    """Queue the proper crossing of two segments, given by their lines
    (dx, dy, k), dx*y - dy*x = k, if past p and new."""
    # Imported here, as only inputs with a crossing need them: importing
    # fractions alone costs milliseconds, which every CLI call would pay.
    from fractions import Fraction
    from heapq import heappush

    (ux, uy, k), (vx, vy, l) = s, t
    # The lines meet at (X / D, Y / D), by Cramer's rule.
    D, X, Y = ux * vy - uy * vx, k * vx - l * ux, k * vy - l * uy
    if D < 0:
        D, X, Y = -D, -X, -Y
    q = (Fraction(X, D), Fraction(Y, D))
    if q > p and q not in queued:
        queued.add(q)
        heappush(crossings, (q, X, Y, D))


def _pop_crossing(crossings):
    """The least queued crossing; heapq was loaded when it was queued."""
    from heapq import heappop

    return heappop(crossings)


class SimplePolygon(Record):
    """A closed polygonal cycle; simplicity is checked by :func:`is_simple`.

    Construction only enforces the cheap structural invariants (at least
    three vertices, integer coordinates, no two consecutive vertices
    equal) so that candidate polygons can be built and *then* tested or
    normalized. The simplicity test runs at most once per vertex cycle: it
    is cached on the polygon, and :func:`normalize_ccw` hands the verdict
    to the reversed copy.
    """

    _fields = ("vertices",)

    def __init__(self, vertices: Sequence[Point]):
        vertices = tuple(vertices)
        _set(self, "vertices", vertices)
        k = len(vertices)
        if k < 3:
            raise ValidationError(
                "TooFewVertices", f"polygon needs at least 3 vertices, got {k}"
            )
        xy = list(map(Point._key, vertices))
        if {int}.issuperset(map(type, chain.from_iterable(xy))) and not any(
            map(eq, xy, xy[1:] + xy[:1])
        ):
            return
        for i, v in enumerate(vertices):  # only to name the first offender
            exact_ints((v.x, v.y), "NonIntegerCoordinate", f"vertex {i} coordinate")
            if v == vertices[(i + 1) % k]:
                raise ValidationError(
                    "DuplicateConsecutiveVertex",
                    f"vertices {i} and {(i + 1) % k} coincide at {v}",
                )

    @functools.cached_property
    def edge_boxes(self) -> tuple[tuple[int, ...], ...]:
        """The :func:`boxed` record of every edge, in vertex order."""
        verts = self.vertices
        return tuple(boxed(a.x, a.y, b.x, b.y) for a, b in zip(verts, verts[1:] + verts[:1]))

    def blocks(self, ax: int, ay: int, bx: int, by: int) -> bool:
        """True iff the closed segment from (ax, ay) to (bx, by) shares a
        point with the boundary.

        An edge goes to :func:`segment_relation` only if its box meets the
        segment's and its two ends do not lie strictly on one side of the
        segment's line; the side test drops most edges whose box meets a
        sightline's. Does not check simplicity; callers validated it.
        """
        minx, maxx = (ax, bx) if ax <= bx else (bx, ax)
        miny, maxy = (ay, by) if ay <= by else (by, ay)
        ux, uy = bx - ax, by - ay
        for cx, cy, dx, dy, eminx, emaxx, eminy, emaxy in self.edge_boxes:
            if eminx > maxx or emaxx < minx or eminy > maxy or emaxy < miny:
                continue
            d1 = ux * (cy - ay) - uy * (cx - ax)
            d2 = ux * (dy - ay) - uy * (dx - ax)
            if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
                continue
            if segment_relation(ax, ay, bx, by, cx, cy, dx, dy) != DISJOINT:
                return True
        return False

    def blocks_row(self, y: int, xs: Sequence[int]) -> bytearray:
        """Entry t is 1 iff the closed segment from (xs[t], y) to
        (xs[t + 1], y) shares a point with the boundary; ``xs`` ascending.

        One :func:`_row_cuts` pass decides every gap. A crossing at x lies
        in the gap [xa, xb] iff ⌈x⌉ ≤ xb and ⌊x⌋ ≥ xa: the gap that starts
        at the last xa ≤ ⌊x⌋, and for an integer x at xa also the one ending
        there. A horizontal edge on the row blocks every gap it overlaps.
        """
        _, ints, fracs, flats = _row_cuts(self.edge_boxes, y)
        m = len(xs)
        out = bytearray(max(m - 1, 0))
        for x in fracs:
            t = bisect_right(xs, x)
            if 0 < t < m:
                out[t - 1] = 1
        for x in ints:
            t = bisect_right(xs, x)
            if 0 < t < m:
                out[t - 1] = 1
            if t > 1 and xs[t - 1] == x:
                out[t - 2] = 1
        for a, b in flats:
            for t in range(max(bisect_left(xs, a) - 1, 0), min(bisect_right(xs, b), m - 1)):
                out[t] = 1
        return out

    def blocks_fan(self, sx: int, sy: int, y: int, xs: Sequence[int]) -> bytearray:
        """Entry t is 1 iff the closed segment from (sx, sy) to (xs[t], y)
        shares a point with the boundary; ``xs`` ascending, y != sy, and
        (sx, sy) strictly inside the polygon.

        One pass over the edges. Each casts a shadow on the row: the central
        projection from the source of its part strictly past the source's
        level and up to the row, where an end beyond the row is replaced by
        the edge's crossing with it. A segment to the row meets the edge iff
        its end is in that shadow. An edge that reaches the source's level
        has a shadow unbounded toward the side where it reaches it, the sign
        of a cross product; the other end is an exact rational, so its
        integer targets are [⌈lo⌉, ⌊hi⌋]. Each shadow marks its targets by
        two bisects; shadows may overlap, and a target marked twice stays 1.
        """
        out = bytearray(len(xs))
        if not xs:
            return out
        # Heights u are measured from the source toward the row, so shadows
        # come from 0 < u <= h, and offsets p from sx; a shadow is kept as
        # its integer targets, and an unbounded side stops at the last one.
        sign = 1 if y > sy else -1
        h = (y - sy) * sign
        first, last = xs[0] - sx, xs[-1] - sx
        for ax, ay, bx, by, _, _, _, _ in self.edge_boxes:
            ua, ub = (ay - sy) * sign, (by - sy) * sign
            if ua > ub:
                ax, ua, bx, ub = bx, ub, ax, ua
            if ub <= 0 or ua > h:
                continue
            pa, pb = ax - sx, bx - sx
            if ub > h:  # b lies past the row: its crossing with the row
                fb, r = divmod(pa * (ub - h) + pb * (h - ua), ub - ua)
            else:
                fb, r = divmod(pb * h, ub)
            cb = fb + (r != 0)
            if ua > 0:
                fa, r = divmod(pa * h, ua)
                ca = fa + (r != 0)
                lo, hi = (ca if ca < cb else cb), (fa if fa > fb else fb)
            elif pa * ub > ua * pb:  # the edge reaches the source's level right of it
                lo, hi = cb, last
            else:
                lo, hi = first, fb
            i, j = bisect_left(xs, lo + sx), bisect_right(xs, hi + sx)
            if i < j:
                out[i:j] = b"\x01" * (j - i)
        return out

    @functools.cached_property
    def _simple(self) -> bool:
        distinct = len(set(self.vertices)) == len(self.vertices)
        return distinct and next(plane_contacts(self.edge_boxes), None) is None


def signed_area2(polygon: SimplePolygon) -> int:
    """Twice the signed area; positive for counter-clockwise cycles."""
    total = 0
    verts = polygon.vertices
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        total += a.x * b.y - b.x * a.y
    return total


def is_simple(polygon: SimplePolygon) -> bool:
    """True iff no two non-adjacent edges intersect and adjacent edges meet
    only at their shared vertex: the vertices are distinct, and a
    :func:`plane_contacts` sweep over the edges, stopped at its first
    contact, finds none, O(k log k) for k edges."""
    return polygon._simple


def ensure_simple(polygon: SimplePolygon) -> None:
    if not polygon._simple:
        raise ValidationError("PolygonNotSimple", "polygon boundary self-intersects")


def normalize_ccw(polygon: SimplePolygon) -> SimplePolygon:
    """Return the same vertex cycle oriented counter-clockwise.

    The first vertex is kept in place so the result is deterministic.
    """
    ensure_simple(polygon)
    if signed_area2(polygon) > 0:
        return polygon
    verts = polygon.vertices
    ccw = SimplePolygon((verts[0],) + tuple(reversed(verts[1:])))
    ccw.__dict__["_simple"] = True  # the same cycle, already swept
    return ccw


class PointLocation(Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


def _row_cuts(edges, y: int) -> tuple[list[int], list[int], list[int], list[tuple[int, int]]]:
    """Where the boundary edges meet the line at height y: one pass, as
    ``(keys, ints, fracs, flats)``.

    A horizontal edge on the line is an interval ``(minx, maxx)`` of
    ``flats``. Every other edge that meets it does so at one x, from one
    ``divmod``: an integer x goes to ``ints`` and any other x's ⌊x⌋ to
    ``fracs``. ``keys`` holds ⌈x⌉ of each edge that crosses the line by the
    half-open rule, one end on or below it and the other above.
    :func:`_locate` and :meth:`SimplePolygon.blocks_row` share this pass.
    """
    keys: list[int] = []
    ints: list[int] = []
    fracs: list[int] = []
    flats: list[tuple[int, int]] = []
    for ax, ay, bx, by, minx, maxx, miny, maxy in edges:
        if miny > y or maxy < y:
            continue
        if ay == by:
            flats.append((minx, maxx))
            continue
        q, r = divmod(ax * (by - ay) + (y - ay) * (bx - ax), by - ay)
        if r:
            fracs.append(q)
        else:
            ints.append(q)
        if (ay > y) != (by > y):
            keys.append(q + (r != 0))
    return keys, ints, fracs, flats


def _locate(xs: Sequence[int], ys: Sequence[int], polygon: SimplePolygon) -> list[PointLocation]:
    """The location of each point (xs[i], ys[i]) relative to a polygon
    already checked simple.

    One sort groups the points into rows of one y, and each row makes one
    :func:`_row_cuts` pass over the edges. A horizontal edge on the row is an
    interval of boundary; every other edge that meets the row does so at one
    x. An edge that crosses the row by the half-open rule crosses the
    rightward ray of every point left of x, so with keys ⌈x⌉ a point off the
    boundary is inside iff an odd number of keys lie right of it. A row with
    no horizontal edge and no integer x at one of its points is decided by
    one C-level pass of bisects; any other row, and one with a point not
    strictly inside, is placed point by point.
    """
    out = [PointLocation.INSIDE] * len(xs)
    edges = polygon.edge_boxes
    for py, row in groupby(sorted(range(len(ys)), key=ys.__getitem__), ys.__getitem__):
        row = list(row)
        row_xs = list(map(xs.__getitem__, row))
        keys, ints, _, flats = _row_cuts(edges, py)
        keys.sort()
        on_row = set(ints)  # integer x on a non-horizontal edge
        if not flats and on_row.isdisjoint(row_xs):
            if all((len(keys) - t) % 2 for t in set(map(bisect_right, repeat(keys), row_xs))):
                continue
        # Edges of a simple polygon do not overlap, so sorted flats are
        # disjoint but for shared ends; the last one starting at or left of
        # x is the only one that can hold it.
        flats.sort()
        starts = [flat[0] for flat in flats]
        for i, px in zip(row, row_xs):
            t = bisect_right(starts, px) - 1
            if px in on_row or (t >= 0 and flats[t][1] >= px):
                out[i] = PointLocation.ON_BOUNDARY
            elif not (len(keys) - bisect_right(keys, px)) % 2:
                out[i] = PointLocation.OUTSIDE
    return out


def point_in_polygon(p: Point, polygon: SimplePolygon) -> PointLocation:
    """Exact location of p relative to a simple polygon: :func:`_locate` on
    one point."""
    ensure_simple(polygon)
    x, y = exact_ints((p.x, p.y), "NonIntegerCoordinate", "point coordinate")
    return _locate((x,), (y,), polygon)[0]


def segment_hits_boundary(s: Segment, polygon: SimplePolygon) -> bool:
    """True iff the closed segment shares at least one point with the
    polygon's boundary polyline. Grazing contact counts."""
    ensure_simple(polygon)
    return polygon.blocks(s.a.x, s.a.y, s.b.x, s.b.y)
