import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from polyembed.errors import ValidationError
from polyembed.geometry import (
    A_ON_CD,
    B_ON_CD,
    C_ON_AB,
    D_ON_AB,
    DISJOINT,
    TOUCH,
    Point,
    PointLocation,
    Segment,
    SegmentRelationKind,
    SimplePolygon,
    _locate,
    boxed,
    classify_segments,
    cross,
    direction_key,
    is_simple,
    normalize_ccw,
    plane_contacts,
    point_in_polygon,
    segment_hits_boundary,
    segment_relation,
    signed_area2,
)
from polyembed.model import Embedding, EmbeddingInstance, FreeTree, PointSet, make_instance
from polyembed.reduction import build_points, build_polygon
from polyembed.verifier import verify_embedding
from test_solver import COMB, L_POLYGON, POLYGON_CATALOG

TRIANGLE = SimplePolygon((Point(0, 0), Point(9, 0), Point(0, 9)))
# build_polygon(2, 7), hardcoded to keep this module self-contained
NOTCHED = SimplePolygon(
    (Point(0, 0), Point(8, 0), Point(8, 2), Point(10, 0), Point(18, 0), Point(0, 18))
)

coords = st.integers(min_value=-60, max_value=60)


def random_cycle(rng, size, count):
    """count vertices on a size x size grid, no two consecutive ones equal."""
    while True:
        verts = [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]
        if all(verts[t] != verts[t - 1] for t in range(count)):
            return verts
points = st.builds(Point, coords, coords)


def turn(a, b, c):
    """The turn of the path a -> b -> c: 1 left, -1 right, 0 straight."""
    d = cross(a, b, c)
    return (d > 0) - (d < 0)


class TestOrient2d:
    # The orientation kernel is the sign of cross.
    def test_unit_right_turn_convention(self):
        assert turn(Point(0, 0), Point(1, 0), Point(0, 1)) == 1

    def test_collinear(self):
        assert turn(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_mirror_is_clockwise(self):
        assert turn(Point(0, 0), Point(0, 1), Point(1, 0)) == -1

    @given(points, points, points)
    def test_transposition_flips_sign(self, a, b, c):
        assert turn(b, a, c) == -turn(a, b, c)

    @given(points, points, points)
    def test_collinear_invariant_under_permutation(self, a, b, c):
        results = {turn(*perm) for perm in itertools.permutations((a, b, c))}
        if 0 in results:
            assert results == {0}


class TestDirectionKey:
    def test_equal_iff_parallel(self):
        vecs = [(dx, dy) for dx in range(-4, 5) for dy in range(-4, 5) if dx or dy]
        for u in vecs:
            for v in vecs:
                parallel = oracles.orient(0, 0, *u, *v) == 0
                assert (direction_key(*u) == direction_key(*v)) == parallel, (u, v)

    def test_reduced_and_sign_normalised(self):
        assert direction_key(-6, 4) == (3, -2)
        assert direction_key(0, -5) == (0, 1)
        assert direction_key(-7, 0) == (1, 0)


class TestClassifySegments:
    def test_proper_crossing(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(2, 2)), Segment(Point(0, 2), Point(2, 0))
        )
        assert rel.kind is SegmentRelationKind.PROPER_CROSSING

    def test_touch_at_endpoint(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(2, 0)), Segment(Point(2, 0), Point(2, 2))
        )
        assert rel.kind is SegmentRelationKind.TOUCH_AT_ENDPOINT
        assert rel.point == Point(2, 0)

    def test_collinear_overlap(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(4, 0)), Segment(Point(1, 0), Point(3, 0))
        )
        assert rel.kind is SegmentRelationKind.COLLINEAR_OVERLAP

    def test_endpoint_on_interior(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(4, 0)), Segment(Point(2, 0), Point(2, 3))
        )
        assert rel.kind is SegmentRelationKind.ENDPOINT_ON_INTERIOR
        assert rel.point == Point(2, 0)

    def test_disjoint(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(1, 0)), Segment(Point(3, 3), Point(4, 4))
        )
        assert rel.kind is SegmentRelationKind.DISJOINT

    def test_collinear_endpoint_touch(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(2, 0)), Segment(Point(2, 0), Point(5, 0))
        )
        assert rel.kind is SegmentRelationKind.TOUCH_AT_ENDPOINT
        assert rel.point == Point(2, 0)

    def test_shared_endpoint_with_overlap_is_overlap(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(4, 0)), Segment(Point(0, 0), Point(2, 0))
        )
        assert rel.kind is SegmentRelationKind.COLLINEAR_OVERLAP

    def test_identical_segments_overlap(self):
        rel = classify_segments(
            Segment(Point(0, 0), Point(3, 1)), Segment(Point(3, 1), Point(0, 0))
        )
        assert rel.kind is SegmentRelationKind.COLLINEAR_OVERLAP

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            Segment(Point(1, 1), Point(1, 1))

    @given(points, points, points, points)
    def test_symmetric_in_arguments(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = Segment(a, b), Segment(c, d)
        assert classify_segments(s, t).kind is classify_segments(t, s).kind

    @given(points, points, points, points)
    def test_contact_agrees_with_on_segment_for_collinear(self, a, b, c, d):
        if a == b or c == d:
            return
        rel = classify_segments(Segment(a, b), Segment(c, d))
        touches = (
            oracles.between(a.x, a.y, b.x, b.y, c.x, c.y)
            or oracles.between(a.x, a.y, b.x, b.y, d.x, d.y)
            or oracles.between(c.x, c.y, d.x, d.y, a.x, a.y)
            or oracles.between(c.x, c.y, d.x, d.y, b.x, b.y)
        )
        if touches:
            assert rel.kind is not SegmentRelationKind.DISJOINT


class TestSegmentRelation:
    def test_agrees_with_oracle_on_4x4_grid(self):
        grid = [(x, y) for x in range(4) for y in range(4)]
        segs = [(a, b) for a in grid for b in grid if a != b]
        for a, b in segs:
            for c, d in segs:
                rel = segment_relation(*a, *b, *c, *d)
                assert (rel != DISJOINT) == oracles.segments_share_point(a, b, c, d), (a, b, c, d)
                if rel == TOUCH:
                    assert {a, b} & {c, d}, (a, b, c, d)
                elif rel in (C_ON_AB, D_ON_AB):
                    end = c if rel == C_ON_AB else d
                    assert end not in (a, b) and oracles.between(*a, *b, *end), (a, b, c, d)
                elif rel in (A_ON_CD, B_ON_CD):
                    end = a if rel == A_ON_CD else b
                    assert end not in (c, d) and oracles.between(*c, *d, *end), (a, b, c, d)


class TestPointIndex:
    # The covered-point scan of the reference reporter, oracles.pairwise_report.
    def test_inside_agrees_with_oracle_on_4x4_grid(self):
        grid = [Point(x, y) for x in range(4) for y in range(4)]
        index = oracles.PointIndex(grid)
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                if i == j:
                    continue
                expected = {
                    k
                    for k, c in enumerate(grid)
                    if k not in (i, j) and oracles.between(a.x, a.y, b.x, b.y, c.x, c.y)
                }
                got = list(index.inside(i, j))
                assert len(got) == len(set(got)) and set(got) == expected, (a, b)

    def test_collinear_group(self):
        points, groups = build_points(2, 7)
        index = oracles.PointIndex(points.points)
        group = groups[0]
        for a, i in enumerate(group):
            for b, j in enumerate(group):
                if a != b:
                    lo, hi = min(a, b), max(a, b)
                    assert sorted(index.inside(i, j)) == list(group[lo + 1 : hi])


class TestPointInPolygon:
    def test_strictly_interior(self):
        assert point_in_polygon(Point(1, 1), TRIANGLE) is PointLocation.INSIDE

    def test_vertex_is_boundary(self):
        assert point_in_polygon(Point(0, 0), TRIANGLE) is PointLocation.ON_BOUNDARY

    def test_outside(self):
        assert point_in_polygon(Point(9, 9), TRIANGLE) is PointLocation.OUTSIDE

    def test_edge_point_is_boundary(self):
        assert point_in_polygon(Point(4, 0), TRIANGLE) is PointLocation.ON_BOUNDARY
        assert point_in_polygon(Point(4, 5), TRIANGLE) is PointLocation.ON_BOUNDARY

    def test_agrees_with_halfplane_test_on_convex_polygons(self):
        convex = [
            TRIANGLE,
            SimplePolygon((Point(0, 0), Point(6, 0), Point(6, 6), Point(0, 6))),
            SimplePolygon((Point(2, 0), Point(6, 2), Point(5, 6), Point(1, 5))),
        ]
        for poly in convex:
            verts = poly.vertices
            k = len(verts)
            for x in range(-1, 8):
                for y in range(-1, 8):
                    p = Point(x, y)
                    edges = [(verts[i], verts[(i + 1) % k]) for i in range(k)]
                    sides = [turn(a, b, p) for a, b in edges]
                    if -1 in sides:
                        expected = PointLocation.OUTSIDE
                    elif 0 in sides:
                        # on an edge line; boundary only if within the hull
                        expected = (
                            PointLocation.ON_BOUNDARY
                            if any(oracles.between(a.x, a.y, b.x, b.y, p.x, p.y) for a, b in edges)
                            else PointLocation.OUTSIDE
                        )
                    else:
                        expected = PointLocation.INSIDE
                    assert point_in_polygon(p, poly) is expected, (poly, p)

    def test_agrees_with_oracle_on_notched_polygons(self):
        # Notch peaks and horizontal base edges are where the one-pass
        # boundary test and the crossing parity interact.
        for poly in (build_polygon(3, 7), build_polygon(2, 12)):
            verts = [(v.x, v.y) for v in poly.vertices]
            xs = [x for x, _ in verts]
            ys = [y for _, y in verts]
            for x in range(min(xs) - 2, max(xs) + 3):
                for y in range(min(ys) - 2, max(ys) + 3):
                    got = point_in_polygon(Point(x, y), poly).value
                    assert got == oracles.point_location(verts, (x, y)), (verts, x, y)

    def test_locate_points_matches_oracle_on_catalog_lattice(self):
        # Every lattice point of a box around each polygon, in one shuffled
        # call, so rows mix inside, outside and boundary points.
        rng = random.Random(13)
        for verts in POLYGON_CATALOG:
            xs, ys = [x for x, _ in verts], [y for _, y in verts]
            lattice = [
                (x, y)
                for x in range(min(xs) - 2, max(xs) + 3)
                for y in range(min(ys) - 2, max(ys) + 3)
            ]
            rng.shuffle(lattice)
            poly = SimplePolygon(tuple(Point(*v) for v in verts))
            got = _locate([x for x, _ in lattice], [y for _, y in lattice], poly)
            assert [g.value for g in got] == [
                oracles.point_location(verts, p) for p in lattice
            ], verts

    def test_locate_points_matches_oracle_on_random_simple_polygons(self):
        # The lattice of each box holds every vertex and every lattice point
        # of every horizontal edge; small grids make both frequent.
        rng = random.Random(17)
        polygons = horizontal = 0
        while polygons < 300:
            verts = random_cycle(rng, rng.randint(3, 7), rng.randint(3, 8))
            if not oracles.simple_polygon(verts):
                continue
            polygons += 1
            horizontal += any(a[1] == b[1] for a, b in zip(verts, verts[1:] + verts[:1]))
            size = max(max(v) for v in verts)
            lattice = [(x, y) for x in range(-1, size + 2) for y in range(-1, size + 2)]
            poly = SimplePolygon(tuple(Point(*v) for v in verts))
            got = _locate([x for x, _ in lattice], [y for _, y in lattice], poly)
            assert [g.value for g in got] == [
                oracles.point_location(verts, p) for p in lattice
            ], verts
        assert horizontal > 100

    def test_nonsimple_polygon_rejected(self):
        # Every public entry rejects the bowtie, also once its simplicity
        # verdict is cached on the polygon object.
        entries = {
            "point_in_polygon": lambda poly: point_in_polygon(Point(1, 1), poly),
            "segment_hits_boundary": lambda poly: segment_hits_boundary(
                Segment(Point(1, 0), Point(1, 2)), poly
            ),
            "make_instance": lambda poly: make_instance(
                FreeTree(1, ()), PointSet((Point(1, 1),)), poly
            ),
            # an instance built without make_instance
            "verify_embedding": lambda poly: verify_embedding(
                EmbeddingInstance(FreeTree(2, ((0, 1),)), PointSet((Point(1, 0), Point(1, 2))), poly),
                Embedding((0, 1)),
            ),
        }
        for name, call in entries.items():
            bowtie = SimplePolygon((Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)))
            for _ in range(2):
                with pytest.raises(ValidationError) as err:
                    call(bowtie)
                assert err.value.code == "PolygonNotSimple", name


class TestInstanceLocation:
    """An instance accepts its points iff each is strictly inside, and else
    names the first one that is not."""

    def draw_instances(self, verts, rng, draws, seen):
        """Seeded draws of lattice points from a box around the polygon:
        interior points, and in half the draws one or two more from the
        boundary or from anywhere in the box. ``seen`` counts the cases the
        draws reach."""
        xs, ys = [x for x, _ in verts], [y for _, y in verts]
        box = [(x, y) for x in range(min(xs) - 1, max(xs) + 2) for y in range(min(ys) - 1, max(ys) + 2)]
        where = {p: oracles.point_location(verts, p) for p in box}
        inside = [p for p in box if where[p] == "inside"]
        boundary = [p for p in box if where[p] == "on_boundary"]
        if not inside:
            return
        flat_rows = {a[1] for a, b in zip(verts, verts[1:] + verts[:1]) if a[1] == b[1]}
        polygon = SimplePolygon(tuple(Point(*v) for v in verts))
        for _ in range(draws):
            pts = rng.sample(inside, rng.randint(1, min(12, len(inside))))
            if rng.random() < 0.5:
                pool = [p for p in rng.choice((boundary, box)) if p not in pts]
                pts += rng.sample(pool, rng.randint(1, 2))
                rng.shuffle(pts)
            first = next((i for i, p in enumerate(pts) if where[p] != "inside"), None)
            tree = FreeTree(len(pts), tuple((i - 1, i) for i in range(1, len(pts))))
            points = PointSet(tuple(Point(*p) for p in pts))
            if first is None:
                make_instance(tree, points, polygon)
                seen["accepted"] += 1
                seen["accepted on a row with a horizontal edge"] += any(y in flat_rows for _, y in pts)
                continue
            with pytest.raises(ValidationError) as err:
                make_instance(tree, points, polygon)
            assert str(err.value) == (
                f"PointOnOrOutsideBoundary: point {first} at {Point(*pts[first])} "
                "is not strictly inside the polygon"
            ), (verts, pts)
            p = pts[first]
            seen["on a vertex" if p in verts else where[p]] += 1

    def test_matches_oracle_on_l_comb_and_random_polygons(self):
        rng, seen = random.Random(29), Counter()
        for verts in (L_POLYGON, COMB, COMB[::-1]):
            self.draw_instances(verts, rng, 150, seen)
        polygons = 0
        while polygons < 150:
            verts = random_cycle(rng, rng.randint(4, 9), rng.randint(3, 9))
            if oracles.simple_polygon(verts):
                polygons += 1
                self.draw_instances(verts, rng, 4, seen)
        for case in ("accepted", "accepted on a row with a horizontal edge", "on a vertex"):
            assert seen[case] > 40, seen
        assert seen["on_boundary"] > 40 and seen["outside"] > 40, seen


class TestSegmentHitsBoundary:
    def test_interior_segment_misses(self):
        assert not segment_hits_boundary(Segment(Point(1, 1), Point(2, 1)), TRIANGLE)

    def test_crossing_segment_hits(self):
        assert segment_hits_boundary(Segment(Point(1, 1), Point(1, -1)), TRIANGLE)

    def test_notch_blocks_horizontal_sightline(self):
        # at y=1 the notch occupies x in [8, 9], so (7,1)-(10,1) must hit it
        assert segment_hits_boundary(Segment(Point(7, 1), Point(10, 1)), NOTCHED)

    def test_grazing_vertex_counts_as_hit(self):
        assert segment_hits_boundary(Segment(Point(8, 2), Point(9, 5)), NOTCHED)

    def test_endpoint_on_boundary_implies_hit(self):
        for p in (Point(0, 0), Point(4, 0), Point(3, 6), Point(0, 5)):
            assert point_in_polygon(p, TRIANGLE) is PointLocation.ON_BOUNDARY
            assert segment_hits_boundary(Segment(p, Point(1, 1)), TRIANGLE)

    def test_agrees_with_oracle_on_lattice(self):
        # Every ordered pair of lattice points, inside, outside and on the
        # boundary, against every edge; boxes that only touch must not be
        # filtered out, nor edges with one end on the segment's line. The
        # last polygon has seven diagonal edges, five through a lattice
        # point, and reflex vertices at (4, 2), (7, 3) and (2, 3).
        lattice = [(x, y) for x in range(-1, 12) for y in range(-1, 6)]
        reflex_l = [(0, 0), (10, 0), (10, 4), (6, 4), (6, 8), (0, 8)]
        slanted = [(0, 0), (4, 2), (8, 0), (10, 4), (7, 3), (4, 5), (2, 3), (0, 5)]
        for poly in (
            build_polygon(2, 7),
            SimplePolygon(tuple(Point(*v) for v in reflex_l)),
            SimplePolygon(tuple(Point(*v) for v in slanted)),
        ):
            verts = [(v.x, v.y) for v in poly.vertices]
            edges = list(zip(verts, verts[1:] + verts[:1]))
            for p, q in itertools.permutations(lattice, 2):
                want = any(oracles.segments_share_point(p, q, c, d) for c, d in edges)
                got = segment_hits_boundary(Segment(Point(*p), Point(*q)), poly)
                assert got == want, (verts, p, q)


SLANTED = [(0, 0), (4, 2), (8, 0), (10, 4), (7, 3), (4, 5), (2, 3), (0, 5)]


class TestBatchedBoundaryTests:
    """``blocks_row`` and ``blocks_fan`` decide many segments in one pass over
    the edges; each entry must be what ``blocks`` and the oracle say of its
    own segment."""

    def oracle(self, verts, p, q):
        edges = list(zip(verts, verts[1:] + verts[:1]))
        return any(oracles.segments_share_point(p, q, c, d) for c, d in edges)

    def polygons(self):
        for verts in (*POLYGON_CATALOG, L_POLYGON, COMB, SLANTED):
            for cycle in (verts, verts[::-1]):
                yield cycle, SimplePolygon(tuple(Point(*v) for v in cycle))

    def test_row_kernel_matches_per_gap_tests(self):
        # Every row across each polygon's box, with seeded sets of x from a
        # wider box: points inside, outside, on edges and on vertices.
        rng = random.Random(61)
        for verts, polygon in self.polygons():
            xs, ys = [x for x, _ in verts], [y for _, y in verts]
            span = range(min(xs) - 2, max(xs) + 3)
            for y in range(min(ys) - 1, max(ys) + 2):
                for _ in range(4):
                    row = sorted(rng.sample(span, rng.randint(0, 12)))
                    got, gaps = list(polygon.blocks_row(y, row)), list(zip(row, row[1:]))
                    assert got == [polygon.blocks(a, y, b, y) for a, b in gaps], (verts, y, row)
                    assert got == [self.oracle(verts, (a, y), (b, y)) for a, b in gaps]

    def test_fan_kernel_matches_per_target_tests(self):
        # Seeded sources strictly inside, every other row of the box above
        # and below them, and seeded targets anywhere on that row.
        rng = random.Random(67)
        for verts, polygon in self.polygons():
            xs, ys = [x for x, _ in verts], [y for _, y in verts]
            box = [(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)]
            inside = [p for p in box if oracles.point_location(verts, p) == "inside"]
            span = range(min(xs) - 3, max(xs) + 4)
            for sx, sy in rng.sample(inside, min(5, len(inside))):
                for y in range(min(ys) - 1, max(ys) + 2):
                    if y == sy:
                        continue
                    row = sorted(rng.sample(span, rng.randint(1, 10)))
                    got = list(polygon.blocks_fan(sx, sy, y, row))
                    assert got == [polygon.blocks(sx, sy, x, y) for x in row], (verts, sx, sy, y, row)
                    assert got == [self.oracle(verts, (sx, sy), (x, y)) for x in row]

    def test_ray_through_a_vertex_is_blocked(self):
        # From (12, 3), the ray to (4, 1) grazes the notch's peak (8, 2), so
        # it is blocked, and x = 4 is also the integer end of that shadow;
        # the ray to (3, 1) passes above the peak.
        got = NOTCHED.blocks_fan(12, 3, 1, list(range(1, 12)))
        assert list(got) == [0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0]
        # In the L, the ray from (30, 8) to (18, 24) grazes the reflex
        # vertex (24, 16), where the shadows of both its edges end.
        polygon = SimplePolygon(tuple(Point(*v) for v in L_POLYGON))
        assert list(polygon.blocks_fan(30, 8, 24, [17, 18, 19])) == [0, 1, 1]

    def test_horizontal_edge_on_the_target_row(self):
        # The comb's row y = 2 holds the floors of its three slots, [2, 4],
        # [6, 8] and [10, 12]: every gap between the teeth overlaps one, and
        # a fan from below is blocked exactly at the targets on a floor.
        comb = SimplePolygon(tuple(Point(*v) for v in COMB))
        assert list(comb.blocks_row(2, [1, 5, 9, 13])) == [1, 1, 1]
        assert list(comb.blocks_row(1, [1, 5, 9, 13])) == [0, 0, 0]
        assert list(comb.blocks_fan(5, 1, 2, [1, 3, 5, 7, 9])) == [0, 1, 0, 1, 0]

    def test_edge_across_the_source_level_casts_an_unbounded_shadow(self):
        # From (2, 2) to the row y = 10 of the notched triangle: the left
        # side and the hypotenuse both cross y = 2, so their shadows run
        # without bound to the left of x = 0 and to the right of x = 8.
        got = NOTCHED.blocks_fan(2, 2, 10, list(range(-3, 13)))
        assert list(got) == [1, 1, 1, 1] + [0] * 7 + [1] * 5
        assert all(NOTCHED.blocks(2, 2, x, 10) == bool(hit) for x, hit in zip(range(-3, 13), got))

    def test_target_rows_above_and_below_the_source(self):
        # From (5, 4) the notch blocks the rays down to (8, 1) and (9, 1),
        # both on its sides; upward, nothing blocks the rays to row 8 that
        # stay left of the hypotenuse.
        below = NOTCHED.blocks_fan(5, 4, 1, list(range(1, 16)))
        assert [x for x, hit in zip(range(1, 16), below) if hit] == [8, 9]
        above = NOTCHED.blocks_fan(5, 4, 8, list(range(0, 13)))
        assert [x for x, hit in zip(range(0, 13), above) if hit] == [0, 10, 11, 12]
        for y, got in ((1, below), (8, above)):
            row = range(1, 16) if y == 1 else range(0, 13)
            assert list(got) == [NOTCHED.blocks(5, 4, x, y) for x in row]

    def test_target_at_a_shadow_integer_end(self):
        # From (30, 8) in the L, the vertical edge above (24, 16) casts
        # [18, 24] on y = 24, the top edge of the foot [18, 50], and the
        # foot's right side, across the source's level, [50, ∞): the
        # targets 18, 24, 50 and 51 are blocked, 17 is not.
        polygon = SimplePolygon(tuple(Point(*v) for v in L_POLYGON))
        row = [17, 18, 24, 50, 51]
        got = list(polygon.blocks_fan(30, 8, 24, row))
        assert got == [0, 1, 1, 1, 1]
        assert got == [polygon.blocks(30, 8, x, 24) for x in row]

    def test_nested_and_overlapping_shadows(self):
        # From (1, 3) in the comb's first tooth to the base's row y = 1: the
        # right side and the tooth walls right of the source cross its
        # level, so they cast [3, ∞), [7, ∞), [11, ∞), [14, ∞) and [15, ∞),
        # which nest; the slot floors cast [3, 7], [11, 15] and [19, 23],
        # inside or across them, and the left side casts (-∞, 0]. Each
        # shadow marks its own targets: only 1 and 2 are seen.
        comb = SimplePolygon(tuple(Point(*v) for v in COMB))
        row = list(range(-3, 18))
        got = list(comb.blocks_fan(1, 3, 1, row))
        assert got == [1, 1, 1, 1, 0, 0] + [1] * 15
        assert got == [comb.blocks(1, 3, x, 1) for x in row]


class TestVisible:
    # Two interior points see each other iff their segment misses the boundary.
    def test_anchor_sees_first_group_point(self):
        assert not segment_hits_boundary(Segment(Point(1, 16), Point(1, 1)), NOTCHED)

    def test_cross_group_pair_blocked(self):
        assert segment_hits_boundary(Segment(Point(7, 1), Point(10, 1)), NOTCHED)

    def test_same_group_pair_visible(self):
        assert not segment_hits_boundary(Segment(Point(1, 1), Point(2, 1)), NOTCHED)

    def test_symmetry(self):
        samples = [Point(1, 16), Point(1, 1), Point(7, 1), Point(10, 1), Point(3, 4)]
        for p, q in itertools.combinations(samples, 2):
            assert segment_hits_boundary(Segment(p, q), NOTCHED) == segment_hits_boundary(
                Segment(q, p), NOTCHED
            )


class TestSimplePolygon:
    def test_triangle_is_simple(self):
        assert is_simple(TRIANGLE)

    def test_bowtie_is_not(self):
        bowtie = SimplePolygon((Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)))
        assert not is_simple(bowtie)

    def test_notched_generator_output_is_simple(self):
        assert is_simple(NOTCHED)

    def test_zero_area_chain_is_not_simple(self):
        flat = SimplePolygon((Point(0, 0), Point(1, 1), Point(2, 2)))
        assert not is_simple(flat)

    def test_pinched_polygon_is_not(self):
        # Two triangles that meet only at a repeated vertex, (2, 2): no two
        # edges meet but at a common end, so the distinct-vertex check is
        # what rejects it.
        verts = [(0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2, 2)]
        pinched = SimplePolygon(tuple(Point(*v) for v in verts))
        assert not oracles.simple_polygon(verts)
        assert not is_simple(pinched)
        with pytest.raises(ValidationError) as err:
            make_instance(FreeTree(1, ()), PointSet((Point(1, 1),)), pinched)
        assert err.value.code == "PolygonNotSimple"

    def test_straight_chains_allowed(self):
        # collinear consecutive vertices do not break simplicity
        poly = SimplePolygon(
            (Point(0, 0), Point(2, 0), Point(4, 0), Point(4, 4), Point(0, 4))
        )
        assert is_simple(poly)

    def test_is_simple_matches_pairwise_oracle(self):
        # Small grids give repeated non-consecutive vertices, collinear
        # folds and zero-area triangles.
        rng = random.Random(19)
        verdicts = []
        for case in range(3000):
            verts = random_cycle(rng, rng.randint(2, 6), rng.randint(3, 8))
            want = oracles.simple_polygon(verts)
            assert is_simple(SimplePolygon(tuple(Point(*v) for v in verts))) == want, verts
            verdicts.append(want)
        assert 500 < sum(verdicts) < 2500

    def test_too_few_vertices(self):
        with pytest.raises(ValidationError) as err:
            SimplePolygon((Point(0, 0), Point(1, 0)))
        assert err.value.code == "TooFewVertices"

    def test_consecutive_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            SimplePolygon((Point(0, 0), Point(0, 0), Point(1, 1), Point(0, 1)))


def meet(segs, i, j):
    """Does plane_contacts yield a contact that holds segments i and j?"""
    return any({i, j} <= {*begin, *end, *inside} for _, begin, end, inside in plane_contacts(segs))


class TestPlaneContact:
    def test_endpoint_on_vertical_interior(self):
        # (0, 1) lies inside the vertical segment, which does not end there.
        assert meet([(0, 0, 0, 2, 0, 1), (0, 1, 3, 1, 2, 3)], 0, 1)

    def test_vertical_crossing(self):
        assert meet([(-1, 0, 1, 0, 0, 1), (0, -1, 0, 1, 2, 3)], 0, 1)

    def test_same_direction_from_one_point_overlaps(self):
        segs = [(0, 0, 2, 2, 0, 1), (0, 0, 1, 1, 0, 2), (0, 0, 2, -1, 0, 3)]
        assert meet(segs, 0, 1)


def random_labelled_segments(rng, count, size=None):
    """count segments with ends on a small grid, so crossings, overlaps and
    vertical segments all occur. The grid is size by size, by default 2 to 6.
    Each record carries two label fields after its four coordinates, mostly
    its ends' positions; :func:`plane_contacts` ignores them."""
    size = size or rng.randint(2, 6)
    segs = []
    while len(segs) < count:
        a = (rng.randrange(size), rng.randrange(size))
        b = (rng.randrange(size), rng.randrange(size))
        if a != b:
            la = a[0] * size + a[1] if rng.random() < 0.9 else -1
            lb = b[0] * size + b[1] if rng.random() < 0.9 else -1
            segs.append(a + b + (la, lb))
    return segs


class TestPlaneContacts:
    def test_three_segments_through_one_crossing(self):
        segs = [(0, 0, 2, 2, 0, 1), (0, 2, 2, 0, 2, 3), (0, 1, 2, 1, 4, 5)]
        [(p, begin, end, inside)] = plane_contacts(segs)
        assert (p, begin, end, sorted(inside)) == ((1, 1), (), (), [0, 1, 2])

    def test_crossing_on_a_vertical_segment(self):
        segs = [(1, 0, 1, 3, 0, 1), (0, 0, 3, 2, 2, 3)]
        [(p, begin, end, inside)] = plane_contacts(segs)
        assert p == (1, Fraction(2, 3)) and (begin, end) == ((), ())
        assert sorted(inside) == [0, 1]

    def test_overlap_bundle_crossed_by_a_third_segment(self):
        # 1 lies on 0 from (1, 0) to (3, 0); 2 crosses both at (2, 0), once.
        segs = [(0, 0, 4, 0, 0, 1), (1, 0, 3, 0, 2, 3), (2, -1, 2, 1, 4, 5)]
        contacts = [(p, begin, end, sorted(inside)) for p, begin, end, inside in plane_contacts(segs)]
        assert contacts == [
            ((1, 0), (1,), (), [0]),
            ((2, 0), (), (), [0, 1, 2]),
            ((3, 0), (), (1,), [0]),
        ]

    def test_crossing_at_a_non_integer_point(self):
        segs = [(0, 0, 3, 1, 0, 1), (0, 1, 3, 0, 2, 3)]
        [(p, *_)] = plane_contacts(segs)
        assert p == (Fraction(3, 2), Fraction(1, 2)) and isinstance(p[0], Fraction)

    def test_crossing_at_an_endpoint_is_one_event(self):
        # 0 and 1 cross at (1, 1), where 2 ends.
        segs = [(0, 0, 2, 2, 0, 1), (0, 2, 2, 0, 2, 3), (1, 1, 3, 1, 4, 5)]
        [(p, begin, end, inside)] = plane_contacts(segs)
        assert (p, begin, end, sorted(inside)) == ((1, 1), (2,), (), [0, 1])

    # A chain point where one segment ends and the next starts, with the
    # ended one in the last event's status slot, takes the in-place path.
    def test_collinear_continuation_through_one_label_yields_nothing(self):
        segs = [(0, 0, 1, 0, 0, 1), (1, 0, 2, 0, 1, 2), (-1, 5, 3, 5, 3, 4), (-1, -5, 3, -5, 5, 6)]
        assert checked_plane_contacts(segs) == []

    def test_third_segment_through_a_chain_point(self):
        # 2 passes through (1, 0) from below the chain and from above it.
        for third in ((0, -1, 2, 1, 3, 4), (0, 1, 2, -1, 3, 4)):
            segs = [(0, 0, 1, 0, 0, 1), (1, 0, 2, 0, 1, 2), third]
            assert checked_plane_contacts(segs) == [((1, 0), (1,), (0,), (2,))]

    def test_crossing_found_through_an_in_place_replacement(self):
        # 3 lies above the chain 0, 1, 2 and crosses only 2, which meets it
        # when it takes 1's slot at (6, 0).
        segs = [(0, 0, 4, 0, 0, 1), (4, 0, 6, 0, 1, 2), (6, 0, 8, 4, 2, 3), (2, 6, 10, 2, 4, 5)]
        assert checked_plane_contacts(segs) == [((Fraction(38, 5), Fraction(16, 5)), (), (), (2, 3))]

    def test_fields_after_the_coordinates_are_ignored(self):
        # 4-field records, 6-field ones with clashing labels and boxed
        # 8-field ones, all with the same coordinates, give the same yields.
        rng = random.Random(37)
        for case in range(300):
            segs = random_labelled_segments(rng, 1 + case % 7)
            bare = [s[:4] for s in segs]
            clashing = [s[:4] + (rng.randrange(3), rng.randrange(3)) for s in segs]
            want = list(plane_contacts(bare))
            assert list(plane_contacts(segs)) == want, segs
            assert list(plane_contacts(clashing)) == want, segs
            assert list(plane_contacts([boxed(*s) for s in bare])) == want, segs

    def test_matches_pairwise_oracle(self):
        # Each oracle pair is at one yielded point together, each yielded
        # point holds an oracle pair, and the points come in (x, y) order.
        rng = random.Random(23)
        found = 0
        for case in range(4000):
            segs = random_labelled_segments(rng, 1 + case % 7)
            want = oracles.plane_contacts(segs)
            contacts = list(plane_contacts(segs))
            assert bool(contacts) == bool(want), segs
            points = [c[0] for c in contacts]
            assert points == sorted(set(points)), segs
            together = set()
            for p, begin, end, inside in contacts:
                at_p = sorted({*begin, *end, *inside})
                pairs = set(itertools.combinations(at_p, 2))
                assert pairs & want, (segs, p)
                together |= pairs
            assert want <= together, segs
            found += bool(contacts)
        assert 1000 < found < 3000

    def test_long_status_matches_pairwise_oracle(self):
        # A fan of 40-150 segments from one point stays in the status while
        # the sweep walks a row of unit segments across it, and long and
        # vertical segments across both make the run through each event
        # jump far up and down the status between events.
        rng = random.Random(29)
        for _ in range(6):
            assert checked_plane_contacts(fan_over_row(rng))

    def test_dense_lattice_sets_match_pairwise_oracle(self):
        # 40-80 segments on a 12-20 lattice: many crossings of interiors,
        # each an event (X / D, Y / D) with D > 1.
        rng = random.Random(31)
        fractional = 0
        for _ in range(12):
            segs = random_labelled_segments(rng, rng.randint(40, 80), rng.randint(12, 20))
            for p, *_ in checked_plane_contacts(segs):
                fractional += any(isinstance(c, Fraction) and c.denominator > 1 for c in p)
        assert fractional > 100


def checked_plane_contacts(segs):
    """plane_contacts(segs), checked against the pairwise oracle as
    test_matches_pairwise_oracle checks it: each oracle pair is at one
    yielded point together, each yielded point holds an oracle pair, and
    the points come in (x, y) order."""
    want = oracles.plane_contacts(segs)
    contacts = list(plane_contacts(segs))
    assert bool(contacts) == bool(want), segs
    points = [c[0] for c in contacts]
    assert points == sorted(set(points)), segs
    together = set()
    for p, begin, end, inside in contacts:
        pairs = set(itertools.combinations(sorted({*begin, *end, *inside}), 2))
        assert pairs & want, (segs, p)
        together |= pairs
    assert want <= together, segs
    return contacts


def fan_over_row(rng):
    """A row of unit segments on y = 0, a fan of 40-150 segments from one
    point left of and below the row to points right of it, and a few long
    and vertical segments across both, each end labelled by its point."""
    width = rng.randint(20, 40)
    hub = (-3, rng.randint(-40, -5))
    ends = [(x, 0) for x in range(width + 1)]
    pairs = list(zip(ends, ends[1:]))
    for _ in range(rng.randint(40, 150)):
        pairs.append((hub, (width + rng.randint(1, 10), rng.randint(-60, 60))))
    for _ in range(rng.randint(2, 6)):
        left, right = rng.randint(-10, -4), width + rng.randint(2, 12)
        pairs.append(((left, rng.randint(-60, 60)), (right, rng.randint(-60, 60))))
        x = rng.randrange(width + 1)
        pairs.append(((x, rng.randint(-60, -1)), (x, rng.randint(1, 60))))
    label: dict[tuple[int, int], int] = {}
    return [(*a, *b, *(label.setdefault(q, len(label)) for q in (a, b))) for a, b in pairs]


class TestNormalizeCcw:
    def test_ccw_unchanged(self):
        assert normalize_ccw(TRIANGLE) == TRIANGLE

    def test_cw_reversed_keeping_first_vertex(self):
        cw = SimplePolygon((Point(0, 0), Point(0, 9), Point(9, 0)))
        assert normalize_ccw(cw).vertices == (Point(0, 0), Point(9, 0), Point(0, 9))

    def test_output_area_always_positive(self):
        polys = [
            TRIANGLE,
            NOTCHED,
            SimplePolygon((Point(0, 0), Point(0, 9), Point(9, 0))),
            SimplePolygon((Point(0, 0), Point(0, 4), Point(4, 4), Point(4, 0))),
        ]
        for poly in polys:
            assert signed_area2(normalize_ccw(poly)) > 0
