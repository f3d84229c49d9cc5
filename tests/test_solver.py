import math
import random
import time

import pytest

from oracles import (
    can_tile,
    exhaustive_feasible,
    first_collinear_triple,
    isomorphic_siblings,
    point_location,
    three_partition,
    visibility,
)
from polyembed import solver
from polyembed.errors import ValidationError
from polyembed.geometry import (
    DISJOINT,
    Point,
    PointLocation,
    SimplePolygon,
    point_in_polygon,
    segment_relation,
)
from polyembed.model import FreeTree, PointSet, make_instance
from polyembed.reduction import (
    build_instance,
    build_points,
    build_polygon,
    extract_partition,
    partition_solves,
    validate_3p,
)
from polyembed.solver import (
    SolveStatus,
    _Expired,
    _rooted,
    _sightline_cells,
    _tiling,
    build_visibility_graph,
    check_general_position,
    decide_embedding,
    embed_tree_unconstrained,
)
from polyembed.verifier import verify_embedding, verify_planar_only


def random_bounded_instance(rng, n_points, polygon_vertices):
    polygon = SimplePolygon(tuple(Point(x, y) for x, y in polygon_vertices))
    interior = [
        (x, y)
        for x in range(-1, 20)
        for y in range(-1, 20)
        if point_in_polygon(Point(x, y), polygon) is PointLocation.INSIDE
    ]
    chosen = rng.sample(interior, n_points)
    edges = tuple((rng.randrange(i), i) for i in range(1, n_points))
    instance = make_instance(
        FreeTree(n_points, edges),
        PointSet(tuple(Point(x, y) for x, y in chosen)),
        polygon,
    )
    return instance, edges, chosen, polygon_vertices


def path_instance(points, polygon):
    """An instance whose tree is the path 0-1-...-(n-1) over the given points,
    for tests of the visibility pass, which reads only points and polygon."""
    n = len(points)
    return make_instance(FreeTree(n, tuple((i - 1, i) for i in range(1, n))), points, polygon)


def moved(instance, move):
    """The instance with every point and polygon vertex (x, y) taken to
    ``move(x, y)``, with the same point and node indices; the instance
    re-orients the moved polygon."""

    def point(p):
        return Point(*move(p.x, p.y))

    return make_instance(
        instance.tree,
        PointSet(tuple(map(point, instance.points))),
        SimplePolygon(tuple(map(point, instance.polygon.vertices))),
    )


def transposed(instance):
    """The instance mirrored in the line y = x."""
    return moved(instance, lambda x, y: (y, x))


L_POLYGON = [(0, 0), (40, 0), (40, 16), (24, 16), (24, 32), (0, 32)]
# Four teeth on a base: rows y = 2 and y = 6 hold horizontal edges.
COMB = [(0, 0), (14, 0), (14, 6), (12, 6), (12, 2), (10, 2), (10, 6), (8, 6)]
COMB += [(8, 2), (6, 2), (6, 6), (4, 6), (4, 2), (2, 2), (2, 6), (0, 6)]


def near_partition(rng, target, n):
    """3n values in (target/4, target/2) summing to n * target.

    Draws n triples that each sum to target, then makes 3n attempts at a
    unit transfer between two values that keeps both in range, so most
    draws are close to a 3-partition without being one.
    """
    lo, hi = target // 4 + 1, (target - 1) // 2
    values: list[int] = []
    while len(values) < 3 * n:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if lo <= target - a - b <= hi:
            values += [a, b, target - a - b]
    for _ in range(3 * n):
        i, j = rng.randrange(3 * n), rng.randrange(3 * n)
        if i != j and values[i] > lo and values[j] < hi:
            values[i] -= 1
            values[j] += 1
    return values


POLYGON_CATALOG = [
    [(0, 0), (9, 0), (0, 9)],
    [(0, 0), (8, 0), (8, 8), (0, 8)],
    [(0, 0), (8, 0), (8, 2), (10, 0), (18, 0), (0, 18)],  # notched
    [(0, 0), (10, 0), (10, 4), (6, 4), (6, 8), (0, 8)],  # reflex L
]


class TestVisibilityGraph:
    def test_convex_triangle_all_visible(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        vg = build_visibility_graph(instance)
        assert all(all(row) for row in vg.matrix)

    def test_two_group_structure(self):
        pts, groups = build_points(2, 7)
        vg = build_visibility_graph(path_instance(pts, build_polygon(2, 7)))
        m = vg.matrix
        for i in groups[0]:
            for j in groups[1]:
                assert not m[i][j]
        assert all(m[0][q] for q in range(len(pts)))
        for grp in groups:
            for i in grp:
                for j in grp:
                    assert m[i][j]

    def test_diagonal_true(self):
        pts, _ = build_points(1, 7)
        vg = build_visibility_graph(path_instance(pts, build_polygon(1, 7)))
        assert all(vg.matrix[i][i] for i in range(len(pts)))

    @pytest.mark.parametrize(
        "b, a, tests",
        [
            (50, [17, 17, 16] * 8, 799),
            (22, [6, 6, 10, 7, 7, 8] * 5, 439),
            (50, [17, 17, 16] * 160, 15_999),
        ],
    )
    def test_one_boundary_test_per_neighbour_pair(self, monkeypatch, b, a, tests):
        # 401, 221 and 8001 points: each pair of neighbours on a line is
        # decided once, not each pair of points (80,200 and 24,310 at the
        # first two). The row's pairs are one row batch and the anchor's
        # pairs one fan, so no pair is left to a boundary test of its own,
        # which would make the pass quadratic again.
        decided, rows, fans = [], [], []
        blocks, blocks_row, blocks_fan = (
            SimplePolygon.blocks,
            SimplePolygon.blocks_row,
            SimplePolygon.blocks_fan,
        )

        def one(polygon, ax, ay, bx, by):
            decided.append(frozenset([(ax, ay), (bx, by)]))
            return blocks(polygon, ax, ay, bx, by)

        def row(polygon, y, xs):
            rows.append(len(xs))
            decided.extend(frozenset([(a, y), (b, y)]) for a, b in zip(xs, xs[1:]))
            return blocks_row(polygon, y, xs)

        def fan(polygon, sx, sy, y, xs):
            fans.append(((sx, sy), len(xs)))
            decided.extend(frozenset([(sx, sy), (x, y)]) for x in xs)
            return blocks_fan(polygon, sx, sy, y, xs)

        instance, _ = build_instance(validate_3p(b, a))
        monkeypatch.setattr(SimplePolygon, "blocks", one)
        monkeypatch.setattr(SimplePolygon, "blocks_row", row)
        monkeypatch.setattr(SimplePolygon, "blocks_fan", fan)
        build_visibility_graph(instance)
        xs, ys = instance.points.xs, instance.points.ys
        anchor, line = (xs[0], ys[0]), sorted(zip(xs[1:], ys[1:]))
        want = {frozenset(pair) for pair in zip(line, line[1:])}
        want |= {frozenset([anchor, p]) for p in line}
        assert len(decided) == len(set(decided)) == len(want) == tests
        assert set(decided) == want
        assert rows == [len(line)]
        assert fans == [(anchor, len(line))]

    @pytest.mark.parametrize("mirror_y", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_row_neighbours_are_not_keyed(self, monkeypatch, flip, mirror_y):
        # 401 points, all but the anchor on one row, as given or mirrored in
        # y = x (flip), in y = 0 (mirror_y) or in both. The pass keys along
        # the line that holds the row, columns when flipped, and sweeps
        # toward it, so only the anchor keys, and only the row's 400 points;
        # the row's neighbour pairs are its batch. Each way the 792 clean
        # sightlines are found: 400 to the anchor and 49 along each group
        # of 50. Keying the anchor from every row point would also make 400
        # gcd calls, so the clock reads pin who keys: one for the row's
        # batch, one for the anchor's keying and one for its fan, where a
        # sweep away from the row reads it once more per row point.
        instance, _ = build_instance(validate_3p(50, [17, 17, 16] * 8))
        if flip:
            instance = transposed(instance)
        if mirror_y:
            instance = moved(instance, lambda x, y: (x, -y))
        keyed, reads = [], []
        gcd, clock = math.gcd, time.perf_counter

        def counted(a, b):
            keyed.append((a, b))
            return gcd(a, b)

        def read():
            reads.append(None)
            return clock()

        monkeypatch.setattr(math, "gcd", counted)
        monkeypatch.setattr(time, "perf_counter", read)
        graph = build_visibility_graph(instance)
        monkeypatch.undo()
        assert len(keyed) == 400
        assert len(reads) == 3
        assert sum(map(len, graph.clean)) == 2 * 792

    def test_pass_builds_no_runs(self):
        # The pass keeps only the clean lists; runs and the matrix are
        # derived from them when read.
        instance, _ = build_instance(validate_3p(50, [17, 17, 16] * 8))
        graph = build_visibility_graph(instance)
        assert "runs" not in vars(graph) and "matrix" not in vars(graph)

    def test_matches_oracle_on_catalog_polygons(self):
        rng = random.Random(41)
        for verts in POLYGON_CATALOG:
            for _ in range(3):
                instance, _, chosen, _ = random_bounded_instance(rng, 12, verts)
                graph = build_visibility_graph(instance)
                matrix, clean = visibility(verts, chosen)
                assert [list(r) for r in graph.matrix] == matrix, (verts, chosen)
                assert [list(c) for c in graph.clean] == clean, (verts, chosen)

    def test_matches_oracle_with_fans_in_the_comb(self, monkeypatch):
        # The comb scaled by 3, with three full rows of 41 points across its
        # base and a sparse apex in its teeth. Each long row is a fan's
        # target row: from every apex point, and from the points of a lower
        # long row, so fans decide pairs outside the reduction.
        sources = []
        blocks_fan = SimplePolygon.blocks_fan

        def fan(polygon, sx, sy, y, xs):
            sources.append((sx, sy))
            return blocks_fan(polygon, sx, sy, y, xs)

        monkeypatch.setattr(SimplePolygon, "blocks_fan", fan)
        verts = [(3 * x, 3 * y) for x, y in COMB]
        polygon = SimplePolygon(tuple(Point(x, y) for x, y in verts))
        teeth = [
            (x, y)
            for x in range(1, 42)
            for y in range(7, 18)
            if point_location(verts, (x, y)) == "inside"
        ]
        for seed in range(3):
            rng = random.Random(seed)
            rows = rng.sample(range(1, 6), 3)
            apex = rng.sample(teeth, 4)
            chosen = [(x, y) for y in rows for x in range(1, 42)] + apex
            rng.shuffle(chosen)
            sources.clear()
            points = PointSet(tuple(Point(x, y) for x, y in chosen))
            graph = build_visibility_graph(path_instance(points, polygon))
            matrix, clean = visibility(verts, chosen)
            assert [list(c) for c in graph.clean] == clean, seed
            assert [list(r) for r in graph.matrix] == matrix, seed
            assert set(apex) <= set(sources), seed
            assert any(y == min(rows) for _, y in sources), seed

    def test_matches_oracle_on_dense_lattice_points(self):
        # Every interior lattice point, so rays from a point hold many points
        # and visibility must follow the chain of neighbour segments.
        rng = random.Random(7)
        for verts in POLYGON_CATALOG:
            xs, ys = [x for x, _ in verts], [y for _, y in verts]
            lattice = [
                (x, y)
                for x in range(min(xs), max(xs) + 1)
                for y in range(min(ys), max(ys) + 1)
                if point_location(verts, (x, y)) == "inside"
            ]
            shuffled = rng.sample(lattice, len(lattice))
            polygon = SimplePolygon(tuple(Point(x, y) for x, y in verts))
            for chosen in (lattice, shuffled):
                points = PointSet(tuple(Point(x, y) for x, y in chosen))
                graph = build_visibility_graph(path_instance(points, polygon))
                matrix, clean = visibility(verts, chosen)
                assert [list(r) for r in graph.matrix] == matrix, verts
                assert [list(c) for c in graph.clean] == clean, verts
                # Each run is two or more points, each a step further the
                # same way along one line, and the runs' neighbour pairs are
                # the clean sightlines, each once.
                pairs = []
                for run in graph.runs:
                    assert len(run) >= 2, (verts, run)
                    steps = [
                        (chosen[b][0] - chosen[a][0], chosen[b][1] - chosen[a][1])
                        for a, b in zip(run, run[1:])
                    ]
                    dx, dy = steps[0]
                    for ex, ey in steps:
                        assert ex * dy == ey * dx and ex * dx + ey * dy > 0, (verts, run)
                    pairs += [(min(a, b), max(a, b)) for a, b in zip(run, run[1:])]
                edges = [(i, j) for i, c in enumerate(clean) for j in c if i < j]
                assert sorted(pairs) == edges, verts


class TestDecideEmbedding:
    def test_feasible_single_group(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        outcome = decide_embedding(instance)
        assert outcome.status is SolveStatus.EMBEDDED
        assert verify_embedding(instance, outcome.embedding).valid

    def test_infeasible_instance(self):
        instance, _ = build_instance(validate_3p(16, [5, 5, 5, 5, 5, 7]))
        assert decide_embedding(instance).status is SolveStatus.INFEASIBLE

    def test_single_node(self):
        tri = SimplePolygon((Point(0, 0), Point(9, 0), Point(0, 9)))
        inst = make_instance(FreeTree(1, ()), PointSet((Point(2, 2),)), tri)
        outcome = decide_embedding(inst)
        assert outcome.status is SolveStatus.EMBEDDED
        assert outcome.embedding.mapping == (0,)

    def test_zero_timeout_times_out(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        outcome = decide_embedding(instance, time_limit_ms=0)
        assert outcome.status is SolveStatus.TIMED_OUT
        assert outcome.elapsed_ms is not None

    def test_limit_too_large_for_a_float_is_no_limit(self):
        # start + limit / 1000.0 raised OverflowError past about 1.8e308 ms.
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        outcome = decide_embedding(instance, time_limit_ms=10**400)
        assert outcome.status is SolveStatus.EMBEDDED

    def test_deterministic_embedding(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        a = decide_embedding(instance)
        b = decide_embedding(instance)
        assert a.embedding == b.embedding

    def test_invalid_config_rejected(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        with pytest.raises(ValidationError) as err:
            decide_embedding(instance, root_node=99)
        assert err.value.code == "InvalidConfig"
        # The settings are checked before any work: a zero limit would time
        # out at once.
        with pytest.raises(ValidationError) as err:
            decide_embedding(instance, root_node=-1, time_limit_ms=0)
        assert err.value.code == "InvalidConfig"
        with pytest.raises(TypeError):  # the settings are keyword-only
            decide_embedding(instance, 0)

    def test_solve_never_builds_visibility_matrix(self, monkeypatch):
        graphs = []

        def kept(*args, **kwargs):
            graphs.append(build_visibility_graph(*args, **kwargs))
            return graphs[-1]

        monkeypatch.setattr(solver, "build_visibility_graph", kept)
        instance, _ = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        assert decide_embedding(instance).status is SolveStatus.EMBEDDED
        assert len(graphs) == 1
        assert "matrix" not in vars(graphs[0])

    def test_config_rejects_negative_values(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        for kwargs in ({"time_limit_ms": -1}, {"root_node": -3}):
            with pytest.raises(ValidationError) as err:
                decide_embedding(instance, **kwargs)
            assert err.value.code == "InvalidConfig", kwargs

    def test_explicit_root_still_complete(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        for root in range(0, 8, 3):
            outcome = decide_embedding(instance, root_node=root)
            assert outcome.status is SolveStatus.EMBEDDED
            assert verify_embedding(instance, outcome.embedding).valid

    def test_deadline_expires_mid_search(self):
        # 20 random lattice points in an L and a random tree: the search
        # still runs after 10 s, so the limit runs out inside the candidate
        # loop, long after the precompute.
        rng = random.Random(1)
        polygon = SimplePolygon(tuple(Point(x, y) for x, y in L_POLYGON))
        interior = [
            (x, y)
            for x in range(41)
            for y in range(33)
            if point_in_polygon(Point(x, y), polygon) is PointLocation.INSIDE
        ]
        chosen = rng.sample(interior, 20)
        tree = FreeTree(20, tuple((rng.randrange(i), i) for i in range(1, 20)))
        instance = make_instance(tree, PointSet(tuple(Point(x, y) for x, y in chosen)), polygon)
        outcome = decide_embedding(instance, time_limit_ms=500)
        assert outcome.status is SolveStatus.TIMED_OUT
        assert outcome.elapsed_ms >= 500

    def test_deadline_expires_inside_precompute(self):
        # A 4001-point reduction turned by 45 degrees, (x, y) -> (x - y,
        # x + y), so that its lines lie on neither axis and nearly every row
        # and column holds one point: it builds in under 0.1 s, but its
        # visibility pass keys all pairs and takes about 2 s, so both the
        # 50 ms and the 0.5 s limit run out in the pass.
        instance = moved(
            build_instance(validate_3p(50, [17, 17, 16] * 80))[0], lambda x, y: (x - y, x + y)
        )
        start = time.perf_counter()
        outcome = decide_embedding(instance, time_limit_ms=50)
        assert outcome.status is SolveStatus.TIMED_OUT
        assert time.perf_counter() - start < 0.5
        start = time.perf_counter()
        with pytest.raises(_Expired):
            build_visibility_graph(instance, deadline=start + 0.5)
        assert time.perf_counter() - start < 1.5

    def test_deadline_expires_inside_tiling(self):
        # 60 sizes into 20 capacities of 1000: still searching after 15 s
        # unless the tiling search reads the clock.
        sizes = tuple(sorted(near_partition(random.Random(4), 1000, 20), reverse=True))
        start = time.perf_counter()
        with pytest.raises(_Expired):
            _tiling(sizes, [1000] * 20, start + 1.0)
        assert time.perf_counter() - start < 3.0

    def test_degree_filter_refutes_infeasible_reduction(self, monkeypatch):
        # No group point has the hub's 30 clean neighbours, so only the root
        # at the anchor reaches a tiling check (6,641 checks without it).
        calls = []

        def counted(*args):
            calls.append(args)
            return _tiling(*args)

        monkeypatch.setattr(solver, "_tiling", counted)
        instance, _ = build_instance(validate_3p(22, [7, 7, 7, 7, 7, 9] * 5))
        outcome = decide_embedding(instance, time_limit_ms=2000)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert len(calls) == 1

    def test_star_on_grid_infeasible_within_deadline(self):
        # Every grid point has another point hidden behind a neighbour in its
        # 4-point column, so the hub has no clean sightline to some point:
        # the degree filter refuses every root before any tiling check.
        square = SimplePolygon((Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)))
        grid = PointSet(tuple(Point(x, y) for x in range(1, 4) for y in range(1, 5)))
        star = FreeTree(12, tuple((0, leaf) for leaf in range(1, 12)))
        outcome = decide_embedding(make_instance(star, grid, square), time_limit_ms=5000)
        assert outcome.status is SolveStatus.INFEASIBLE

    def test_matches_exhaustive_oracle_on_small_cases(self):
        rng = random.Random(99)
        agree = 0
        for poly in POLYGON_CATALOG:
            for _ in range(6):
                n = rng.randint(2, 6)
                instance, edges, pts, polyverts = random_bounded_instance(rng, n, poly)
                got = decide_embedding(instance).status is SolveStatus.EMBEDDED
                want = exhaustive_feasible(edges, pts, polyverts)
                assert got == want, (edges, pts, polyverts)
                agree += 1
        assert agree == 24


def test_subset_sum_test_refutes_near_partition():
    # No tiling exists. The subset-sum test refutes every branch after 16
    # states; without it the search is still running after 3 s.
    sizes = tuple(sorted(near_partition(random.Random(0), 1000, 20), reverse=True))
    start = time.perf_counter()
    assert _tiling(sizes, [1000] * 20, start + 1.0) is None
    assert time.perf_counter() - start < 0.5


def test_tiling_check_handles_long_size_lists():
    # 1,200 sizes, one stack frame each, do not recurse.
    assert _tiling((1,) * 1200, [600, 600]) == [(1,) * 600, (1,) * 600]


def test_tiling_witness_agrees_with_can_tile(monkeypatch):
    # Each call keeps its own refuted states, so a repeated case must give
    # the same fill, also when about 200 of the calls clear them at a limit
    # of 2.
    rng = random.Random(8)
    answers = {True: 0, False: 0}
    for case in range(2000):
        caps = [rng.randint(1, 12) for _ in range(rng.randint(0, 5))]
        sizes = []
        if case % 3 == 0:  # split each capacity, so a tiling exists
            for c in caps:
                while c:
                    s = rng.randint(1, c)
                    sizes.append(s)
                    c -= s
        else:  # random sizes of the same total, or one fewer
            total = sum(caps) - (case % 3 == 2)
            while total > 0:
                s = rng.randint(1, min(total, 12))
                sizes.append(s)
                total -= s
        sizes = tuple(sorted(sizes, reverse=True))
        parts = _tiling(sizes, caps)
        want = can_tile(sizes, caps)
        assert (parts is not None) == want, (sizes, caps)
        answers[want] += 1
        assert parts == _tiling(sizes, caps), (sizes, caps)
        with monkeypatch.context() as m:
            m.setattr(solver, "_REFUTED_LIMIT", 2)
            assert parts == _tiling(sizes, caps), (sizes, caps)
        if parts is not None:
            assert [sum(p) for p in parts] == caps, (sizes, caps, parts)
            assert sorted(s for p in parts for s in p) == sorted(sizes), (sizes, caps, parts)
    assert min(answers.values()) > 400, answers


# First-found embeddings recorded before the solver's candidate loop and its
# segment tests were unified; the search order must keep producing them.
PINNED_REDUCTIONS = [
    ((7, [2, 2, 3, 2, 2, 3]), SolveStatus.EMBEDDED, tuple(range(15))),
    ((22, [6, 6, 10, 7, 7, 8] * 3), SolveStatus.EMBEDDED, tuple(range(133))),
    ((16, [5, 5, 5, 5, 5, 7]), SolveStatus.INFEASIBLE, None),
]
PINNED_CATALOG_SEED_23 = [
    (1, 0, 2, 3),
    (0, 1, 2, 5, 4, 3),
    (0, 1),
    (0, 1, 2, 3, 4),
    (3, 1, 0, 2, 4, 5),
    (0, 1),
    (0, 1, 2, 4, 3, 5),
    (0, 1),
    (0, 1, 2, 3, 5, 4),
    (0, 1, 3, 2, 4, 5),
    (0, 3, 2, 1, 4),
    (0, 1),
    (1, 0, 2, 3, 4),
    (0, 1),
    (1, 0, 2, 3, 4, 5),
    (3, 0, 2, 4, 1, 5),
]


def _shaped_tree(rng, n):
    """A random tree on n nodes, relabelled at random, and the node it was
    grown from. The tree is a uniform random recursive tree, a heap-shaped
    tree, a spider with legs of equal length, or copies of one random tree
    hung from the first node with the rest attached at random; all but the
    first shape hold many isomorphic subtrees."""
    shape = rng.randrange(4)
    if shape == 0:
        parents = [rng.randrange(i) for i in range(1, n)]
    elif shape == 1:
        k = rng.choice((2, 3))
        parents = [(i - 1) // k for i in range(1, n)]
    elif shape == 2:
        leg = rng.randint(1, 4)
        parents = [0 if (i - 1) % leg == 0 else i - 1 for i in range(1, n)]
    else:
        s = rng.randint(2, 8)
        copy = [0] + [rng.randrange(i) for i in range(1, s)]
        copies = (n - 1) // s
        parents = [j // s * s + copy[j % s] + 1 if j % s else 0 for j in range(copies * s)]
        parents += [rng.randrange(i) for i in range(copies * s + 1, n)]
    label = list(range(n))
    rng.shuffle(label)
    return FreeTree(n, tuple((label[p], label[i]) for i, p in enumerate(parents, 1))), label[0]


def test_isomorphic_siblings_match_ahu_oracle():
    rng = random.Random(24)
    cases = []
    for i in range(60):
        tree, grown_from = _shaped_tree(rng, rng.randint(2, 40))
        cases.append((tree, grown_from if i % 2 else rng.randrange(tree.node_count)))
    for b, a in [(7, [2, 2, 3]), (22, [6, 6, 10, 7, 7, 8] * 2), (22, [7, 7, 7, 7, 7, 9] * 2), (50, [17, 17, 16] * 3)]:
        tree = build_instance(validate_3p(b, a))[0].tree
        cases += [(tree, 0), (tree, 1), (tree, tree.node_count - 1)]
    chained = 0
    for tree, root in cases:
        order, parent, children, size, prev_iso = _rooted(tree, root)
        assert (prev_iso, size) == isomorphic_siblings(tree.node_count, tree.edges, root)
        assert sorted(order) == list(range(tree.node_count)) and order[0] == root
        chained += sum(prev_iso[v] >= 0 for v in range(tree.node_count) if children[v])
    # isomorphic siblings that are not leaves are common in these cases
    assert chained > 100


def test_first_found_embedding_pinned():
    for (b, a), status, mapping in PINNED_REDUCTIONS:
        instance, _ = build_instance(validate_3p(b, a))
        outcome = decide_embedding(instance)
        assert outcome.status is status, (b, a)
        got = outcome.embedding.mapping if outcome.embedding else None
        assert got == mapping, (b, a)
    rng = random.Random(23)
    got = []
    for poly in POLYGON_CATALOG:
        for _ in range(4):
            instance, *_ = random_bounded_instance(rng, rng.randint(2, 6), poly)
            outcome = decide_embedding(instance)
            assert outcome.status is SolveStatus.EMBEDDED
            got.append(outcome.embedding.mapping)
    assert got == PINNED_CATALOG_SEED_23


SQUARE = [(0, 0), (40, 0), (40, 32), (0, 32)]
SMALL_SQUARE = [(0, 0), (6, 0), (6, 6), (0, 6)]
# Two rooms below y = 20 joined by a corridor bent over the notch between
# them: no segment from one room to the other stays inside.
TWO_ROOMS = [(0, 0), (10, 0), (10, 20), (20, 20), (20, 0), (30, 0), (30, 30), (0, 30)]


def lattice_draw(seed, vertices, star=0.0):
    """10 to 14 distinct random lattice points strictly inside the polygon
    and a random tree on them, from ``random.Random(seed)``: node i hangs
    from node 0 with probability ``star``, else from a random earlier node."""
    rng = random.Random(seed)
    n = rng.randint(10, 14)
    polygon = SimplePolygon(tuple(Point(x, y) for x, y in vertices))
    xs, ys = zip(*vertices)
    interior = [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if point_in_polygon(Point(x, y), polygon) is PointLocation.INSIDE
    ]
    chosen = rng.sample(interior, n)
    edges = tuple((0 if star and rng.random() < star else rng.randrange(i), i) for i in range(1, n))
    return make_instance(
        FreeTree(n, edges), PointSet(tuple(Point(x, y) for x, y in chosen)), polygon
    )


# First-found outcomes of generic draws, recorded before the free points
# were labelled by component; the comment gives each search's backtracks.
# The near-stars in the small square are refused at the root by the degree
# filter.
PINNED_LATTICE_DRAWS = [
    (("L", 1, 0.0), (0, 4, 5, 7, 1, 6, 10, 2, 9, 8, 3)),  # 18
    (("L", 5, 0.0), (0, 1, 2, 5, 10, 4, 8, 13, 9, 11, 7, 3, 12, 6)),  # 30
    (("L", 13, 0.0), (0, 1, 2, 5, 7, 10, 3, 6, 9, 11, 8, 4)),  # 8
    (("L", 17, 0.0), (1, 2, 0, 3, 8, 5, 4, 7, 9, 11, 6, 10, 13, 12)),  # 1,394
    (("L", 19, 0.0), (9, 1, 0, 3, 2, 4, 5, 7, 8, 6)),  # 1,049
    (("L", 23, 0.0), (1, 0, 2, 4, 5, 3, 10, 6, 11, 7, 8, 9)),  # 3,663
    (("L", 25, 0.0), (1, 0, 5, 9, 3, 2, 8, 12, 7, 4, 11, 6, 10)),  # 4,305
    (("L", 29, 0.0), (2, 1, 0, 3, 8, 6, 5, 4, 10, 11, 7, 9, 13, 12)),  # 11,291
    (("L", 37, 0.0), (1, 0, 2, 12, 6, 3, 5, 9, 11, 8, 4, 10, 7, 13)),  # 1,473
    (("square", 0, 0.0), (0, 1, 3, 7, 4, 5, 8, 10, 11, 9, 2, 12, 6)),  # 11,542
    (("square", 2, 0.0), (3, 2, 1, 5, 0, 6, 9, 7, 8, 4)),  # 0
    (("square", 12, 0.0), (1, 0, 2, 3, 6, 9, 7, 4, 5, 8, 10, 12, 11)),  # 2,639
    (("square", 14, 0.0), (1, 0, 2, 4, 7, 3, 6, 8, 9, 5)),  # 0
    (("square", 38, 0.0), (0, 1, 2, 4, 3, 7, 5, 6, 8, 11, 10, 12, 9)),  # 4,360
    (("square", 58, 0.0), (0, 2, 8, 1, 5, 3, 7, 12, 9, 4, 13, 6, 10, 11)),  # 1,074
    (("small square", 8, 0.8), None),
    (("small square", 36, 0.8), None),
    (("small square", 44, 0.8), None),
    (("small square", 48, 0.8), None),
]


def test_first_found_embedding_pinned_on_lattice_draws():
    polygons = {"L": L_POLYGON, "square": SQUARE, "small square": SMALL_SQUARE}
    for (name, seed, star), mapping in PINNED_LATTICE_DRAWS:
        outcome = decide_embedding(lattice_draw(seed, polygons[name], star))
        got = outcome.embedding.mapping if outcome.embedding else None
        assert outcome.status is (SolveStatus.INFEASIBLE if mapping is None else SolveStatus.EMBEDDED)
        assert got == mapping, (name, seed)
    # Three points in each room: the clean-sightline graph is disconnected.
    points = [(2, 2), (5, 8), (8, 3), (22, 4), (25, 9), (28, 2)]
    instance = make_instance(
        FreeTree(6, tuple((i - 1, i) for i in range(1, 6))),
        PointSet(tuple(Point(x, y) for x, y in points)),
        SimplePolygon(tuple(Point(x, y) for x, y in TWO_ROOMS)),
    )
    assert decide_embedding(instance).status is SolveStatus.INFEASIBLE

def test_feasible_reduction_solves_at_441_points():
    # Each placement re-tiles only the component it touched, so growth on
    # the paper's feasible reductions stays far below this limit.
    instance, _ = build_instance(validate_3p(22, [6, 6, 10, 7, 7, 8] * 10))
    outcome = decide_embedding(instance, time_limit_ms=10000)
    assert outcome.status is SolveStatus.EMBEDDED
    assert outcome.embedding.mapping == tuple(range(441))


def test_verdicts_match_three_partition_oracle_at_scale():
    # The paper's lemma: a reduction embeds iff its values 3-partition.
    # Seeded orders of the benchmark's value lists and near-partitions, all
    # at 133 to 265 points, against an oracle that shares no code with the
    # solver's tiling search.
    rng = random.Random(5)
    cases = []
    for k in (3, 6):
        for base in ([6, 6, 10, 7, 7, 8], [7, 7, 7, 7, 7, 9]):
            values = base * k
            rng.shuffle(values)
            cases.append((22, values))
    for target in (22, 25, 28, 31, 34, 37, 40, 40):
        n = rng.randint(-(-132 // target), 264 // target)  # n * target + 1 points
        cases.append((target, near_partition(rng, target, n)))
    verdicts = {True: 0, False: 0}
    for target, values in cases:
        inst = validate_3p(target, values)
        instance, meta = build_instance(inst)
        outcome = decide_embedding(instance, time_limit_ms=20000)
        want = three_partition(target, values)
        assert outcome.status is (SolveStatus.EMBEDDED if want else SolveStatus.INFEASIBLE), (
            target,
            values,
        )
        if want:
            assert partition_solves(inst, extract_partition(meta, outcome.embedding))
        verdicts[want] += 1
    assert verdicts == {True: 6, False: 6}


def _box_meets_segment(ax, ay, bx, by, x0, y0, x1, y1):
    """Does the closed box [x0, x1] x [y0, y1] meet the closed segment ab?
    By separating axes: the box's two axes and the normal of ab, which
    separates them iff all four corners lie strictly on one side of ab."""
    if max(ax, bx) < x0 or min(ax, bx) > x1 or max(ay, by) < y0 or min(ay, by) > y1:
        return False
    sides = [
        (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        for x, y in ((x0, y0), (x0, y1), (x1, y0), (x1, y1))
    ]
    return min(sides) <= 0 <= max(sides)


def test_crossed_cells_match_brute_force():
    # Random integer segments in random grids, negative origins and cells of
    # side 1 included, of every kind _segment_in_grid draws. A segment whose
    # ends share a half-open cell is filed in that cell alone. Any other
    # must be filed in each cell whose closed box meets the closed segment,
    # once, and nothing else; so the walk also stays inside the segment's
    # box of cells.
    rng = random.Random(11)
    one_cell = walked = 0
    for trial in range(3600):
        frame = (
            rng.randint(-30, 10),
            rng.randint(-30, 10),
            rng.choice((1, 1, 2, 3, 5, 7)),
            rng.randint(1, 8),
            rng.randint(1, 8),
        )
        seg = _segment_in_grid(rng, trial % 6, *frame)
        if seg is None:
            continue
        ax, ay, bx, by = seg
        x0, y0, side, cols, rows = frame
        cells = _sightline_cells(ax, ay, bx, by, frame)
        cell_a = ((ay - y0) // side, (ax - x0) // side)
        if cell_a == ((by - y0) // side, (bx - x0) // side):
            one_cell += 1
            assert cells == [cell_a[0] * cols + cell_a[1]], (seg, frame)
            continue
        walked += 1
        want = [
            r * cols + c
            for r in range(rows)
            for c in range(cols)
            if _box_meets_segment(
                ax, ay, bx, by,
                x0 + c * side, y0 + r * side, x0 + (c + 1) * side, y0 + (r + 1) * side,
            )
        ]
        assert sorted(cells) == want, (seg, frame)
    assert one_cell > 300 and walked > 2000, (one_cell, walked)


def _segment_in_grid(rng, kind, x0, y0, side, cols, rows, through=None):
    """A random integer segment with both ends in the grid's extent, of
    ``kind`` 0 general, 1 vertical, 2 horizontal, 3 through a cell corner,
    4 corner to corner, or 5 at most two units across (mostly inside one
    cell). With ``through``, a point of the extent, the segment passes
    through it or ends at it instead. None if 20 draws give no such segment,
    as a grid of one cell has no corner to corner one."""
    w, h = cols * side - 1, rows * side - 1
    for _ in range(20):
        if through is not None:
            cx, cy = through
            dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
            s, t = rng.randint(0, 3), rng.randint(1, 3)
            ax, ay, bx, by = cx - s * dx, cy - s * dy, cx + t * dx, cy + t * dy
        elif kind == 4:  # corner to corner
            ax, bx = (x0 + side * rng.randint(0, cols - 1) for _ in range(2))
            ay, by = (y0 + side * rng.randint(0, rows - 1) for _ in range(2))
        else:
            ax, ay = x0 + rng.randint(0, w), y0 + rng.randint(0, h)
            bx, by = x0 + rng.randint(0, w), y0 + rng.randint(0, h)
            if kind == 1:  # vertical, on a cell line every other time
                bx = ax = x0 + side * rng.randint(0, cols - 1) if rng.random() < 0.5 else ax
            elif kind == 2:  # horizontal, likewise
                by = ay = y0 + side * rng.randint(0, rows - 1) if rng.random() < 0.5 else ay
            elif kind == 3:  # through a cell corner
                return _segment_in_grid(
                    rng, 0, x0, y0, side, cols, rows,
                    (x0 + side * rng.randint(0, cols - 1), y0 + side * rng.randint(0, rows - 1)),
                )
            elif kind == 5:  # short
                bx, by = ax + rng.randint(-2, 2), ay + rng.randint(-2, 2)
        inside = all(x0 <= x <= x0 + w for x in (ax, bx)) and all(
            y0 <= y <= y0 + h for y in (ay, by)
        )
        if inside and (ax, ay) != (bx, by):
            return ax, ay, bx, by


def test_sightline_cells_share_a_cell_where_segments_meet():
    # Random integer segment pairs in random grids, drawn as in the walk
    # test above; the second meets the first at one of its lattice points
    # two times in three. Two segments that meet must be filed in a common
    # cell, both when one of them lies in one half-open cell and is filed
    # only there, and when neither does.
    rng = random.Random(12)
    one_cell = meets = 0
    for trial in range(4000):
        frame = (
            rng.randint(-30, 10),
            rng.randint(-30, 10),
            rng.choice((1, 2, 2, 3, 5, 7)),
            rng.randint(1, 8),
            rng.randint(1, 8),
        )
        first = _segment_in_grid(rng, trial % 6, *frame)
        if first is None:
            continue
        ax, ay, bx, by = first
        g = math.gcd(bx - ax, by - ay)
        t = rng.randint(0, g)
        through = (ax + t * (bx - ax) // g, ay + t * (by - ay) // g)
        second = None
        while second is None:
            second = _segment_in_grid(
                rng, rng.randrange(6), *frame, through if trial % 3 else None
            )
        cells = [_sightline_cells(*seg, frame) for seg in (first, second)]
        one_cell += sum(len(c) == 1 for c in cells)
        if segment_relation(*first, *second) != DISJOINT:
            meets += 1
            assert set(cells[0]) & set(cells[1]), (first, second, frame)
    assert one_cell > 1000 and meets > 2000, (one_cell, meets)


def test_search_tests_each_candidate_against_nearby_edges(monkeypatch):
    # 2501 points: the grid leaves under 4 segment tests per point, where a
    # scan of every placed edge made 175,125.
    calls = []
    relation = solver.segment_relation

    def counted(*args):
        calls.append(args)
        return relation(*args)

    instance, _ = build_instance(validate_3p(50, [17, 17, 16] * 50))
    monkeypatch.setattr(solver, "segment_relation", counted)
    outcome = decide_embedding(instance)
    assert outcome.status is SolveStatus.EMBEDDED
    assert 0 < len(calls) < 4 * 2501



def test_search_reads_few_clean_rows():
    # 2501 points: a chain placement leaves its component connected, so
    # only the hub's check searches it; one search per check read 68,751
    # clean-sightline rows.
    class Counted(tuple):
        reads = 0

        def __getitem__(self, i):
            Counted.reads += 1
            return tuple.__getitem__(self, i)

    instance, _ = build_instance(validate_3p(50, [17, 17, 16] * 50))
    tree, points = instance.tree, instance.points
    clean = Counted(build_visibility_graph(instance).clean)
    xs, ys = [p.x for p in points], [p.y for p in points]
    root = max(range(2501), key=lambda v: (len(tree.adjacency[v]), -v))
    assert solver._search(tree, root, xs, ys, clean, math.inf) is not None
    assert 0 < Counted.reads < 5 * 2501


def test_chain_placements_skip_the_tiling_search(monkeypatch):
    # A chain node placed next to its predecessor leaves its component in
    # one piece, which needs no tiling search: only the hub's check at the
    # root and the checks that split the component call it (2501 and 221
    # calls when every check did).
    calls = []

    def counted(*args):
        calls.append(args)
        return _tiling(*args)

    monkeypatch.setattr(solver, "_tiling", counted)
    instance, _ = build_instance(validate_3p(50, [17, 17, 16] * 50))
    assert decide_embedding(instance).status is SolveStatus.EMBEDDED
    assert 0 < len(calls) <= 50
    calls.clear()
    instance, _ = build_instance(validate_3p(22, [6, 6, 10, 7, 7, 8] * 5))
    assert decide_embedding(instance).status is SolveStatus.EMBEDDED
    assert len(calls) == 5


def test_undo_restores_the_tiling_witness(monkeypatch):
    # Two comb draws whose searches backtrack through thousands of tiling
    # checks, in about 0.1 s each. A fresh label kept past the undo of the
    # split that made it leaves a stale entry in the witness, and both
    # searches then run out of time.
    calls = []

    def counted(*args):
        calls.append(args)
        return _tiling(*args)

    monkeypatch.setattr(solver, "_tiling", counted)
    for seed, want in ((0, 1626), (5, 2666)):
        calls.clear()
        outcome = decide_embedding(lattice_draw(seed, COMB), time_limit_ms=2000)
        assert outcome.status is SolveStatus.INFEASIBLE, seed
        assert len(calls) == want, seed


class TestGeneralPosition:
    def test_collinear_triple_found(self):
        pts = PointSet((Point(0, 0), Point(1, 0), Point(2, 0)))
        assert check_general_position(pts) == (0, 1, 2)

    def test_clean_triple(self):
        pts = PointSet((Point(0, 0), Point(1, 0), Point(0, 1)))
        assert check_general_position(pts) is None

    def test_generated_groups_are_collinear(self):
        pts, _ = build_points(1, 7)
        assert check_general_position(pts) is not None

    def test_agrees_with_oracle_on_small_lattice_sets(self):
        rng = random.Random(8)
        lattice = [(x, y) for x in range(7) for y in range(7)]
        for _ in range(300):
            chosen = rng.sample(lattice, rng.randint(3, 12))
            pts = PointSet(tuple(Point(x, y) for x, y in chosen))
            assert check_general_position(pts) == first_collinear_triple(chosen), chosen

    def test_thousand_points_checked_quickly(self):
        # Points on a parabola: no three align, so every pair is examined.
        ts = random.Random(3).sample(range(-20000, 20000), 1000)
        pts = PointSet(tuple(Point(t, t * t) for t in ts))
        start = time.perf_counter()
        assert check_general_position(pts) is None
        assert time.perf_counter() - start < 5


class TestUnconstrainedEmbedder:
    def test_three_node_path(self):
        tree = FreeTree(3, ((0, 1), (1, 2)))
        pts = PointSet((Point(0, 0), Point(2, 1), Point(4, 0)))
        emb = embed_tree_unconstrained(tree, pts)
        assert verify_planar_only(tree, pts, emb).valid

    def test_single_node(self):
        emb = embed_tree_unconstrained(FreeTree(1, ()), PointSet((Point(5, 5),)))
        assert emb.mapping == (0,)

    def test_collinear_rejected_with_triple(self):
        tree = FreeTree(3, ((0, 1), (1, 2)))
        pts = PointSet((Point(0, 0), Point(1, 0), Point(2, 0)))
        with pytest.raises(ValidationError) as err:
            embed_tree_unconstrained(tree, pts)
        assert err.value.code == "GeneralPositionViolated"
        assert err.value.details["indices"] == (0, 1, 2)

    def test_size_mismatch(self):
        tree = FreeTree(2, ((0, 1),))
        pts = PointSet((Point(0, 0), Point(1, 2), Point(2, 1)))
        with pytest.raises(ValidationError) as err:
            embed_tree_unconstrained(tree, pts)
        assert err.value.code == "NodeCountMismatch"

    def test_random_instances_always_valid(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 25)
            pts = _general_position_points(rng, n)
            edges = tuple((rng.randrange(i), i) for i in range(1, n))
            tree = FreeTree(n, edges)
            points = PointSet(tuple(pts))
            emb = embed_tree_unconstrained(tree, points)
            assert verify_planar_only(tree, points, emb).valid

    def test_deterministic(self):
        rng = random.Random(4)
        pts = PointSet(tuple(_general_position_points(rng, 12)))
        tree = FreeTree(12, tuple((rng.randrange(i), i) for i in range(1, 12)))
        assert embed_tree_unconstrained(tree, pts) == embed_tree_unconstrained(tree, pts)


def _general_position_points(rng, n, span=600):
    pts = []
    while len(pts) < n:
        cand = Point(rng.randint(0, span), rng.randint(0, span))
        if any(cand == p for p in pts):
            continue
        from polyembed.geometry import cross

        if any(
            cross(pts[i], pts[j], cand) == 0
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ):
            continue
        pts.append(cand)
    return pts
