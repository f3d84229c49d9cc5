"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers. Run with `pytest -v` (or -s to see
the lines inline)."""

import itertools
import random
import time

from oracles import brute_valid, exhaustive_feasible
from polyembed.geometry import (
    Point,
    PointLocation,
    SimplePolygon,
    cross,
    is_simple,
    point_in_polygon,
)
from polyembed.model import (
    Embedding,
    FreeTree,
    PointSet,
    make_instance,
    serialize_instance,
)
from polyembed.reduction import (
    brute_force_3p,
    build_instance,
    build_points,
    build_polygon,
    extract_partition,
    partition_solves,
    serialize_meta,
    validate_3p,
)
from polyembed.solver import (
    SolveStatus,
    build_visibility_graph,
    decide_embedding,
    embed_tree_unconstrained,
)
from polyembed.verifier import verify_embedding, verify_planar_only
from test_solver import POLYGON_CATALOG, path_instance


def _report(number, ok, detail):
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def enumerate_3p_sweep(max_b=16):
    """Every valid 3-partition instance with n in {1, 2} and B <= max_b,
    as sorted value multisets, plus the three mandated literal instances."""
    sweep = []
    for n in (1, 2):
        for b in range(1, max_b + 1):
            vals = [v for v in range(1, b) if 4 * v > b and 2 * v < b]
            for combo in itertools.combinations_with_replacement(vals, 3 * n):
                if sum(combo) == b * n:
                    sweep.append((b, list(combo)))
    for mandated in [(7, [2, 2, 3]), (7, [2, 2, 3, 2, 2, 3]), (16, [5, 5, 5, 5, 5, 7])]:
        if mandated not in sweep:
            sweep.append(mandated)
    return sweep


def test_criterion_1_reduction_equivalence_sweep():
    sweep = enumerate_3p_sweep()
    assert (7, [2, 2, 3]) in sweep
    assert (7, [2, 2, 3, 2, 2, 3]) in sweep
    assert (16, [5, 5, 5, 5, 5, 7]) in sweep
    t0 = time.perf_counter()
    mismatches = []
    feasible = infeasible = 0
    for b, a in sweep:
        inst3p = validate_3p(b, a)
        instance, meta = build_instance(inst3p)
        outcome = decide_embedding(instance)
        oracle = brute_force_3p(inst3p)
        solved = outcome.status is SolveStatus.EMBEDDED
        if solved != (oracle is not None):
            mismatches.append((b, a))
        if solved:
            feasible += 1
            # back-extraction soundness rides along on every feasible case
            part = extract_partition(meta, outcome.embedding)
            assert partition_solves(inst3p, part), (b, a)
        else:
            infeasible += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        not mismatches and elapsed < 120.0,
        f"{len(sweep)} instances ({feasible} feasible, {infeasible} infeasible), "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_visibility_structure():
    checked = 0
    for n in range(1, 5):
        for b in (7, 8, 10, 12):
            polygon = build_polygon(n, b)
            points, groups = build_points(n, b)
            matrix = build_visibility_graph(path_instance(points, polygon)).matrix
            group_of = {}
            for g, grp in enumerate(groups):
                for idx in grp:
                    group_of[idx] = g
            for q in range(len(points)):
                assert matrix[0][q], (n, b, q)
            for i in range(1, len(points)):
                for j in range(i + 1, len(points)):
                    expected = group_of[i] == group_of[j]
                    assert matrix[i][j] == expected, (n, b, i, j)
                    checked += 1
    _report(2, True, f"{checked} point pairs across n<=4, B in {{7,8,10,12}}: exact")


def test_criterion_3_generator_validity_and_scale():
    for n in range(1, 5):
        for b in (7, 8, 10, 12):
            polygon = build_polygon(n, b)
            assert len(polygon.vertices) == 3 * n
            assert is_simple(polygon)
            points, _ = build_points(n, b)
            assert len(points) == n * b + 1
            for p in points:
                assert point_in_polygon(p, polygon) is PointLocation.INSIDE
    t0 = time.perf_counter()
    big = validate_3p(50, [17, 17, 16] * 50)
    instance, meta = build_instance(big)
    instance_text = serialize_instance(instance)
    meta_text = serialize_meta(meta)
    elapsed = time.perf_counter() - t0
    ok = (
        len(instance.points) == 2501
        and len(instance.polygon.vertices) == 150
        and len(instance_text) > 0
        and len(meta_text) > 0
        and elapsed < 1.0
    )
    _report(
        3,
        ok,
        f"sweep valid; n=50 B=50 (2501 points, 150 vertices) "
        f"generated+validated+serialized in {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_4_verifier_oracle_equivalence():
    rng = random.Random(2024)
    cases = 0
    mismatches = 0
    cells = [(x, y) for x in range(9) for y in range(9)]
    while cases < 500:
        n = rng.randint(1, 7)
        pts = rng.sample(cells, n)
        edges = tuple((rng.randrange(i), i) for i in range(1, n))
        mapping = list(range(n))
        rng.shuffle(mapping)
        tree = FreeTree(n, edges)
        points = PointSet(tuple(Point(x, y) for x, y in pts))
        got = verify_planar_only(tree, points, Embedding(tuple(mapping))).valid
        want = brute_valid(edges, pts, mapping)
        if got != want:
            mismatches += 1
        cases += 1
    _report(4, mismatches == 0, f"{cases} random cases, {mismatches} disagreements")


def _interior_cells(polygon):
    return [
        (x, y)
        for x in range(-1, 20)
        for y in range(-1, 20)
        if point_in_polygon(Point(x, y), polygon) is PointLocation.INSIDE
    ]


def test_criterion_5_solver_completeness_desk_scale():
    rng = random.Random(31337)
    polys = [
        (verts, SimplePolygon(tuple(Point(x, y) for x, y in verts)))
        for verts in POLYGON_CATALOG
    ]
    interiors = {id(poly): _interior_cells(poly) for _, poly in polys}
    sizes = [rng.randint(2, 7) for _ in range(192)] + [8, 8, 8, 8, 9, 9, 9, 9]
    t0 = time.perf_counter()
    mismatches = 0
    feasible = 0
    for case, n in enumerate(sizes):
        verts, poly = polys[case % len(polys)]
        cells = interiors[id(poly)]
        if case % 3 == 0:
            # bias toward collinear rows to reach infeasible territory
            strip = [c for c in cells if c[1] <= 2]
            pts = rng.sample(strip, n) if len(strip) >= n else rng.sample(cells, n)
        else:
            pts = rng.sample(cells, n)
        if case % 4 == 0:
            edges = tuple((0, i) for i in range(1, n))  # star
        else:
            edges = tuple((rng.randrange(i), i) for i in range(1, n))
        instance = make_instance(
            FreeTree(n, edges), PointSet(tuple(Point(x, y) for x, y in pts)), poly
        )
        got = decide_embedding(instance).status is SolveStatus.EMBEDDED
        want = exhaustive_feasible(edges, pts, verts)
        if got != want:
            mismatches += 1
        if want:
            feasible += 1
    elapsed = time.perf_counter() - t0
    _report(
        5,
        mismatches == 0,
        f"200 instances (<=9 points, {feasible} feasible), "
        f"{mismatches} verdict mismatches, {elapsed:.1f}s",
    )


def test_criterion_6_polynomial_verifier_timing():
    big = validate_3p(50, [17, 17, 16] * 50)
    instance, meta = build_instance(big)
    # chains fill each group in file order, so the identity bijection is a
    # valid embedding of this instance by construction
    embedding = Embedding(tuple(range(instance.tree.node_count)))
    t0 = time.perf_counter()
    report = verify_embedding(instance, embedding)
    elapsed = time.perf_counter() - t0
    _report(
        6,
        report.valid and elapsed < 5.0,
        f"n=50 B=50 verify: valid={report.valid} in {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_7_unconstrained_embedder():
    rng = random.Random(777)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 40)
        pts = []
        while len(pts) < n:
            cand = Point(rng.randint(0, 2000), rng.randint(0, 2000))
            if any(cand == p for p in pts):
                continue
            if any(
                cross(pts[i], pts[j], cand) == 0
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            ):
                continue
            pts.append(cand)
        edges = tuple((rng.randrange(i), i) for i in range(1, n))
        tree = FreeTree(n, edges)
        points = PointSet(tuple(pts))
        t0 = time.perf_counter()
        embedding = embed_tree_unconstrained(tree, points)
        worst = max(worst, time.perf_counter() - t0)
        assert verify_planar_only(tree, points, embedding).valid, (n, edges)
    _report(
        7,
        worst < 1.0,
        f"100 instances (n<=40) all verifier-valid, worst solve {worst * 1000:.1f} ms (limit 1s)",
    )


def test_criterion_8_mutation_detection():
    inst3p = validate_3p(7, [2, 2, 3, 2, 2, 3])
    instance, meta = build_instance(inst3p)
    outcome = decide_embedding(instance)
    assert outcome.status is SolveStatus.EMBEDDED
    base = outcome.embedding
    assert verify_embedding(instance, base).valid
    group1 = set(meta.group_points[0])
    group2 = set(meta.group_points[1])
    nodes1 = [v for v in range(15) if base.mapping[v] in group1]
    nodes2 = [v for v in range(15) if base.mapping[v] in group2]
    assert len(nodes1) == 7 and len(nodes2) == 7
    swaps = 0
    undetected = 0
    for u in nodes1:
        for w in nodes2:
            mutated = list(base.mapping)
            mutated[u], mutated[w] = mutated[w], mutated[u]
            report = verify_embedding(instance, Embedding(tuple(mutated)))
            kinds = {v.kind for v in report.violations}
            if report.valid or not kinds & {"EdgeHitsBoundary", "EdgeCrossesEdge"}:
                undetected += 1
            swaps += 1
    _report(
        8,
        swaps == 49 and undetected == 0,
        f"{swaps} cross-group swaps, {undetected} undetected",
    )
