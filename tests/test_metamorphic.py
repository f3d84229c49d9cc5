"""Metamorphic properties: transformations that must not change a verdict.

Lattice symmetries and translations map an instance onto one with the same
incidences, so the solver must return the same status and mapping.
Relabelling points or tree nodes must keep the verdict, and the embedding
found for the relabelled instance, carried back, must verify on the
original. Mirroring an instance in the line y = x must keep its clean
sightlines and visible runs, and so must keying the visibility pass along
columns instead of rows, or sweeping its rows down instead of up.
"""

import random

from oracles import point_location
from polyembed.geometry import Point, SimplePolygon
from polyembed.model import EmbeddingInstance, FreeTree, PointSet
from polyembed.solver import _clean_sightlines, build_visibility_graph, decide_embedding
from polyembed.verifier import verify_embedding
from test_parity import visibility_corpus
from test_solver import (
    COMB,
    L_POLYGON,
    POLYGON_CATALOG,
    path_instance,
    random_bounded_instance,
    transposed,
)

# (a, b, c, d) maps (x, y) to (a*x + b*y, c*x + d*y).
LATTICE_SYMMETRIES = [
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (-1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, 1, 0),
    (0, 1, -1, 0),
    (0, -1, -1, 0),
]


def catalogue_instances(seed, count):
    rng = random.Random(seed)
    for case in range(count):
        poly = POLYGON_CATALOG[case % len(POLYGON_CATALOG)]
        instance, *_ = random_bounded_instance(rng, rng.randint(2, 8), poly)
        yield rng, instance


def test_symmetries_and_translations_keep_outcome():
    for rng, instance in catalogue_instances(11, 120):
        want = decide_embedding(instance)
        for a, b, c, d in LATTICE_SYMMETRIES:
            # Catalogue coordinates stay below 20, so the images stay within
            # COORD_LIMIT.
            tx, ty = rng.randint(-(2**30), 2**30), rng.randint(-(2**30), 2**30)

            def move(p, a=a, b=b, c=c, d=d, tx=tx, ty=ty):
                return Point(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty)

            moved = EmbeddingInstance(
                instance.tree,
                PointSet(tuple(map(move, instance.points))),
                SimplePolygon(tuple(map(move, instance.polygon.vertices))),
            )
            got = decide_embedding(moved)
            assert (got.status, got.embedding) == (want.status, want.embedding)


def test_relabelling_keeps_verdict():
    for rng, instance in catalogue_instances(12, 120):
        tree, points, polygon = instance.tree, instance.points, instance.polygon
        n = len(points)
        want = decide_embedding(instance).status
        # New point k is old point perm[k]; old node v is new node sigma[v].
        perm, sigma = list(range(n)), list(range(n))
        rng.shuffle(perm)
        rng.shuffle(sigma)
        by_points = EmbeddingInstance(
            tree, PointSet(tuple(points[k] for k in perm)), polygon
        )
        by_nodes = EmbeddingInstance(
            FreeTree(n, tuple((sigma[u], sigma[v]) for u, v in tree.edges)),
            points,
            polygon,
        )
        for relabelled, carry_back in (
            (by_points, lambda m: [perm[m[v]] for v in range(n)]),
            (by_nodes, lambda m: [m[sigma[v]] for v in range(n)]),
        ):
            got = decide_embedding(relabelled)
            assert got.status is want
            if got.embedding is not None:
                mapping = got.embedding.mapping
                assert verify_embedding(relabelled, mapping).valid
                assert verify_embedding(instance, carry_back(mapping)).valid


def test_transposition_keeps_visibility():
    # The pass takes points in (y, x) order and treats a row apart from
    # every other line; mirrored in y = x, rows become columns and take the
    # general path, which must find the same sightlines and matrix.
    for label, instance in visibility_corpus():
        want = build_visibility_graph(instance)
        got = build_visibility_graph(transposed(instance))
        assert got.clean == want.clean, label
        assert got.matrix == want.matrix, label


def lattice_draws():
    """(label, instance) for seeded lattice draws with many points on both
    rows and columns: 200 points in the L, and three full rows of 41 points
    across the comb scaled by 3 plus four points in its teeth."""

    def instance(chosen, verts):
        points = PointSet(tuple(Point(x, y) for x, y in chosen))
        return path_instance(points, SimplePolygon(tuple(Point(x, y) for x, y in verts)))

    in_l = [
        (x, y) for x in range(41) for y in range(33) if point_location(L_POLYGON, (x, y)) == "inside"
    ]
    comb = [(3 * x, 3 * y) for x, y in COMB]
    teeth = [
        (x, y) for x in range(1, 42) for y in range(7, 18) if point_location(comb, (x, y)) == "inside"
    ]
    for seed in range(2):
        rng = random.Random(seed)
        yield ("L", seed), instance(rng.sample(in_l, 200), L_POLYGON)
        rows = rng.sample(range(1, 6), 3)
        chosen = [(x, y) for y in rows for x in range(1, 42)] + rng.sample(teeth, 4)
        yield ("comb", seed), instance(chosen, comb)


def test_keying_frame_and_sweep_keep_clean_lists():
    # The pass keys in one frame and sweeps one way, as it chooses; its
    # keying core must find the same clean lists along rows and, mirrored in
    # y = x, along columns, sweeping up and down. The comb's three long rows
    # hold equally many points, so its fans follow the tie rule both ways.
    for label, instance in [*visibility_corpus(), *lattice_draws()]:
        xs, ys, polygon = instance.points.xs, instance.points.ys, instance.polygon
        mirrored = SimplePolygon(tuple(Point(v.y, v.x) for v in polygon.vertices))
        want = build_visibility_graph(instance).clean
        for up in (True, False):
            assert _clean_sightlines(xs, ys, polygon, up) == want, (label, "rows", up)
            assert _clean_sightlines(ys, xs, mirrored, up) == want, (label, "columns", up)
