"""Metamorphic properties: transformations that must not change a verdict.

Lattice symmetries and translations map an instance onto one with the same
incidences, so the solver must return the same status and mapping.
Relabelling points or tree nodes must keep the verdict, and the embedding
found for the relabelled instance, carried back, must verify on the
original. Mirroring an instance in the line y = x must keep its clean
sightlines and visible runs.
"""

import random

from polyembed.geometry import Point, SimplePolygon
from polyembed.model import EmbeddingInstance, FreeTree, PointSet
from polyembed.solver import build_visibility_graph, decide_embedding
from polyembed.verifier import verify_embedding
from test_parity import visibility_corpus
from test_solver import POLYGON_CATALOG, random_bounded_instance, transposed

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
    # general path, which must find the same sightlines and runs.
    for label, instance in visibility_corpus():
        want = build_visibility_graph(instance)
        got = build_visibility_graph(transposed(instance))
        assert got.clean == want.clean, label
        assert set(map(frozenset, got.runs)) == set(map(frozenset, want.runs)), label
