"""Parity digests: fixed corpora whose outputs must not drift.

Each family recomputes its outputs over a deterministic corpus and compares
the SHA-256 of their canonical JSON with a checked-in digest. A digest may
change only together with a note saying which outputs changed and why.
"""

import hashlib
import itertools
import json
import random

from polyembed.geometry import Point, plane_contacts
from polyembed.model import VIOLATION_KINDS, Embedding, PointSet, serialize_report
from polyembed.reduction import build_instance, build_points, build_polygon, validate_3p
from polyembed.solver import build_visibility_graph, check_general_position, decide_embedding
from polyembed.verifier import verify_embedding
from test_acceptance import enumerate_3p_sweep
from test_geometry import fan_over_row, random_labelled_segments
from test_solver import POLYGON_CATALOG, path_instance, random_bounded_instance
from test_verifier import solved_reduction

SOLVER_DIGEST = "989cd51d368490842df1233906c541a126fab65adb03335c1b89aecd24b8b893"
VERIFIER_DIGEST = "0fdaef420c23cae868d891c674b127c8e7dfbe6921a055b525a32704ddf51bdb"
VISIBILITY_DIGEST = "a0210acf35a0fd1b711cd949545c5d8dc7cf85a9d55bc2890cf3a8c30f4a8dac"
SWEEP_DIGEST = "736a1c3097ec2bf77013b7c3adc153413069870d3d02c7b3e670c2f9d1a8307f"
GENERAL_POSITION_DIGEST = "09d9176a9645346c6dff036d2d3b546dceb3792db1e888d44db715a09f6661b7"

# Reductions beyond the sweep, solved with the default root.
LARGER_REDUCTIONS = [
    (22, [6, 6, 10, 7, 7, 8] * 3),
    (22, [7, 7, 7, 7, 7, 9] * 3),
    (16, [5, 5, 5, 5, 5, 7] * 2),
]


def _digest(records) -> str:
    text = json.dumps(records, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def solver_corpus():
    """(label, instance, root) for every case of the solver family.

    The criterion-1 sweep to B <= 22 with the default root, its B <= 12 part
    again with root node 1, three larger reductions, and 240 random
    catalogue instances (80 per seed), each with the default root and with
    a seeded explicit root.
    """
    sweep = enumerate_3p_sweep(max_b=22)
    cases = [((b, a), b, a, None) for b, a in sweep]
    cases += [((b, a, "root1"), b, a, 1) for b, a in sweep if b <= 12]
    cases += [((b, a), b, a, None) for b, a in LARGER_REDUCTIONS]
    for label, b, a, root in cases:
        instance, _ = build_instance(validate_3p(b, a))
        yield label, instance, root
    for seed in (23, 31337, 5):
        rng = random.Random(seed)
        for case in range(80):
            poly = POLYGON_CATALOG[case % len(POLYGON_CATALOG)]
            n = rng.randint(2, 9)
            instance, *_ = random_bounded_instance(rng, n, poly)
            yield (seed, case), instance, None
            root = rng.randrange(n)
            yield (seed, case, root), instance, root


def test_solver_parity_digest():
    records = []
    for label, instance, root in solver_corpus():
        outcome = decide_embedding(instance, root_node=root)
        mapping = outcome.embedding.mapping if outcome.embedding else None
        records.append([label, outcome.status.value, mapping])
    assert len(records) == 608
    assert _digest(records) == SOLVER_DIGEST


def verifier_corpus():
    """(label, instance, embedding) for every case of the verifier family.

    Every single swap of the solver's embedding on the two-group sweep
    instances with B <= 10, then 600 random catalogue instances with
    shuffled raw mappings, every tenth made non-bijective.
    """
    for b, a in enumerate_3p_sweep(max_b=10):
        if len(a) != 6:
            continue
        instance, _ = build_instance(validate_3p(b, a))
        outcome = decide_embedding(instance)
        if outcome.embedding is None:
            continue
        base = outcome.embedding.mapping
        for i, j in itertools.combinations(range(len(base)), 2):
            mapping = list(base)
            mapping[i], mapping[j] = mapping[j], mapping[i]
            yield (b, a, i, j), instance, Embedding(mapping)
    rng = random.Random(2024)
    for case in range(600):
        poly = POLYGON_CATALOG[case % len(POLYGON_CATALOG)]
        n = rng.randint(2, 9)
        instance, *_ = random_bounded_instance(rng, n, poly)
        mapping = list(range(n))
        rng.shuffle(mapping)
        if case % 10 == 0:
            mapping[0] = mapping[1]
        yield ("catalog", case), instance, mapping


def test_verifier_parity_digest():
    records = []
    kinds = set()
    for label, instance, embedding in verifier_corpus():
        report = verify_embedding(instance, embedding)
        kinds.update(v.kind for v in report.violations)
        records.append([label, serialize_report(report)])
    assert len(records) == 1290
    assert kinds == VIOLATION_KINDS
    assert _digest(records) == VERIFIER_DIGEST


def visibility_corpus():
    """(label, instance) for every case of the visibility family.

    The criterion-2 instances (n <= 4, B in {7, 8, 10, 12}), 40 seeded
    point sets in the catalogue polygons, and reductions up to 401 points:
    ``[17,17,16]*k`` at B = 50 for k <= 8 and ``[6,6,10,7,7,8]*5`` at B = 22.
    """
    for n in range(1, 5):
        for b in (7, 8, 10, 12):
            points, _ = build_points(n, b)
            yield ("criterion2", n, b), path_instance(points, build_polygon(n, b))
    rng = random.Random(97)
    for case in range(40):
        poly = POLYGON_CATALOG[case % len(POLYGON_CATALOG)]
        instance, *_ = random_bounded_instance(rng, rng.randint(2, 20), poly)
        yield ("catalog", case), instance
    reductions = [(50, [17, 17, 16] * k) for k in range(1, 9)] + [(22, [6, 6, 10, 7, 7, 8] * 5)]
    for b, a in reductions:
        instance, _ = build_instance(validate_3p(b, a))
        yield ("reduction", b, len(a)), instance


def test_visibility_parity_digest():
    records = []
    for label, instance in visibility_corpus():
        graph = build_visibility_graph(instance)
        rows = ["".join("1" if v else "0" for v in row) for row in graph.matrix]
        records.append([label, rows, [list(c) for c in graph.clean]])
    assert len(records) == 65
    assert _digest(records) == VISIBILITY_DIGEST


def sweep_corpus():
    """(label, segments) for every case of the sweep family.

    2,000 small random sets, six fans over a row, twelve dense lattice sets,
    and the verifier's segments for the valid 401-point ``[17,17,16]*8``
    identity embedding with its boundary and for three seeded swap mutants
    of it (one, two and three random image swaps). Each record carries two
    label fields after its four coordinates; the sweep ignores them.
    """
    rng = random.Random(61)
    for case in range(2000):
        yield ("random", case), random_labelled_segments(rng, 1 + case % 8)
    for case in range(6):
        yield ("fan", case), fan_over_row(rng)
    for case in range(12):
        segs = random_labelled_segments(rng, rng.randint(40, 80), rng.randint(12, 20))
        yield ("lattice", case), segs
    instance, _, _, mapping = solved_reduction(50, [17, 17, 16] * 8)
    xs, ys = [p.x for p in instance.points], [p.y for p in instance.points]
    k = len(instance.polygon.vertices)
    boundary = [e[:4] + (~t, ~((t + 1) % k)) for t, e in enumerate(instance.polygon.edge_boxes)]
    for swaps in range(4):
        mutant = list(mapping)
        for _ in range(swaps):
            u, w = rng.sample(range(len(mutant)), 2)
            mutant[u], mutant[w] = mutant[w], mutant[u]
        edges = [(mutant[u], mutant[v]) for u, v in instance.tree.edges]
        segs = [(xs[a], ys[a], xs[b], ys[b], a, b) for a, b in edges] + boundary
        yield ("reduction", swaps), segs


def test_sweep_parity_digest():
    # Each yield's repr pins the event point with its types (int at an
    # endpoint, Fraction at a crossing) and the index tuples in order.
    records = []
    contacts = 0
    for label, segs in sweep_corpus():
        yields = [repr(c) for c in plane_contacts(segs)]
        contacts += len(yields)
        records.append([label, yields])
    assert len(records) == 2022
    assert records[-4][1] == []  # the identity embedding is valid
    assert all(r[1] for r in records[-3:])
    assert _digest(records) == SWEEP_DIGEST


def general_position_corpus():
    """(label, points) for every case of the general-position family.

    600 seeded lattice sets of 3 to 40 distinct points in grids from 4x4 to
    60x60 and 60 of 41 to 200 points in grids up to 200x200, about four in
    five with a collinear triple; then, for 18 primes p from 7 to 199,
    Erdős's points (x, x² mod p), no three of them collinear, with a
    seeded offset, and again with a seeded lattice point added, which may
    make collinear triples.
    """
    rng = random.Random(43)
    for case in range(660):
        if case < 600:
            w, h, n = rng.randint(4, 60), rng.randint(4, 60), rng.randint(3, 40)
        else:
            w, h, n = rng.randint(20, 200), rng.randint(20, 200), rng.randint(41, 200)
        chosen = rng.sample(range(w * h), min(n, w * h))
        yield ("lattice", case), [(c % w, c // w) for c in chosen]
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 101, 127, 199):
        dx, dy = rng.randrange(-50, 50), rng.randrange(-50, 50)
        pts = [(x + dx, x * x % p + dy) for x in range(p)]
        yield ("parabola", p), pts
        extra = (rng.randrange(p) + dx, rng.randrange(p) + dy)
        if extra not in pts:
            yield ("parabola+1", p), [*pts[: p // 2], extra, *pts[p // 2 :]]


def test_general_position_parity_digest():
    records = []
    for label, pts in general_position_corpus():
        triple = check_general_position(PointSet(Point(x, y) for x, y in pts))
        records.append([label, None if triple is None else list(triple)])
    assert len(records) == 696
    assert sum(r[1] is None for r in records) == 133
    assert _digest(records) == GENERAL_POSITION_DIGEST
