"""Parity digests: fixed corpora whose outputs must not drift.

Each family recomputes its outputs over a deterministic corpus and compares
the SHA-256 of their canonical JSON with a checked-in digest. A digest may
change only together with a note saying which outputs changed and why.
"""

import hashlib
import itertools
import json
import random

from polyembed.model import VIOLATION_KINDS, Embedding, serialize_report
from polyembed.reduction import build_instance, build_points, build_polygon, validate_3p
from polyembed.solver import build_visibility_graph, decide_embedding
from polyembed.verifier import verify_embedding
from test_acceptance import enumerate_3p_sweep
from test_solver import POLYGON_CATALOG, path_instance, random_bounded_instance

SOLVER_DIGEST = "989cd51d368490842df1233906c541a126fab65adb03335c1b89aecd24b8b893"
VERIFIER_DIGEST = "0fdaef420c23cae868d891c674b127c8e7dfbe6921a055b525a32704ddf51bdb"
VISIBILITY_DIGEST = "a0210acf35a0fd1b711cd949545c5d8dc7cf85a9d55bc2890cf3a8c30f4a8dac"

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
