import itertools
import random

import pytest

from oracles import brute_valid, pairwise_report
from polyembed.errors import ValidationError
from polyembed.geometry import Point, SimplePolygon
from polyembed.model import Embedding, FreeTree, PointSet, Violation, make_instance
from polyembed import geometry, verifier
from polyembed.reduction import build_instance, validate_3p
from polyembed.solver import decide_embedding
from polyembed.verifier import verify_embedding, verify_planar_only
from test_solver import POLYGON_CATALOG, random_bounded_instance

TRIANGLE = SimplePolygon((Point(0, 0), Point(20, 0), Point(0, 20)))


def make_bounded(tree, pts):
    return make_instance(tree, PointSet(pts), TRIANGLE)


class TestBasics:
    def test_single_node_vacuous(self):
        inst = make_bounded(FreeTree(1, ()), (Point(1, 1),))
        assert verify_embedding(inst, Embedding((0,))).valid

    def test_two_nodes_any_mapping_valid(self):
        tree = FreeTree(2, ((0, 1),))
        pts = PointSet((Point(0, 0), Point(3, 1)))
        assert verify_planar_only(tree, pts, Embedding((0, 1))).valid
        assert verify_planar_only(tree, pts, Embedding((1, 0))).valid

    def test_length_mismatch_is_error_not_report(self):
        inst = make_bounded(FreeTree(2, ((0, 1),)), (Point(1, 1), Point(2, 1)))
        with pytest.raises(ValidationError) as err:
            verify_embedding(inst, [0])
        assert err.value.code == "MappingLengthMismatch"

    def test_raw_non_bijection_reported(self):
        tree = FreeTree(3, ((0, 1), (1, 2)))
        pts = PointSet((Point(0, 0), Point(1, 0), Point(0, 1)))
        report = verify_planar_only(tree, pts, [0, 0, 1])
        assert not report.valid
        assert [v.kind for v in report.violations] == ["NotBijection"]
        assert report.violations[0].points == (0,)
        # Images out of range, with no repeat, are offenders too.
        for mapping, offenders in (([0, 1, 5], (5,)), ([0, -1, 2], (-1,))):
            report = verify_planar_only(tree, pts, mapping)
            assert not report.valid
            assert [v.kind for v in report.violations] == ["NotBijection"]
            assert report.violations[0].points == offenders

    def test_non_integer_images_rejected(self):
        # int() once truncated 1.7 and 1.5 to 1, so a drawing nobody gave
        # was verified; a string raised a bare ValueError.
        tree = FreeTree(3, ((0, 1), (1, 2)))
        pts = PointSet((Point(0, 0), Point(1, 0), Point(0, 1)))
        for make in (
            lambda: verify_planar_only(tree, pts, [0, 1.7, 2]),
            lambda: Embedding((0, 1.5, 2)),
            lambda: verify_planar_only(tree, pts, ["a", 1, 2]),
            lambda: verify_planar_only(tree, pts, [0, True, 2]),
        ):
            with pytest.raises(ValidationError) as err:
                make()
            assert err.value.code == "NonIntegerImage"

    def test_point_count_must_match_node_count(self):
        # More points than nodes once reported unmapped point 3 as a point
        # an edge passes through, or a bijection failure with no offender;
        # fewer raised IndexError.
        tree = FreeTree(3, ((0, 1), (1, 2)))
        five = PointSet(tuple(Point(x, 0) for x in range(5)))
        two = PointSet((Point(0, 0), Point(1, 1)))
        for points, mapping in ((five, [0, 1, 2]), (five, [0, 1, 4]), (two, [0, 1, 0])):
            with pytest.raises(ValidationError) as err:
                verify_planar_only(tree, points, mapping)
            assert err.value.code == "NodeCountMismatch", mapping


class TestViolationKinds:
    def test_collinear_path_through_mapped_point(self):
        tree = FreeTree(3, ((0, 1), (1, 2)))
        pts = PointSet((Point(0, 0), Point(2, 0), Point(1, 0)))
        report = verify_planar_only(tree, pts, Embedding((0, 1, 2)))
        assert not report.valid
        kinds = {v.kind for v in report.violations}
        assert "EdgeThroughMappedPoint" in kinds
        # edge (0,1) maps to (0,0)-(2,0), covering point index 2 at (1,0)
        assert any(
            v.kind == "EdgeThroughMappedPoint" and v.edges == (0,) and v.points == (2,)
            for v in report.violations
        )

    def test_t_junction_reports_only_the_pierced_edge(self):
        # edge 1 = (2,0)-(2,3) ends inside node-disjoint edge 0 = (0,0)-(4,0),
        # at a right angle; edge 2 = (4,0)-(2,3) joins the two
        tree = FreeTree(4, ((0, 1), (2, 3), (1, 3)))
        pts = PointSet((Point(0, 0), Point(4, 0), Point(2, 0), Point(2, 3)))
        report = verify_planar_only(tree, pts, Embedding((0, 1, 2, 3)))
        assert report.violations == (
            Violation("EdgeThroughMappedPoint", edges=(0,), points=(2,)),
        )

    def test_star_on_good_points_valid(self):
        tree = FreeTree(4, ((0, 1), (0, 2), (0, 3)))
        pts = PointSet((Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, -1)))
        assert verify_planar_only(tree, pts, Embedding((0, 1, 2, 3))).valid

    def test_proper_crossing_detected(self):
        tree = FreeTree(4, ((0, 1), (1, 2), (2, 3)))
        pts = PointSet((Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)))
        report = verify_planar_only(tree, pts, Embedding((0, 1, 2, 3)))
        assert not report.valid
        assert any(
            v.kind == "EdgeCrossesEdge" and v.edges == (0, 2) for v in report.violations
        )

    def test_adjacent_collinear_overlap_detected(self):
        tree = FreeTree(3, ((0, 1), (0, 2)))
        pts = PointSet((Point(0, 0), Point(4, 0), Point(2, 0)))
        report = verify_planar_only(tree, pts, Embedding((0, 1, 2)))
        assert not report.valid
        assert any(v.kind == "EdgesOverlapAtSegment" for v in report.violations)

    def test_boundary_hit_detected(self):
        # both points interior, but the notch blocks the segment between them
        notched = SimplePolygon(
            (Point(0, 0), Point(8, 0), Point(8, 2), Point(10, 0), Point(18, 0), Point(0, 18))
        )
        inst = make_instance(
            FreeTree(2, ((0, 1),)), PointSet((Point(7, 1), Point(10, 1))), notched
        )
        report = verify_embedding(inst, Embedding((0, 1)))
        assert not report.valid
        assert any(v.kind == "EdgeHitsBoundary" for v in report.violations)

    def test_report_canonically_ordered(self):
        # a path folded onto one line produces several violation kinds
        tree = FreeTree(4, ((0, 1), (1, 2), (2, 3)))
        pts = PointSet((Point(0, 0), Point(4, 0), Point(1, 0), Point(3, 0)))
        report = verify_planar_only(tree, pts, Embedding((0, 1, 2, 3)))
        assert not report.valid
        assert len(report.violations) > 1
        keys = [(v.kind, v.edges, v.points) for v in report.violations]
        assert keys == sorted(keys)
        assert len(set(report.violations)) == len(report.violations)


class TestReductionInstanceExamples:
    def test_solver_output_verifies(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        outcome = decide_embedding(instance)
        assert verify_embedding(instance, outcome.embedding).valid

    def test_hub_anywhere_but_anchor_never_verifies(self):
        # exhaustive over all bijections mapping the hub to the first group
        # point: apart from the anchor, everything is collinear, so some
        # conflict is unavoidable
        instance, meta = build_instance(validate_3p(7, [2, 2, 3]))
        others = [i for i in range(8) if i != 1]
        allowed = {"EdgeCrossesEdge", "EdgeThroughMappedPoint", "EdgesOverlapAtSegment"}
        for rest in itertools.permutations(others):
            mapping = (1,) + rest if meta.v0_node == 0 else None
            report = verify_embedding(instance, Embedding(mapping))
            assert not report.valid
            kinds = {v.kind for v in report.violations}
            assert kinds & allowed, mapping

    def test_boundary_check_only_adds_constraints(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        rng = random.Random(3)
        n = instance.tree.node_count
        for _ in range(200):
            mapping = list(range(n))
            rng.shuffle(mapping)
            emb = Embedding(tuple(mapping))
            if verify_embedding(instance, emb).valid:
                assert verify_planar_only(instance.tree, instance.points, emb).valid

    def test_edge_list_permutation_does_not_change_verdict(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        rng = random.Random(5)
        n = instance.tree.node_count
        for _ in range(40):
            mapping = list(range(n))
            rng.shuffle(mapping)
            emb = Embedding(tuple(mapping))
            base = verify_embedding(instance, emb).valid
            edges = list(instance.tree.edges)
            rng.shuffle(edges)
            permuted = make_instance(
                FreeTree(n, tuple(edges)), instance.points, instance.polygon
            )
            assert verify_embedding(permuted, emb).valid == base


class TestMutationOnTwoGroups:
    def test_single_cross_group_swap_invalidates(self):
        inst3p = validate_3p(7, [2, 2, 3, 2, 2, 3])
        instance, meta = build_instance(inst3p)
        outcome = decide_embedding(instance)
        emb = outcome.embedding
        assert verify_embedding(instance, emb).valid
        group1 = set(meta.group_points[0])
        group2 = set(meta.group_points[1])
        u = next(v for v in range(15) if emb.mapping[v] in group1)
        w = next(v for v in range(15) if emb.mapping[v] in group2)
        mutated = list(emb.mapping)
        mutated[u], mutated[w] = mutated[w], mutated[u]
        report = verify_embedding(instance, Embedding(tuple(mutated)))
        assert not report.valid
        kinds = {v.kind for v in report.violations}
        assert kinds & {"EdgeHitsBoundary", "EdgeCrossesEdge"}


class TestSweepAndReporter:
    def test_valid_reduction_reports_nothing_past_the_sweep(self, monkeypatch):
        # A valid embedding gives the one sweep no contact, so no violation
        # is ever derived.
        instance, _ = build_instance(validate_3p(22, [6, 6, 10, 7, 7, 8] * 2))
        embedding = decide_embedding(instance).embedding
        calls = []
        real = verifier.plane_contacts

        def counted(segments):
            calls.append(len(segments))
            return real(segments)

        def refuse(*args):
            raise AssertionError("a contact was reported for a valid embedding")

        monkeypatch.setattr(verifier, "plane_contacts", counted)
        monkeypatch.setattr(verifier, "_report_contact", refuse)
        assert verify_embedding(instance, embedding).valid
        assert verify_planar_only(instance.tree, instance.points, embedding).valid
        m = instance.tree.node_count - 1
        assert calls == [m + len(instance.polygon.vertices), m]

    def test_valid_2501_point_verify_rarely_calls_segment_relation(self, monkeypatch):
        # Almost every event is a chain point that replaces its status slot
        # in place, and almost every new neighbour lies clear of the other's
        # line, so the side prefilter rules it out.
        instance, _, _, mapping = solved_reduction(50, [17, 17, 16] * 50)
        calls = []
        real = geometry.segment_relation

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "segment_relation", counted)
        assert verify_embedding(instance, Embedding(tuple(mapping))).valid
        assert len(calls) < 200

    def test_swapped_mapping_reports_through_one_sweep(self, monkeypatch):
        instance, meta = build_instance(validate_3p(22, [6, 6, 10, 7, 7, 8] * 2))
        mapping = list(decide_embedding(instance).embedding.mapping)
        u, w = (mapping.index(group[0]) for group in meta.group_points[:2])
        mapping[u], mapping[w] = mapping[w], mapping[u]
        calls = []
        real = verifier.plane_contacts

        def counted(segments):
            calls.append(len(segments))
            return real(segments)

        monkeypatch.setattr(verifier, "plane_contacts", counted)
        report = verify_embedding(instance, Embedding(tuple(mapping)))
        assert calls == [instance.tree.node_count - 1 + len(instance.polygon.vertices)]
        assert not report.valid
        assert {v.kind for v in report.violations} & {"EdgeHitsBoundary", "EdgeCrossesEdge"}


def solved_reduction(b, values):
    """A reduction instance and its embedding that sends the i-th chain node
    to the i-th group point, valid when the chains fill the groups in input
    order."""
    instance, meta = build_instance(validate_3p(b, values))
    nodes = [v for path in meta.path_nodes for v in path]
    mapping = [meta.p0_point] * meta.node_count
    for v, p in zip(nodes, (p for group in meta.group_points for p in group)):
        mapping[v] = p
    return instance, meta, nodes, mapping


class TestPairwiseReference:
    """The sweep's reports equal those of the exhaustive pairwise reporter
    it replaced, oracles.pairwise_report, violation for violation."""

    def assert_same_report(self, tree, points, mapping, polygon=None):
        if polygon is None:
            got = verify_planar_only(tree, points, Embedding(tuple(mapping)))
        else:
            got = verify_embedding(make_instance(tree, points, polygon), Embedding(tuple(mapping)))
        assert got == pairwise_report(tree, points, mapping, polygon), mapping
        return got

    def test_random_planar_cases(self):
        rng = random.Random(41)
        invalid = 0
        for _ in range(600):
            n = rng.randint(1, 9)
            pts = rng.sample([(x, y) for x in range(7) for y in range(7)], n)
            tree = FreeTree(n, tuple((rng.randrange(i), i) for i in range(1, n)))
            mapping = list(range(n))
            rng.shuffle(mapping)
            points = PointSet(tuple(Point(x, y) for x, y in pts))
            invalid += not self.assert_same_report(tree, points, mapping).valid
        assert 200 < invalid < 550

    def test_catalogue_cases(self):
        rng = random.Random(43)
        invalid = 0
        for case in range(300):
            verts = POLYGON_CATALOG[case % len(POLYGON_CATALOG)]
            n = rng.randint(2, 9)
            instance, *_ = random_bounded_instance(rng, n, verts)
            mapping = list(range(n))
            rng.shuffle(mapping)
            report = self.assert_same_report(
                instance.tree, instance.points, mapping, instance.polygon
            )
            invalid += not report.valid
        assert 100 < invalid < 290

    def test_adjacent_group_swaps_at_2501_points(self):
        # The mutants of the benchmark's verify-large workload, with other
        # generator seeds: three image swaps between adjacent groups.
        instance, meta, nodes, mapping = solved_reduction(50, [17, 17, 16] * 50)
        group_of = {p: g for g, group in enumerate(meta.group_points) for p in group}
        for seed in (1, 2):
            rng = random.Random(f"verify-large:{seed}")
            mutant, swapped = list(mapping), set()
            while len(swapped) < 6:
                u, w = rng.sample(nodes, 2)
                if abs(group_of[mutant[u]] - group_of[mutant[w]]) == 1 and not swapped & {u, w}:
                    mutant[u], mutant[w] = mutant[w], mutant[u]
                    swapped |= {u, w}
            report = self.assert_same_report(
                instance.tree, instance.points, mutant, instance.polygon
            )
            assert len(report.violations) > 100

    def test_random_swaps_at_401_points(self):
        instance, _, _, mapping = solved_reduction(50, [17, 17, 16] * 8)
        assert verify_embedding(instance, Embedding(tuple(mapping))).valid
        rng = random.Random(47)
        for swaps in (1, 1, 2, 3, 5, 8):
            mutant = list(mapping)
            for _ in range(swaps):
                u, w = rng.sample(range(len(mutant)), 2)
                mutant[u], mutant[w] = mutant[w], mutant[u]
            report = self.assert_same_report(
                instance.tree, instance.points, mutant, instance.polygon
            )
            assert not report.valid


class TestOracleAgreement:
    def test_against_independent_checker(self):
        rng = random.Random(11)
        cases = 0
        while cases < 600:
            n = rng.randint(1, 7)
            cells = [(x, y) for x in range(9) for y in range(9)]
            pts = rng.sample(cells, n)
            edges = tuple((rng.randrange(i), i) for i in range(1, n))
            mapping = list(range(n))
            rng.shuffle(mapping)
            tree = FreeTree(n, edges)
            points = PointSet(tuple(Point(x, y) for x, y in pts))
            got = verify_planar_only(tree, points, Embedding(tuple(mapping))).valid
            want = brute_valid(edges, pts, mapping)
            assert got == want, (n, pts, edges, mapping)
            cases += 1

    def test_bounded_against_independent_checker(self):
        # Random and solved mappings in the catalogue polygons, with the
        # boundary in play; a swap of two images of a solved mapping gives
        # near misses.
        rng = random.Random(29)
        verdicts = []
        for case in range(400):
            verts = POLYGON_CATALOG[case % len(POLYGON_CATALOG)]
            n = rng.randint(1, 8)
            instance, edges, chosen, _ = random_bounded_instance(rng, n, verts)
            if case % 2:
                mapping = list(range(n))
                rng.shuffle(mapping)
            else:
                outcome = decide_embedding(instance)
                mapping = list(outcome.embedding.mapping) if outcome.embedding else list(range(n))
                if n > 1 and case % 4:
                    i, j = rng.sample(range(n), 2)
                    mapping[i], mapping[j] = mapping[j], mapping[i]
            got = verify_embedding(instance, Embedding(tuple(mapping))).valid
            assert got == brute_valid(edges, chosen, mapping, verts), (verts, chosen, edges, mapping)
            verdicts.append(got)
        assert 100 < sum(verdicts) < 300
