import itertools
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from polyembed import geometry, model
from polyembed.errors import ParseError, ValidationError
from polyembed.geometry import (
    Point,
    Record,
    Segment,
    SegmentRelation,
    SegmentRelationKind,
    SimplePolygon,
    signed_area2,
)
from polyembed.model import (
    Embedding,
    EmbeddingInstance,
    FreeTree,
    PointSet,
    VerificationReport,
    Violation,
    deserialize_embedding,
    deserialize_instance,
    deserialize_point_set,
    deserialize_report,
    deserialize_tree,
    make_instance,
    serialize_embedding,
    serialize_instance,
    serialize_point_set,
    serialize_report,
    serialize_tree,
    validate_instance,
)
from polyembed.reduction import (
    Partition,
    ReductionMeta,
    ThreePartitionInstance,
    build_instance,
    build_points,
    deserialize_meta,
    deserialize_partition,
    extract_partition,
    validate_3p,
)
from polyembed.render import render_svg
from polyembed.solver import (
    SolveOutcome,
    SolveStatus,
    VisibilityGraph,
    check_general_position,
    decide_embedding,
    embed_tree_unconstrained,
)
from polyembed.verifier import verify_embedding, verify_planar_only


class TestFreeTree:
    def test_small_valid(self):
        tree = FreeTree(4, ((0, 1), (1, 2), (1, 3)))
        assert len(tree.adjacency[1]) == 3
        assert tree.adjacency[0] == (1,)

    def test_single_node(self):
        assert FreeTree(1, ()).node_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError) as err:
            FreeTree(0, ())
        assert err.value.code == "EmptyTree"

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError) as err:
            FreeTree(3, ((0, 1), (1, 2), (2, 0)))
        assert err.value.code == "TreeHasCycle"

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError) as err:
            FreeTree(4, ((0, 1), (2, 3)))
        assert err.value.code == "TreeNotConnected"

    def test_huge_node_count_rejected_without_allocating(self):
        with pytest.raises(ValidationError) as err:
            deserialize_tree('{"node_count": 1000000000000, "tree_edges": []}')
        assert err.value.code == "TreeNotConnected"

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError) as err:
            FreeTree(2, ((0, 0),))
        assert err.value.code == "TreeHasCycle"

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError) as err:
            FreeTree(3, ((0, 1), (1, 0), (1, 2)))
        assert err.value.code == "TreeHasCycle"

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            FreeTree(2, ((0, 5),))
        assert err.value.code == "NodeIndexOutOfRange"

    @pytest.mark.parametrize(
        "n, edges, code, message",
        [
            # The first edge that leaves the range or closes a cycle decides.
            (4, ((0, 1), (1, 2), (2, 0), (0, 9)), "TreeHasCycle", "edge (2, 0) closes a cycle"),
            (4, ((0, 1), (1, 2), (2, 0), (0, -1)), "TreeHasCycle", "edge (2, 0) closes a cycle"),
            (4, ((0, 9), (0, 1), (1, 2), (2, 0)), "NodeIndexOutOfRange", "edge (0, 9) leaves [0, 4)"),
            (4, ((0, 1), (3, 4), (1, 0)), "NodeIndexOutOfRange", "edge (3, 4) leaves [0, 4)"),
            (4, ((0, 1), (1, 0), (3, 4)), "TreeHasCycle", "duplicate edge (0, 1)"),
            # A self-loop or a duplicate with exactly n - 1 edges, and with other counts.
            (3, ((0, 0), (1, 2)), "TreeHasCycle", "self-loop at node 0"),
            (3, ((1, 2), (2, 2)), "TreeHasCycle", "self-loop at node 2"),
            (3, ((0, 1), (1, 0)), "TreeHasCycle", "duplicate edge (0, 1)"),
            (4, ((2, 3), (1, 0), (0, 1)), "TreeHasCycle", "duplicate edge (0, 1)"),
            (3, ((0, 0),), "TreeHasCycle", "self-loop at node 0"),
            (4, ((0, 1), (1, 0)), "TreeHasCycle", "duplicate edge (0, 1)"),
            (3, ((0, 1), (1, 2), (2, 1)), "TreeHasCycle", "duplicate edge (1, 2)"),
            # n - 1 edges that close a cycle and leave a node isolated.
            (4, ((0, 1), (1, 2), (2, 0)), "TreeHasCycle", "edge (2, 0) closes a cycle"),
            (5, ((0, 4), (1, 2), (2, 3), (3, 1)), "TreeHasCycle", "edge (3, 1) closes a cycle"),
            (4, ((0, 1), (1, 2)), "TreeNotConnected", "4 nodes need 3 edges, got 2"),
        ],
    )
    def test_error_precedence(self, n, edges, code, message):
        with pytest.raises(ValidationError) as err:
            FreeTree(n, edges)
        assert (err.value.code, str(err.value)) == (code, f"{code}: {message}")

    def test_cycle_under_a_huge_node_count_allocates_nothing_for_it(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                FreeTree(10**9, ((0, 1), (1, 0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "TreeHasCycle: duplicate edge (0, 1)"
        assert peak < 1 << 20

    def test_long_chain_and_star_accepted(self):
        n = 20_001
        chain = FreeTree(n, tuple((i, i + 1) for i in range(n - 1)))
        star = FreeTree(n, tuple((0, i) for i in range(1, n)))
        assert len(chain.adjacency[0]) == 1 and len(chain.adjacency[n // 2]) == 2
        assert len(star.adjacency[0]) == n - 1 and len(star.adjacency[n - 1]) == 1
        # Path halving must not depend on the order of an edge's ends.
        FreeTree(n, tuple((i + 1, i) for i in range(n - 1)))
        FreeTree(n, tuple((i, 0) for i in range(n - 1, 0, -1)))

    def test_matches_unionfind_oracle_on_all_small_graphs(self):
        # every subset of possible edges, n <= 6
        for n in range(1, 7):
            all_edges = list(itertools.combinations(range(n), 2))
            for bits in range(2 ** len(all_edges)):
                edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for u, v in edges:
                    parent[find(u)] = find(v)
                oracle = len(edges) == n - 1 and len({find(v) for v in range(n)}) == 1
                try:
                    FreeTree(n, edges)
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == oracle, (n, edges)


class TestPointSet:
    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError) as err:
            PointSet((Point(1, 1), Point(2, 2), Point(1, 1)))
        assert err.value.code == "DuplicatePoint"

    def test_indexing(self):
        ps = PointSet((Point(1, 2), Point(3, 4)))
        assert len(ps) == 2 and ps[1] == Point(3, 4)

    def test_built_and_parsed_point_sets_agree(self):
        coords = [(1, 2), (-3, 7), (0, 0), (5, 2)]
        built = PointSet(tuple(Point(x, y) for x, y in coords))
        parsed = deserialize_point_set(json.dumps({"points": coords}))
        assert "points" not in vars(parsed)  # no Point is made until asked for
        assert parsed == built and not parsed != built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built) and str(parsed) == str(built)
        assert parsed.points == built.points and list(parsed) == list(built)
        assert parsed.points is parsed.points and parsed[3] == Point(5, 2)
        assert parsed.xs == built.xs == (1, -3, 0, 5) and parsed.ys == built.ys
        assert PointSet(tuple(Point(x, y) for x, y in coords[::-1])) != parsed
        # The reduction's points, made from coordinates, against Points and a file.
        pts, _ = build_points(2, 7)
        again = PointSet(tuple(Point(p.x, p.y) for p in pts.points))
        instance, _ = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        parsed = deserialize_instance(serialize_instance(instance)).points
        assert pts == again == instance.points == parsed
        assert len({hash(pts), hash(again), hash(parsed)}) == 1
        assert repr(pts) == repr(again) == repr(parsed)
        assert serialize_point_set(pts) == serialize_point_set(again)

    def test_flat_paths_make_no_point(self):
        # The whole reduction pipeline, on the built and the parsed instance.
        instance, meta = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        parsed = deserialize_instance(serialize_instance(instance))
        outcome = decide_embedding(parsed)
        assert verify_embedding(parsed, outcome.embedding).valid
        extract_partition(meta, outcome.embedding)
        render_svg(parsed, outcome.embedding, meta.p0_point)
        assert "points" not in vars(parsed.points) and "points" not in vars(instance.points)
        # The free embedder and its general-position check, on a parabola.
        free = PointSet._from_xy(range(8), [t * t for t in range(8)])
        tree = FreeTree(8, tuple((t // 2, t) for t in range(1, 8)))
        assert check_general_position(free) is None
        assert verify_planar_only(tree, free, embed_tree_unconstrained(tree, free)).valid
        assert "points" not in vars(free)
        # A point outside the polygon is named with its coordinates.
        outside = PointSet._from_xy((1, 9), (1, 1))
        triangle = SimplePolygon((Point(0, 0), Point(9, 0), Point(0, 9)))
        with pytest.raises(ValidationError) as err:
            make_instance(FreeTree(2, ((0, 1),)), outside, triangle)
        assert str(err.value) == (
            "PointOnOrOutsideBoundary: point 1 at Point(x=9, y=1) is not strictly inside the polygon"
        )
        assert "points" not in vars(outside)


class TestEmbedding:
    def test_permutation_accepted(self):
        assert Embedding((2, 0, 1)).mapping == (2, 0, 1)

    def test_not_bijection_rejected(self):
        with pytest.raises(ValidationError) as err:
            Embedding((0, 0, 1))
        assert err.value.code == "NotBijection"

    def test_deserialize_not_bijection(self):
        with pytest.raises(ValidationError) as err:
            deserialize_embedding('{"mapping": [0, 0, 1]}')
        assert err.value.code == "NotBijection"


class TestValidateInstance:
    def test_roundtrip_of_generated_instance(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        text = serialize_instance(instance)
        again = deserialize_instance(text)
        assert again == instance
        assert serialize_instance(again) == text

    def test_node_count_mismatch(self):
        raw = {
            "polygon": [[0, 0], [9, 0], [0, 9]],
            "points": [[1, 1], [2, 1], [3, 1]],
            "tree_edges": [[0, 1]],
        }
        with pytest.raises(ValidationError) as err:
            validate_instance(raw)
        assert err.value.code == "NodeCountMismatch"

    def test_polygon_vertex_as_point_rejected(self):
        raw = {
            "polygon": [[0, 0], [9, 0], [0, 9]],
            "points": [[0, 0], [1, 1]],
            "tree_edges": [[0, 1]],
        }
        with pytest.raises(ValidationError) as err:
            validate_instance(raw)
        assert err.value.code == "PointOnOrOutsideBoundary"

    def test_nonsimple_polygon_rejected(self):
        raw = {
            "polygon": [[0, 0], [2, 2], [2, 0], [0, 2]],
            "points": [[1, 1]],
            "tree_edges": [],
        }
        with pytest.raises(ValidationError) as err:
            validate_instance(raw)
        assert err.value.code == "PolygonNotSimple"

    def test_cw_polygon_normalized(self):
        raw = {
            "polygon": [[0, 0], [0, 9], [9, 0]],
            "points": [[1, 1]],
            "tree_edges": [],
        }
        inst = validate_instance(raw)
        assert signed_area2(inst.polygon) > 0

    def test_disconnected_tree_named(self):
        raw = {
            "polygon": [[0, 0], [9, 0], [0, 9]],
            "points": [[1, 1], [2, 1], [3, 1], [1, 2]],
            "tree_edges": [[0, 1], [2, 3]],
        }
        with pytest.raises(ValidationError) as err:
            validate_instance(raw)
        assert err.value.code == "TreeNotConnected"


class TestSerialization:
    def test_canonical_bytes_stable(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        a = serialize_instance(instance)
        b = serialize_instance(deserialize_instance(a))
        assert a == b
        assert a.endswith("\n")
        # keys sorted, no whitespace
        assert a.index('"points"') < a.index('"polygon"') < a.index('"tree_edges"')

    def test_float_coordinate_rejected(self):
        with pytest.raises(ParseError):
            deserialize_instance(
                '{"polygon": [[0,0],[9,0],[0,9]], "points": [[1.5,1]], "tree_edges": []}'
            )

    def test_string_coordinate_rejected(self):
        with pytest.raises(ParseError):
            deserialize_instance(
                '{"polygon": [[0,0],[9,0],[0,9]], "points": [["1",1]], "tree_edges": []}'
            )

    def test_bool_coordinate_rejected(self):
        with pytest.raises(ParseError):
            deserialize_instance(
                '{"polygon": [[0,0],[9,0],[0,9]], "points": [[true,1]], "tree_edges": []}'
            )

    def test_coordinate_beyond_bound_rejected(self):
        big = 2**31
        with pytest.raises(ParseError):
            deserialize_point_set(f'{{"points": [[{big}, 1]]}}')

    def test_coordinate_at_bound_accepted(self):
        top = 2**31 - 1
        ps = deserialize_point_set(f'{{"points": [[{top}, {-top}]]}}')
        assert ps[0] == Point(top, -top)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            deserialize_instance('{"polygon": [[0,0],')
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ParseError, match="nesting too deep"):
            deserialize_instance("[" * 200_000)

    @pytest.mark.parametrize(
        "parse, text, limited",
        [
            (
                deserialize_instance,
                '{"polygon": [[0,0],[9,0],[0,9]], "points": [[%s,1]], "tree_edges": []}',
                False,
            ),
            (deserialize_tree, '{"node_count": %s, "tree_edges": []}', True),
            (deserialize_embedding, '{"mapping": [%s]}', True),
            (
                deserialize_meta,
                '{"B": %s, "n": 1, "v0_node": 0, "path_nodes": [[1]],'
                ' "group_points": [[1]], "p0_point": 0}',
                True,
            ),
        ],
        ids=["instance", "tree", "embedding", "meta"],
    )
    def test_too_long_integer_literal_rejected(self, parse, text, limited):
        # json.loads raised a bare ValueError for a literal past Python's
        # int() digit limit (4300 by default). With no limit, only the
        # coordinate is still refused at parse time, by COORD_LIMIT.
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limited and not 0 < digit_limit < 5000:
            pytest.skip("this Python parses a 5000-digit literal")
        with pytest.raises(ParseError):
            parse(text % ("9" * 5000))

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            deserialize_embedding('{"mapping": [0], "extra": 1}')

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            deserialize_instance('{"points": [[1,1]], "tree_edges": []}')

    @pytest.mark.parametrize(
        "edges, message",
        [
            ("[[0]]", "tree_edges[0]: expected [u, v]"),
            ("[[0,-1]]", "tree_edges[0][1]: expected a non-negative index"),
            ("[[0,true]]", "tree_edges[0][1]: expected an integer"),
            ("[0]", "tree_edges[0]: expected an array"),
        ],
    )
    def test_malformed_edge_list_rejected(self, edges, message):
        texts = (
            f'{{"polygon": [[0,0],[9,0],[0,9]], "points": [[1,1]], "tree_edges": {edges}}}',
            f'{{"node_count": 2, "tree_edges": {edges}}}',
        )
        for parse, text in zip((deserialize_instance, deserialize_tree), texts):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == message, parse.__name__

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (
                deserialize_meta,
                '{"B": 7, "n": 1, "v0_node": 0, "path_nodes": [1],'
                ' "group_points": [], "p0_point": 0}',
                "path_nodes[0]: expected an array",
            ),
            (
                deserialize_meta,
                '{"B": 7, "n": 1, "v0_node": 0, "path_nodes": [[1]],'
                ' "group_points": [1], "p0_point": 0}',
                "group_points[0]: expected an array",
            ),
            (deserialize_partition, '{"sets": [[0, 1, 2], 3]}', "sets[1]: expected an array"),
            (
                deserialize_report,
                '{"valid": false, "violations":'
                ' [{"kind": "EdgeCrossesEdge", "edges": [true], "points": []}]}',
                "violations[0].edges[0]: expected an integer",
            ),
            (
                deserialize_report,
                '{"valid":true,"violations":[{"kind":"EdgeHitsBoundary","edges":[0],"points":[]}]}',
                "valid: expected false with 1 violations",
            ),
            (deserialize_report, '{"valid": 1, "violations": []}', "valid: expected a boolean"),
            (
                deserialize_report,
                '{"valid": false, "violations":'
                ' [{"kind": "EdgeTouchesEdge", "edges": [0, 1], "points": []}]}',
                "violations[0].kind: unknown kind 'EdgeTouchesEdge'",
            ),
        ],
    )
    def test_malformed_index_array_rejected(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "key, entry, message",
        [
            ("points", [True, 1], "points[2500][0]: expected an integer"),
            (
                "points",
                [1, 2**31],
                "points[2500][1]: coordinate 2147483648 exceeds the 2^31-1 bound",
            ),
            ("points", [1, 1, 1], "points[2500]: expected [x, y]"),
            ("polygon", [0, False], "polygon[149][1]: expected an integer"),
            ("tree_edges", [-1, 0], "tree_edges[2499][0]: expected a non-negative index"),
            ("tree_edges", [0, 1, 2], "tree_edges[2499]: expected [u, v]"),
            ("mapping", -1, "mapping[2500]: expected a non-negative index"),
        ],
    )
    def test_bad_last_entry_of_large_file(self, key, entry, message):
        # 2501 points: every entry before the last is read on the fast path,
        # and the last one still fails with its own path.
        instance, _ = build_instance(validate_3p(50, [17, 17, 16] * 50))
        if key == "mapping":
            obj, parse = {"mapping": list(range(2501))}, deserialize_embedding
        else:
            obj, parse = json.loads(serialize_instance(instance)), deserialize_instance
        obj[key][-1] = entry
        with pytest.raises(ParseError) as err:
            parse(json.dumps(obj))
        assert str(err.value) == message

    def test_embedding_roundtrip(self):
        emb = Embedding((3, 1, 0, 2))
        assert deserialize_embedding(serialize_embedding(emb)) == emb

    def test_point_set_roundtrip(self):
        ps = PointSet((Point(0, 0), Point(-3, 7)))
        assert deserialize_point_set(serialize_point_set(ps)) == ps

    def test_tree_roundtrip(self):
        tree = FreeTree(3, ((0, 1), (0, 2)))
        assert deserialize_tree(serialize_tree(tree)) == tree

    def test_report_roundtrip(self):
        report = VerificationReport._from_tuples(
            {("EdgeCrossesEdge", (0, 2), ()), ("EdgeThroughMappedPoint", (1,), (4,))}
        )
        assert deserialize_report(serialize_report(report)) == report

    def test_structured_mutations_never_validate(self):
        instance, _ = build_instance(validate_3p(7, [2, 2, 3]))
        base = json.loads(serialize_instance(instance))
        mutations = []
        dropped = dict(base)
        del dropped["points"]
        mutations.append(dropped)
        dup = json.loads(json.dumps(base))
        dup["points"][2] = dup["points"][1]
        mutations.append(dup)
        cyc = json.loads(json.dumps(base))
        cyc["tree_edges"][0] = [1, 2]
        mutations.append(cyc)
        outside = json.loads(json.dumps(base))
        outside["points"][0] = [100, 100]
        mutations.append(outside)
        floaty = json.loads(json.dumps(base))
        floaty["points"][0] = [1.0, 7]
        mutations.append(floaty)
        for raw in mutations:
            with pytest.raises((ParseError, ValidationError)):
                deserialize_instance(json.dumps(raw))

    @given(st.text(max_size=60))
    def test_fuzzed_text_never_yields_instance(self, text):
        try:
            deserialize_instance(text)
        except (ParseError, ValidationError):
            return
        raise AssertionError(f"garbage accepted: {text!r}")


class TestReportInvariants:
    def test_valid_iff_no_violations(self):
        assert VerificationReport._from_tuples(set()).valid
        rep = VerificationReport._from_tuples({("EdgeHitsBoundary", (0,), ())})
        assert not rep.valid
        with pytest.raises(ValueError):
            VerificationReport(valid=True, violations=(Violation("EdgeHitsBoundary", edges=(0,)),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Violation("SomethingElse")

    def test_from_violations_sorts_and_dedupes(self):
        a = Violation("EdgeHitsBoundary", edges=(3,))
        b = Violation("EdgeCrossesEdge", edges=(0, 1))
        rep = VerificationReport._from_tuples(set(map(Violation._key, [a, b, a])))
        assert rep.violations == (b, a)


def test_make_instance_counts_must_match():
    tri = SimplePolygon((Point(0, 0), Point(9, 0), Point(0, 9)))
    tree = FreeTree(2, ((0, 1),))
    with pytest.raises(ValidationError) as err:
        make_instance(tree, PointSet((Point(1, 1), Point(2, 1), Point(3, 1))), tri)
    assert err.value.code == "NodeCountMismatch"


TRI = SimplePolygon((Point(0, 0), Point(10, 0), Point(0, 10)))
ONE_POINT = make_instance(FreeTree(1, ()), PointSet((Point(1, 1),)), TRI)


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda: FreeTree(3, ((0, 1.7), (1, 2))), "NonIntegerNode"),
        (lambda: FreeTree(3.0, ((0, 1), (1, 2))), "NonIntegerNode"),
        (lambda: FreeTree(2, ((False, True),)), "NonIntegerNode"),
        (
            lambda: make_instance(FreeTree(1, ()), PointSet((Point(1.5, 1),)), TRI),
            "NonIntegerCoordinate",
        ),
        (lambda: SimplePolygon(TRI.vertices[:2] + (Point(0, "9"),)), "NonIntegerCoordinate"),
        (lambda: decide_embedding(ONE_POINT, root_node=1.0), "InvalidConfig"),
        (lambda: decide_embedding(ONE_POINT, root_node=True), "InvalidConfig"),
        (lambda: decide_embedding(ONE_POINT, time_limit_ms="5"), "InvalidConfig"),
        (lambda: decide_embedding(ONE_POINT, time_limit_ms=True), "InvalidConfig"),
        (lambda: decide_embedding(ONE_POINT, time_limit_ms=1.5), "InvalidConfig"),
    ],
    ids=[
        "tree-edge-float", "tree-count-float", "tree-edge-bool", "point-float",
        "vertex-string", "root-float", "root-bool", "limit-string", "limit-bool",
        "limit-float",
    ],
)
def test_non_integers_rejected(make, code):
    # Nothing is truncated or converted: 1.7 is not node 1.
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.code == code


class TestEmbeddingInstance:
    def test_invalid_instances_rejected_at_construction(self):
        edge, path = FreeTree(2, ((0, 1),)), FreeTree(3, ((0, 1), (1, 2)))
        cases = [
            (edge, (Point(20, 20), Point(21, 25)), "PointOnOrOutsideBoundary"),
            (edge, (Point(1, 1), Point(2, 1), Point(3, 1)), "NodeCountMismatch"),
            (path, (Point(1, 1), Point(2, 1)), "NodeCountMismatch"),
        ]
        for tree, pts, code in cases:
            with pytest.raises(ValidationError) as err:
                EmbeddingInstance(tree, PointSet(pts), TRI)
            assert err.value.code == code

    def test_direct_construction_normalizes_polygon(self):
        cw = SimplePolygon((Point(0, 0), Point(0, 10), Point(10, 0)))
        tree, pts = FreeTree(2, ((0, 1),)), PointSet((Point(1, 1), Point(2, 1)))
        direct = EmbeddingInstance(tree, pts, cw)
        assert signed_area2(direct.polygon) > 0
        assert direct == make_instance(tree, pts, cw)

    def test_polygon_swept_once_in_either_orientation(self, monkeypatch):
        # The reversed copy of a clockwise polygon keeps its verdict, so
        # locating the points does not sweep the same cycle again.
        calls = []
        real = geometry.plane_contacts

        def counted(segments):
            calls.append(len(segments))
            return real(segments)

        monkeypatch.setattr(geometry, "plane_contacts", counted)
        tree, pts = FreeTree(2, ((0, 1),)), PointSet((Point(1, 1), Point(2, 1)))
        ccw = (Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10))
        for square in (ccw, ccw[:1] + ccw[:0:-1]):
            calls.clear()
            EmbeddingInstance(tree, pts, SimplePolygon(square))
            assert calls == [4], square


# ---------------------------------------------------------------------------
# The record contract, shared by every model type


def _record_cases():
    """(class, positional args, defaulted trailing fields) for every record.

    Each case is valid, and its defaulted fields take their default values,
    so omitting them builds an equal record.
    """
    tri = SimplePolygon((Point(0, 0), Point(10, 0), Point(0, 10)))
    pts = PointSet((Point(1, 1), Point(2, 1)))
    tree = FreeTree(2, ((0, 1),))
    _, meta = build_instance(validate_3p(7, [2, 2, 3]))
    return [
        (Point, (1, 2), 0),
        (Segment, (Point(0, 0), Point(1, 2)), 0),
        (SegmentRelation, (SegmentRelationKind.DISJOINT, None), 1),
        (SimplePolygon, (tri.vertices,), 0),
        (FreeTree, (3, ((0, 1), (1, 2))), 0),
        (PointSet, (pts.points,), 0),
        (Embedding, ((1, 0),), 0),
        (EmbeddingInstance, (tree, pts, tri), 0),
        (Violation, ("EdgeCrossesEdge", (), ()), 2),
        (VerificationReport, (True, ()), 1),
        (ThreePartitionInstance, (7, (2, 2, 3)), 0),
        (Partition, (((0, 1, 2),),), 0),
        (ReductionMeta, tuple(getattr(meta, f) for f in ReductionMeta._fields), 0),
        (VisibilityGraph, (((1,), (0,)), pts), 0),
        (SolveOutcome, (SolveStatus.INFEASIBLE, None, None), 2),
    ]


RECORD_CASES = _record_cases()


def test_record_cases_cover_every_record_class():
    from polyembed import reduction, solver

    found = {
        cls
        for module in (geometry, model, reduction, solver)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
    }
    assert found == {cls for cls, _, _ in RECORD_CASES}
    assert len(found) == 15


@pytest.mark.parametrize(
    "cls, args, defaults", RECORD_CASES, ids=[cls.__name__ for cls, _, _ in RECORD_CASES]
)
def test_record_contract(cls, args, defaults):
    record = cls(*args)
    fields = cls._fields
    values = tuple(getattr(record, f) for f in fields)
    # Keyword and positional construction agree, and defaults fill the tail.
    assert cls(**dict(zip(fields, args))) == record
    assert cls(*args[: len(args) - defaults]) == record
    # Equal by value, hashed alike, never equal to a plain tuple.
    twin = cls(*args)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) and len({twin, record}) == 1
    assert record != values and values != record
    assert record != (values[0] if len(values) == 1 else None)  # nor its one field
    # Frozen: no field or new attribute can be set or deleted.
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values
    expect = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({expect})"


def test_record_reprs():
    assert repr(Point(1, 2)) == "Point(x=1, y=2)"
    assert repr(Embedding((1, 0))) == "Embedding(mapping=(1, 0))"
    assert repr(Violation("EdgeCrossesEdge", (0, 1))) == (
        "Violation(kind='EdgeCrossesEdge', edges=(0, 1), points=())"
    )
    assert repr(SolveOutcome(SolveStatus.TIMED_OUT, elapsed_ms=5)) == (
        "SolveOutcome(status=<SolveStatus.TIMED_OUT: 'timed_out'>, embedding=None, elapsed_ms=5)"
    )
    with pytest.raises(ValidationError) as err:
        PointSet((Point(3, 4), Point(1, 2), Point(3, 4)))
    assert str(err.value) == "DuplicatePoint: points 0 and 2 coincide at Point(x=3, y=4)"


def test_records_of_different_classes_differ():
    assert PointSet(()) != Embedding(())
    assert Embedding((0, 1, 2)) != Partition(((0, 1, 2),))
    assert Violation("NotBijection") != VerificationReport(True)


def test_point_order_is_by_x_then_y():
    a, b, c = Point(0, 5), Point(1, 0), Point(1, 2)
    assert a < b < c and c > b > a
    assert a <= a and a >= a and not a < a and not a > a
    assert sorted([c, a, b]) == [a, b, c] and max([a, c, b]) == c
    with pytest.raises(TypeError):
        a < (0, 6)
    with pytest.raises(TypeError):
        Segment(a, b) < Segment(a, c)


def test_cached_properties_stay_on_the_instance():
    tree = FreeTree(3, ((0, 1), (1, 2)))
    assert tree.adjacency is tree.adjacency
    assert vars(tree)["adjacency"] == ((1,), (0, 2), (1,))
    polygon = SimplePolygon((Point(0, 0), Point(10, 0), Point(0, 10)))
    assert polygon.edge_boxes is polygon.edge_boxes and "edge_boxes" in vars(polygon)
    graph = VisibilityGraph(((1,), (0,)), PointSet((Point(1, 1), Point(2, 1))))
    assert graph.runs is graph.runs and graph.matrix is graph.matrix
    assert graph.runs == ((0, 1),)
    # A cached value is not a field: equality and hashing ignore it.
    assert tree == FreeTree(3, ((0, 1), (1, 2)))
