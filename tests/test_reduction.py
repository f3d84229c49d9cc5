import itertools

import pytest

from polyembed.errors import ValidationError
from polyembed.geometry import (
    COORD_LIMIT,
    Point,
    PointLocation,
    is_simple,
    point_in_polygon,
)
from polyembed.model import Embedding
from polyembed.reduction import (
    Partition,
    ReductionMeta,
    ThreePartitionInstance,
    brute_force_3p,
    build_instance,
    build_points,
    build_polygon,
    build_tree,
    deserialize_meta,
    deserialize_partition,
    extract_partition,
    partition_solves,
    serialize_meta,
    serialize_partition,
    validate_3p,
)


class TestValidate3p:
    def test_valid_minimal(self):
        inst = validate_3p(7, [2, 2, 3])
        assert inst.group_count == 1
        assert inst.values == (2, 2, 3)

    def test_element_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            validate_3p(7, [1, 3, 3])
        assert err.value.code == "ElementOutOfRange"
        assert err.value.details["index"] == 0

    def test_sum_mismatch(self):
        with pytest.raises(ValidationError) as err:
            validate_3p(7, [2, 2, 2])
        assert err.value.code == "SumMismatch"

    def test_length_not_multiple_of_3(self):
        with pytest.raises(ValidationError) as err:
            validate_3p(7, [2, 2, 3, 2])
        assert err.value.code == "LengthNotMultipleOf3"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate_3p(7, [])
        assert err.value.code == "LengthNotMultipleOf3"

    def test_boundary_values_strictness(self):
        # 4*a > B and 2*a < B must both be strict
        with pytest.raises(ValidationError):
            validate_3p(8, [2, 3, 3])  # 4*2 == 8
        with pytest.raises(ValidationError):
            validate_3p(8, [4, 2, 2])  # 2*4 == 8


def _meta(**fields):
    # The generated meta with ``fields`` replaced, built by its constructor.
    _, meta = build_instance(validate_3p(7, [2, 2, 3]))
    kept = {
        "B": meta.B,
        "n": meta.n,
        "v0_node": meta.v0_node,
        "path_nodes": meta.path_nodes,
        "group_points": meta.group_points,
        "p0_point": meta.p0_point,
    }
    return ReductionMeta(**{**kept, **fields})


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda: validate_3p(7, [2.9, 2, 3]), "NonIntegerValue"),
        (lambda: validate_3p(7, ["2", "2", "3"]), "NonIntegerValue"),
        (lambda: validate_3p(7.0, [2, 2, 3]), "NonIntegerValue"),
        (lambda: validate_3p(7, [True, 3, 3]), "NonIntegerValue"),
        (lambda: Partition(((0, 1, 2.5),)), "InvalidPartition"),
        (lambda: Partition(((False, True, 2),)), "InvalidPartition"),
        (lambda: _meta(B=7.0), "InvalidMeta"),
        (lambda: _meta(n=True), "InvalidMeta"),
        (lambda: _meta(v0_node=0.0), "InvalidMeta"),
        (lambda: _meta(p0_point=False), "InvalidMeta"),
        (lambda: _meta(path_nodes=((1, 2), (3, 4), (5, 6, 7.0))), "InvalidMeta"),
        (lambda: _meta(group_points=((1, 2, 3, 4, 5, 6, 7.0),)), "InvalidMeta"),
    ],
    ids=[
        "value-float", "value-string", "target-float", "value-bool",
        "partition-float", "partition-bool", "meta-B", "meta-n", "meta-v0",
        "meta-p0", "meta-path", "meta-group",
    ],
)
def test_non_integers_rejected(make, code):
    # Nothing is truncated or converted: 2.9 is not 2, and "2" is not 2.
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.code == code


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda: build_instance(ThreePartitionInstance(10, (1, 1, 8))), "ElementOutOfRange"),
        (lambda: ThreePartitionInstance(7, (2, 2, 2)), "SumMismatch"),
    ],
    ids=["out-of-range", "sum"],
)
def test_direct_3p_construction_checked(make, code):
    # Built without validate_3p, an instance is checked all the same.
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.code == code


class TestBuildTree:
    def test_example_shape(self):
        tree, paths = build_tree(validate_3p(7, [2, 2, 3]))
        assert tree.node_count == 8
        assert len(tree.adjacency[0]) == 3
        assert [len(p) for p in paths] == [2, 2, 3]
        # heads are adjacent to the hub
        for path in paths:
            assert (0, path[0]) in tree.edges

    def test_node_count_law(self):
        for B, a in [(7, [2, 2, 3]), (10, [3, 3, 4]), (7, [2, 2, 3, 2, 2, 3])]:
            inst = validate_3p(B, a)
            tree, _ = build_tree(inst)
            assert tree.node_count == inst.group_count * inst.target + 1

    def test_paths_are_chains(self):
        tree, paths = build_tree(validate_3p(10, [3, 3, 4]))
        for path in paths:
            for a, b in zip(path, path[1:]):
                assert (a, b) in tree.edges or (b, a) in tree.edges


class TestBuildPolygon:
    def test_single_group_is_triangle(self):
        poly = build_polygon(1, 7)
        assert poly.vertices == (Point(0, 0), Point(9, 0), Point(0, 9))

    def test_two_groups_has_one_notch(self):
        poly = build_polygon(2, 7)
        assert poly.vertices == (
            Point(0, 0),
            Point(8, 0),
            Point(8, 2),
            Point(10, 0),
            Point(18, 0),
            Point(0, 18),
        )

    def test_sweep_vertex_count_and_simplicity(self):
        for n in range(1, 11):
            for B in range(1, 21):
                poly = build_polygon(n, B)
                assert len(poly.vertices) == 3 * n, (n, B)
                assert is_simple(poly), (n, B)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            build_polygon(0, 7)
        with pytest.raises(ValidationError):
            build_polygon(1, 0)

    def test_coordinate_bound(self):
        # build_instance never gets here: build_points checks the bound first.
        with pytest.raises(ValidationError) as err:
            build_polygon(1, COORD_LIMIT)
        assert err.value.code == "CoordinateOutOfRange"


class TestBuildPoints:
    def test_single_group_coordinates(self):
        pts, groups = build_points(1, 7)
        assert pts[0] == Point(1, 7)
        assert [pts[i] for i in groups[0]] == [Point(j, 1) for j in range(1, 8)]

    def test_second_group_offset(self):
        pts, groups = build_points(2, 7)
        assert pts[0] == Point(1, 16)
        assert [pts[i] for i in groups[1]] == [Point(9 + j, 1) for j in range(1, 8)]

    def test_all_points_strictly_inside_sweep(self):
        for n in range(1, 11):
            for B in range(3, 21):
                poly = build_polygon(n, B)
                pts, _ = build_points(n, B)
                for p in pts:
                    assert point_in_polygon(p, poly) is PointLocation.INSIDE, (n, B, p)

    def test_b_floor(self):
        with pytest.raises(ValidationError):
            build_points(1, 2)

    def test_no_groups_rejected(self):
        with pytest.raises(ValidationError) as err:
            build_points(0, 7)
        assert err.value.code == "InvalidParameter"


class TestBuildInstance:
    def test_single_group_assembly(self):
        instance, meta = build_instance(validate_3p(7, [2, 2, 3]))
        assert len(instance.points) == 8
        assert instance.tree.node_count == 8
        assert len(instance.polygon.vertices) == 3
        assert meta.v0_node == 0 and meta.p0_point == 0
        assert meta.B == 7 and meta.n == 1

    def test_two_group_assembly(self):
        instance, meta = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        assert len(instance.points) == 15
        assert instance.tree.node_count == 15
        assert len(instance.polygon.vertices) == 6
        assert len(meta.group_points) == 2

    def test_sizes_always_match(self):
        for B, a in [(6, [2, 2, 2]), (10, [3, 3, 4]), (12, [4] * 6)]:
            instance, _ = build_instance(validate_3p(B, a))
            assert len(instance.points) == instance.tree.node_count

    def test_huge_group_size_rejected_before_building_tree(self):
        # The tree would have n*B + 1 nodes; the coordinate bound must reject
        # the input before any of them is allocated.
        inst3p = validate_3p(10**12, [333333333333, 333333333333, 333333333334])
        with pytest.raises(ValidationError) as err:
            build_instance(inst3p)
        assert err.value.code == "CoordinateOutOfRange"

    def test_deterministic_serialization(self):
        from polyembed.model import serialize_instance

        inst3p = validate_3p(7, [2, 2, 3, 2, 2, 3])
        a, _ = build_instance(inst3p)
        b, _ = build_instance(inst3p)
        assert serialize_instance(a) == serialize_instance(b)


class TestBruteForce3p:
    def test_forced_triple(self):
        part = brute_force_3p(validate_3p(7, [2, 2, 3]))
        assert part == Partition(((0, 1, 2),))

    def test_known_infeasible(self):
        inst = validate_3p(16, [5, 5, 5, 5, 5, 7])
        # independent cross-check: no triple of the multiset reaches 16
        sums = {
            sum(c) for c in itertools.combinations(inst.values, 3)
        }
        assert 16 not in sums
        assert brute_force_3p(inst) is None

    def test_two_groups(self):
        inst = validate_3p(7, [2, 2, 3, 2, 2, 3])
        part = brute_force_3p(inst)
        assert part is not None
        assert partition_solves(inst, part)

    def test_lexicographically_least(self):
        part = brute_force_3p(validate_3p(10, [3, 3, 4, 3, 3, 4]))
        assert part == Partition(((0, 1, 2), (3, 4, 5)))

    def test_finds_lexicographically_first_partition(self):
        # The first leader's first triple, (0, 1, 2), sums to 9, not 10, so
        # the search skips it and takes (0, 1, 3); (2, 4, 5) then fits at
        # once. No triple is undone (test_search_backtracks covers that):
        # this checks that the first partition found is the least one.
        inst = validate_3p(10, [3, 3, 3, 4, 3, 4])
        part = brute_force_3p(inst)
        assert part is not None
        assert partition_solves(inst, part)
        assert part == Partition(((0, 1, 3), (2, 4, 5)))

    def test_search_backtracks(self):
        # The first triple found, (0, 1, 6), leaves 4, 6, 4, 6, 4, 6: no
        # triple of those sums to 15, so the search undoes it.
        part = brute_force_3p(validate_3p(15, [5, 5, 4, 6, 4, 6, 5, 4, 6]))
        assert part == Partition(((0, 2, 3), (1, 4, 5), (6, 7, 8)))

    def test_wrong_group_count_does_not_solve(self):
        inst = validate_3p(7, [2, 2, 3, 2, 2, 3])
        assert not partition_solves(inst, Partition(((0, 1, 2),)))

    def test_too_large_rejected(self):
        vals = [5, 5, 6] * 6  # 18 values
        with pytest.raises(ValidationError) as err:
            brute_force_3p(validate_3p(16, vals))
        assert err.value.code == "InstanceTooLarge"


class TestExtractPartition:
    def test_single_group_forced(self):
        instance, meta = build_instance(validate_3p(7, [2, 2, 3]))
        # identity mapping is valid by construction: chains fill the group
        emb = Embedding(tuple(range(8)))
        part = extract_partition(meta, emb)
        assert part == Partition(((0, 1, 2),))

    def test_triples_sum_to_target(self):
        inst3p = validate_3p(7, [2, 2, 3, 2, 2, 3])
        instance, meta = build_instance(inst3p)
        emb = Embedding(tuple(range(15)))
        part = extract_partition(meta, emb)
        assert partition_solves(inst3p, part)

    def test_hub_not_on_anchor_rejected(self):
        _, meta = build_instance(validate_3p(7, [2, 2, 3]))
        mapping = list(range(8))
        mapping[0], mapping[1] = mapping[1], mapping[0]
        with pytest.raises(ValidationError) as err:
            extract_partition(meta, Embedding(tuple(mapping)))
        assert err.value.code == "HubNotOnP0"

    def test_straddling_path_rejected(self):
        _, meta = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        mapping = list(range(15))
        # swap one node of path 0 (group 1) with one of path 3 (group 2)
        mapping[1], mapping[8] = mapping[8], mapping[1]
        with pytest.raises(ValidationError) as err:
            extract_partition(meta, Embedding(tuple(mapping)))
        assert err.value.code == "PathStraddlesGroups"

    def test_size_mismatch_rejected(self):
        _, meta = build_instance(validate_3p(7, [2, 2, 3]))
        with pytest.raises(ValidationError) as err:
            extract_partition(meta, Embedding((0, 1)))
        assert err.value.code == "SizeMismatch"


class TestMetaAndPartitionFiles:
    def test_meta_roundtrip(self):
        _, meta = build_instance(validate_3p(7, [2, 2, 3, 2, 2, 3]))
        assert deserialize_meta(serialize_meta(meta)) == meta

    def test_partition_roundtrip(self):
        part = Partition(((0, 1, 2), (3, 4, 5)))
        assert deserialize_partition(serialize_partition(part)) == part

    def test_partition_canonical_form_enforced(self):
        with pytest.raises(ValidationError):
            Partition(((2, 1, 0),))
        with pytest.raises(ValidationError):
            Partition(((3, 4, 5), (0, 1, 2)))
        with pytest.raises(ValidationError, match="do not partition") as err:
            Partition(((0, 1, 2), (3, 4, 6)))
        assert err.value.code == "InvalidPartition"
        assert Partition.from_sets([(5, 4, 3), (2, 0, 1)]).sets == (
            (0, 1, 2),
            (3, 4, 5),
        )

    def test_huge_group_size_rejected_without_allocating(self):
        with pytest.raises(ValidationError) as err:
            deserialize_meta(
                '{"B": 1000000000000, "n": 1, "v0_node": 0, "path_nodes": [[1], [2], [3]],'
                ' "group_points": [[1, 2, 3]], "p0_point": 0}'
            )
        assert err.value.code == "InvalidMeta"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"B": 0}, "must be positive"),
            ({"n": 0}, "must be positive"),
            ({"path_nodes": ((1, 2), (), (3, 4, 5, 6, 7))}, "empty path"),
            ({"group_points": ((1, 2, 3, 4, 5, 6),)}, "groups of exactly"),
            ({"group_points": ((1, 2, 3, 4, 5, 6, 6),)}, "p0 and groups do not partition"),
        ],
        ids=["B", "n", "empty-path", "group-size", "points"],
    )
    def test_meta_invariant_branches(self, fields, message):
        with pytest.raises(ValidationError, match=message) as err:
            _meta(**fields)
        assert err.value.code == "InvalidMeta"

    def test_meta_invariants_enforced(self):
        with pytest.raises(ValidationError):
            ReductionMeta(
                B=7,
                n=1,
                v0_node=0,
                path_nodes=((1, 2), (3, 4)),  # only 2 paths for n=1
                group_points=((1, 2, 3, 4, 5, 6, 7),),
                p0_point=0,
            )
