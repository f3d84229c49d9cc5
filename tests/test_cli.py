import argparse
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import polyembed
from polyembed.cli import main
from polyembed.geometry import Point
from polyembed.model import FreeTree, PointSet, serialize_point_set, serialize_tree

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        meta = tmp_path / "meta.json"
        rc = run("gen", "--B", "7", "--a", "2,2,3", "--out", str(out), "--meta", str(meta))
        assert rc == 0
        assert capsys.readouterr().out.strip() == "n=1 B=7 points=8 polygon_vertices=3"
        assert out.exists() and meta.exists()

    def test_invalid_input_names_constraint(self, tmp_path, capsys):
        rc = run(
            "gen", "--B", "7", "--a", "1,3,3",
            "--out", str(tmp_path / "i.json"), "--meta", str(tmp_path / "m.json"),
        )
        assert rc == 2
        assert "ElementOutOfRange" in capsys.readouterr().err

    def test_huge_group_size_exits_2(self, tmp_path, capsys):
        rc = run(
            "gen", "--B", str(10**12), "--a", "333333333333,333333333333,333333333334",
            "--out", str(tmp_path / "i.json"), "--meta", str(tmp_path / "m.json"),
        )
        assert rc == 2
        assert "CoordinateOutOfRange" in capsys.readouterr().err

    def test_two_group_summary(self, tmp_path, capsys):
        rc = run(
            "gen", "--B", "7", "--a", "2,2,3,2,2,3",
            "--out", str(tmp_path / "i.json"), "--meta", str(tmp_path / "m.json"),
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "n=2 B=7 points=15 polygon_vertices=6"


class TestSolveVerifyExtract:
    def _gen(self, tmp_path, b, a):
        inst = tmp_path / "inst.json"
        meta = tmp_path / "meta.json"
        assert run("gen", "--B", str(b), "--a", a, "--out", str(inst), "--meta", str(meta)) == 0
        return inst, meta

    def test_feasible_pipeline(self, tmp_path, capsys):
        inst, meta = self._gen(tmp_path, 7, "2,2,3")
        emb = tmp_path / "emb.json"
        rep = tmp_path / "rep.json"
        assert run("solve", "--in", str(inst), "--out", str(emb)) == 0
        assert run("verify", "--in", str(inst), "--embedding", str(emb), "--report", str(rep)) == 0
        assert json.loads(rep.read_text())["valid"] is True
        capsys.readouterr()
        assert run("extract", "--meta", str(meta), "--embedding", str(emb)) == 0
        assert json.loads(capsys.readouterr().out) == {"sets": [[0, 1, 2]]}

    def test_infeasible_solve_exits_1(self, tmp_path):
        inst, _ = self._gen(tmp_path, 16, "5,5,5,5,5,7")
        assert run("solve", "--in", str(inst), "--out", str(tmp_path / "e.json")) == 1

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, 7, "2,2,3")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        assert run("solve", "--in", str(deep), "--out", str(tmp_path / "e.json")) == 2
        assert run("verify", "--in", str(inst), "--embedding", str(deep)) == 2
        assert "nesting too deep" in capsys.readouterr().err

    def test_zero_timeout_exits_3(self, tmp_path):
        inst, _ = self._gen(tmp_path, 7, "2,2,3")
        rc = run("solve", "--in", str(inst), "--out", str(tmp_path / "e.json"), "--timeout-ms", "0")
        assert rc == 3

    def test_negative_timeout_exits_2(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, 7, "2,2,3")
        rc = run("solve", "--in", str(inst), "--out", str(tmp_path / "e.json"), "--timeout-ms", "-5")
        assert rc == 2
        assert "InvalidConfig" in capsys.readouterr().err

    def test_huge_timeout_solves(self, tmp_path):
        inst, _ = self._gen(tmp_path, 7, "2,2,3")
        limit = "1" + "0" * 400
        rc = run("solve", "--in", str(inst), "--out", str(tmp_path / "e.json"), "--timeout-ms", limit)
        assert rc == 0

    def test_too_long_integer_literal_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "long.json"
        big = "9" * 5000
        inst.write_text(f'{{"polygon": [[0,0],[{big},0],[0,9]], "points": [[1,1]], "tree_edges": []}}')
        emb = tmp_path / "one.json"
        emb.write_text('{"mapping": [0]}')
        assert run("verify", "--in", str(inst), "--embedding", str(emb)) == 2
        assert "error:" in capsys.readouterr().err

    def test_extract_two_groups_sums(self, tmp_path, capsys):
        inst, meta = self._gen(tmp_path, 7, "2,2,3,2,2,3")
        emb = tmp_path / "emb.json"
        assert run("solve", "--in", str(inst), "--out", str(emb)) == 0
        capsys.readouterr()
        assert run("extract", "--meta", str(meta), "--embedding", str(emb)) == 0
        sets = json.loads(capsys.readouterr().out)["sets"]
        a = [2, 2, 3, 2, 2, 3]
        assert all(sum(a[i] for i in triple) == 7 for triple in sets)

    def test_bad_embedding_exits_1_with_report(self, tmp_path, capsys):
        inst, meta = self._gen(tmp_path, 7, "2,2,3,2,2,3")
        emb = tmp_path / "emb.json"
        assert run("solve", "--in", str(inst), "--out", str(emb)) == 0
        mapping = json.loads(emb.read_text())["mapping"]
        meta_obj = json.loads((meta).read_text())
        g1 = set(meta_obj["group_points"][0])
        g2 = set(meta_obj["group_points"][1])
        u = next(v for v in range(15) if mapping[v] in g1)
        w = next(v for v in range(15) if mapping[v] in g2)
        mapping[u], mapping[w] = mapping[w], mapping[u]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mapping": mapping}))
        rep = tmp_path / "rep.json"
        rc = run("verify", "--in", str(inst), "--embedding", str(bad), "--report", str(rep))
        assert rc == 1
        kinds = {v["kind"] for v in json.loads(rep.read_text())["violations"]}
        assert kinds & {"EdgeHitsBoundary", "EdgeCrossesEdge"}

    def test_truncated_embedding_exits_2(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, 7, "2,2,3")
        bad = tmp_path / "trunc.json"
        bad.write_text('{"mapping": [0, 1, 2')
        assert run("verify", "--in", str(inst), "--embedding", str(bad)) == 2

    def test_embedding_from_other_instance_exits_2(self, tmp_path, capsys):
        _, meta = self._gen(tmp_path, 7, "2,2,3")
        small = tmp_path / "small.json"
        small.write_text('{"mapping": [0, 1]}\n')
        assert run("extract", "--meta", str(meta), "--embedding", str(small)) == 2
        assert "SizeMismatch" in capsys.readouterr().err


class TestBrute3p:
    def test_feasible(self, capsys):
        assert run("brute3p", "--B", "7", "--a", "2,2,3") == 0
        assert json.loads(capsys.readouterr().out) == {"sets": [[0, 1, 2]]}

    def test_infeasible(self, capsys):
        assert run("brute3p", "--B", "16", "--a", "5,5,5,5,5,7") == 1

    def test_wrong_length_exits_2(self, capsys):
        assert run("brute3p", "--B", "7", "--a", ",".join(["2"] * 17)) == 2

    def test_too_large_exits_2(self, capsys):
        assert run("brute3p", "--B", "16", "--a", ",".join(["5", "5", "6"] * 6)) == 2


class TestRender:
    def test_element_counts(self, tmp_path):
        inst = tmp_path / "inst.json"
        meta = tmp_path / "meta.json"
        emb = tmp_path / "emb.json"
        svg = tmp_path / "pic.svg"
        run("gen", "--B", "7", "--a", "2,2,3,2,2,3", "--out", str(inst), "--meta", str(meta))
        run("solve", "--in", str(inst), "--out", str(emb))
        assert run(
            "render", "--in", str(inst), "--embedding", str(emb),
            "--meta", str(meta), "--out", str(svg),
        ) == 0
        root = ET.fromstring(svg.read_text())
        assert len(root.findall(f"{SVG_NS}path")) == 1
        assert len(root.findall(f"{SVG_NS}circle")) == 15
        assert len(root.findall(f"{SVG_NS}line")) == 14

    def test_instance_only_has_no_lines(self, tmp_path):
        inst = tmp_path / "inst.json"
        svg = tmp_path / "pic.svg"
        run("gen", "--B", "7", "--a", "2,2,3", "--out", str(inst), "--meta", str(tmp_path / "m.json"))
        assert run("render", "--in", str(inst), "--out", str(svg)) == 0
        root = ET.fromstring(svg.read_text())
        assert len(root.findall(f"{SVG_NS}circle")) == 8
        assert len(root.findall(f"{SVG_NS}line")) == 0

    def test_byte_deterministic(self, tmp_path):
        inst = tmp_path / "inst.json"
        run("gen", "--B", "7", "--a", "2,2,3", "--out", str(inst), "--meta", str(tmp_path / "m.json"))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run("render", "--in", str(inst), "--out", str(a))
        run("render", "--in", str(inst), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("length", [3, 10])
    def test_wrong_mapping_length_exits_2(self, tmp_path, capsys, length):
        inst = tmp_path / "inst.json"
        emb = tmp_path / "emb.json"
        svg = tmp_path / "pic.svg"
        run("gen", "--B", "7", "--a", "2,2,3", "--out", str(inst), "--meta", str(tmp_path / "m.json"))
        emb.write_text(json.dumps({"mapping": list(range(length))}))
        assert run("render", "--in", str(inst), "--embedding", str(emb), "--out", str(svg)) == 2
        assert "MappingLengthMismatch" in capsys.readouterr().err
        assert not svg.exists()


class TestEmbedFree:
    def test_three_node_path(self, tmp_path):
        pts = tmp_path / "pts.json"
        tree = tmp_path / "tree.json"
        out = tmp_path / "emb.json"
        pts.write_text(
            serialize_point_set(PointSet((Point(0, 0), Point(2, 1), Point(4, 0))))
        )
        tree.write_text(serialize_tree(FreeTree(3, ((0, 1), (1, 2)))))
        assert run("embed-free", "--points", str(pts), "--tree", str(tree), "--out", str(out)) == 0
        assert out.exists()

    def test_collinear_exits_2_naming_triple(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        tree = tmp_path / "tree.json"
        pts.write_text(
            serialize_point_set(PointSet((Point(0, 0), Point(1, 0), Point(2, 0))))
        )
        tree.write_text(serialize_tree(FreeTree(3, ((0, 1), (1, 2)))))
        rc = run("embed-free", "--points", str(pts), "--tree", str(tree), "--out", str(tmp_path / "o.json"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "GeneralPositionViolated" in err and "0, 1, 2" in err

    def test_size_mismatch_exits_2(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        tree = tmp_path / "tree.json"
        pts.write_text(serialize_point_set(PointSet((Point(0, 0), Point(2, 1)))))
        tree.write_text(serialize_tree(FreeTree(3, ((0, 1), (1, 2)))))
        assert run("embed-free", "--points", str(pts), "--tree", str(tree), "--out", str(tmp_path / "o.json")) == 2


class TestUsageErrors:
    def test_missing_flag(self, capsys):
        assert run("gen", "--B", "7") == 2

    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 2

    def test_malformed_list(self, capsys):
        assert run("brute3p", "--B", "7", "--a", "2,x,3") == 2

    def test_missing_file(self, tmp_path, capsys):
        assert run("solve", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")) == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert run("solve", "--in", str(bad), "--out", str(tmp_path / "o.json")) == 2
        assert str(bad) in capsys.readouterr().err


class TestPipelineLaw:
    def test_chain_exit_codes_match_oracle(self, tmp_path, capsys):
        cases = [
            (6, "2,2,2"),
            (7, "2,2,3"),
            (9, "3,3,3"),
            (7, "2,2,3,2,2,3"),
            (13, "4,4,4,4,4,6"),
            (16, "5,5,5,5,5,7"),
        ]
        for i, (b, a) in enumerate(cases):
            inst = tmp_path / f"i{i}.json"
            meta = tmp_path / f"m{i}.json"
            emb = tmp_path / f"e{i}.json"
            assert run("gen", "--B", str(b), "--a", a, "--out", str(inst), "--meta", str(meta)) == 0
            brute_rc = run("brute3p", "--B", str(b), "--a", a)
            solve_rc = run("solve", "--in", str(inst), "--out", str(emb))
            assert solve_rc == brute_rc
            if solve_rc == 0:
                assert run("verify", "--in", str(inst), "--embedding", str(emb)) == 0
                assert run("extract", "--meta", str(meta), "--embedding", str(emb)) == 0
            capsys.readouterr()


class TestSharedParser:
    """Several ``main`` calls in one process: the parser they share carries
    nothing from one call to the next."""

    def _gen(self, tmp_path, b, a, tag=""):
        inst = tmp_path / f"inst{tag}.json"
        meta = tmp_path / f"meta{tag}.json"
        assert run("gen", "--B", str(b), "--a", a, "--out", str(inst), "--meta", str(meta)) == 0
        return inst, meta

    def test_report_flag_does_not_persist(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, 7, "2,2,3")
        emb = tmp_path / "emb.json"
        rep = tmp_path / "rep.json"
        assert run("solve", "--in", str(inst), "--out", str(emb)) == 0
        assert run("verify", "--in", str(inst), "--embedding", str(emb), "--report", str(rep)) == 0
        assert rep.exists()
        rep.unlink()
        assert run("verify", "--in", str(inst), "--embedding", str(emb)) == 0
        assert not rep.exists()

    def test_timeout_flag_does_not_persist(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, 7, "2,2,3")
        argv = ("solve", "--in", str(inst), "--out", str(tmp_path / "e.json"))
        assert run(*argv, "--timeout-ms", "0") == 3
        assert run(*argv) == 0

    def test_usage_error_and_help_leave_no_trace(self, tmp_path, capsys):
        argv = ("gen", "--B", "7", "--a", "2,2,3",
                "--out", str(tmp_path / "i.json"), "--meta", str(tmp_path / "m.json"))
        assert run(*argv) == 0
        alone = capsys.readouterr()
        assert alone.out == "n=1 B=7 points=8 polygon_vertices=3\n" and alone.err == ""
        assert run("gen", "--B", "7", "--a", "9,9,9,9") == 2
        assert "usage: polyembed gen" in capsys.readouterr().err
        assert run("--help") == 0
        assert capsys.readouterr().out.startswith("usage: polyembed")
        assert run(*argv) == 0
        assert capsys.readouterr() == alone

    def test_gen_lists_do_not_leak(self, tmp_path, capsys):
        inputs = [(7, [3, 2, 2]), (13, [4, 5, 4, 4, 4, 5])]
        for i, (b, a) in enumerate(inputs):
            self._gen(tmp_path, b, ",".join(map(str, a)), tag=str(i))
        for i, (b, a) in enumerate(inputs):
            meta = json.loads((tmp_path / f"meta{i}.json").read_text())
            assert meta["B"] == b and meta["n"] == len(a) // 3
            assert [len(path) for path in meta["path_nodes"]] == a

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        built = [0]
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        after_each = []
        for argv in [("brute3p", "--B", "7", "--a", "2,2,3"), ("nosuch",), ("solve", "--help")] * 3 + [("--help",)]:
            run(*argv)
            after_each.append(built[0])
        # The first call may build the parser; no later call builds one.
        assert after_each[1:] == [after_each[0]] * 9


def _fresh_interpreter(code: str, *args: str) -> str:
    """What ``code`` prints in a new interpreter that imports this checkout."""
    paths = [str(Path(polyembed.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_package_import_stays_light():
    # Every library user and every CLI call pays for `import polyembed`:
    # the CLI, argparse and fractions load only when something needs them,
    # and the records are plain classes, so dataclasses and inspect never do.
    cases = [
        ("polyembed", {"polyembed.cli", "argparse", "fractions", "dataclasses", "inspect"}),
        ("polyembed.cli", {"fractions", "dataclasses", "inspect"}),
    ]
    for module, heavy in cases:
        code = f"import sys, {module}; print(sorted({heavy} & set(sys.modules)))"
        assert _fresh_interpreter(code) == "[]\n", module


def test_package_import_loads_every_submodule():
    # No lazy loading: `import polyembed` pays for the whole library at once.
    code = (
        "import sys, polyembed\n"
        "print(*sorted(m for m in sys.modules if m.startswith('polyembed.')))\n"
    )
    stems = {p.stem for p in Path(polyembed.__file__).parent.glob("*.py")} - {"__init__", "cli"}
    assert _fresh_interpreter(code).split() == sorted(f"polyembed.{s}" for s in stems)


def test_valid_pipeline_never_loads_fractions(tmp_path):
    # A valid embedding gives the verifier's sweep no crossing to queue, so
    # gen, solve and verify of a feasible reduction never import fractions.
    inst, meta, emb = (str(tmp_path / name) for name in ("inst.json", "meta.json", "emb.json"))
    a = ",".join(["6,6,10,7,7,8"] * 5)  # 221 points
    calls = [
        ["gen", "--B", "22", "--a", a, "--out", inst, "--meta", meta],
        ["solve", "--in", inst, "--out", emb],
        ["verify", "--in", inst, "--embedding", emb],
    ]
    code = (
        "import json, sys\n"
        "from polyembed.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'fractions' in sys.modules)\n"
    )
    out = _fresh_interpreter(code, json.dumps(calls))
    assert out.splitlines()[-1] == "[0, 0, 0] False"
