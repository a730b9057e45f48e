import json

import numpy as np
import pytest

from preord import (
    HARD_CAP, Partition, chain, components, coproduct, count_objects, export_dot,
    load_object, make_object, quotient_poset, save_object, symmetric_core,
    trivial_object,
)
from preord import cli, relations
from preord.cli import main

MIXED_TEXT = '{"n": 3, "pairs": [[0, 1], [1, 0], [1, 2]], "mode": "close"}'


@pytest.fixture
def mixed_file(tmp_path):
    p = tmp_path / "mixed.json"
    p.write_text(MIXED_TEXT)
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestBasicCommands:
    def test_check_summarizes(self, mixed_file, capsys):
        assert main(["check", mixed_file]) == 0
        out = capsys.readouterr().out
        assert "preorder on 3 elements" in out
        assert "indecomposable: true" in out

    def test_decompose_agrees_with_library(self, mixed_file, capsys):
        assert main(["decompose", mixed_file]) == 0
        out = capsys.readouterr().out
        a = load_object(MIXED_TEXT)
        part = Partition.from_equivalence(symmetric_core(a))
        q, proj = quotient_poset(a)
        assert f"torsion blocks: {{0,1}} {{2}}" in out
        assert f"projection: {list(proj.map)}" in out
        assert str(sorted(q.rel.pairs())) in out

    def test_components_output(self, mixed_file, capsys):
        assert main(["components", mixed_file]) == 0
        out = capsys.readouterr().out
        assert "components: {0,1,2}" in out
        assert "count: 1" in out

    def test_enumerate_counts(self, capsys):
        assert main(["enumerate", "preorder", "3", "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == f"count: {count_objects(3)}"

    def test_enumerate_counts_without_building_objects(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("--count-only enumerated the objects")
        monkeypatch.setattr(cli, "enumerate_objects", refuse)
        for kind, n, want in (("preorder", 5, 6942), ("partial_order", 4, 219), ("trivial", 1, 1)):
            assert main(["enumerate", kind, str(n), "--count-only"]) == 0
            assert capsys.readouterr().out == f"count: {want}\n"

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]])
    @pytest.mark.parametrize("args", [["preorder", "0"], ["preorder", str(HARD_CAP + 1)],
                                      ["lattice", "2"]])
    def test_enumerate_usage_errors_exit_2(self, args, count_only, capsys):
        assert main(["enumerate", *args, *count_only]) == 2
        assert capsys.readouterr().out == ""

    def test_enumerate_lists_loadable_objects(self, capsys):
        assert main(["enumerate", "equivalence", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "count: 2"
        objs = [load_object(line) for line in lines[:-1]]
        assert len(objs) == 2

    def test_dot_stdout_and_file(self, tmp_path, capsys):
        obj = write(tmp_path, "chain.json",
                    '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        assert main(["dot", obj]) == 0
        assert capsys.readouterr().out == export_dot(chain(2))
        out_file = tmp_path / "g.dot"
        assert main(["dot", obj, "--hasse", "--out", str(out_file)]) == 0
        assert out_file.read_text() == export_dot(chain(2), hasse=True)


class TestOnePartition:
    """`decompose` and `dot --hasse` number the blocks of the symmetric core
    once, and print the same text as before."""

    @pytest.mark.parametrize("argv, want", [
        (["decompose"], "torsion blocks: {0,1} {2}\nquotient poset pairs: [(0, 1)]\n"
                        "projection: [0, 0, 1]\n"),
        (["dot", "--hasse"], 'digraph preord {\n  0 [label="{0,1}"];\n  2 [label="2"];\n'
                             "  0 -> 2;\n}\n"),
    ])
    def test_core_partition_is_built_once(self, mixed_file, capsys, monkeypatch, argv, want):
        core = symmetric_core(load_object(MIXED_TEXT))
        built = []
        orig = relations.block_ids

        def counting(equiv):
            built.append(np.array_equal(equiv, core.bits))
            return orig(equiv)
        # `block_ids` is the one block numbering, for every partition
        monkeypatch.setattr(relations, "block_ids", counting)
        assert main([argv[0], mixed_file, *argv[1:]]) == 0
        assert capsys.readouterr().out == want
        assert built.count(True) == 1


class TestMorphismCommands:
    def test_prekernel(self, tmp_path, capsys):
        dom = write(tmp_path, "dom.json",
                    '{"n": 3, "pairs": [[0, 1], [1, 2], [0, 2]], "mode": "strict"}')
        cod = write(tmp_path, "cod.json",
                    '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        mp = write(tmp_path, "map.json", '{"map": [0, 0, 1]}')
        assert main(["prekernel", dom, cod, mp]) == 0
        out = capsys.readouterr().out
        assert '"pairs": [[0, 1]]' in out
        assert "map: [0, 1, 2]" in out

    def test_precokernel(self, tmp_path, capsys):
        dom = write(tmp_path, "dom.json",
                    '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        cod = dom
        mp = write(tmp_path, "map.json", '{"map": [0, 1]}')
        assert main(["precokernel", dom, cod, mp]) == 0
        out = capsys.readouterr().out
        assert '"n": 1' in out
        assert "projection: [0, 0]" in out

    def test_sequence_check_passes_on_torsion_sequence(self, tmp_path, capsys):
        a = load_object(MIXED_TEXT)
        x = write(tmp_path, "x.json",
                  save_object(make_object(3, [(0, 1), (1, 0)], mode="close")))
        y = write(tmp_path, "y.json", save_object(a))
        z = write(tmp_path, "z.json", save_object(quotient_poset(a)[0]))
        f = write(tmp_path, "f.json", '{"map": [0, 1, 2]}')
        g = write(tmp_path, "g.json",
                  json.dumps({"map": list(quotient_poset(a)[1].map)}))
        assert main(["sequence-check", x, y, z, f, g]) == 0
        assert "short preexact: true" in capsys.readouterr().out

    def test_sequence_check_fails_with_diagnosis(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        ident = write(tmp_path, "id.json", '{"map": [0, 1]}')
        assert main(["sequence-check", c, c, c, ident, ident]) == 1
        out = capsys.readouterr().out
        assert "short preexact: false" in out
        assert "prekernel of the second: false" in out

    def test_stable_eq(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        f = write(tmp_path, "f.json", '{"map": [0, 0]}')
        g = write(tmp_path, "g.json", '{"map": [1, 1]}')
        assert main(["stable-eq", c, c, f, g]) == 0
        assert "stable equal: true" in capsys.readouterr().out
        ident = write(tmp_path, "id.json", '{"map": [0, 1]}')
        assert main(["stable-eq", c, c, f, ident]) == 1

    def test_stable_iso(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", '{"n": 1, "pairs": [], "mode": "strict"}')
        b = write(tmp_path, "b.json", '{"n": 3, "pairs": [], "mode": "strict"}')
        assert main(["stable-iso", a, b]) == 0
        out = capsys.readouterr().out
        assert "stably isomorphic: true" in out
        assert "forward:" in out and "backward:" in out
        c = write(tmp_path, "c.json", '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        assert main(["stable-iso", a, c]) == 1
        assert "stably isomorphic: false" in capsys.readouterr().out

    def test_stable_iso_of_the_largest_chain(self, tmp_path, capsys):
        # 1,000 points, the largest carrier load_object accepts
        c = write(tmp_path, "c.json", json.dumps(
            {"n": 1000, "pairs": [[i, i + 1] for i in range(999)], "mode": "close"}))
        assert main(["stable-iso", c, c]) == 0
        out = capsys.readouterr().out
        assert "stably isomorphic: true" in out
        assert f"forward: {list(range(1000))}" in out

    def test_classify_exact(self, tmp_path, capsys):
        a = load_object(MIXED_TEXT)
        x = write(tmp_path, "x.json",
                  save_object(make_object(3, [(0, 1), (1, 0)], mode="close")))
        y = write(tmp_path, "y.json", save_object(a))
        z = write(tmp_path, "z.json", save_object(quotient_poset(a)[0]))
        f = write(tmp_path, "f.json", '{"map": [0, 1, 2]}')
        g = write(tmp_path, "g.json",
                  json.dumps({"map": list(quotient_poset(a)[1].map)}))
        assert main(["classify-exact", x, y, z, f, g]) == 0
        out = capsys.readouterr().out
        assert "kernel equivalence blocks: {0,1} {2}" in out
        assert "left witness:" in out and "right witness:" in out

    def test_classify_exact_diagnoses_failures(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        ident = write(tmp_path, "id.json", '{"map": [0, 1]}')
        assert main(["classify-exact", c, c, c, ident, ident]) == 1
        assert "not short exact" in capsys.readouterr().out

    def test_classify_exact_probes_beyond_the_cap_are_a_usage_error(self, tmp_path, capsys):
        c = write(tmp_path, "c.json", '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        ident = write(tmp_path, "id.json", '{"map": [0, 1]}')
        assert main(["classify-exact", c, c, c, ident, ident, "--max-n", str(HARD_CAP + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_classify_exact_without_probes_is_a_usage_error(self, tmp_path, capsys, max_n):
        # it ran with no probes, so nothing was checked
        c = write(tmp_path, "c.json", '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        const = write(tmp_path, "const.json", '{"map": [0, 0]}')
        assert main(["classify-exact", c, c, c, const, const, "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


class TestVerifyAndErrors:
    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_verify_pretorsion_on_no_objects_is_a_usage_error(self, capsys, max_n):
        # it printed "verdict: pass" on 0 objects and exited 0
        assert main(["verify-pretorsion", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_verify_pretorsion(self, capsys):
        assert main(["verify-pretorsion", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_verify_pretorsion_stdout_is_pinned(self, capsys):
        assert main(["verify-pretorsion", "--max-n", "3"]) == 0
        assert capsys.readouterr().out == (
            "pretorsion check for (equivalences, partial-orders) up to n=3\n"
            "null class = intersection; members on range are exactly the trivial objects\n"
            "axiom 1 (canonical sequence is relatively preexact with ends in the classes): "
            "pass on 34 objects\n"
            "axiom 2 (every hom from torsion to torsion-free is null-trivial): "
            "pass on 1466 maps\n"
            "verdict: pass\n")

    def test_missing_file_is_a_usage_error(self, capsys):
        assert main(["check", "/nonexistent/x.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_json_is_a_usage_error(self, tmp_path, capsys):
        p = write(tmp_path, "bad.json", "{not json")
        assert main(["check", p]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_object_is_a_usage_error(self, tmp_path, capsys):
        p = write(tmp_path, "bad.json",
                  '{"n": 3, "pairs": [[0, 1], [1, 2]], "mode": "strict"}')
        assert main(["check", p]) == 2
        assert "transitive" in capsys.readouterr().err

    def test_directory_path_is_an_input_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_invalid_utf8_is_an_input_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"n": 1, "pairs": [], "mode": "strict", "x": "\xff\xfe"}')
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_oversized_object_is_a_budget_error(self, tmp_path, capsys):
        p = write(tmp_path, "big.json", '{"n": 1001, "pairs": [], "mode": "close"}')
        assert main(["check", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "budget" in err and err.count("\n") == 1

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestCliMatchesLibrary:
    def test_components_golden(self, tmp_path, capsys):
        c, _ = coproduct([chain(2), trivial_object(2)])
        p = write(tmp_path, "c.json", save_object(c))
        assert main(["components", p]) == 0
        out = capsys.readouterr().out
        part = components(c)
        blocks = " ".join(
            "{" + ",".join(str(x) for x in blk) + "}" for blk in part.blocks)
        assert f"components: {blocks}" in out

    def test_console_script_is_installed(self):
        import shutil
        import subprocess
        exe = shutil.which("preord")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "decompose" in proc.stdout
