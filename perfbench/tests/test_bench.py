"""Tests of the benchmark itself: oracles, pinned counts, toy runs, output contract.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def nx_closure(n: int, edges) -> np.ndarray:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    out = np.zeros((n, n), dtype=bool)
    for a, b in nx.transitive_closure(g, reflexive=False).edges():
        out[a, b] = True
    return out


def bits_of(n: int, edges) -> np.ndarray:
    bits = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        bits[a, b] = True
    return bits


@pytest.mark.parametrize("seed", range(6))
def test_warshall_matches_networkx_on_random_digraphs(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 120)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
    assert (oracle.warshall(bits_of(n, edges)) == nx_closure(n, edges)).all()


def test_warshall_counts_256_witnesses_as_a_path():
    # 0 -> k -> 257 for k = 1..256: exactly 256 two-step paths from 0 to 257
    n = 258
    edges = [(0, k) for k in range(1, 257)] + [(k, 257) for k in range(1, 257)]
    closed = oracle.warshall(bits_of(n, edges))
    assert closed[0, 257]
    assert (closed == nx_closure(n, edges)).all()


def test_brute_force_recount_of_pretorsion_maps():
    rels = [r for n in range(1, 5) for r in oracle.preorders(n)]
    equivalences = [r for r in rels if oracle.is_symmetric(r)]
    posets = [r for r in rels if oracle.is_antisymmetric(r)]
    maps = sum(len(oracle.monotone_maps(e, p)) for e in equivalences for p in posets)
    assert (len(rels), maps) == oracle.PRETORSION_N4 == (389, 203_858)
    assert oracle.pretorsion_counts(4) == oracle.PRETORSION_N4


def test_brute_force_counts_agree_with_oeis():
    for n in range(1, 5):
        rels = oracle.preorders(n)
        assert len(rels) == oracle.OEIS["preorder"][n - 1]
        assert sum(map(oracle.is_symmetric, rels)) == oracle.OEIS["equivalence"][n - 1]
        assert sum(map(oracle.is_antisymmetric, rels)) == oracle.OEIS["partial_order"][n - 1]


def test_literal_stable_equality_on_hand_cases():
    chain = ((True, True), (False, True))
    discrete = ((True, False), (False, True))
    assert oracle.stable_eq_literal(chain, (0, 0), (1, 1))       # both trivial on the component
    assert not oracle.stable_eq_literal(chain, (0, 1), (0, 0))   # f is not trivial there
    assert oracle.stable_eq_literal(discrete, (0, 1), (1, 0))    # every map on points is trivial
    assert oracle.stable_eq_literal(chain, (0, 1), (0, 1))


def test_cli_oracle_on_a_small_preorder():
    # 0 ~ 2 <= 1, and 3 alone
    r = oracle.warshall(bits_of(4, [(0, 2), (2, 0), (2, 1), (0, 0), (1, 1), (2, 2), (3, 3)]))
    assert oracle.cli_expected("components", r) == "components: {0,1,2} {3}\ncount: 2\n"
    assert oracle.cli_expected("decompose", r) == (
        "torsion blocks: {0,2} {1} {3}\nquotient poset pairs: [(0, 1)]\nprojection: [0, 1, 0, 2]\n")
    assert oracle.cli_expected("dot --hasse", r) == (
        'digraph preord {\n  0 [label="{0,2}"];\n  1 [label="1"];\n  3 [label="3"];\n'
        "  0 -> 1;\n}\n")


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace_on", [False, True])
def test_toy_run_is_correct_and_prints_every_metric(workload, trace_on, capsys):
    result = run.run(workload, seed=5, seconds=0.5, trace_on=trace_on, toy=True)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace_on else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert re.search(rf"^  {re.escape(m['name'])} .* {re.escape(m['unit'])} +\(n=\d+\)$",
                         printed, re.M), m["name"]
    assert "fail_ratio" in printed
    if not trace_on:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_toy_counts_repeat_exactly():
    runs = [run.run("pretorsion-n4", seed=s, seconds=0.1, trace_on=True, toy=True)
            for s in (1, 2)]
    keys = ("pretorsion.objects_checked", "pretorsion.maps_checked", "category.hom_misses")
    first, second = ([r["metrics"][k]["value"] for k in keys] for r in runs)
    assert first == second == [*oracle.pretorsion_counts(2), first[2]]


def test_fails_without_the_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-files",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
