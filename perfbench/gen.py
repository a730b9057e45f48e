"""Seeded workload inputs, made without `preord`.

The same seed always gives the same inputs.  The program under test sees
only what these functions return or write.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import oracle

# Sizes of each workload; "toy" shrinks them for the benchmark's own tests.
SIZES = {
    "full": {
        "pretorsion-n4": {"max_n": 4},
        "universal-n3": {"max_n": 3, "probe_n": 2, "fixed_count": 1000},
        "cli-files": {"sizes": (64, 320), "files": 8, "enum_n": 5, "pretorsion_n": 3},
    },
    "toy": {
        "pretorsion-n4": {"max_n": 2},
        "universal-n3": {"max_n": 2, "probe_n": 1, "fixed_count": 20},
        "cli-files": {"sizes": (6, 40), "files": 2, "enum_n": 3, "pretorsion_n": 2},
    },
}


def universal_inputs(seed: int, max_n: int):
    """Labeled preorders of size <= max_n and a seeded order of every
    morphism between them, each paired with a random parallel morphism.

    Returns (objects, order) where objects are relation matrices and each
    entry of order is (dom index, cod index, f, g).
    """
    objects = [r for n in range(1, max_n + 1) for r in oracle.preorders(n)]
    rng = random.Random(seed)
    pairs = []
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            homs = oracle.monotone_maps(a, b)
            pairs += [(i, j, f, rng.choice(homs)) for f in homs]
    rng.shuffle(pairs)
    return objects, pairs


def _random_preorder(rng: random.Random, n: int, density: float) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """A preorder on n elements and a sparse set of pairs generating it.

    Elements fall into equivalence blocks (joined by a cycle); the blocks
    split into a few groups, each carrying a random DAG whose edge count
    per block grows with density (0..1), so the result has several
    components, non-trivial blocks and long chains.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    n_blocks = max(1, int(n * rng.uniform(0.4, 0.8)))
    cuts = sorted(rng.sample(range(1, n), n_blocks - 1))
    blocks = [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    gens = []
    for blk in blocks:
        if len(blk) > 1:
            gens += [(blk[i], blk[(i + 1) % len(blk)]) for i in range(len(blk))]
    groups = rng.randint(1, 4)
    p_edge = (2.0 + 6.0 * density) / len(blocks)
    for u in range(len(blocks)):
        for v in range(u + 1, len(blocks)):
            if u % groups == v % groups and rng.random() < p_edge:
                gens.append((rng.choice(blocks[u]), rng.choice(blocks[v])))
    bits = np.eye(n, dtype=bool)
    for a, b in gens:
        bits[a, b] = True
    return oracle.warshall(bits), gens


FILE_COMMANDS = ("check", "decompose", "components", "dot --hasse")


def cli_inputs(seed: int, out_dir: Path, size: dict) -> list[tuple[list[str], str | tuple[str, ...]]]:
    """Write seeded object files and return the calls with their expected stdout.

    File sizes and densities are stratified over their ranges, so every
    seed has the same spread of both; odd files list generating pairs
    (mode "close"), even files the whole relation (mode "strict").
    """
    rng = random.Random(seed)
    lo, hi = size["sizes"]
    files, enum_n, pretorsion_n = size["files"], size["enum_n"], size["pretorsion_n"]
    width = (hi - lo) / files
    densities = [(i + rng.random()) / files for i in range(files)]
    rng.shuffle(densities)
    calls = []
    for i in range(files):
        n = rng.randint(int(lo + i * width), int(lo + (i + 1) * width))
        closed, gens = _random_preorder(rng, n, densities[i])
        if i % 2:
            body = {"n": n, "pairs": [list(p) for p in gens], "mode": "close"}
        else:
            strict = closed & ~np.eye(n, dtype=bool)
            body = {"n": n, "pairs": [[int(a), int(b)] for a, b in zip(*np.nonzero(strict))],
                    "mode": "strict"}
        path = out_dir / f"obj{i}-n{n}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        for cmd in FILE_COMMANDS:
            name, *flags = cmd.split()
            calls.append(([name, str(path), *flags], oracle.cli_expected(cmd, closed)))
    for kind in ("preorder", "equivalence", "partial_order"):
        calls.append((["enumerate", kind, str(enum_n), "--count-only"],
                      f"count: {oracle.OEIS[kind][enum_n - 1]}\n"))
    # a verdict report is checked by the parts that carry its counts and verdict
    objects, maps = oracle.pretorsion_counts(pretorsion_n)
    calls.append((["verify-pretorsion", "--max-n", str(pretorsion_n)],
                  (f": pass on {objects} objects\n", f": pass on {maps} maps\n",
                   "\nverdict: pass\n")))
    rng.shuffle(calls)
    return calls


def cli_output_ok(expected: str | tuple[str, ...], stdout: str) -> bool:
    """Exact text, or every required part of a verdict report."""
    if isinstance(expected, tuple):
        return all(part in stdout for part in expected)
    return stdout == expected
