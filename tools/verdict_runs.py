"""Run the pretorsion verdict of (equivalences, partial orders) on two
source trees, alternating between them, each run in a fresh process.

    python tools/verdict_runs.py TREE_A TREE_B

A tree is a checkout holding `src/preord`.  Each tree runs `RUNS` times,
the two trees taking turns, and each run calls
`pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, MAX_N)` with `PYTHONPATH`
set to the tree's `src`.  The output is one JSON object: per tree, every
run's verdict, every scalar field of its report (the work counters,
`catalogue_s`, `axiom1_s` and `axiom2_s`) and its max RSS in MB, and the
medians of the timings and of the RSS.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

_CHILD = """
import json, resource, sys
from preord import EQUIVALENCES, PARTIAL_ORDERS, pretorsion_verify
r = pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, int(sys.argv[1]))
out = {k: v for k, v in vars(r).items() if isinstance(v, (bool, int, float, str))}
out["ok"] = r.ok
out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""

_MEDIANS = ("catalogue_s", "axiom1_s", "axiom2_s", "max_rss_mb")

RUNS = 3
MAX_N = 6  # the enumeration cap, HARD_CAP


def run(tree: Path, max_n: int) -> dict:
    """One verdict in a fresh interpreter on the sources of `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-c", _CHILD, str(max_n)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path)
    trees = parser.parse_args(argv[1:]).trees
    runs = {str(tree): [] for tree in trees}
    for _ in range(RUNS):
        for tree in trees:
            runs[str(tree)].append(run(tree, MAX_N))
    medians = {tree: {key: statistics.median(r[key] for r in rs) for key in _MEDIANS}
               for tree, rs in runs.items()}
    print(json.dumps({"max_n": MAX_N, "runs": runs, "medians": medians}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
