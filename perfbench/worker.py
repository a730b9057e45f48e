"""One workload step in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py MODE WORKLOAD SEED --work DIR [--seconds S] [--trace] [--toy]

MODE is `setup` (import and build the inputs only), `measure` (the timed
loop of the untraced run) or `fixed` (a fixed amount of work, traced or
not, for the per-layer run).  A fresh process per step keeps the library's
caches cold at the start of every run.  An operation that raises counts
as failed.

Each workload has three parts: `make` generates the raw inputs from the
seed (benchmark code, untimed), `build` turns them into library values
(timed as set-up) and `run` performs and checks the operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_preord():
    """Import the checkout's `preord`; returns it with the seconds taken.

    This runs before the benchmark's own modules are imported, so the time
    includes loading numpy, as it does for a user of the library.
    """
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import preord
    elapsed = time.perf_counter() - t0
    if Path(preord.__file__).resolve().parent != ROOT / "src" / "preord":
        raise SystemExit(f"imported preord from {preord.__file__}, not from the checkout")
    return preord, elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# pretorsion-n4: one cold exhaustive check

def pretorsion_make(seed, size, work):
    return None


def pretorsion_build(preord, raw, size):
    return preord.EQUIVALENCES, preord.PARTIAL_ORDERS


def pretorsion_run(preord, inputs, size, seconds, limit):
    t, f = inputs
    want = oracle.PRETORSION_N4 if size["max_n"] == 4 else oracle.pretorsion_counts(size["max_n"])
    t0 = time.perf_counter()
    try:
        report = preord.pretorsion.pretorsion_verify(t, f, size["max_n"])
    except Exception:
        report = None
    elapsed = time.perf_counter() - t0
    ok = report is not None and report.ok \
        and (report.objects_checked, report.maps_checked) == want
    return [elapsed], 1, 0 if ok else 1


# ----------------------------------------------------------------------
# universal-n3: every universal property of a sample of morphisms

def universal_make(seed, size, work):
    return gen.universal_inputs(seed, size["max_n"])


def universal_build(preord, raw, size):
    rels, order = raw
    objs = [preord.make_object(len(r), [(i, j) for i in range(len(r)) for j in range(len(r))
                                        if i != j and r[i][j]], mode="strict") for r in rels]
    probes = [a for a in objs if a.n <= size["probe_n"]]
    morphs = [(preord.Morph(objs[i], objs[j], f), preord.Morph(objs[i], objs[j], g),
               rels[i], rels[j]) for i, j, f, g in order]
    return probes, morphs


def universal_step(preord, f, g, probes):
    ex, st = preord.exactness, preord.stable
    k = ex.prekernel(f)
    c = ex.precokernel(f)
    verdicts = (
        ex.is_short_preexact(ex.canonical_preexact_from_morphism(f)),
        ex.verify_prekernel_definitional(k, f, probes),
        ex.verify_precokernel_definitional(c, f, probes),
        st.verify_stable_kernel(st.StableHom(k), f, probes),
        st.verify_stable_cokernel(st.StableHom(c), f, probes),
    )
    return k, c, verdicts, st.stable_eq(f, g)


def universal_ok(f, g, dom_rel, cod_rel, out) -> bool:
    k, c, verdicts, eq = out
    q_rel, proj = oracle.precokernel(dom_rel, cod_rel, f.map)
    return (all(verdicts)
            and k.map == tuple(range(f.dom.n)) and k.cod == f.dom
            and (k.dom.rel.bits == oracle.prekernel_relation(dom_rel, f.map)).all()
            and c.dom == f.cod and list(c.map) == proj
            and c.cod.n == len(q_rel) and (c.cod.rel.bits == q_rel).all()
            and eq == oracle.stable_eq_literal(dom_rel, f.map, g.map))


def universal_run(preord, inputs, size, seconds, limit):
    """Fixed work: the first `limit` morphisms.  Timed: cycle through the
    seeded order until the run time is up.  Checks stay outside the timing."""
    probes, morphs = inputs
    todo = morphs[:limit] if seconds is None else itertools.cycle(morphs)
    latencies, failed = [], 0
    t_start = time.perf_counter()
    for f, g, dom_rel, cod_rel in todo:
        t0 = time.perf_counter()
        if seconds is not None and t0 - t_start >= seconds:
            break
        try:
            out = universal_step(preord, f, g, probes)
        except Exception:
            out = None
        latencies.append(time.perf_counter() - t0)
        failed += out is None or not universal_ok(f, g, dom_rel, cod_rel, out)
    return latencies, len(latencies), failed


# ----------------------------------------------------------------------
# cli-files, in process (the untraced run drives subprocesses instead)

def cli_make(seed, size, work):
    return gen.cli_inputs(seed, work, size)


def cli_build(preord, calls, size):
    import preord.cli  # noqa: F401  (the package does not import its CLI)
    return calls


def cli_run(preord, calls, size, seconds, limit):
    latencies, failed = [], 0
    for argv, expected in calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = preord.cli.main(argv)
        except Exception:
            code = None
        latencies.append(time.perf_counter() - t0)
        failed += code != 0 or not gen.cli_output_ok(expected, out.getvalue())
    return latencies, len(calls), failed


WORKLOADS = {
    "pretorsion-n4": (pretorsion_make, pretorsion_build, pretorsion_run),
    "universal-n3": (universal_make, universal_build, universal_run),
    "cli-files": (cli_make, cli_build, cli_run),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "fixed"))
    ap.add_argument("workload", choices=tuple(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    make, build, run = WORKLOADS[args.workload]

    preord, import_s = import_preord()
    # the benchmark's modules load numpy, so they come after the timed import
    global gen, oracle, spans
    import gen
    import oracle
    import spans
    size = gen.SIZES["toy" if args.toy else "full"][args.workload]
    raw = make(args.seed, size, args.work)
    t0 = time.perf_counter()
    inputs = build(preord, raw, size)
    result = {"setup_s": import_s + time.perf_counter() - t0}
    if args.mode != "setup":
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            spans.install(tracer)
        limit = size.get("fixed_count") if args.mode == "fixed" else None
        seconds = args.seconds if args.mode == "measure" else None
        t0 = time.perf_counter()
        latencies, attempted, failed = run(preord, inputs, size, seconds, limit)
        result.update(work_s=time.perf_counter() - t0, latencies=latencies,
                      attempted=attempted, failed=failed)
        if tracer:
            result["layers"] = spans.layer_metrics(tracer)
            tracer.save(args.work.parent / f"spans-{args.workload}.npz")
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
