"""Benchmark of the preord library and its CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (all closed loops with one client, one request at a time):

  pretorsion-n4  cold `pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, max_n=4)`,
                 one call per fresh process, repeated for the run time
  universal-n3   prekernel, precokernel and every universal-property
                 verifier on a seeded order of the 11,310 morphisms between
                 preorders of size <= 3, in one fresh process
  cli-files      `python -m preord.cli` subprocesses on seeded object files
                 (n = 64..320), plus `enumerate ... 5 --count-only` and
                 `verify-pretorsion --max-n 3`

With --trace 0 the run is timed and prints the end-to-end metrics; with
--trace 1 it runs a fixed amount of the workload once plain and once with
spans around every layer, and prints the per-layer metrics and the
tracing overhead.  Every output is checked against the oracles in
oracle.py.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("pretorsion-n4", "universal-n3", "cli-files")
SETUP_REPS = 7           # set-up is repeated in fresh processes; the median is reported
MIN_VERDICTS = 3         # pretorsion-n4 runs at least this many cold calls
CHILD_TIMEOUT = 170

# Each workload's own names for the generic metrics: name -> (metric, scale, unit)
ALIASES = {
    "pretorsion-n4": {"verdict_s": ("latency_p50_ms", 1e-3, "s")},
    "universal-n3": {"morphs_per_s": ("ops_per_s", 1, "1/s"),
                     "morph_p50_ms": ("latency_p50_ms", 1, "ms"),
                     "morph_p90_ms": ("latency_p90_ms", 1, "ms")},
    "cli-files": {"cli_calls_per_s": ("ops_per_s", 1, "1/s"),
                  "cli_p50_ms": ("latency_p50_ms", 1, "ms")},
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources, thread pools capped at nproc."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def worker(mode: str, workload: str, seed: int, work: Path, *extra: str) -> dict:
    """Run one worker step in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(WORKER), mode, workload, str(seed), "--work", str(work), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {mode} {workload} timed out after {e.timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_call(argv: list[str], work: Path) -> tuple[float, int, str, float]:
    """One `python -m preord.cli` call: (seconds, exit code, stdout, peak RSS in MB)."""
    with open(work / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "preord.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=child_env())
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss / 1024


# ----------------------------------------------------------------------
# the timed run

def measure(workload: str, seed: int, seconds: float, work: Path, toy: bool) -> dict:
    """Untraced run: set-up samples, per-operation latencies, failures, peak RSS."""
    sample = measure_cli if workload == "cli-files" else measure_library
    setups, latencies, rss, failed = sample(workload, seed, seconds, work, toy)
    ms = [x * 1000 for x in latencies]
    attempted = len(ms)
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "latency_p50_ms": (statistics.median(ms), "ms", attempted),
            "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[-1],
                               "ms", attempted),
            "ops_per_s": (attempted / sum(latencies), "1/s", attempted),
            "peak_rss_mb": (max(rss), "MB", len(rss)),
        },
    }


def measure_library(workload, seed, seconds, work, toy):
    """Set-up in fresh processes, then the timed loop: one process for
    universal-n3, one cold process per verdict for pretorsion-n4."""
    flags = ["--toy"] if toy else []
    setups = [worker("setup", workload, seed, work, *flags)["setup_s"] for _ in range(SETUP_REPS)]
    latencies, rss = [], []
    failed = 0
    t_start = time.perf_counter()
    while True:
        r = worker("measure", workload, seed, work, "--seconds", str(seconds), *flags)
        setups.append(r["setup_s"])
        latencies += r["latencies"]
        rss.append(r["peak_rss_mb"])
        failed += r["failed"]
        if workload == "universal-n3" or (
                time.perf_counter() - t_start >= seconds and len(latencies) >= MIN_VERDICTS):
            return setups, latencies, rss, failed


def measure_cli(workload, seed, seconds, work, toy):
    """`--help` calls for set-up, then whole passes over the CLI calls in
    seeded order until the run time is up, so every call weighs the same."""
    setups, rss = [], []
    for _ in range(SETUP_REPS):
        t, code, _, peak = cli_call(["--help"], work)
        if code != 0:
            raise BenchError(f"`preord --help` exited {code}")
        setups.append(t)
        rss.append(peak)
    calls = gen.cli_inputs(seed, work, gen.SIZES["toy" if toy else "full"][workload])
    latencies = []
    failed = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        for argv, expected in calls:
            t, code, out, peak = cli_call(argv, work)
            latencies.append(t)
            rss.append(peak)
            failed += code != 0 or not gen.cli_output_ok(expected, out)
    return setups, latencies, rss, failed


# ----------------------------------------------------------------------
# the traced run

def trace(workload: str, seed: int, work: Path, toy: bool) -> dict:
    """The same fixed work plain and traced; per-layer metrics and the overhead."""
    flags = ["--toy"] if toy else []
    plain = worker("fixed", workload, seed, work, *flags)
    traced = worker("fixed", workload, seed, work, "--trace", *flags)
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["work_s"] - plain["work_s"]
    units = {k: layer_unit(k) for k in layers}
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": {k: (v, units[k], traced["attempted"]) for k, v in layers.items()},
        "plain_s": plain["work_s"], "traced_s": traced["work_s"],
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_computed") or name.endswith("bytes_parsed"):
        return "B"
    return "count"


# ----------------------------------------------------------------------
# reporting

def report(workload: str, trace_on: bool, result: dict, declared: dict[str, str]) -> dict:
    """Print the human-readable block; return the JSON object for this workload."""
    print(f"== {workload} ({'traced' if trace_on else 'timed'})")
    metrics = result["metrics"]
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit:6s} (n={count})")
    if trace_on:
        print(f"  tracing overhead: {result['traced_s']:.3f} s traced - "
              f"{result['plain_s']:.3f} s plain")
    else:
        for alias, (name, scale, unit) in ALIASES[workload].items():
            value, _, count = metrics[name]
            print(f"  {alias:36s} {value * scale:>14.6g} {unit:6s} (n={count})")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':36s} {ratio:>14.6g} {'ratio':6s} (n={result['attempted']})")
    missing = set(declared) - set(metrics)
    if missing:
        raise BenchError(f"declared metrics not measured: {sorted(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in declared.items()},
    }


def declared_metrics(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace_on: bool, toy: bool = False) -> dict:
    work = ROOT / ".bench_out" / f"run-{os.getpid()}-{workload}"
    work.mkdir(parents=True)
    try:
        result = trace(workload, seed, work, toy) if trace_on else \
            measure(workload, seed, seconds, work, toy)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(workload, trace_on, result, declared_metrics(trace_on))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "preord" / "__init__.py").is_file():
        print(f"error: no preord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
