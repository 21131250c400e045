"""Benchmark of hyperwalk: four workloads through the `hyperwalk.cli` entry point.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in rounds for --seconds seconds.  A round is one fresh
interpreter (bench/child.py) that imports the package from src/, pays the
command's first-call costs, then makes one `cli.main([...])` call.  Before
the first round and after each one, this process times a fixed reference
computation (`reference_s`).  After the rounds, it checks every round's
outputs (bench/workloads.py) and prints, as its last line, one JSON object
with "correct", "attempted", "failed" and "metrics".  An operation is one
round's CLI call; it fails when it exits without an answer to check.

--trace 0 reports the end-to-end metrics that BENCHMARK.json lists: setup_s
and peak_rss_mib as medians over the rounds, and run_ref, the mean wall time
of the CLI call over the mean reference time of the same run.  --trace 1
alternates traced and untraced rounds and reports its per-layer metrics, made
by bench/tracing.py, as medians over the traced rounds, with
trace.overhead_s = median traced run_s - median untraced run_s.
"""

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 60.0

# one walk worker (HYPERWALK_THREADS unset) and one BLAS thread: at most two
# busy threads, the core count of the reference machine
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HYPERWALK_THREADS", "PYTHONPATH")}
    env.update(THREAD_ENV)
    return env


def reference_s() -> float:
    """Wall time of a fixed computation that does not use hyperwalk: a mix of
    interpreter work and NumPy array work, the two kinds of work the workloads
    do, with the same operations on every call.  Timed in this process before
    the first round and after each round, it follows the speed the shared host
    gives the benchmark, which drifts by tens of per cent over minutes."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(1_200_000):
        x = (i * 2654435761) % 1000003
        acc += math.sqrt(x) * 0.5
        table[x & 1023] = acc
    rng = np.random.Generator(np.random.PCG64(12345))
    for _ in range(240):
        a = np.sort(rng.standard_normal(50_000))
        acc += float((np.sinh(np.abs(a) * 0.1) * np.exp(-a * a)).sum())
    return time.perf_counter() - t0


def run_round(wl, seed: int, k: int, run_dir: Path, traced: bool) -> dict:
    out_dir = run_dir / f"round{k}"
    out_dir.mkdir(parents=True)
    walk_seed = round_seed(wl.name, seed, k)
    spec = {"src": str(SRC), "argv": wl.argv(walk_seed, str(out_dir)), "hk_dim": wl.hk_dim,
            "trace": traced, "result": str(out_dir / "result.json")}
    rnd = {"k": k, "seed": walk_seed, "dir": str(out_dir), "traced": traced}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                              cwd=out_dir, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rnd["error"] = f"round {k} timed out after {CHILD_TIMEOUT_S} s"
        return rnd
    try:
        with open(spec["result"], encoding="utf-8") as fh:
            rnd.update(json.load(fh))
    except FileNotFoundError:
        rnd["error"] = f"round {k} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return rnd
    if rnd["rc"] != 0:
        rnd["error"] = f"round {k}: CLI exit code {rnd['rc']}: {proc.stderr.strip()[-2000:]}"
    return rnd


def answered(rnd: dict) -> bool:
    """The CLI wrote an answer: exit 0, or exit 1 with a (failing) verdict to check."""
    if "rc" not in rnd:
        return False
    return rnd["rc"] == 0 or (rnd["rc"] == 1 and (Path(rnd["dir"]) / "verdict.json").is_file())


def run_workload(name: str, seed: int, seconds: float, metrics: list, trace: bool) -> dict:
    wl = WORKLOADS[name]
    run_dir = OUT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        rounds, lengths = [], []
        start = time.perf_counter()
        refs = [reference_s()]
        # a round, with the reference timed after it, starts only if a round
        # of median length still ends within the run; in a traced run even
        # rounds are traced, odd ones untraced
        while (len(rounds) < (2 if trace else 1)
               or time.perf_counter() - start + statistics.median(lengths) <= seconds):
            k = len(rounds)
            t0 = time.perf_counter()
            rounds.append(run_round(wl, seed, k, run_dir, trace and k % 2 == 0))
            refs.append(reference_s())
            lengths.append(time.perf_counter() - t0)

        import hyperwalk  # checks run here, after every timed round

        ref = wl.reference(hyperwalk)
        failures = []
        for rnd in rounds:
            if "error" in rnd:
                print(rnd["error"], file=sys.stderr)
            if answered(rnd):
                failures += [f"round {rnd['k']}: {f}" for f in wl.check(rnd["dir"], rnd["seed"], ref)]
        for f in failures:
            print(f"CHECK FAILED {name}: {f}", file=sys.stderr)

        good = [r for r in rounds if answered(r)]
        values = (traced_metrics if trace else end_to_end)(name, good, refs, metrics) if good else {}
        return {"correct": not failures, "attempted": len(rounds),
                "failed": len(rounds) - len(good), "metrics": values}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end(name: str, good: list, refs: list, metrics: list) -> dict:
    # run_ref: the mean CLI time in units of the mean reference time of the
    # same run, so a drift of the host's speed cancels; means, because a run
    # has only 4-6 rounds, and a median of so few wastes most of them
    values = {"setup_s": statistics.median(r["setup_s"] for r in good),
              "run_ref": statistics.mean(r["run_s"] for r in good) / statistics.mean(refs),
              "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in good)}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def traced_metrics(name: str, good: list, refs: list, metrics: list) -> dict:
    traced = [r for r in good if r["traced"]]
    plain = [r for r in good if not r["traced"]]
    if not traced or not plain:
        return {}
    with open(OUT / f"spans-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                   "spans": traced[-1]["spans"]}, fh)
    values = {}
    for r in traced:
        r["layers"].update({"setup.import_s": r["import_s"],
                            "heat_kernel.first_call_s": r["first_call_s"]})
    for m in metrics:
        metric = m["name"]
        if metric == "process.cpu_s":
            val = statistics.median(r["cpu_s"] for r in plain)
        elif metric == "bench.run_wall_s":
            val = statistics.median(r["run_s"] for r in plain)
        elif metric == "bench.reference_s":
            val = statistics.mean(refs)
        elif metric == "trace.overhead_s":
            val = (statistics.median(r["run_s"] for r in traced)
                   - statistics.median(r["run_s"] for r in plain))
        else:
            val = statistics.median(r["layers"][metric] for r in traced)
        values[metric] = {"value": val, "unit": m["unit"]}
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hyperwalk" / "__init__.py").is_file():
        print(f"error: no hyperwalk package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    # byte-compile once, so no round's set-up pays for compiling the package
    compileall.compile_dir(str(SRC), quiet=1)
    # untimed, so the first timed reference pays no first-call costs of NumPy
    reference_s()
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, metrics, bool(args.trace))
        if args.workload == "all":
            res = results[name]
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if args.workload == "all":
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}.{m}": v for n, r in results.items()
                               for m, v in r["metrics"].items()}}
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    import numpy as np
    from workloads import WORKLOADS, round_seed

    sys.exit(main())
