#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload learn|engines|schedule --seed N \\
                             --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It builds
perfbench/bench.exe with dune, runs it, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
wall time of the untraced passes that fit in S seconds, the median
set-up time of several fresh processes, and the peak heap. --trace 1
reports the per-layer metrics: one traced process per workload, the
tracing overhead of the requested workload, and a pool probe on nproc
domains (at most 4).

Every ICOE_* variable is cleared so the library runs with its defaults,
then ICOE_DOMAINS is set: 1 for the workload processes, so no domain is
ever spawned beside them, and nproc (at most 4) for the pool probe.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ("learn", "engines", "schedule")
# fresh processes whose set-up time is sampled, the measuring one included
SETUP_SAMPLES = 9
# every run must finish within 180 s once the program is built
RUN_BUDGET_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def environment(domains):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ICOE_")}
    env["ICOE_DOMAINS"] = str(domains)
    return env


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail(f"{ROOT} is not a checkout of the repository (no dune-project or lib/)")
    # dune from PATH, else from the opam switch
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    # keep every build output inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=880,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def bench(workload, seed, deadline, *mode, domains=1):
    """Run bench.exe once; its parsed last line."""
    args = [EXE, "--workload", workload, "--seed", str(seed), "--reference", REFERENCE]
    args += ["--t0-ns", str(time.monotonic_ns()), *mode]
    try:
        proc = subprocess.run(
            args,
            cwd=ROOT,
            env=environment(domains),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} {' '.join(mode)}: out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} {' '.join(mode)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def end_to_end(workload, seed, seconds, deadline):
    setup = [
        bench(workload, seed, deadline, "--setup-only")["metrics"]["setup_s"]["value"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = bench(workload, seed, deadline, "--seconds", str(seconds))
    metrics = result["metrics"]
    setup.append(metrics["setup_s"]["value"])
    print("perfbench: setup_s samples " + " ".join(f"{v:.6f}" for v in setup),
          file=sys.stderr)
    metrics["setup_s"]["value"] = statistics.median(setup)
    return result, metrics


def per_layer(workload, seed, deadline):
    """One traced process per workload, the requested one also measuring
    the GC work of its pass and the tracing overhead, then the pool probe."""
    merged = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    runs = [(w, ["--profile"] + (["--overhead"] if w == workload else []), 1)
            for w in WORKLOADS]
    runs.append(("engines", ["--pool-probe"], min(nproc(), 4)))
    for w, mode, domains in runs:
        r = bench(w, seed, deadline, *mode, domains=domains)
        print(f"perfbench: {w} {' '.join(mode)}: provenance "
              f"{json.dumps(r['provenance'])}", file=sys.stderr)
        for key in ("attempted", "failed"):
            merged[key] += r[key]
        merged["correct"] = merged["correct"] and r["correct"]
        if "--overhead" in mode:
            merged["provenance"] = r["provenance"]
        metrics.update(r["metrics"])
    metrics["calls"] = {"value": merged["attempted"], "unit": "count"}
    metrics["error_rate"] = {
        "value": merged["failed"] / max(1, merged["attempted"]),
        "unit": "ratio",
    }
    return merged, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if a.trace:
        result, metrics = per_layer(a.workload, a.seed, deadline)
        expected = declared("per_layer")
    else:
        result, metrics = end_to_end(a.workload, a.seed, a.seconds, deadline)
        expected = declared("end_to_end")

    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, wrong unit {wrong}")
    if any(m["value"] is None for m in metrics.values()):
        fail("a metric is not a finite number")

    provenance = dict(result["provenance"], launcher_nproc=str(nproc()))
    print("provenance: " + json.dumps(provenance))
    print(json.dumps({
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in expected},
    }))


if __name__ == "__main__":
    main()
