#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--first-seed S] [--claim WORKLOAD:METRIC] [--traced-seed S] \\
        [--description TEXT]

The parent side runs from a `git archive` export of REV in a temporary
directory (nothing is registered in the repository's .git); the change side
runs in this working tree as it stands. For each workload (serve, score,
train), pair k of 10 runs `perfbench/run.py --workload W --seed S+k
--seconds 20` once on each side, and the side that runs first alternates
from pair to pair. Both sides use
this tree's perfbench/ and BENCHMARK.json, so the export must hold the same
benchmark files: the script refuses to run if they differ.

The output follows BENCH_16.json: per workload and end-to-end metric, each
side's median and quartiles over its runs, the pairs the change wins
(ties count for neither), how much worse the change's median reads
relative to the parent's (negative: better), the parent's quartile spread
over its median, and whether the change stays within the metric's bound
or the spread makes the comparison unresolved. With --traced-seed, each
side also makes one `--trace 1` run per workload, whose per-layer metrics
are stored under "traced". Nothing under perfbench/ is edited.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the protocol a claimed gain is judged by: 10 alternating pairs of 20 s runs per workload
WORKLOADS = ("serve", "score", "train")
PAIRS = 10
SECONDS = 20.0


def export(rev: str, into: str) -> None:
    """The tree of rev, as committed, under into."""
    archive = os.path.join(into, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    os.remove(archive)


def same_benchmark(other: str) -> bool:
    """True if other holds this tree's BENCHMARK.json and perfbench/ sources."""
    if not filecmp.cmp(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(other, "BENCHMARK.json"), shallow=False):
        return False
    ours = os.path.join(ROOT, "perfbench")
    names = sorted(n for n in os.listdir(ours) if os.path.isfile(os.path.join(ours, n)) and not n.endswith(".pyc"))
    match, mismatch, errors = filecmp.cmpfiles(ours, os.path.join(other, "perfbench"), names, shallow=False)
    return not mismatch and not errors


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in tree: its return code, environment and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=60 * seconds + 900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return {"returncode": proc.returncode, "environment": None, "result": None}
    return {"returncode": 0, "environment": json.loads(lines[-2])["environment"],
            "result": json.loads(lines[-1])}


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": [float(v) for v in values]}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric over the pairs, as BENCH_16.json reports it."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    worse = sign * (p["median"] - c["median"]) / p["median"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    every_run_better = min(sign * v for v in change) > max(sign * v for v in parent)
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "change_better_pairs": int(wins), "change_worse_rel": float(worse),
            "parent_spread_rel": float(spread), "within_bound": bool(worse <= bound),
            "unresolved": bool(spread > bound and not every_run_better)}


def claim_text(stats: dict, pairs: int, unit: str) -> str:
    p, c = stats["parent"], stats["change"]
    diff = abs(c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    direction = "higher" if stats["better"] == "higher" else "lower"
    verdict = "exceeds" if diff > spread else "does not exceed"
    return (f"{p['median']:.1f} [{p['q1']:.1f}, {p['q3']:.1f}] -> {c['median']:.1f} "
            f"[{c['q1']:.1f}, {c['q3']:.1f}] {unit}, {direction} in {stats['change_better_pairs']}/{pairs} "
            f"pairs; the median difference ({diff:.1f} {unit}) {verdict} the parent's quartile "
            f"spread ({spread:.1f} {unit})")


def host(env: dict) -> str:
    blas = env["blas"]
    return (f"{env['cpus_usable']} usable of {env['nproc']} CPUs ({env['cpu_model']}); "
            f"Python {env['python']}, numpy {env['numpy']} ({blas.get('name')} {blas.get('version')}, "
            f"{blas.get('threads')} BLAS threads)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--traced-seed", type=int, help="also make one traced run per side and workload")
    ap.add_argument("--description", default="")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        export(args.parent, parent_tree)
        if not same_benchmark(parent_tree):
            print(f"bench_pairs: {args.parent} has other benchmark files than this tree", file=sys.stderr)
            return 2
        trees = {"parent": parent_tree, "change": ROOT}
        runs, env, traced = [], None, {}
        seeds = [args.first_seed + k for k in range(PAIRS)]
        for workload in WORKLOADS:
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    t0 = time.perf_counter()
                    out = run_once(trees[side], workload, seed, SECONDS, 0)
                    res = out["result"] or {}
                    env = env or out["environment"]
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "ran_first": side == order[0], "returncode": out["returncode"],
                                 "correct": bool(res.get("correct")), "attempted": res.get("attempted", 0),
                                 "failed": res.get("failed", 0),
                                 "metrics": {name: v["value"] for name, v in res.get("metrics", {}).items()}})
                    print(f"{workload} seed {seed} {side}: {runs[-1]['metrics']} "
                          f"correct={runs[-1]['correct']} ({time.perf_counter() - t0:.0f} s)",
                          file=sys.stderr, flush=True)
            if args.traced_seed is not None:
                for side in ("parent", "change"):
                    out = run_once(trees[side], workload, args.traced_seed, SECONDS, 1)
                    res = out["result"] or {}
                    traced.setdefault(workload, {})[side] = {
                        "correct": bool(res.get("correct")), "attempted": res.get("attempted", 0),
                        "failed": res.get("failed", 0),
                        "metrics": {name: v["value"] for name, v in res.get("metrics", {}).items()}}

    report = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        side_runs = {s: [r for r in mine if r["side"] == s] for s in ("parent", "change")}
        complete = all(len(r["metrics"]) == len(metrics) for r in mine)
        report[workload] = {
            "seeds": seeds,
            "pairs": PAIRS,
            "all_correct": all(r["correct"] and r["returncode"] == 0 for r in mine),
            "failed_operations": {s: sum(r["failed"] for r in rs) for s, rs in side_runs.items()},
            "attempted_operations": {s: sum(r["attempted"] for r in rs) for s, rs in side_runs.items()},
            "metrics": {} if not complete else {
                name: compare([r["metrics"][name] for r in side_runs["parent"]],
                              [r["metrics"][name] for r in side_runs["change"]],
                              m["better"], m["bound"])
                for name, m in metrics.items()},
        }
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        stats = report[workload]["metrics"].get(metric)
        if stats:
            claim = {"workload": workload, "metric": metric,
                     "result": claim_text(stats, PAIRS, metrics[metric]["unit"])}
    first, last = seeds[0], seeds[-1]
    protocol = (
        f"For each workload, {PAIRS} pairs of parent and change runs on seeds {first}-{last}, "
        f"one after another; the side that runs first alternates from pair to pair (ran_first). "
        f"Workloads ran in the order {', '.join(WORKLOADS)}, each run with --seconds {SECONDS:g}. "
        f"The parent ran from a git archive export of {parent_rev}, the change from the working tree, "
        f"with identical perfbench/ and BENCHMARK.json. Medians and quartiles are numpy percentiles "
        f"over the runs of a side. change_better_pairs counts pairs where the change reads better "
        f"(ties count for neither). change_worse_rel is how much worse the change's median reads than "
        f"the parent's, relative to the parent's (negative: better). parent_spread_rel is the "
        f"parent's quartile spread over its median; a metric is unresolved when that spread is wider "
        f"than the metric's bound, unless every change run reads better than every parent run.")
    if traced:
        protocol += (f" \"traced\" holds one --trace 1 run per side and workload on seed "
                     f"{args.traced_seed}, with its per-layer metrics.")
    doc = {"description": args.description,
           "command": "python3 perfbench/run.py --workload {train,score,serve} --seed N --seconds "
                      f"{SECONDS:g}",
           "protocol": protocol, "host": host(env) if env else None, "claim": claim,
           "workloads": report, "runs": runs}
    if traced:
        doc["traced"] = traced
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
