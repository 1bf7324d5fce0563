"""phishdefense benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload {train,score,serve} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
`src/` directory, so nothing needs installing. Inputs are made from --seed;
the program only sees the generated inputs.

Workloads (why each was chosen):
  train  Fits PD-GRU then PD-LSTM (default configs, 2 epochs, batch 500) on a
         4000-URL synthetic corpus split 75/25, checkpointing every epoch. The
         only workload that runs BPTT, embedding_backward, Adam and checkpoint
         writes.
  score  Batched offline scoring with train.evaluate (the `phishdefense eval`
         path) of both cells loaded from PDM1 files, on URLs with heavy-tailed
         lengths. Forward only; the longest row sets the scan length, so
         padding wastes work. Exercises the scan and length bucketing.
  serve  `phishdefense serve` with a GRU model in a subprocess, driven
         open-loop with one URL per POST /check and at most 2 connections in
         flight. Batch size 1, no padding: per-step Python overhead, encoding
         and HTTP dominate. Exercises micro-batching.

End-to-end metrics (--trace 0), reported by every workload:
  setup_s      median of the set-ups in the run (3; 5 for serve), each
               ending with an untimed warm-up (train: corpus, models, one
               forward/backward per cell; score: corpus, PDM1 loads, one
               evaluate pass per cell; serve: spawn to first 200 on GET
               /health plus 20 warm-up requests)
  urls_per_s   train: examples per second of train() wall over both fits;
               score: URLs per second through evaluate, median over rounds of
               one pass per cell; serve: replies per second with both
               connections kept busy (capacity), median over rounds of 100
               requests, one after each 2 s of the fixed-rate traffic below.
               The highest open-loop rate whose tail latency stays within
               25 ms with no failure and no growing backlog is in the details
               as max_rps_within_limit: it moves in steps near the knee, so it
               is reported, not gated. Each rung lasts --seconds / 10, so its
               tail is the highest percentile with 10 samples beyond it: at
               --seconds 20, p90 at 50 req/s and p95 from 100 req/s, not p99
  url_p50_ms   median single-URL latency. train: predict with the GRU on
               the test split, 1000 samples in 4 slices before, between and
               after the fits (predict costs the same before the fit);
               score: predict with the
               GRU on the heavy-tailed corpus, in slices between rounds, at
               least 1000 samples; serve: POST /check at a fixed 25 req/s for
               max(20, --seconds) s in 2 s rounds (500 samples at --seconds
               20), timed from when each request was due. 25 req/s keeps the
               server well below capacity even when the host is slow or
               shared, so the rounds time requests, not a queue. The details
               line also gives the highest percentile with 10 samples beyond
               it (p99; p95 for serve) and the sample count; the tail is not
               gated because on a shared 2-vCPU host it moved by more than
               25% between runs
  peak_rss_mb  peak RSS of the process doing the work (for serve, the server)

--trace 1 runs the same workload with every public function of codec, data,
layers, tensor, model, train, store and cli wrapped (see tracing.py) and
reports the per-layer metrics in PER_LAYER. Spans are written to
.perfbench/trace-<workload>-seed<N>.npz.

The last line of stdout is the result JSON; the line before it holds the
environment, the checks and per-workload details. A table with units goes
to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = {
    "setup_s": "s",
    "urls_per_s": "URLs/s",
    "url_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# (span name, statistic) pairs reported as "<span>.<statistic>".
SPAN_METRICS = (
    ("codec.encode_url", "calls"), ("codec.encode_url", "s"),
    ("layers.embedding_forward", "s"), ("layers.embedding_backward", "s"),
    ("layers.gru_forward", "s"), ("layers.gru_forward", "self_s"), ("layers.gru_step", "self_s"),
    ("layers.lstm_forward", "s"), ("layers.lstm_forward", "self_s"), ("layers.lstm_step", "self_s"),
    ("layers.gru_backward", "s"), ("layers.lstm_backward", "s"), ("layers.dense_forward", "s"),
    ("tensor.sigmoid", "calls"), ("tensor.sigmoid", "s"),
    ("tensor.adam_step", "calls"), ("tensor.adam_step", "s"),
    ("model.forward_batch", "calls"), ("model.forward_batch", "s"), ("model.forward_batch", "self_s"),
    ("model.backward_batch", "s"), ("model.backward_batch", "self_s"),
    ("model.predict", "calls"), ("model.predict", "s"),
    ("train.evaluate", "s"), ("train.evaluate", "self_s"),
    ("train.train", "s"), ("train.train", "self_s"),
    ("store.load_model", "s"), ("store.save_model", "calls"), ("store.save_model", "s"),
    ("cli.handler", "s"), ("cli.handler", "self_s"),
)
# name -> (unit, better)
PER_LAYER = {
    **{f"{span}.{stat}": ("count" if stat == "calls" else "s", "lower") for span, stat in SPAN_METRICS},
    "data.batches.wait_s": ("s", "lower"),
    "data.batches.rows": ("count", "higher"),
    "layers.scan_steps_run": ("count", "lower"),
    "layers.scan_steps_useful": ("count", "higher"),
    "layers.pad_efficiency": ("ratio", "higher"),
    "model.forward_batch.rows_per_call_median": ("count", "higher"),
    "model.forward_batch.rows_per_call_max": ("count", "higher"),
    "cli.http_overhead_ms": ("ms", "lower"),
    "loadgen.late_ms": ("ms", "lower"),
    "loadgen.queue_wait_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def layer_metrics(result, span_cost: float):
    """Per-layer metrics of a traced run; a layer the workload never entered reads 0."""
    import tracing
    from timing import median

    spans, names, counters, samples = result.trace
    table = tracing.layer_table(spans, names)
    out = {f"{span}.{stat}": float(table.get(span, {}).get(stat, 0.0)) for span, stat in SPAN_METRICS}
    run_steps = counters.get("layers.scan_steps_run", 0.0)
    useful = counters.get("layers.scan_steps_useful", 0.0)
    rows = samples.get("model.forward_batch.rows", [])
    n_spans = len(spans["start"])
    out.update({
        "data.batches.wait_s": float(table.get("data.batches", {}).get("s", 0.0)),
        "data.batches.rows": float(counters.get("data.batches.rows", 0.0)),
        "layers.scan_steps_run": float(run_steps),
        "layers.scan_steps_useful": float(useful),
        "layers.pad_efficiency": useful / run_steps if run_steps else 0.0,
        "model.forward_batch.rows_per_call_median": float(median(rows)) if rows else 0.0,
        "model.forward_batch.rows_per_call_max": float(max(rows, default=0)),
        "cli.http_overhead_ms": 0.0,
        "loadgen.late_ms": 0.0,
        "loadgen.queue_wait_ms": 0.0,
        "trace.spans": float(n_spans),
        "trace.overhead_share": n_spans * span_cost / result.busy_s,
    })
    out.update(result.layer_extra)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    info = {"env_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": commit,
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("train", "score", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Unwind on SIGTERM too, so a server subprocess is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "phishdefense", "__init__.py")):
        print(f"perfbench: no phishdefense sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import phishdefense as pd

    if os.path.dirname(os.path.dirname(os.path.abspath(pd.__file__))) != SRC:
        print(f"perfbench: imported phishdefense from {pd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        if args.workload != "serve":  # serve is traced inside the server process
            tracing.install(tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    start = time.perf_counter()
    try:
        result = getattr(workloads, args.workload)(pd, args.seed, args.seconds, tracer, workdir)
        result.busy_s = result.busy_s or time.perf_counter() - start
        if args.trace:
            if result.trace is None:
                result.trace = (tracer.snapshot(), tracer.names, dict(tracer.counters), dict(tracer.samples))
            tracing.save(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz"), *result.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = layer_metrics(result, tracing.span_cost())
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values, units = result.metrics, END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = all(result.checks.values()) and result.failed == 0
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "checks": result.checks,
        "details": result.details,
        "end_to_end": result.metrics,
    }))
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'checks':<{width}}  {'pass' if correct else 'FAIL'} {result.checks}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
