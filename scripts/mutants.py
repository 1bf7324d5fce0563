#!/usr/bin/env python3
"""Mutation gate: every mutant below must fail a test that is not a bit pin.

    python scripts/mutants.py

A mutant is one exact text replacement in a file under src/phishdefense.
The gate first runs the unmutated checkout, then each mutant, in a copy of
the whole checkout (without .git, caches and BENCH_*.json) under a temporary
directory: the tests that start subprocesses build their PYTHONPATH from
their own checkout, so a copy of src/ alone would run those unmutated. In the
copy it runs

    python -m pytest -q -m "not slow" -p no:cacheprovider --hypothesis-profile=ci -rfE

with the copy's src first on PYTHONPATH. It prints one JSON table to stdout,
each mutant with the tests that fail or error under it, and exits 1 if a
mutant's old text does not occur exactly once, if the unmutated run fails,
or if a mutant is killed by no test outside tests/test_pinned_arithmetic.py:
the pins fail on any change of bits, so they would hide a missing check.
Mutants run concurrently, one per usable CPU. Nothing in the checkout is
written. A change that moves a mutant's code edits its old text here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTEST = [sys.executable, "-m", "pytest", "-q", "-m", "not slow", "-p", "no:cacheprovider",
          "--hypothesis-profile=ci", "-rfE"]
PINS = "tests/test_pinned_arithmetic.py::"
TIMEOUT_S = 900
SKIP = shutil.ignore_patterns(".git", ".hypothesis", "__pycache__", ".pytest_cache", ".benchmarks",
                              ".perfbench", ".bench_build", "*.egg-info", "BENCH_*.json")

# (name, file under src/phishdefense, exact old text, new text)
MUTANTS = [
    # the numeric core: a gate of each cell, the packed order, the head, the loss, Adam, the
    # embedding's scatter-add and dropout
    ("lstm.step.f", "layers.py", "np.multiply(f, prev[1], out=c)", "np.multiply(i, prev[1], out=c)"),
    ("gru.step.r", "layers.py", "rh = r * h_prev", "rh = h_prev.copy()"),
    ("scan.packed_order", "layers.py", "index = order[rank] * width + steps", "index = rank * width + steps"),
    ("head.pair_sign", "model.py", "np.array([-1.0, 1.0])", "np.array([1.0, -1.0])"),
    ("bce.clamp", "model.py", "(p > EPS_CLAMP) & (p < 1.0 - EPS_CLAMP)", "(p > EPS_CLAMP)"),
    ("adam.bias_correction", "tensor.py", "m_hat = m / (1.0 - b1**t)", "m_hat = m"),
    # grad[ids] = rows: a repeated id keeps its last row instead of the sum
    ("embed.add_at", "layers.py", "np.add.at(grad, np.asarray(ids, dtype=np.int64).ravel(),",
     "grad.__setitem__(np.asarray(ids, dtype=np.int64).ravel(),"),
    ("dropout.mask", "layers.py", "(rng.random(x.shape) >= rate)", "(rng.random(x.shape) < rate)"),
    ("dropout.scale", "layers.py", "/ (1.0 - rate)", "* 1.0"),
    # the rate schedule, early stopping and the metrics
    ("plateau.tol", "train.py", "loss < best - IMPROVE_TOL", "loss < best"),
    ("plateau.reset", "train.py", "best, stagnant = loss, 0", "best = loss"),
    ("plateau.patience", "train.py", "LR_PATIENCE = 5", "LR_PATIENCE = 4"),
    ("plateau.floor", "train.py", "max(lr * LR_FACTOR, MIN_LR)", "lr * LR_FACTOR"),
    ("plateau.stop", "train.py", "stagnant >= EARLY_STOP_PATIENCE", "stagnant > EARLY_STOP_PATIENCE"),
    ("score.fn", "train.py", "fn += int(np.sum((pred == 0) & (labels == 1)))",
     "fn += int(np.sum((pred == 0) & (labels == 0)))"),
    ("evaluate.zero_denominator", "train.py", "if (tp + fp) > 0 else 1.0", "if (tp + fp) > 0 else 0.0"),
    ("evaluate.f_score", "train.py", "2 * precision * recall / (precision + recall)",
     "(precision + recall) / 2"),
    ("bench.p95", "train.py", "float(np.percentile(samples, 95))", "float(np.percentile(samples, 50))"),
    # the codec, the split, the batches and the model file
    ("codec.head", "codec.py", "kept = url[:max_len]", "kept = url[-max_len:]"),
    ("codec.case", "codec.py", "kept = url[:max_len]", "kept = url[:max_len].lower()"),
    ("codec.unk", "codec.py", "vocab.mapping.get(ch, UNK_ID)", "vocab.mapping.get(ch, PAD_ID)"),
    ("codec.pad", "codec.py", "np.full(max_len, PAD_ID", "np.full(max_len, UNK_ID"),
    ("split.unseeded", "data.py", "np.random.default_rng(seed).permutation(n)", "np.random.default_rng().permutation(n)"),
    ("split.overlap", "data.py", "test=mk(perm[~to_train])", "test=mk(perm[n_train - 1:])"),
    ("split.stratify", "data.py", 'perm = perm[np.argsort(labels[perm], kind="stable")]', "perm = perm"),
    ("batches.partial", "data.py", "range(0, len(ds), batch_size)", "range(0, len(ds) - batch_size + 1, batch_size)"),
    ("store.crc", "store.py", "if zlib.crc32(body) & 0xFFFFFFFF != crc:", "if False:"),
    ("store.truncated_header", "store.py", "if len(blob) < 12 + header_len + 4:", "if False:"),
    # the command line and the server
    ("cli.bench_reps", "cli.py", "bench_inference(model, urls, args.reps)", "bench_inference(model, urls, 100)"),
    # a request's Content-Length is ASCII digits only: int() would also take a sign
    ("handler.content_length_sign", "cli.py", "value.isascii() and value.isdigit()",
     'value.isascii() and value.lstrip("+").isdigit()'),
    ("serve.deadline", "serve.py", "self.deadline = time.monotonic() + REQUEST_TIMEOUT_S",
     "self.deadline = time.monotonic() + 10 * REQUEST_TIMEOUT_S"),
    # a readline that waited for a line break waits for its limit instead
    ("serve.wants_line", "serve.py", "self.wants = end, line", "self.wants = end, False"),
]


def mutated(name: str, old: str, new: str) -> str:
    """The text of src/phishdefense/name with old, which must occur exactly once, replaced."""
    with open(os.path.join(ROOT, "src", "phishdefense", name), encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit(f"mutants: {old!r} occurs {text.count(old)} times in {name}, not once")
    return text.replace(old, new)


def run(mutant) -> dict:
    """The suite's failures in a copy of the checkout with mutant applied (None: unmutated)."""
    t0, label = time.monotonic(), mutant[0] if mutant else "unmutated"
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if mutant:
            _, path, old, new = mutant
            with open(os.path.join(tree, "src", "phishdefense", path), "w", encoding="utf-8") as fh:
                fh.write(mutated(path, old, new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(tree, "src"),
                                                                        os.environ.get("PYTHONPATH")])),
                   PYTEST_DEBUG_TEMPROOT=tmp)
        try:
            proc = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"mutants: the suite under {label} ran over {TIMEOUT_S} s")
    # -rfE summary lines: "FAILED <test id> - <message>" and "ERROR <test id> - <message>"
    killed = sorted({line.partition(" ")[2].partition(" - ")[0] for line in proc.stdout.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    if proc.returncode != (1 if killed else 0):  # 2 and up: interrupted, an internal or a usage error
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"mutants: pytest exited {proc.returncode} under {label}")
    seconds = round(time.monotonic() - t0, 1)
    print(f"mutants: {label}: {len(killed)} failing, {seconds} s", file=sys.stderr)
    return {"killed_by": killed, "seconds": seconds}


def main() -> int:
    for _, path, old, new in MUTANTS:  # a stale mutant fails before any run
        mutated(path, old, new)
    base = run(None)
    if base["killed_by"]:
        raise SystemExit(f"mutants: the unmutated checkout fails {base['killed_by']}")
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        results = list(pool.map(run, MUTANTS))
    table = [{"mutant": name, "file": path, "old": old, "new": new, **r}
             for (name, path, old, new), r in zip(MUTANTS, results)]
    survivors = [row["mutant"] for row in table if all(t.startswith(PINS) for t in row["killed_by"])]
    print(json.dumps({"unmutated_seconds": base["seconds"], "mutants": table, "survivors": survivors}, indent=1))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
