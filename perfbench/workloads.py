"""The three workloads: train, score and serve.

Each one makes its inputs from the seed, sets up several times and keeps
the median set-up time, runs an untimed warm-up inside set-up, measures
through the package's public API, and checks the program's outputs, both
against each other and against the independent reference in reference.py.
A mismatch is counted as a failed operation, never dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Optional

import numpy as np

import loadgen
import reference
import tracing
from timing import median, percentile, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
CELLS = ("gru", "lstm")
MAX_LEN = 200
# Single-URL latencies per run: enough for a p99 with 10 samples beyond it.
LATENCY_SAMPLES = 1000

TRAIN_URLS = 4000
TRAIN_EPOCHS = 2
TRAIN_BATCH = 500
# The GRU's predict latencies are taken in slices before, between and after
# the fits, so a slow spell of the host moves only part of the sample.
TRAIN_LATENCY_SLICES = 4
# URLs of the test split whose loss gradient is checked by central differences.
TRAIN_FD_URLS = 8
# Final validation losses this benchmark recorded per seed (expected.json),
# and how far a later run may drift from them: a reordered sum moves the
# loss by far less, a changed update by more.
EXPECTED_PATH = os.path.join(HERE, "expected.json")
VAL_LOSS_RTOL = 1e-6

# Score: one evaluate batch (evaluate scores in batches of 1000) of URLs
# whose lengths follow a lognormal with median 42, capped at MAX_LEN.
SCORE_URLS = 250
SCORE_SAMPLE = 100
SCORE_LATENCY_SLICE = 100
LOG_MEDIAN_LEN = 42.0
LOG_SIGMA = 0.58
_PATH_WORDS = (
    "account", "session", "images", "static", "assets", "view", "item",
    "search", "redirect", "update", "docs", "catalog", "profile", "cart",
)

SERVE_URLS = 2000
# The fixed-rate slices run well below capacity, so they time single
# requests, not a queue: on a slow or shared 2-vCPU host capacity fell to
# 80-100 req/s, and 100 req/s then overloaded the server and dropped requests.
SERVE_FIXED_RATE = 25
SERVE_FIXED_MIN_S = 20.0  # 500 requests, so p95 has 10 samples beyond it
# The fixed-rate time is cut into rounds of SERVE_ROUND_S, each followed by
# a capacity slice of SERVE_SATURATION requests, so a slow spell of the host
# falls on both measures alike and medians over the rounds can absorb it.
SERVE_ROUND_S = 2.0
SERVE_SATURATION = 100
SERVE_RATES = (50, 100, 150, 200, 300, 400, 600)
SERVE_BISECT_STEPS = 3
SERVE_SETUPS = 5
SERVE_LIMIT_MS = 25.0
SERVE_IN_FLIGHT = 2
SERVE_WARMUP = 20
SERVE_HEALTHY_WITHIN_S = 60.0
SERVE_CHECK_SHARE = 0.05


@dataclass
class Result:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    details: Dict = field(default_factory=dict)
    # Per-layer inputs: (spans, names, counters, samples) plus metrics only the workload knows.
    trace: Optional[tuple] = None
    layer_extra: Dict[str, float] = field(default_factory=dict)
    # Seconds of traced work that span overhead is charged against; 0 means
    # the whole workload.
    busy_s: float = 0.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part).encode())
    return h.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _narrowed_equal(loaded, params) -> bool:
    return set(loaded) == set(params) and all(
        np.array_equal(loaded[k], params[k].astype(np.float32).astype(np.float64)) for k in params
    )


def train(pd, seed: int, seconds: float, tracer, workdir: str) -> Result:
    """Fit PD-GRU then PD-LSTM with default configs, checkpointing every epoch.

    The work is fixed (TRAIN_EPOCHS per cell, about 25 s on 2 vCPUs), not
    sized from `seconds`, so the validation loss stays comparable.
    """
    vocab = pd.default_vocab()
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        corpus = pd.make_synthetic_corpus(TRAIN_URLS, 0.5, seed)
        pair = pd.split(corpus, 0.75, seed)
        models = {cell: pd.build_model(pd.default_config(cell, seed=seed)) for cell in CELLS}
        ids, lens, labels = next(pd.batches(pair.train, TRAIN_BATCH, seed, vocab, MAX_LEN))
        for m in models.values():
            warm = m.copy()
            _, caches = pd.forward_batch(warm, ids, lens, mode="train")
            pd.backward_batch(warm, caches, labels)
        setups.append(time.perf_counter() - t0)

    checks = {}
    details = {"setup_s_samples": setups, "train_urls": len(pair.train), "epochs": TRAIN_EPOCHS}
    attempted = failed = 0
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)["train_val_loss"].get(str(seed), {})
    details["recorded_val_loss"] = bool(recorded)
    test_urls = [u for u, _ in pair.test.records]
    test_labels = np.array([y for _, y in pair.test.records], dtype=np.float64)
    latencies: List[float] = []
    gru = models["gru"]  # the fitted GRU once its fit returns

    def time_predicts() -> None:
        # predict costs the same whatever the weights, so the first slice
        # may time the GRU before it is fitted
        latencies.extend(_predict_latencies(pd, gru, pair.test.records, LATENCY_SAMPLES // TRAIN_LATENCY_SLICES,
                                            first=len(latencies)))

    time_predicts()
    fit_s = 0.0
    examples = 0
    batches_per_epoch = math.ceil(len(pair.train) / TRAIN_BATCH)
    for k, (cell, model) in enumerate(models.items()):
        cfg = pd.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH, seed=seed)
        ckdir = os.path.join(workdir, f"ck_{cell}")
        attempted += TRAIN_EPOCHS * batches_per_epoch
        if tracer:
            tracer.set_request(k)
        t0 = time.perf_counter()
        try:
            best, history = pd.train(model, pair, cfg, vocab=vocab, checkpoint_dir=ckdir)
        except pd.errors.NumericError as e:
            print(f"train {cell}: {e}", file=sys.stderr)
            failed += TRAIN_EPOCHS * batches_per_epoch
            checks[f"{cell}_losses_finite"] = False
            continue
        wall = time.perf_counter() - t0
        fit_s += wall
        examples += len(pair.train) * len(history)
        details[f"train_{cell}_urls_per_s"] = len(pair.train) * len(history) / wall
        val_loss = details[f"train_{cell}_val_loss"] = history[-1].val_loss
        finite = all(np.isfinite([r.train_loss, r.val_loss]).all() for r in history)
        checks[f"{cell}_losses_finite"] = finite and len(history) == TRAIN_EPOCHS
        last = os.path.join(ckdir, f"ck_epoch{history[-1].epoch}.pdm")
        checks[f"{cell}_checkpoint_reloads"] = _narrowed_equal(pd.load_model(last).params, model.params)
        expected = reference.bce(test_labels, reference.probabilities(model.config, model.params, test_urls))
        # the same sums in another order: only rounding may differ
        checks[f"{cell}_val_loss_matches_reference"] = abs(val_loss - expected) <= 1e-9 * expected
        names = ["losses_finite", "checkpoint_reloads", "val_loss_matches_reference"]
        if cell in recorded:
            checks[f"{cell}_val_loss_matches_recorded"] = abs(val_loss - recorded[cell]) <= VAL_LOSS_RTOL * recorded[cell]
            names.append("val_loss_matches_recorded")
        failed += sum(not checks[f"{cell}_{c}"] for c in names)
        coords, off = reference.gradient_mismatches(pd, model, pair.test.records[:TRAIN_FD_URLS], seed)
        checks[f"{cell}_gradients_match_differences"] = off == 0
        attempted += coords
        failed += off
        if cell == "gru":
            gru = best
            mismatched = _mismatches(pd, best, pair.test.records)
            checks["gru_batched_equals_single"] = mismatched["batched_equals_single"] == 0
            checks["gru_matches_reference"] = mismatched["matches_reference"] == 0
            attempted += len(pair.test)
            failed += sum(mismatched.values())
        time_predicts()
    steps, off = reference.adam_mismatches(pd, seed)
    checks["adam_matches_reference"] = off == 0
    attempted += steps
    failed += off
    time_predicts()
    attempted += len(latencies)
    lat = summarize(latencies)
    metrics = {
        "setup_s": median(setups),
        "urls_per_s": examples / fit_s,
        "url_p50_ms": lat["median"],
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    details["latency_ms"] = lat
    details["inputs_sha256"] = _digest(
        corpus.records, *(m.params[k].tobytes() for m in models.values() for k in sorted(m.params))
    )
    return Result(metrics, attempted, failed, checks, details)


def _mismatches(pd, model, records) -> Dict[str, int]:
    """Disagreements between the program's outputs on records.

    batched_equals_single: verdicts of per-URL predict that differ from
    batched evaluate's confusion matrix. matches_reference: batched and
    per-URL probabilities off the independent reference, plus evaluate
    verdicts that differ from the reference's.
    """
    vocab = pd.default_vocab()
    urls = [u for u, _ in records]
    labels = [y for _, y in records]
    single = np.array([pd.predict(model, u, vocab)[1] for u in urls])
    encoded = [pd.encode_url(u, vocab, model.config.max_len) for u in urls]
    batched, _ = pd.forward_batch(model, np.stack([e.ids for e in encoded]),
                                  np.array([e.true_len for e in encoded]), mode="infer")
    expected = reference.probabilities(model.config, model.params, urls)
    report = pd.evaluate(model, pd.LabeledDataset(list(records))).confusion

    def apart(a, b) -> int:
        return sum(abs(x - y) for x, y in zip(a, b)) // 2

    return {
        "batched_equals_single": apart(report, reference.confusion(single, labels)),
        "matches_reference": (reference.prob_mismatches(batched, expected)
                              + reference.prob_mismatches(single, expected)
                              + apart(report, reference.confusion(expected, labels))),
    }


def _predict_latencies(pd, model, records, n: int, first: int) -> List[float]:
    """Milliseconds of n single-URL predict calls, cycling through records from record `first`."""
    vocab = pd.default_vocab()
    latencies = []
    for k in range(first, first + n):
        t0 = time.perf_counter()
        pd.predict(model, records[k % len(records)][0], vocab)
        latencies.append((time.perf_counter() - t0) * 1e3)
    return latencies


def heavy_tailed(corpus, seed: int):
    """Extend each URL with path segments to a capped lognormal length.

    The lengths are the lognormal's quantiles at (k + 0.5) / N, dealt to the
    URLs in a seeded order, so every seed gets the same length distribution
    and the same padding waste; the seed decides the text.
    """
    rng = np.random.default_rng([seed, 17])
    n = len(corpus)
    unit = NormalDist()
    lengths = [
        min(MAX_LEN, int(LOG_MEDIAN_LEN * math.exp(LOG_SIGMA * unit.inv_cdf((k + 0.5) / n))))
        for k in range(n)
    ]
    records = []
    for (url, label), target in zip(corpus.records, rng.permutation(lengths)):
        longer = url
        while len(longer) < target:
            longer += f"/{_PATH_WORDS[rng.integers(len(_PATH_WORDS))]}{rng.integers(100)}"
        records.append((longer[: max(len(url), target)], label))
    return records


def score(pd, seed: int, seconds: float, tracer, workdir: str) -> Result:
    """Batched offline scoring through train.evaluate, models loaded from PDM1.

    Each round runs one evaluate pass per cell, then times a slice of
    single-URL GRU predicts, so the latency samples spread over the run.
    """
    paths = {}
    for cell in CELLS:
        paths[cell] = os.path.join(workdir, f"{cell}.pdm")
        pd.save_model(pd.build_model(pd.default_config(cell, seed=seed)), paths[cell])
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        corpus = pd.LabeledDataset(heavy_tailed(pd.make_synthetic_corpus(SCORE_URLS, 0.5, seed), seed))
        models = {cell: pd.load_model(paths[cell]) for cell in CELLS}
        for m in models.values():
            pd.evaluate(m, corpus)
        setups.append(time.perf_counter() - t0)

    passes = {cell: [] for cell in CELLS}
    rounds = []
    latencies = []
    attempted = failed = 0
    count_ok = True
    vocab = pd.default_vocab()
    records = corpus.records
    deadline = time.perf_counter() + seconds
    while len(latencies) < LATENCY_SAMPLES or time.perf_counter() < deadline:
        if tracer:
            tracer.set_request(len(rounds))
        round_s = 0.0
        for cell, m in models.items():
            t0 = time.perf_counter()
            report = pd.evaluate(m, corpus)
            took = time.perf_counter() - t0
            round_s += took
            passes[cell].append(len(corpus) / took)
            attempted += len(corpus)
            miss = abs(len(corpus) - sum(report.confusion))
            failed += miss
            count_ok = count_ok and miss == 0
        rounds.append(len(models) * len(corpus) / round_s)
        for _ in range(SCORE_LATENCY_SLICE):
            url = records[len(latencies) % len(records)][0]
            t0 = time.perf_counter()
            pd.predict(models["gru"], url, vocab)
            latencies.append((time.perf_counter() - t0) * 1e3)

    # Batched verdicts must equal per-URL predict, and both must match the
    # reference: every URL for the GRU, a seeded sample for the LSTM.
    rng = np.random.default_rng([seed, 29])
    sample = [records[i] for i in rng.choice(len(records), SCORE_SAMPLE, replace=False)]
    mismatched = {"gru": _mismatches(pd, models["gru"], records), "lstm": _mismatches(pd, models["lstm"], sample)}
    checks = {"counts_sum_to_n": count_ok}
    for cell, counts in mismatched.items():
        checks.update({f"{cell}_{name}": n == 0 for name, n in counts.items()})
        failed += sum(counts.values())
    attempted += len(latencies) + len(records) + len(sample)
    lat = summarize(latencies)
    metrics = {
        "setup_s": median(setups),
        "urls_per_s": median(rounds),
        "url_p50_ms": lat["median"],
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    lengths = [len(u) for u, _ in records]
    details = {
        "setup_s_samples": setups,
        "rounds_urls_per_s": rounds,
        **{f"score_{cell}_urls_per_s": median(passes[cell]) for cell in CELLS},
        "latency_ms": lat,
        "corpus_urls": len(corpus),
        "url_len_mean": float(np.mean(lengths)),
        "url_len_p99": percentile(lengths, 99),
        "inputs_sha256": _digest(records, *(_read(paths[c]) for c in CELLS)),
    }
    return Result(metrics, attempted, failed, checks, details)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _default_sigint() -> None:
    # A benchmark started in the background inherits SIGINT ignored; the
    # server must see it to shut down at once and, when traced, write its spans.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class _Server:
    """One `phishdefense serve` subprocess on a free local port."""

    def __init__(self, model_path: str, trace_out: Optional[str]) -> None:
        self.address = ("127.0.0.1", _free_port())
        args = ["serve", "--model", model_path, "--bind", "%s:%d" % self.address]
        if trace_out:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), trace_out, *args]
        else:
            cmd = [sys.executable, "-m", "phishdefense.cli", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
        self.proc = subprocess.Popen(
            cmd, cwd=os.path.dirname(model_path), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=_default_sigint,
        )

    def wait_healthy(self) -> None:
        deadline = time.perf_counter() + SERVE_HEALTHY_WITHIN_S
        while loadgen.get(self.address, "/health") != 200:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server not healthy in time")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def _latencies_ms(outcomes) -> List[float]:
    """Client latencies from due time; a failed request counts as the timeout."""
    return [o.latency * 1e3 if o.ok else loadgen.TIMEOUT_S * 1e3 for o in outcomes]


def serve(pd, seed: int, seconds: float, tracer, workdir: str) -> Result:
    """Open-loop POST /check traffic against `phishdefense serve` with a GRU model."""
    traced = tracer is not None
    model_path = os.path.join(workdir, "gru.pdm")
    pd.save_model(pd.build_model(pd.default_config("gru", seed=seed)), model_path)
    urls = [u for u, _ in pd.make_synthetic_corpus(SERVE_URLS, 0.5, seed).records]
    payloads = [json.dumps({"url": u}).encode() for u in urls]

    def requests(first: int, n: int) -> List[bytes]:
        # Request ids run on across phases; request k carries URL k mod SERVE_URLS.
        return [loadgen.http_request("POST", "/check", payloads[rid % len(payloads)], rid)
                for rid in range(first, first + n)]

    setups: List[float] = []
    server = None
    trace_out = None
    all_outcomes = []
    ladder = []
    unsent = 0  # requests of the fixed and saturation phases dropped unsent
    try:
        for k in range(SERVE_SETUPS):
            trace_out = os.path.join(workdir, f"server{k}.npz") if traced else None
            t0 = time.perf_counter()
            server = _Server(model_path, trace_out)
            server.wait_healthy()
            # untimed warm-up, charged to set-up: a few requests one at a time
            now = time.perf_counter()
            warm, _ = loadgen.run_open_loop(server.address, requests(-SERVE_WARMUP, SERVE_WARMUP),
                                            [now] * SERVE_WARMUP, 1, first_rid=-SERVE_WARMUP)
            setups.append(time.perf_counter() - t0)
            if not all(o.ok for o in warm):
                raise RuntimeError("warm-up request failed")
            if k < SERVE_SETUPS - 1:
                server.stop()

        fixed = []
        capacities = []
        for _ in range(math.ceil(max(SERVE_FIXED_MIN_S, seconds) / SERVE_ROUND_S)):
            first = len(all_outcomes)
            due = loadgen.schedule(SERVE_FIXED_RATE, SERVE_ROUND_S, time.perf_counter() + 0.05)
            outs, _ = loadgen.run_open_loop(server.address, requests(first, len(due)), due,
                                            SERVE_IN_FLIGHT, first_rid=first)
            fixed += outs
            all_outcomes += outs
            unsent += len(due) - len(outs)
            # Capacity: every request due at once, so a new one goes out as
            # soon as one of the connections frees up.
            first = len(all_outcomes)
            now = time.perf_counter()
            outs, _ = loadgen.run_open_loop(server.address, requests(first, SERVE_SATURATION),
                                            [now] * SERVE_SATURATION, SERVE_IN_FLIGHT, first_rid=first)
            all_outcomes += outs
            unsent += SERVE_SATURATION - len(outs)
            capacities.append(len(outs) / (max(o.done for o in outs) - min(o.sent for o in outs)))
        # A rung is judged at the highest percentile with 10 samples beyond
        # it: at --seconds 20 that is p90 at 50 req/s, p95 from 100 req/s.
        rung_s = max(1.0, seconds / 10)

        def rung(rate: float) -> bool:
            first = len(all_outcomes)
            due = loadgen.schedule(rate, rung_s, time.perf_counter() + 0.05)
            outs, abandoned = loadgen.run_open_loop(server.address, requests(first, len(due)), due,
                                                    SERVE_IN_FLIGHT, first_rid=first)
            all_outcomes.extend(outs)
            lat = summarize(_latencies_ms(outs))
            failures = sum(not o.ok for o in outs)
            passed = not abandoned and failures == 0 and lat["tail"] <= SERVE_LIMIT_MS
            ladder.append({"rate": rate, "sent": len(outs), "failed": failures, "abandoned": abandoned,
                           "median_ms": lat["median"], "tail_p": lat["tail_p"], "tail_ms": lat["tail"],
                           "passed": passed})
            return passed

        # Climb the ladder to the first failing rate, then bisect between it
        # and the last passing one.
        low, high = 0.0, None
        for rate in SERVE_RATES:
            if not rung(rate):
                high = rate
                break
            low = rate
        for _ in range(SERVE_BISECT_STEPS if high else 0):
            mid = round((low + high) / 2)
            if rung(mid):
                low = mid
            else:
                high = mid
    finally:
        if server is not None:
            server.stop()

    fixed_lat = summarize(_latencies_ms(fixed))
    metrics = {
        "setup_s": median(setups),
        "urls_per_s": median(capacities),
        "url_p50_ms": fixed_lat["median"],
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }

    # Each sampled 200 reply must carry the score an in-process predict
    # gives, and that score must match the independent reference.
    served = pd.load_model(model_path)
    vocab = pd.default_vocab()
    rng = np.random.default_rng([seed, 31])
    ok = [o for o in all_outcomes if o.ok]
    sample = [ok[i] for i in rng.choice(len(ok), max(1, int(len(ok) * SERVE_CHECK_SHARE)), replace=False)]
    sample_urls = [urls[o.rid % len(urls)] for o in sample]
    expected = reference.probabilities(served.config, served.params, sample_urls)
    mismatched = off_reference = 0
    for o, url, want in zip(sample, sample_urls, expected):
        reply = json.loads(o.body)
        verdict, score_ = pd.predict(served, url, vocab, served.threshold)
        mismatched += reply.get("url") != url or reply.get("score") != score_ or reply.get("verdict") != verdict
        off_reference += not abs(reply.get("score", float("nan")) - want) <= reference.PROB_ATOL
    failures = sum(not o.ok for o in all_outcomes)
    checks = {
        "all_replies_200": failures == 0,
        "no_request_dropped": unsent == 0,
        "sampled_scores_match": mismatched == 0,
        "sampled_scores_match_reference": off_reference == 0,
    }
    details = {
        "setup_s_samples": setups,
        "fixed_rate": SERVE_FIXED_RATE,
        "capacity_rounds": capacities,
        "fixed_latency_ms": fixed_lat,
        "ladder": ladder,
        "max_rps_within_limit": low,
        "latency_limit_ms": SERVE_LIMIT_MS,
        "limit_percentile": "per rung, the highest with 10 samples beyond it (tail_p in ladder)",
        "max_in_flight": SERVE_IN_FLIGHT,
        "checked_replies": len(sample),
        "errors": sorted({o.error for o in all_outcomes if o.error}),
        "inputs_sha256": _digest(urls, _read(model_path)),
    }
    result = Result(metrics, len(all_outcomes) + unsent, failures + unsent + mismatched + off_reference,
                    checks, details)
    late = [o.late * 1e3 for o in fixed]
    wait = [o.queue_wait * 1e3 for o in fixed]
    result.layer_extra = {
        "loadgen.late_ms": percentile(late, 99),
        "loadgen.queue_wait_ms": percentile(wait, 99),
    }
    if traced:
        spans, names, counters, samples = tracing.load(trace_out)
        result.trace = (spans, names, counters, samples)
        handler = names.index("cli.handler") if "cli.handler" in names else -1
        sel = spans["name"] == handler
        handler_s = dict(zip(spans["rid"][sel].tolist(), (spans["end"][sel] - spans["start"][sel]).tolist()))
        overhead = [((o.done - o.sent) - handler_s[o.rid]) * 1e3 for o in fixed if o.ok and o.rid in handler_s]
        result.layer_extra["cli.http_overhead_ms"] = median(overhead) if overhead else 0.0
        result.busy_s = float(sum(handler_s.values()))
    return result
