"""Tests of the benchmark's own helpers: statistics, spans, load generation."""

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import loadgen
import reference
import run
import tracing
from timing import percentile, self_times, summarize, tail_percentile

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) == 50.0


def test_summarize_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 1001)]
    s = summarize(values)
    assert s == {"n": 1000, "median": 500.5, "tail_p": 99.0, "tail": 990.0}
    assert percentile(values, 50) == 500.0
    assert percentile([3.0], 99) == 3.0


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nesting_and_generator_waits(monkeypatch):
    # A clock that advances by one second per reading makes every span exact.
    ticks = iter(range(1000))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: None)

    def outer():
        inner()
        inner()

    def rows():
        for _ in range(2):
            inner()
            yield ([0, 0, 0],)

    outer = tracer.wrap("m.outer", outer)
    rows = tracer.wrap_generator("m.rows", rows)
    tracer.set_request(7)
    outer()
    assert len(list(rows())) == 2
    spans = tracer.snapshot()
    names = [tracer.names[i] for i in spans["name"]]
    assert names.count("m.inner") == 4 and names.count("m.rows") == 3  # two items, then the end
    assert set(spans["rid"].tolist()) == {7}
    first_outer = names.index("m.outer")
    assert spans["parent"][names.index("m.inner")] == first_outer
    table = tracing.layer_table(spans, tracer.names)
    # outer [0, 5] holds inner [1, 2] and [3, 4]; each item the consumer
    # waits for, [6, 9] and [10, 13], holds one inner; the end is [14, 15].
    assert table["m.outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert table["m.inner"] == {"calls": 4, "s": 4.0, "self_s": 4.0}
    assert table["m.rows"] == {"calls": 3, "s": 7.0, "self_s": 5.0}
    assert tracer.counters["m.rows.rows"] == 6


def test_pad_efficiency_on_hand_built_batch():
    import phishdefense as pd

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        model = pd.build_model(pd.default_config("gru", hidden_dim=4, embed_dim=3))
        ids = np.zeros((3, 8), dtype=np.int64)
        lens = np.array([5, 2, 1])
        for row, n in enumerate(lens):
            ids[row, :n] = 2
        pd.forward_batch(model, ids, lens)
        pd.predict(model, "abc", pd.default_vocab())
    finally:
        uninstall()
    assert pd.forward_batch.__name__ == "forward_batch" and not hasattr(pd.forward_batch, "__wrapped__")
    # batch: the scan is cut to the longest row, 3 rows x 5 steps, 5+2+1 useful;
    # predict: one row cut to its own 3 steps
    assert tracer.counters["layers.scan_steps_run"] == 15 + 3
    assert tracer.counters["layers.scan_steps_useful"] == 8 + 3
    assert tracer.samples["model.forward_batch.rows"] == [3, 1]


class _StallingHandler(BaseHTTPRequestHandler):
    stall_rid = 2
    stall_s = 0.5

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if int(self.headers[loadgen.REQUEST_HEADER]) == self.stall_rid:
            time.sleep(self.stall_s)
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stalling_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_open_loop_charges_a_stall_to_the_requests_behind_it(stalling_server):
    n, gap = 8, 0.02
    due = loadgen.schedule(1 / gap, n * gap, time.perf_counter() + 0.05)
    payloads = [loadgen.http_request("POST", "/check", json.dumps({"k": k}).encode(), k) for k in range(n)]
    outcomes, abandoned = loadgen.run_open_loop(stalling_server, payloads, due, max_in_flight=1)
    assert not abandoned and [o.ok for o in outcomes] == [True] * n
    stall_end = outcomes[2].done
    assert outcomes[2].latency >= _StallingHandler.stall_s
    for o in outcomes[3:]:
        if o.due < stall_end:
            # waited for the one connection: charged from its due time
            assert o.queue_wait >= stall_end - o.due
            assert o.latency >= stall_end - o.due
        # the wait for the connection is queue time, not generator lateness
        assert o.late < _StallingHandler.stall_s / 2
    assert outcomes[3].latency > 0.2
    assert outcomes[0].queue_wait == 0.0


def test_open_loop_abandons_a_growing_backlog(stalling_server):
    # One connection, every request stalls, and one is due every 10 ms.
    due = loadgen.schedule(100, 3.0, time.perf_counter() + 0.01)
    stalled = loadgen.http_request("POST", "/check", b"{}", _StallingHandler.stall_rid)
    payloads = [stalled] * len(due)
    outcomes, abandoned = loadgen.run_open_loop(stalling_server, payloads, due, max_in_flight=1)
    assert abandoned and len(outcomes) < len(due)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_reference_agrees_with_the_program(cell):
    import phishdefense as pd

    model = pd.build_model(pd.default_config(cell, hidden_dim=6, embed_dim=4, seed=3))
    records = [("http://a.example/login", 1), ("b.io", 0), ("", 0), ("x\u00e9" * 120, 1)]
    urls = [u for u, _ in records]
    encoded = [pd.encode_url(u, pd.default_vocab(), model.config.max_len) for u in urls]
    probs, _ = pd.forward_batch(model, np.stack([e.ids for e in encoded]),
                                np.array([e.true_len for e in encoded]), mode="infer")
    assert reference.prob_mismatches(probs, reference.probabilities(model.config, model.params, urls)) == 0
    checked, bad = reference.gradient_mismatches(pd, model, records[:2], seed=5)
    assert checked == reference.FD_COORDS_PER_TENSOR * len(model.params) and bad == 0
    assert reference.adam_mismatches(pd, seed=5)[1] == 0


def test_reference_sees_a_changed_scan(monkeypatch):
    import phishdefense as pd

    model = pd.build_model(pd.default_config("gru", hidden_dim=6, embed_dim=4, seed=3))
    urls = ["http://a.example/login", "b.io"]
    expected = reference.probabilities(model.config, model.params, urls)
    # the carry mask dropped: padded steps now update the shorter row
    honest = pd.layers.gru_forward
    monkeypatch.setattr(pd.model, "gru_forward", lambda p, xs, lens=None, h0=None: honest(p, xs, None, h0))
    encoded = [pd.encode_url(u, pd.default_vocab(), model.config.max_len) for u in urls]
    probs, _ = pd.forward_batch(model, np.stack([e.ids for e in encoded]),
                                np.array([e.true_len for e in encoded]), mode="infer")
    assert reference.prob_mismatches(probs, expected) == 1


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
