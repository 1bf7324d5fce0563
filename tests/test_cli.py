import argparse
import hashlib
import io
import json
import os
import re
import selectors
import shlex
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from conftest import confusion_fixture, labels, patch_payload, read_until_close
from phishdefense import cli
from phishdefense.cli import main, make_handler
from phishdefense.codec import default_vocab
from phishdefense.data import MAX_LINE, LabeledDataset
from phishdefense.layers import CELLS
from phishdefense.model import ModelConfig, ModelGraph, build_model, predict
from phishdefense.store import load_model, save_model
from phishdefense.train import TrainConfig


def run_cli(argv, stdin_text=None, monkeypatch=None):
    buf = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def fixture_model_path(tmp_path_factory):
    model, _ = confusion_fixture()
    path = tmp_path_factory.mktemp("models") / "fixture.pdm"
    save_model(model, str(path))
    return str(path)


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory):
    """A small fast training run shared by eval/bench tests."""
    tmp = tmp_path_factory.mktemp("trained")
    out = str(tmp / "model.pdm")
    code, stdout = run_cli(
        ["train", "--synthetic", "300", "--cell", "gru", "--seed", "3",
         "--epochs", "3", "--batch", "50", "--hidden", "16", "--embed", "8",
         "--max-len", "60", "--out", out]
    )
    assert code == 0
    return out, stdout, str(tmp)


class TestTrainCommand:
    def test_missing_data_source_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--out", "/tmp/x.pdm"])
        assert exc.value.code == 2

    def test_synthetic_train_writes_artifacts(self, trained_model_path):
        out, stdout, tmp = trained_model_path
        import os

        assert os.path.exists(out)
        assert os.path.exists(out + ".history.jsonl")
        report = json.loads(stdout)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert set(report["confusion"]) == {"TP", "FP", "TN", "FN"}
        # latency deliberately not measured here (determinism of the JSON)
        assert report["mean_inference_seconds"] is None

    def test_determinism_metrics_json(self, tmp_path):
        args = ["train", "--synthetic", "120", "--cell", "lstm", "--seed", "9",
                "--epochs", "2", "--batch", "30", "--hidden", "10", "--embed", "6",
                "--max-len", "40"]
        c1, out1 = run_cli(args + ["--out", str(tmp_path / "a.pdm")])
        c2, out2 = run_cli(args + ["--out", str(tmp_path / "b.pdm")])
        assert c1 == c2 == 0
        j1, j2 = json.loads(out1), json.loads(out2)
        j1.pop("model_path"), j2.pop("model_path")
        assert j1 == j2
        assert (tmp_path / "a.pdm").read_bytes() == (tmp_path / "b.pdm").read_bytes()

    def test_resume_with_another_cell_exits_1(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--epochs", "1", "--batch", "20",
                "--hidden", "4", "--embed", "3", "--max-len", "20",
                "--workdir", str(tmp_path / "work"), "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args + ["--cell", "gru"])[0] == 0
        capsys.readouterr()
        code, stdout = run_cli(args + ["--cell", "lstm", "--epochs", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert stdout == ""
        assert "error:" in err and "cell_kind" in err
        assert "Traceback" not in err

    def test_resume_with_another_lr_and_corpus_exits_1(self, tmp_path, capsys):
        args = ["train", "--seed", "2", "--batch", "20", "--hidden", "4", "--embed", "3",
                "--max-len", "20", "--workdir", str(tmp_path / "work"),
                "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args + ["--synthetic", "40", "--epochs", "1"])[0] == 0
        capsys.readouterr()
        code, stdout = run_cli(args + ["--synthetic", "80", "--epochs", "2", "--lr", "0.5"])
        err = capsys.readouterr().err
        assert code == 1
        assert stdout == ""
        assert "error:" in err and "initial_lr" in err and "train_sha256" in err
        assert "Traceback" not in err


    def test_rerun_in_a_used_workdir_trains_nothing(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--epochs", "2", "--batch", "20",
                "--threshold", "0.3", *SMALL_TRAIN, "--workdir", str(tmp_path / "work"),
                "--out", str(tmp_path / "m.pdm")]
        code, first = run_cli(args)
        assert code == 0
        model = (tmp_path / "m.pdm").read_bytes()
        state = (tmp_path / "work" / "train_state.npz").read_bytes()
        capsys.readouterr()
        code, again = run_cli(args)
        err = capsys.readouterr().err
        assert code == 0 and again == first
        assert "epoch" not in err
        assert (tmp_path / "m.pdm").read_bytes() == model
        assert (tmp_path / "work" / "train_state.npz").read_bytes() == state

    def test_rerun_with_another_lr_exits_1_and_keeps_the_checkpoint(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--epochs", "1", "--batch", "20",
                *SMALL_TRAIN, "--workdir", str(tmp_path / "work"), "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args)[0] == 0
        state = (tmp_path / "work" / "train_state.npz").read_bytes()
        capsys.readouterr()
        code, stdout = run_cli(args + ["--lr", "0.01"])
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1 and "initial_lr 0.001 != 0.01" in err
        assert (tmp_path / "work" / "train_state.npz").read_bytes() == state

    def test_an_infinite_rate_exits_1_with_one_line_and_writes_no_model(self, tmp_path, capsys):
        # an infinite step turns every weight whose gradient is 0 into NaN
        out = tmp_path / "m.pdm"
        code, stdout = run_cli(["train", "--synthetic", "20", "--epochs", "1", "--hidden", "4",
                                "--embed", "4", "--lr", "inf", "--out", str(out)])
        err = capsys.readouterr().err
        assert (code, stdout) == (1, "")
        assert err == "error: epoch 0 batch 0: the update left a non-finite weight in parameter 'embed'\n"
        assert not out.exists()

    @pytest.mark.parametrize("corpus, error", [
        ("200", "error: epoch 0 batch 1: non-finite gradient for parameter 'dense1.w'"),
        ("20", "error: epoch 0: validation loss is nan"),  # the weights stay finite, near 1e308
    ])
    def test_a_diverging_run_exits_1_with_one_line_and_no_nan_in_its_history(self, tmp_path, corpus, error):
        # a subprocess: its stderr holds numpy's warnings too, which pytest would capture
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "phishdefense.cli", "train", "--synthetic", corpus, "--batch", "20",
             "--epochs", "1", "--hidden", "4", "--embed", "4", "--lr", "1e308", "--out", "y.pdm"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error + "\n")
        assert not (tmp_path / "y.pdm").exists()
        assert "NaN" not in (tmp_path / "y.pdm.history.jsonl").read_text()

    def test_two_record_csv_exits_1_with_one_line(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("url,label\nhttp://a.com,0\nhttp://b.com,1\n")
        code, stdout = run_cli(["train", "--data", str(data), "--out", str(tmp_path / "m.pdm"),
                                *SMALL_TRAIN])
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot split 2 records")
        assert not (tmp_path / "m.pdm").exists()

    def test_resume_from_a_truncated_checkpoint_exits_1(self, tmp_path, capsys):
        args = ["train", "--synthetic", "40", "--seed", "2", "--batch", "20", "--hidden", "4",
                "--embed", "3", "--max-len", "20", "--workdir", str(tmp_path / "work"),
                "--out", str(tmp_path / "m.pdm")]
        assert run_cli(args + ["--epochs", "1"])[0] == 0
        state = tmp_path / "work" / "train_state.npz"
        blob = state.read_bytes()
        state.write_bytes(blob[: len(blob) // 2])
        capsys.readouterr()
        code, stdout = run_cli(args + ["--epochs", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "train_state.npz" in err


class TestPredictCommand:
    def test_tie_break_on_neutral_url(self, fixture_model_path):
        # 'm' has a zero embedding row: the fixture model scores exactly 0.5
        code, out = run_cli(["predict", "--model", fixture_model_path, "--url", "m"])
        assert code == 0
        rec = json.loads(out)
        assert rec["score"] == 0.5
        assert rec["verdict"] == "legitimate"

    def test_stdin_order_preserved(self, fixture_model_path, monkeypatch):
        code, out = run_cli(
            ["predict", "--model", fixture_model_path, "--stdin"],
            stdin_text="a\nf\nb\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["url"] for r in recs] == ["a", "f", "b"]
        assert recs[0]["verdict"] == "phishing"
        assert recs[1]["verdict"] == "legitimate"

    def test_crlf_stdin_line_scores_as_its_url(self, fixture_model_path, monkeypatch):
        url = "http://a.example/login"
        _, want = run_cli(["predict", "--model", fixture_model_path, "--url", url])
        code, got = run_cli(
            ["predict", "--model", fixture_model_path, "--stdin"],
            stdin_text=url + "\r\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert got == want

    def test_a_leading_byte_order_mark_is_dropped(self, fixture_model_path, monkeypatch):
        urls = b"http://a.b\nf\n"
        outs = []
        for data in (urls, b"\xef\xbb\xbf" + urls):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            code, out = run_cli(["predict", "--model", fixture_model_path, "--stdin"])
            assert code == 0
            outs.append(out)
        assert outs[1] == outs[0]
        assert [json.loads(line)["url"] for line in outs[0].splitlines()] == ["http://a.b", "f"]

    def test_corrupt_model_exits_1(self, tmp_path, fixture_model_path):
        blob = bytearray(Path(fixture_model_path).read_bytes())
        blob[-10] ^= 0xFF
        bad = tmp_path / "bad.pdm"
        bad.write_bytes(bytes(blob))
        code, _ = run_cli(["predict", "--model", str(bad), "--url", "a"])
        assert code == 1

    def test_no_url_source_exits_2(self, fixture_model_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["predict", "--model", fixture_model_path])
        assert exc.value.code == 2

    def test_empty_url_is_scored(self, fixture_model_path):
        code, out = run_cli(["predict", "--model", fixture_model_path, "--url", ""])
        assert code == 0
        verdict, score = predict(load_model(fixture_model_path), "", default_vocab())
        assert json.loads(out) == {"url": "", "score": score, "verdict": verdict}


class TestEvalCommand:
    def test_metrics_on_fixture(self, fixture_model_path, tmp_path):
        data = tmp_path / "fixture.csv"
        lines = ["url,label"] + [f"{ch},1" for ch in "abcd"] + [f"{ch},0" for ch in "efghij"]
        data.write_text("\n".join(lines) + "\n")
        code, out = run_cli(["eval", "--model", fixture_model_path, "--data", str(data)])
        assert code == 0
        rep = json.loads(out)
        assert rep["precision"] == 0.75
        assert rep["recall"] == 0.75
        assert rep["f_score"] == 0.75
        assert rep["accuracy"] == 0.8
        assert rep["mean_inference_seconds"] > 0

    def test_threshold_one_kills_recall(self, trained_model_path, tmp_path):
        out_model, _, _ = trained_model_path
        data = tmp_path / "d.csv"
        data.write_text("url,label\nhttp://a.com,1\nhttp://b.com,0\n")
        code, out = run_cli(
            ["eval", "--model", out_model, "--data", str(data), "--threshold", "1.0"]
        )
        assert code == 0
        assert json.loads(out)["recall"] == 0.0

    def test_missing_data_flag_exits_2(self, fixture_model_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", fixture_model_path])
        assert exc.value.code == 2


class TestBenchCommand:
    def test_url_file_without_urls_exits_2(self, fixture_model_path, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n   \n", encoding="utf-8")
        code, out = run_cli(["bench", "--model", fixture_model_path, "--urls", str(empty)])
        assert code == 2
        assert out == ""

    def test_a_leading_byte_order_mark_is_dropped(self, fixture_model_path, tmp_path, monkeypatch):
        timed = []
        monkeypatch.setattr(cli, "bench_inference", lambda model, urls, reps: timed.append(urls) or {})
        for mark in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "urls.txt"
            path.write_bytes(mark + b"http://a.b\n  \nf\n")
            assert run_cli(["bench", "--model", fixture_model_path, "--urls", str(path)])[0] == 0
        assert timed == [["http://a.b", "f"]] * 2


@pytest.mark.parametrize("command", ["eval", "predict", "bench", "serve"])
def test_a_model_with_a_smaller_vocabulary_exits_1(command, tmp_path, capsys, monkeypatch):
    def no_server(*args, **kwargs):
        raise AssertionError("a server was started")

    monkeypatch.setattr(cli, "_Server", no_server)
    model = tmp_path / "small.pdm"
    cfg = ModelConfig(vocab_size=20, embed_dim=2, hidden_dim=3, dense_dims=(1,), max_len=10)
    save_model(build_model(cfg), str(model))
    data = tmp_path / "d.csv"
    data.write_text("url,label\nhttp://a.com,1\n")
    where = {"eval": ["--data", str(data)], "predict": ["--url", "a"], "bench": [],
             "serve": ["--bind", "127.0.0.1:0"]}[command]
    code, stdout = run_cli([command, "--model", str(model), *where])
    assert code == 1 and stdout == ""
    assert capsys.readouterr().err == f"error: {model}: vocabulary of 20 ids, the URL codec needs 97\n"


class TestSynthCommand:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "corpus.csv"
        code, stdout = run_cli(["synth", "--n", "50", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(stdout)["written"] == 50
        from phishdefense.data import load_csv

        ds = load_csv(str(out))
        assert len(ds) == 50
        assert int(labels(ds).sum()) == 25

    def test_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert run_cli(["synth", "--n", "50", "--seed", "2", "--out", str(out)])[0] == 0
        data = out.read_bytes()
        assert data.startswith(b"url,label\r\n")
        assert hashlib.sha256(data).hexdigest() == (
            "969303b871e5dbb0fb022bcb4f795bae855ae3c58c30e66f29a87884a78cf5ef"
        )

    def test_failed_write_midway_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        def rows_then_fail():
            yield ("http://a.example", 0)
            yield ("http://b.example", 1)
            raise RuntimeError("interrupted")

        monkeypatch.setattr(cli, "make_synthetic_corpus",
                            lambda *_: LabeledDataset(records=rows_then_fail()))
        out = tmp_path / "corpus.csv"
        out.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="interrupted"):
            run_cli(["synth", "--n", "50", "--out", str(out)])
        assert out.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_rename_keeps_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(*_):
            raise OSError("rename refused")

        monkeypatch.setattr("phishdefense.store.os.replace", refuse)
        out = tmp_path / "corpus.csv"
        out.write_bytes(b"old")
        assert run_cli(["synth", "--n", "50", "--out", str(out)]) == (1, "")
        assert out.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [out]


@contextmanager
def serving(model, handler=None):
    server = cli._Server(("127.0.0.1", 0), handler or make_handler(model))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def raw_exchange(base, request):
    """The bytes the server at base replies to request, read until it closes."""
    host, _, port = base[len("http://"):].partition(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(request)
        return read_until_close(sock)


@pytest.fixture(scope="module")
def http_server(fixture_model_path):
    with serving(load_model(fixture_model_path)) as base:
        yield base


class TestServe:
    def test_health(self, http_server):
        r = requests.get(http_server + "/health", timeout=5)
        assert r.status_code == 200
        assert r.json() == {"status": "ok", "model_loaded": True}

    def test_check_scores_url(self, http_server):
        r = requests.post(http_server + "/check", json={"url": "a"}, timeout=5)
        assert r.status_code == 200
        body = r.json()
        assert body["url"] == "a"
        assert 0 < body["score"] < 1
        assert body["verdict"] == "phishing"

    def test_malformed_json_400(self, http_server):
        r = requests.post(http_server + "/check", data="not json", timeout=5)
        assert r.status_code == 400

    def test_missing_url_field_400(self, http_server):
        r = requests.post(http_server + "/check", json={"link": "x"}, timeout=5)
        assert r.status_code == 400

    # Content-Length is 1*DIGIT in one field: int() would take "1_2" and "+12"
    @pytest.mark.parametrize("length", ["abc", "-1", "1_2", "+12",
                                        pytest.param("12\r\nContent-Length: 500", id="two-fields"),
                                        pytest.param("9" * 5000, id="more-digits-than-int-takes")])
    def test_bad_content_length_400(self, http_server, length):
        # raw socket: the reply must come without the server reading a body
        host, _, port = http_server[len("http://"):].partition(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                f"POST /check HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert json.loads(rest.partition(b"\r\n\r\n")[2])["error"].startswith("bad request")

    def test_deeply_nested_json_400(self, http_server):
        # json.loads gives up on deep nesting with a RecursionError
        host, _, port = http_server[len("http://"):].partition(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            body = b"[" * 16000
            sock.sendall(
                f"POST /check HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1:2] == [b"400"]
        assert json.loads(rest.partition(b"\r\n\r\n")[2])["error"].startswith("bad request")
        r = requests.post(http_server + "/check", json={"url": "a"}, timeout=5)
        assert r.status_code == 200

    def test_short_body_times_out_and_closes(self, fixture_model_path, monkeypatch):
        # a body shorter than its Content-Length: the read times out and the
        # connection closes without a reply instead of holding the thread
        monkeypatch.setattr(cli, "REQUEST_TIMEOUT_S", 0.5)
        with serving(load_model(fixture_model_path)) as base:
            host, _, port = base[len("http://"):].partition(":")
            clients = [socket.create_connection((host, int(port)), timeout=5) for _ in range(2)]
            for sock in clients:
                sock.sendall(
                    f"POST /check HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: 50\r\n\r\n".encode() + b'{"url"'
                )
            t0 = time.monotonic()
            for sock in clients:
                with sock:
                    assert sock.recv(4096) == b""
            assert time.monotonic() - t0 < 4 * cli.REQUEST_TIMEOUT_S
            r = requests.post(base + "/check", json={"url": "a"}, timeout=5)
            assert r.status_code == 200

    def test_predict_error_replies_json_500(self, http_server, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("predict failed")

        monkeypatch.setattr(cli, "predict", fail)
        r = requests.post(http_server + "/check", json={"url": "a"}, timeout=5)
        assert r.status_code == 500
        assert r.json() == {"error": "internal error"}

    def test_oversized_body_413(self, http_server):
        r = requests.post(
            http_server + "/check",
            data=json.dumps({"url": "x" * (17 * 1024)}),
            timeout=5,
        )
        assert r.status_code == 413

    def test_concurrent_requests_match_serial(self, http_server):
        urls = list("abcdefghij") * 3
        serial = [
            requests.post(http_server + "/check", json={"url": u}, timeout=5).json()["score"]
            for u in urls
        ]
        results = [None] * len(urls)

        def worker(k, u):
            results[k] = requests.post(
                http_server + "/check", json={"url": u}, timeout=10
            ).json()["score"]

        threads = [
            threading.Thread(target=worker, args=(k, u)) for k, u in enumerate(urls)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == serial

    @pytest.mark.parametrize("request_bytes, status", [
        (b"PUT /check HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /health HTTP/1.1\r\n" + b"X-A: b\r\n" * 150 + b"\r\n", 431),
        (b"GET /health HTTP/9.9\r\n\r\n", 505),
        (b"\0" * 32 + b"\r\n\r\n", 400),
        (b"POST /check\r\n\r\n", 400),  # no version: an HTTP/0.9 request
    ], ids=["method", "long-line", "headers", "version", "nul", "http-0.9"])
    def test_errors_of_the_http_server_reply_json(self, http_server, request_bytes, status):
        head, body = raw_exchange(http_server, request_bytes).split(b"\r\n\r\n", 1)
        status_line, *headers = head.split(b"\r\n")
        assert status_line.split()[1] == b"%d" % status
        assert b"Content-Type: application/json" in headers
        assert b"Content-Length: %d" % len(body) in headers
        assert list(json.loads(body)) == ["error"]

    @pytest.mark.parametrize("reset", [False, True])
    def test_a_client_that_hangs_up_costs_one_log_line(self, fixture_model_path, capsys, reset):
        # 13 of 14 promised body bytes, then the client closes (or resets)
        with serving(load_model(fixture_model_path)) as base:
            host, _, port = base[len("http://"):].partition(":")
            sock = socket.create_connection((host, int(port)), timeout=5)
            if reset:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(b'POST /check HTTP/1.1\r\nContent-Length: 14\r\n\r\n{"url": "abc"')
            sock.close()
            # the hung-up connection was accepted first: leaving serving() joins its thread
            assert requests.get(base + "/health", timeout=5).status_code == 200
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lost = [line for line in err.splitlines() if "connection lost" in line]
        # a reset always breaks the exchange; a plain close may come after the reply
        assert len(lost) == 1 if reset else len(lost) <= 1

    def test_a_burst_of_connections_waits_in_the_backlog(self, fixture_model_path):
        server = cli._Server(("127.0.0.1", 0), make_handler(load_model(fixture_model_path)))
        clients = []
        try:
            # connect before the server accepts: each connection waits in the
            # listen backlog, and a connect that finds it full times out
            for _ in range(30):
                clients.append(socket.create_connection(server.server_address, timeout=0.5))
        finally:
            threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            body = b'{"url": "a"}'
            for sock in clients:
                sock.settimeout(5)
                sock.sendall(b"POST /check HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(body), body))
            for sock in clients:
                with sock.makefile("rb") as reply:
                    assert reply.readline().split()[1:2] == [b"200"]
        finally:
            for sock in clients:
                sock.close()
            server.shutdown()
            server.server_close()


def address(base):
    host, _, port = base[len("http://"):].partition(":")
    return host, int(port)


def check_request(body):
    return b"POST /check HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


class TestServeLoop:
    """One selector loop answers every connection of a serving process."""

    def test_idle_connections_start_no_thread(self, http_server):
        threads = threading.active_count()
        idle = [socket.create_connection(address(http_server), timeout=5) for _ in range(16)]
        try:
            # accepted in turn, so the 16 are accepted before this is answered
            assert requests.post(http_server + "/check", json={"url": "a"}, timeout=1).status_code == 200
            assert threading.active_count() == threads
        finally:
            for sock in idle:
                sock.close()

    def test_a_client_that_reads_no_reply_holds_up_no_other(self, fixture_model_path, monkeypatch):
        class SmallSendBuffers(cli._Server):
            def server_activate(self):  # accepted sockets take the listener's buffer size
                super().server_activate()
                self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        # so a 16 KiB reply cannot all be written at once
        monkeypatch.setattr(cli, "_Server", SmallSendBuffers)
        body = json.dumps({"url": "x" * (cli.MAX_REQUEST_BODY - 11)}).encode()
        assert len(body) == cli.MAX_REQUEST_BODY
        with serving(load_model(fixture_model_path)) as base, socket.socket() as stalled:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            stalled.settimeout(5)
            stalled.connect(address(base))
            stalled.sendall(check_request(body))
            time.sleep(0.1)  # the loop reads it and starts its reply
            assert requests.post(base + "/check", json={"url": "a"}, timeout=1).status_code == 200

    def test_a_request_sent_byte_by_byte_is_answered_once(self, fixture_model_path):
        handler = make_handler(load_model(fixture_model_path))
        do_post, paths = handler.do_POST, []

        def counted(self):
            paths.append(self.path)
            do_post(self)

        handler.do_POST = counted
        with serving(None, handler) as base, socket.create_connection(address(base), timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in check_request(b'{"url": "a"}'):
                sock.send(bytes([byte]))
                time.sleep(0.001)
            reply = read_until_close(sock)
        assert reply.split()[1] == b"200" and json.loads(reply.partition(b"\r\n\r\n")[2])["url"] == "a"
        assert paths == ["/check"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the server's CPU time from /proc")
    def test_out_of_file_descriptors_the_loop_waits_for_a_close(self, fixture_model_path):
        # one serving process allowed 32 descriptors, and more idle clients
        # than that: accept fails with EMFILE while the connections queue
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        child = (
            "import os, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (32, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from phishdefense.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", child, "serve", "--model", fixture_model_path, "--bind", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True,
        )
        idle = []
        try:
            port = int(re.search(r"serving on 127\.0\.0\.1:(\d+) ", proc.stderr.readline())[1])
            idle = [socket.create_connection(("127.0.0.1", port), timeout=5) for _ in range(40)]
            time.sleep(0.2)  # the loop accepts up to its limit

            def cpu_s():
                fields = Path(f"/proc/{proc.pid}/stat").read_text().rpartition(")")[2].split()
                return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime

            start = cpu_s()
            time.sleep(2)
            assert cpu_s() - start < 0.2
            for sock in idle:
                sock.close()
            r = requests.post(f"http://127.0.0.1:{port}/check", json={"url": "a"}, timeout=5)
            assert r.status_code == 200
        finally:
            for sock in idle:
                sock.close()
            proc.kill()
            err = proc.communicate(timeout=10)[1]
        assert "cannot accept a connection: [Errno 24] Too many open files" in err
        assert "Traceback" not in err


class _Reads(io.BytesIO):
    """A request file that keeps, when closed, how many bytes were read."""

    def close(self):
        self.read_bytes = self.tell()
        super().close()


class _Recorder:
    """A stand-in for a socket over a whole request, keeping the handler's
    request file and its reply: the oracle for what http.server reads."""

    def __init__(self, request: bytes):
        self.rfile, self.reply = _Reads(request), bytearray()

    def makefile(self, mode, buffering=-1):
        return self.rfile

    def sendall(self, data):
        self.reply += data


HTTP_MAX_LINE = 65536  # http.client's longest line; http.server answers a longer one 414 or 431


LATIN1 = st.text(st.characters(max_codepoint=255), max_size=12)


def mostly(choices):
    """One of choices three times in four, else latin-1 text."""
    return st.one_of(*[st.sampled_from(choices)] * 3, LATIN1)


@st.composite
def request_bytes(draw):
    """Request bytes near and beyond what http.server accepts: odd request
    lines and paths, header lines past its limits, a Content-Length of any
    text."""
    method = draw(mostly(["POST", "GET", "PUT"]))
    version = draw(mostly(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/01.1", "HTTP/1.1.1", "HTTP/\xb2.1", ""]))
    path = draw(st.sampled_from(["/check"] * 3 + ["/x", "/check?x=1", "//check", "/"]))
    line = draw(st.sampled_from([f"{method} {path} {version}".rstrip()] * 4 + ["", method, "a b c d"]))
    names = mostly(["Content-Length", "content-length", "Host", "Content-Length ", "From ", ""])
    values = mostly(["0", "12", " 5 ", "-1", "16384", "16385", "x", "\xa012", "1\x0b2", "1\r2"])
    headers = draw(st.lists(st.tuples(names, st.sampled_from([":", ": ", ""]), values), max_size=6))
    sep = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [line] + ["".join(h) for h in headers]
    extra = draw(st.sampled_from(["", "", "", "", "", "folded", "headers", "line"]))
    if extra == "folded":  # a header line that continues the one before
        lines.append(" 3")
    elif extra == "headers":  # at and past http.client's limit of 100
        lines += ["X-A: b"] * draw(st.integers(98, 101))
    elif extra == "line":  # a line of 64 KiB, the longest http.server reads
        lines.insert(draw(st.integers(0, 1)), "X" * draw(st.integers(HTTP_MAX_LINE - 3, HTTP_MAX_LINE)))
    head = sep.join(lines).encode("latin-1") + sep.encode() * 2
    return head + draw(st.binary(max_size=40))


def _headers(*lines):
    return "".join(line + "\r\n" for line in lines).encode("latin-1") + b"\r\n"


@pytest.fixture(scope="module")
def fixture_handler(fixture_model_path):
    """The serve handler, listing the do_<METHOD> calls it enters in `entered`."""

    class Handler(make_handler(load_model(fixture_model_path))):
        entered = []

        def do_GET(self):
            self.entered.append("GET")
            super().do_GET()

        def do_POST(self):
            self.entered.append("POST")
            super().do_POST()

    return Handler


@pytest.fixture(scope="module")
def loop(fixture_handler):
    """A serving loop's state without its select: a test adds a connection
    and calls _read on it as select would."""
    server = cli._Server(("127.0.0.1", 0), fixture_handler)
    with server, selectors.DefaultSelector() as server._selector:
        server._open = {}
        yield server


def received(sock):
    """What the peer of a non-blocking sock sent before it closed, or None
    while it has sent nothing and is still open."""
    reply = b""
    try:
        while chunk := sock.recv(65536):
            reply += chunk
    except BlockingIOError:
        assert not reply, "a reply without a close"
        return None
    except ConnectionResetError:  # a close with sent bytes unread
        pass
    return reply


def status_and_body(reply):
    head, _, body = bytes(reply).partition(b"\r\n\r\n")
    return head.partition(b"\r\n")[0], body


@settings(max_examples=300, deadline=None)
@given(data=request_bytes(), cuts=st.lists(st.floats(0, 1), max_size=20))
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.0", "content-length:  3 ") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 16384") + b"a" * 16384, cuts=[])
@example(data=_headers("GET /check HTTP/1.1", "Content-Length: 5") + b"abc", cuts=[])
@example(data=_headers("GET /health", "Host: x"), cuts=[])
@example(data=_headers("POST /check HTTP/2.0", "Content-Length: 5") + b"abc", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", *["X-A: b"] * 98, "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", *["X-A: b"] * 99, "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", *["X-A: b"] * 100, "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("GET /" + "a" * (HTTP_MAX_LINE - 16) + " HTTP/1.1"), cuts=[])
@example(data=_headers("GET /" + "a" * (HTTP_MAX_LINE - 15) + " HTTP/1.1"), cuts=[])
@example(data=_headers("GET / HTTP/1.1", "X" * (HTTP_MAX_LINE - 2)), cuts=[])
@example(data=_headers("GET / HTTP/1.1", "X" * (HTTP_MAX_LINE - 1)), cuts=[])
@example(data=_headers("GET / HTTP/1.1", "X" * (HTTP_MAX_LINE + 10)), cuts=[])
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 5", " 1") + b"abc", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 5\rX: 1") + b"abc", cuts=[])
@example(data=_headers("POST /x HTTP/1.1", "Content-Length: 500"), cuts=[])
@example(data=_headers("POST /check?x=1 HTTP/1.1", "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST //check HTTP/1.0", "Content-Length: 5") + b"abc", cuts=[])
@example(data=_headers("POST /x HTTP/1.1", "Content-Length: x"), cuts=[])
def test_a_request_is_complete_once_http_server_has_read_all_it_reads(fixture_handler, loop, data, cuts):
    # the oracle: http.server's reads on the request followed by more bytes
    # than any read of it takes
    recorder = _Recorder(data + b"x" * (2 * HTTP_MAX_LINE))
    with redirect_stderr(io.StringIO()):
        fixture_handler(recorder, ("127.0.0.1", 0), None)
    need, entered = recorder.rfile.read_bytes, list(fixture_handler.entered)
    fixture_handler.entered.clear()
    # the loop reads data from a socket in pieces, one of them ending just before need
    ends = sorted({round(cut * len(data)) for cut in cuts} | {need - 1, need, len(data)})
    ends = [end for end in ends if 0 < end <= len(data)]
    server_end, client = socket.socketpair()
    server_end.setblocking(False)
    client.setblocking(False)
    conn = cli._Connection(server_end, ("127.0.0.1", 0))
    loop._selector.register(server_end, selectors.EVENT_READ, conn)
    loop._touch(conn)
    try:
        with client, redirect_stderr(io.StringIO()):
            for start, end in zip([0, *ends], ends):
                client.sendall(data[start:end])
                loop._read(conn)
                reply = received(client)
                if end < need:
                    assert reply is None, (end, need)
                else:
                    assert reply is not None, (end, need)
                    assert status_and_body(reply) == status_and_body(recorder.reply)
                    break
            else:  # the oracle read past data: the loop waits for the client to finish sending
                assert need > len(data)
                client.shutdown(socket.SHUT_WR)
                loop._read(conn)
                assert received(client)
    finally:
        if conn in loop._open:
            loop._close(conn)
    assert fixture_handler.entered == entered and len(entered) <= 1
    fixture_handler.entered.clear()


SMALL_TRAIN = ["--hidden", "4", "--embed", "3", "--max-len", "20"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [(["train", "--synthetic", "20", "--lr", "1e-6", *SMALL_TRAIN], "--lr"),
         (["train", "--synthetic", "20", "--lr", "0", *SMALL_TRAIN], "--lr"),
         (["train", "--synthetic", "20", "--batch", "0", *SMALL_TRAIN], "--batch"),
         (["train", "--synthetic", "20", "--epochs", "-3", *SMALL_TRAIN], "--epochs"),
         (["train", "--synthetic", "5", *SMALL_TRAIN], "--synthetic"),
         (["synth", "--n", "5"], "--n"),
         (["synth", "--n", "20", "--fraction", "2"], "--fraction"),
         (["synth", "--n", "20", "--fraction", "-1"], "--fraction"),
         (["bench", "--reps", "0"], "--reps"),
         (["serve", "--bind", "localhost"], "--bind"),
         (["serve", "--bind", "127.0.0.1:99999"], "--bind"),
         (["train", "--synthetic", "20", "--threshold", "nan", *SMALL_TRAIN], "--threshold"),
         (["eval", "--threshold", "1.5"], "--threshold"),
         (["predict", "--threshold", "-5"], "--threshold"),
         (["serve", "--threshold", "nan"], "--threshold"),
         (["train", "--synthetic", "20", "--hidden", "0", "--embed", "3", "--max-len", "20"], "--hidden"),
         (["train", "--synthetic", "20", "--embed", "0", "--hidden", "4", "--max-len", "20"], "--embed"),
         (["train", "--synthetic", "20", "--max-len", "0", "--hidden", "4", "--embed", "3"], "--max-len"),
         (["train", "--data", "corpus.csv", "--synthetic", "20", *SMALL_TRAIN], "--synthetic"),
         (["predict", "--url", "a", "--stdin"], "--stdin"),
         (["train", "--synthetic", "20", "--max-len", str(10**12), "--hidden", "4", "--embed", "3"], "--max-len")],
    )
    def test_flag_out_of_range_exits_2_with_one_line(
        self, argv, flag, fixture_model_path, tmp_path, capsys, monkeypatch
    ):
        def no_server(*args, **kwargs):
            raise AssertionError("a server was started")

        monkeypatch.setattr(cli, "_Server", no_server)
        out = tmp_path / "out"
        where = ["--model", fixture_model_path] if argv[0] in ("bench", "serve") else ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + where)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and f"argument {flag}:" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["synth", "--n", "20"], ["train", "--synthetic", "20", *SMALL_TRAIN]])
    def test_a_negative_seed_exits_2_with_one_line(self, argv, tmp_path, capsys):
        # numpy seeds are non-negative: a negative one must not reach them
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--seed", "-1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "argument --seed:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["predict", "--model", "a\0b", "--url", "x"], "--model"),
        (["eval", "--model", "m.pdm", "--data", "c\0.csv"], "--data"),
        (["bench", "--model", "m.pdm", "--urls", "\0"], "--urls"),
        (["synth", "--n", "20", "--out", "x\0.csv"], "--out"),
        (["train", "--data", "\0", "--out", "m.pdm"], "--data"),
        (["train", "--synthetic", "20", "--out", "x\0.pdm"], "--out"),
        (["train", "--synthetic", "20", "--out", "m.pdm", "--history", "h\0"], "--history"),
        (["train", "--synthetic", "20", "--out", "m.pdm", "--workdir", "w\0"], "--workdir"),
        (["serve", "--model", "\0m.pdm"], "--model"),
    ])
    def test_a_path_with_a_nul_exits_2_with_one_line(self, argv, flag, tmp_path, capsys, monkeypatch):
        # the operating system takes no path with a NUL: open() would raise ValueError
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and f"argument {flag}: a path cannot hold a NUL" in err, err
        assert os.listdir(tmp_path) == []

    def test_resume_flag_is_gone(self, tmp_path, capsys):
        work, out = tmp_path / "work", tmp_path / "m.pdm"
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--synthetic", "20", *SMALL_TRAIN, "--workdir", str(work), "--resume",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "unrecognized arguments: --resume" in err
        assert not work.exists() and not out.exists()

    def test_bad_pd_seed_exits_2_unless_seed_is_given(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PD_SEED", "abc")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--n", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "argument --seed: invalid int value: 'abc'" in err
        assert not out.exists()
        code, stdout = run_cli(["synth", "--n", "20", "--seed", "3", "--out", str(out)])
        assert code == 0 and json.loads(stdout)["written"] == 20

    @pytest.mark.parametrize("command", ["train", "eval", "bench", "predict"])
    def test_non_utf8_input_exits_1_naming_the_file(
        self, command, fixture_model_path, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"url,label\nhttp://a.com/\xff,1\n")
        argv = {
            "train": ["train", "--data", str(bad), "--out", str(tmp_path / "m.pdm"), *SMALL_TRAIN],
            "eval": ["eval", "--model", fixture_model_path, "--data", str(bad)],
            "bench": ["bench", "--model", fixture_model_path, "--urls", str(bad)],
            "predict": ["predict", "--model", fixture_model_path, "--stdin"],
        }[command]
        # the stdin of a POSIX locale: undecodable bytes become surrogates
        stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        named = "<stdin>" if command == "predict" else bad
        code, stdout = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and f"{named}: not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_field_over_the_csv_limit_exits_1_with_one_line(
        self, command, fixture_model_path, tmp_path, capsys
    ):
        data = tmp_path / "long.csv"
        data.write_text("url,label\nhttp://a.example/" + "x" * 200_000 + ",1\n")
        argv = {
            "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.pdm"), *SMALL_TRAIN],
            "eval": ["eval", "--model", fixture_model_path, "--data", str(data)],
        }[command]
        code, stdout = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1 and stdout == ""
        assert err == f"error: {data}:2: field larger than field limit (131072)\n"

    def test_a_30_mb_stdin_line_exits_1_unechoed(self, fixture_model_path, capsys, monkeypatch):
        line = "http://a.example/" + "x" * 30_000_000 + "\n"
        code, stdout = run_cli(["predict", "--model", fixture_model_path, "--stdin"],
                               "http://b.example/\n" + line, monkeypatch)
        err = capsys.readouterr().err
        assert code == 1
        assert [json.loads(out)["url"] for out in stdout.splitlines()] == ["http://b.example/"]
        assert err == f"error: <stdin>:2: line longer than {MAX_LINE} characters\n"


def test_readme_cli_matches_the_parser():
    """The README's sections from "## CLI" on describe this parser."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    block = section.split("```")[1]
    commands = [line.rpartition("| ")[2] for line in block.splitlines() if "phishdefense " in line]
    assert commands
    for command in commands:  # each example command line parses
        argv = shlex.split(command)
        assert argv[0] == "phishdefense"
        cli._build_parser().parse_args(argv[1:])
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named and not named - declared, named - declared


def test_train_parser_defaults_are_the_dataclasses(monkeypatch):
    monkeypatch.delenv("PD_SEED", raising=False)
    parser = cli._build_parser()
    args = parser.parse_args(["train", "--synthetic", "20", "--out", "m.pdm"])
    tc, mc = TrainConfig(), ModelConfig()
    assert (args.epochs, args.batch, args.lr, args.seed) == (tc.epochs, tc.batch_size, tc.initial_lr, tc.seed)
    assert (args.cell, args.max_len, args.embed, args.hidden) == (
        mc.cell_kind, mc.max_len, mc.embed_dim, mc.hidden_dim)
    assert args.threshold == ModelGraph(config=mc, params={}).threshold
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cell = next(a for a in sub.choices["train"]._actions if a.dest == "cell")
    assert cell.choices == sorted(CELLS)


def test_a_request_line_of_control_characters_logs_one_escaped_line(fixture_model_path, capsys):
    with serving(load_model(fixture_model_path)) as base:
        reply = raw_exchange(base, b"GET /\x1b[2Jx\rfake-line HTTP/1.0\r\n\r\n")
    assert reply.split()[1] == b"400"
    (line,) = capsys.readouterr().err.splitlines()
    assert "\\x1b[2Jx\\x0dfake-line" in line
    assert not re.search("[\x00-\x1f\x7f-\x9f]", line)


def test_a_path_with_a_newline_exits_1_with_one_stderr_line(tmp_path, capsys):
    code, out = run_cli(["eval", "--model", str(tmp_path / "a\nb"), "--data", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "a\\x0ab" in err, err


@pytest.fixture
def nan_model():
    model, _ = confusion_fixture()
    for tensor in model.params.values():
        tensor[...] = float("nan")
    return model


@pytest.mark.parametrize("command", [["predict", "--url", "a"], ["eval", "--data", "corpus.csv"]])
def test_a_model_of_nan_weights_exits_1_with_one_line(fixture_model_path, command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # save_model refuses NaN weights: write one into a saved file, CRC and all
    blob = Path(fixture_model_path).read_bytes()
    Path("nan.pdm").write_bytes(patch_payload(blob, 0, float("nan")))
    assert main(["synth", "--n", "20", "--out", "corpus.csv"]) == 0
    capsys.readouterr()
    code, out = run_cli([command[0], "--model", "nan.pdm", *command[1:]])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: nan.pdm: tensor ") and len(err.splitlines()) == 1, err


def test_a_nan_score_is_an_error_not_a_json_line(fixture_model_path, capsys, monkeypatch):
    code, out = run_cli(["predict", "--model", fixture_model_path, "--url", "a"])
    verdict, score = predict(load_model(fixture_model_path), "a", default_vocab())
    assert (code, out) == (0, json.dumps({"url": "a", "score": score, "verdict": verdict}) + "\n")
    monkeypatch.setattr(cli, "predict", lambda *args: ("legitimate", float("nan")))
    code, out = run_cli(["predict", "--model", fixture_model_path, "--url", "a"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_serve_answers_a_nan_score_with_500_and_keeps_serving(nan_model, capsys):
    with serving(nan_model) as base:
        for _ in range(2):
            r = requests.post(base + "/check", json={"url": "a"}, timeout=5)
            assert r.status_code == 500 and r.json() == {"error": "internal error"}
        assert requests.get(base + "/health", timeout=5).status_code == 200
    assert "Exception occurred during processing" not in capsys.readouterr().err
