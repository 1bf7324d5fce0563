"""`phishdefense serve` as an operator runs it: one process per usable CPU,
all accepting on one listening socket, and stopped as a whole.

Each test starts the CLI as a subprocess pinned to one or two CPUs with
sched_setaffinity, reads the worker pids from /proc, and kills whatever is
still running when it ends."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
import requests

from phishdefense.codec import default_vocab
from phishdefense.model import build_model, default_config, predict
from phishdefense.store import load_model, save_model

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="pins CPUs with sched_setaffinity and reads /proc")

SRC = Path(__file__).resolve().parents[1] / "src"
SERVING = re.compile(r"serving on 127\.0\.0\.1:(\d+) \((\d+) process(?:es)?\)")
two_cpus = pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                              reason="needs 2 usable CPUs")


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "gru.pdm"
    save_model(build_model(default_config("gru", seed=3, embed_dim=8, hidden_dim=16)), str(path))
    return str(path)


def gone(pid: int) -> bool:
    """Whether pid has exited: /proc no longer lists it, or lists an unreaped zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def children(pid: int) -> list:
    return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


@contextmanager
def serve(model_path, tmp_path, n_cpus):
    """A serve subprocess pinned to n_cpus CPUs, once it answers /health:
    yields (process, base URL, worker pids, the number of processes it logged)."""
    cpus = sorted(os.sched_getaffinity(0))[:n_cpus]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    log = tmp_path / "serve.err"
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "phishdefense.cli", "serve", "--model", model_path,
             "--bind", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not (m := SERVING.search(log.read_text(errors="replace"))):
            assert proc.poll() is None and time.monotonic() < deadline, log.read_text(errors="replace")
            time.sleep(0.05)
        base = f"http://127.0.0.1:{m[1]}"
        while requests.get(base + "/health", timeout=5).status_code != 200:
            time.sleep(0.05)
        # /health answered, so the supervisor has forked (it serves only after)
        # or a worker already serves
        workers = children(proc.pid)
        yield proc, base, workers, int(m[2])
        assert "Traceback" not in log.read_text(errors="replace")
    finally:
        for pid in [proc.pid, *workers]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait(timeout=10)


@two_cpus
def test_two_cpus_serve_in_two_processes_with_in_process_scores(model_path, tmp_path):
    model, vocab = load_model(model_path), default_vocab()
    urls = [[f"http://site{c}{k}.example/login?n={k}" for k in range(20)] for c in range(2)]
    replies = [[], []]

    def client(c):
        for url in urls[c]:
            r = requests.post(base + "/check", json={"url": url}, timeout=10)
            replies[c].append((r.status_code, r.json()))

    with serve(model_path, tmp_path, 2) as (proc, base, workers, processes):
        assert processes == 2 and len(workers) == 1
        threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    for c in range(2):
        assert len(replies[c]) == 20
        for url, (status, body) in zip(urls[c], replies[c]):
            verdict, score = predict(model, url, vocab)
            assert status == 200
            assert body == {"url": url, "score": score, "verdict": verdict}  # bit for bit


@two_cpus
def test_the_worker_accepts_while_the_supervisor_is_stopped(model_path, tmp_path):
    with serve(model_path, tmp_path, 2) as (proc, base, workers, _):
        os.kill(proc.pid, signal.SIGSTOP)
        try:
            for _ in range(5):
                assert requests.post(base + "/check", json={"url": "a"}, timeout=5).status_code == 200
        finally:
            os.kill(proc.pid, signal.SIGCONT)


@two_cpus
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_stop_signal_ends_every_process_with_exit_0(model_path, tmp_path, sig):
    with serve(model_path, tmp_path, 2) as (proc, base, workers, _):
        assert len(workers) == 1
        proc.send_signal(sig)
        assert proc.wait(timeout=10) == 0
        assert gone(workers[0])


@two_cpus
def test_a_killed_supervisor_leaves_no_worker_behind(model_path, tmp_path):
    with serve(model_path, tmp_path, 2) as (proc, base, workers, _):
        assert len(workers) == 1
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2
        while not gone(workers[0]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert gone(workers[0])


def test_one_cpu_serves_in_one_process(model_path, tmp_path):
    with serve(model_path, tmp_path, 1) as (proc, base, workers, processes):
        assert processes == 1 and workers == []
        r = requests.post(base + "/check", json={"url": "a"}, timeout=5)
        assert r.status_code == 200 and set(r.json()) == {"url", "score", "verdict"}
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
