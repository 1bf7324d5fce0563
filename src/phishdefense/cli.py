"""Operator surface: train / eval / predict / bench / synth / serve.

stdout carries machine-parseable JSON only; diagnostics go to stderr.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import selectors
import signal
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, HTTPServer

from .codec import MAX_LEN, Vocab, default_vocab
from .data import CSV_COLUMNS, load_csv, split, text_lines
from .errors import ModelFormatError, NumericError, PhishDefenseError
from .layers import CELLS
from .model import ModelConfig, ModelGraph, default_config, build_model, predict
from .store import atomic_write, load_model, save_model
from .train import (
    MIN_CORPUS,
    MIN_LR,
    SPLIT_RATIO,
    TrainConfig,
    bench_inference,
    evaluate,
    make_synthetic_corpus,
    train,
)

MAX_REQUEST_BODY = 16 * 1024
# seconds a serve connection may go without a byte from or to its client (a
# request line that never comes, a body shorter than its Content-Length, a
# reply the client does not read) before it is closed without a reply
REQUEST_TIMEOUT_S = 10.0
_RECV_BYTES = 65536
LATENCY_SAMPLE = 50  # URLs eval times single-URL predict on
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)
# C0 and C1 control characters and DEL, written as \xNN
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}


class _Incomplete(Exception):
    """The handler read past the bytes its client has sent so far."""


class _Connection:
    """A client's connection, in the shape of the socket a
    StreamRequestHandler writes and of the file it reads. The handler reads
    the bytes received so far from `pos`, and its reply collects in `reply`,
    so it never waits on the client; the loop then writes the reply as it
    drains. A read past those bytes, while the client may still send, keeps
    in `wants` what it waited for and raises _Incomplete; once the client has
    finished sending (`eof`), reads return short, as io.BytesIO does."""

    def __init__(self, sock, address):
        self.sock, self.address = sock, address
        self.data = bytearray()
        self.reads = {}  # the handler's reads of data, by (start, end)
        # what the handler's last read waited for: data up to end, or with
        # line, a line break; before the handler has run, any byte
        self.wants = 1, False
        self.eof, self.pos = False, 0
        self.reply = bytearray()
        self.deadline = 0.0

    def makefile(self, mode, buffering=-1):  # the handler's reading file; its writer calls sendall
        return self

    def readline(self, limit):
        end = self.data.find(b"\n", self.pos) + 1 or sys.maxsize
        if limit < end - self.pos:
            end = self.pos + limit
        return self._take(end, line=True)

    def read(self, size):
        return self._take(self.pos + size, line=False)

    def _take(self, end: int, line: bool) -> bytes:
        if end > len(self.data) and not self.eof:
            self.wants = end, line
            raise _Incomplete
        # data only grows, so what an earlier run read is kept, not copied again
        chunk = self.reads.get((self.pos, end))
        if chunk is None:
            chunk = self.reads[self.pos, end] = bytes(self.data[self.pos:end])
        self.pos += len(chunk)
        return chunk

    def sendall(self, data):
        self.reply += data

    def close(self):  # the loop closes the socket
        pass


class _Server(HTTPServer):
    """Serves every connection from one selector loop: it runs the handler
    on a connection's bytes whenever they hold what its last read waited
    for, until a run reads all it needs, and writes the reply without
    blocking, so an idle or slow client costs a file descriptor, not a
    thread. Scoring runs inline in the loop."""

    # socketserver's listen backlog of 5 drops most connects of a burst
    request_queue_size = 128
    supervisor = None  # in a forked worker, the pid of the process that forked it

    def __init__(self, server_address, RequestHandlerClass):
        super().__init__(server_address, RequestHandlerClass)
        self._stopping = False
        self._stopped = threading.Event()

    def server_activate(self):
        super().server_activate()
        # every serving process polls this socket: a connect wakes them all
        # and the first to accept takes it, so the others' accept must not wait
        self.socket.setblocking(False)

    def service_actions(self):
        # a worker whose supervisor is gone (killed, say) stops serving, so
        # nothing is left holding the port
        if self.supervisor is not None and os.getppid() != self.supervisor:
            os._exit(0)

    def serve_forever(self, poll_interval=0.5):
        self._stopped.clear()
        # open connections in the order of their deadlines: each deadline is
        # REQUEST_TIMEOUT_S after the connection's last byte
        self._open = {}
        try:
            with selectors.DefaultSelector() as self._selector:
                self._listen()
                while not self._stopping:
                    paused = self.socket not in self._selector.get_map()
                    timeout = poll_interval
                    if self._open:
                        timeout = min(timeout, max(next(iter(self._open)).deadline - time.monotonic(), 0.0))
                    for key, events in self._selector.select(timeout):
                        conn = key.data
                        if conn is None:
                            self._accept()
                        elif events & selectors.EVENT_WRITE:
                            self._write(conn)
                        else:
                            self._read(conn)
                    now = time.monotonic()
                    while self._open and (conn := next(iter(self._open))).deadline <= now:
                        _log(f"{conn.address[0]} - connection timed out: no byte for {REQUEST_TIMEOUT_S:g} s")
                        self._close(conn)
                    if paused and not self._open:  # out of descriptors with none to free: retry after a poll
                        self._listen()
                    self.service_actions()
        finally:
            for conn in self._open:
                conn.sock.close()
            self._stopping = False
            self._stopped.set()

    def shutdown(self):
        self._stopping = True
        self._stopped.wait()

    def _touch(self, conn) -> None:
        self._open.pop(conn, None)
        self._open[conn] = None
        conn.deadline = time.monotonic() + REQUEST_TIMEOUT_S

    def _close(self, conn) -> None:
        self._selector.unregister(conn.sock)
        del self._open[conn]
        self.shutdown_request(conn.sock)
        self._listen()

    def _listen(self) -> None:
        """Poll the listening socket, unless it is polled already."""
        if self.socket not in self._selector.get_map():
            self._selector.register(self.socket, selectors.EVENT_READ)

    def _lost(self, conn, error: OSError) -> None:
        _log(f"{conn.address[0]} - connection lost: {error!r}")
        self._close(conn)

    def _accept(self) -> None:
        try:
            sock, address = self.socket.accept()
        except OSError as e:  # another process took it, or its client gave up
            if e.errno in (errno.EMFILE, errno.ENFILE):
                # the connection stays queued and the socket readable: poll it
                # again once a connection closes and frees a descriptor
                _log(f"serve: cannot accept a connection: {e}; accepting again once one closes")
                self._selector.unregister(self.socket)
            return
        sock.setblocking(False)
        conn = _Connection(sock, address)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._touch(conn)
        self._read(conn)  # the request often arrives with the connect

    def _read(self, conn) -> None:
        had = len(conn.data)
        while True:
            try:
                chunk = conn.sock.recv(_RECV_BYTES)
            except BlockingIOError:  # what the handler waits for has not arrived
                if len(conn.data) > had:
                    self._touch(conn)
                return
            except OSError as e:
                self._lost(conn, e)
                return
            conn.data += chunk
            end, line = conn.wants
            if chunk and len(conn.data) < end and not (line and b"\n" in chunk):
                continue
            # the handler's reads are met, or the client has finished sending
            conn.eof, conn.pos, conn.reply = not chunk, 0, bytearray()
            try:
                self.finish_request(conn, conn.address)
            except _Incomplete:
                continue
            except Exception:
                self.handle_error(conn.sock, conn.address)
                self._close(conn)
                return
            self._write(conn)
            return

    def _write(self, conn) -> None:
        left = len(conn.reply)
        try:
            while conn.reply:
                del conn.reply[:conn.sock.send(conn.reply)]
        except BlockingIOError:  # the client's window is full: wait for it to read
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            if len(conn.reply) < left:
                self._touch(conn)
            return
        except OSError as e:
            self._lost(conn, e)
            return
        self._close(conn)


def _log(msg: str) -> None:
    """One stderr line, written at once (serve's processes share stderr),
    with every control character escaped: a client's request line cannot
    move the operator's cursor, nor a path split the line."""
    sys.stderr.write(msg.translate(_CONTROL_ESCAPES) + "\n")


def _json(payload: dict) -> str:
    """payload as JSON text; RFC 8259 has no NaN or Infinity, so a
    non-finite number is an error, not a line a strict parser rejects."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError:
        raise NumericError("the output holds a number that is not finite") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one stderr line and exit 2
        self.exit(2, f"{self.prog}: error: {message}\n")


def _in_range(kind, low, high=float("inf")):
    """argparse type: a kind(text) value in [low, high] (NaN is not)."""
    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low:g}, {high:g}], got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _path(text: str) -> str:
    """argparse type: a file system path, which cannot hold a NUL (the
    operating system's calls take none)."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot hold a NUL character")
    return text


def _address(text: str):
    """argparse type: HOST:PORT as (host, port); an empty host is 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not (port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with a port in 0..65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="phishdefense")
    probability = _in_range(float, 0.0, 1.0)
    positive = _in_range(int, 1)
    # argparse converts a string default only when its flag is absent, so a
    # bad PD_SEED is a usage error unless --seed is given; numpy seeds are >= 0
    seed = {"type": _in_range(int, 0), "default": os.environ.get("PD_SEED", str(TrainConfig.seed))}
    sub = ap.add_subparsers(dest="subcommand", required=True)

    scored = argparse.ArgumentParser(add_help=False)  # a model that answers at a threshold
    scored.add_argument("--model", type=_path, required=True)
    scored.add_argument("--threshold", type=probability,
                        help="phishing above this score (default: the model's own)")

    p = sub.add_parser("train", help="train a model on a CSV or synthetic corpus")
    p.set_defaults(run=cmd_train)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=_path, help="url,label CSV path")
    source.add_argument("--synthetic", type=_in_range(int, MIN_CORPUS),
                        help="generate a synthetic corpus of N URLs")
    p.add_argument("--epochs", type=_in_range(int, 0), default=TrainConfig.epochs)
    p.add_argument("--batch", type=positive, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=_in_range(float, MIN_LR), default=TrainConfig.initial_lr)
    p.add_argument("--threshold", type=probability, default=ModelGraph.threshold)
    p.add_argument("--out", type=_path, required=True, help="output model path (.pdm)")
    p.add_argument("--history", type=_path, help="history JSONL path (default: <out>.history.jsonl)")
    p.add_argument("--workdir", type=_path, help="checkpoint directory; a rerun resumes the run it holds")
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--stratify", action="store_true")
    p.add_argument("--cell", choices=sorted(CELLS), default=ModelConfig.cell_kind)
    p.add_argument("--max-len", type=_in_range(int, 1, MAX_LEN), default=ModelConfig.max_len)
    p.add_argument("--embed", type=positive, default=ModelConfig.embed_dim)
    p.add_argument("--hidden", type=positive, default=ModelConfig.hidden_dim)
    p.add_argument("--seed", **seed)

    p = sub.add_parser("eval", parents=[scored], help="evaluate a model on a labeled CSV")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--data", type=_path, required=True)

    p = sub.add_parser("predict", parents=[scored], help="score one URL or a stream of URLs")
    p.set_defaults(run=cmd_predict)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--url")
    source.add_argument("--stdin", action="store_true", help="score each line of stdin")

    p = sub.add_parser("bench", help="single-URL latency statistics")
    p.set_defaults(run=cmd_bench)
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--urls", type=_path, help="file with one URL per line (default: built-in sample)")
    p.add_argument("--reps", type=positive, default=100)

    p = sub.add_parser("synth", help="write a synthetic corpus CSV")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--n", type=_in_range(int, MIN_CORPUS), required=True)
    p.add_argument("--fraction", type=probability, default=0.5)
    p.add_argument("--seed", **seed)
    p.add_argument("--out", type=_path, required=True)

    p = sub.add_parser("serve", parents=[scored], help="HTTP scoring endpoint")
    p.set_defaults(run=cmd_serve)
    p.add_argument("--bind", type=_address, default="127.0.0.1:8080")
    return ap


def _scored_model(path: str, threshold: float | None = None) -> ModelGraph:
    """The model at path, answering at threshold when one is given; refused
    unless its embedding has a row for every id the URL codec gives (and,
    by load_model, unless every weight is finite)."""
    model = load_model(path)
    have, need = model.config.vocab_size, default_vocab().size
    if have < need:
        raise ModelFormatError(f"{path}: vocabulary of {have} ids, the URL codec needs {need}")
    if threshold is not None:
        model.threshold = threshold
    return model


def _answer(model: ModelGraph, url: str, vocab: Vocab) -> dict:
    """The JSON record `predict` prints and `serve` replies for one URL."""
    verdict, score = predict(model, url, vocab)
    return {"url": url, "score": score, "verdict": verdict}


def cmd_train(args) -> int:
    if args.synthetic is not None:
        ds = make_synthetic_corpus(args.synthetic, 0.5, args.seed)
    else:
        ds = load_csv(args.data, dedup=args.dedup)
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        initial_lr=args.lr,
        seed=args.seed,
    )
    pair = split(ds, SPLIT_RATIO, args.seed, stratify=args.stratify)
    model = build_model(
        default_config(
            args.cell,
            max_len=args.max_len,
            embed_dim=args.embed,
            hidden_dim=args.hidden,
            seed=args.seed,
        )
    )
    model.threshold = args.threshold
    history_path = args.history or args.out + ".history.jsonl"
    best, history = train(
        model,
        pair,
        cfg,
        checkpoint_dir=args.workdir,
        history_path=history_path,
        log=_log,
    )
    save_model(best, args.out)
    # latency is measured by `bench`, not here: the metrics JSON must be
    # byte-identical across reruns with the same flags
    report = evaluate(best, pair.test)
    out = report.to_dict()
    out["epochs_run"] = len(history)
    out["model_path"] = args.out
    print(_json(out))
    return 0


def cmd_eval(args) -> int:
    model = _scored_model(args.model, args.threshold)
    ds = load_csv(args.data)
    report = evaluate(model, ds)
    urls = [url for url, _ in ds.records[:LATENCY_SAMPLE]]
    report.mean_inference_seconds = bench_inference(model, urls, len(urls))["mean"]
    print(_json(report.to_dict()))
    return 0


def cmd_predict(args) -> int:
    model = _scored_model(args.model, args.threshold)
    vocab = default_vocab()
    if args.stdin and hasattr(sys.stdin, "reconfigure"):  # a text stream without it is decoded already
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    urls = (line.rstrip("\r\n") for line in text_lines(sys.stdin, "<stdin>")) if args.stdin else [args.url]
    for url in urls:
        print(_json(_answer(model, url, vocab)))
    return 0


_SAMPLE_URLS = [
    "https://www.example.com/index",
    "http://login-secure-update.example.net/account",
    "https://news.site.org/articles/today",
]


def cmd_bench(args) -> int:
    model = _scored_model(args.model)
    if args.urls:
        with open(args.urls, encoding="utf-8") as fh:
            urls = [line.strip() for line in text_lines(fh, args.urls) if line.strip()]
        if not urls:
            _log(f"bench: no URLs in {args.urls}")
            return 2
    else:
        urls = _SAMPLE_URLS
    stats = bench_inference(model, urls, args.reps)
    print(_json(stats))
    return 0


def cmd_synth(args) -> int:
    ds = make_synthetic_corpus(args.n, args.fraction, args.seed)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(ds.records)
    with atomic_write(args.out) as fh:
        fh.write(text.getvalue().encode("utf-8"))
    print(_json({"written": len(ds), "path": args.out}))
    return 0


def make_handler(model: ModelGraph):
    vocab = default_vocab()

    class Handler(BaseHTTPRequestHandler):
        # a request line without a version is answered as HTTP/1.0, not 0.9:
        # every reply carries its status line and headers
        default_request_version = "HTTP/1.0"

        def log_message(self, fmt, *args):  # route access logs to stderr
            _log("%s - %s" % (self.address_string(), fmt % args))

        def _reply(self, code: int, text: str) -> None:
            body = text.encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def send_error(self, code, message=None, explain=None):
            """Every error reply, the handler's own and http.server's (414,
            431, 501, 505, ...), is {"error": message} JSON."""
            self._reply(code, _json({"error": message or self.responses[code][0]}))

        def do_GET(self):
            if self.path == "/health":
                self._reply(200, _json({"status": "ok", "model_loaded": True}))
            else:
                self.send_error(404, "not found")

        def parse_request(self):
            # then a POST's body, whatever its path, unless do_POST answers
            # its Content-Length 400 or 413 without reading a body
            if not super().parse_request():
                return False
            # Content-Length is 1*DIGIT in one field (RFC 9110 8.6), or -1
            value = ", ".join(self.headers.get_all("Content-Length", ["0"])).strip()
            try:
                self.length = int(value) if value.isascii() and value.isdigit() else -1
            except ValueError:  # more digits than int() converts
                self.length = -1
            post = self.command == "POST" and 0 <= self.length <= MAX_REQUEST_BODY
            self.body = self.rfile.read(self.length) if post else b""
            return True

        def do_POST(self):
            if self.path != "/check":
                self.send_error(404, "not found")
                return
            if self.length < 0:  # reply without reading a body of unknown size
                self.send_error(400, "bad request: invalid Content-Length")
                return
            if self.length > MAX_REQUEST_BODY:
                self.send_error(413, "request body too large")
                return
            try:
                payload = json.loads(self.body)
                url = payload["url"]
                if not isinstance(url, str):
                    raise TypeError("url must be a string")
            except (ValueError, KeyError, TypeError, RecursionError) as e:
                # RecursionError: json nests deeper than the parser's stack
                self.send_error(400, f"bad request: {e}")
                return
            try:
                body = _json(_answer(model, url, vocab))
            except Exception:  # the server keeps running; the client gets a JSON reply
                sys.stderr.write(traceback.format_exc())
                self.send_error(500, "internal error")
                return
            self._reply(200, body)

    return Handler


def _process_count() -> int:
    """One serving process per CPU this process may run on (`taskset` sets
    them); one where the platform cannot fork or tell them."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _fork_workers(server: _Server, n: int, pids: list) -> None:
    """Fork n processes that serve on server's socket too, adding each pid
    to pids as it starts."""
    sys.stdout.flush()  # or a buffered line would be written once per process
    sys.stderr.flush()
    supervisor = os.getpid()
    signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)  # a stop waits until every pid is listed
    try:
        for _ in range(n):
            pid = os.fork()
            if pid == 0:
                _work(server, supervisor)
            pids.append(pid)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)


def _work(server: _Server, supervisor: int) -> None:
    """A forked worker's life: serve until a stop signal or until the
    supervisor is gone. It leaves through os._exit, never returning into the
    code that forked it, so only the supervisor runs exit handlers."""
    try:
        for sig in STOP_SIGNALS:
            signal.signal(sig, lambda *_: os._exit(0))
        server.supervisor = supervisor
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
        server.serve_forever()
    except BaseException:
        sys.stderr.write(traceback.format_exc())
    finally:
        os._exit(1)


def cmd_serve(args) -> int:
    model = _scored_model(args.model, args.threshold)
    host, port = args.bind
    try:
        server = _Server((host, port), make_handler(model))
    except OSError as e:
        _log(f"serve: cannot bind {host}:{port}: {e}")
        return 1
    processes = _process_count()
    _log(f"serving on {host}:{server.server_address[1]} ({processes} process{'es' * (processes > 1)})")
    workers = []
    try:
        for sig in STOP_SIGNALS:  # SIGTERM stops serve the way SIGINT does
            signal.signal(sig, signal.default_int_handler)
        if processes > 1:  # before any thread starts or any request is scored
            _fork_workers(server, processes - 1, workers)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGINT)
        for pid in workers:
            os.waitpid(pid, 0)
        server.server_close()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except PhishDefenseError as e:
        _log(f"error: {e}")
        return 1
    except OSError as e:
        _log(f"i/o error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
